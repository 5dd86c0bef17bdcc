"""Write BENCH_<n>.json files from the benchmark in perfbench/.

Run from the root of a source checkout, or point --root at one:

    python3 scripts/bench_snapshot.py --number 8
    python3 scripts/bench_snapshot.py --number 7 --root ../parent

Give several --number/--root pairs to measure checkouts side by side:

    python3 scripts/bench_snapshot.py --number 11 --root ../parent \
        --number 12 --root ../change

For each of the three workloads it runs ``perfbench/run.py --trace 0`` once
per seed in ``SEEDS`` and ``--trace 1`` once with the first seed, each in
each checkout and for perfbench's default run length, and reads the result
files the runs leave in ``.perfbench_work/results/``.  With several
checkouts, each (workload, seed, trace) run goes to every checkout in turn,
in reversed order on every other run, so that a drift of the machine's
speed falls on all of them alike instead of reading as a change.  It writes
one ``BENCH_<n>.json`` per checkout to the current directory.  A snapshot
holds, per workload, the median over the seeds of each end-to-end metric
(each run reports its median over passes), the per-command medians of
``main_s`` and peak RSS, the per-layer metrics of the traced run, operation
counts, the environment (with whether Python writes bytecode files) and
the line count of every ``src/lenrepro/*.py`` file and of every
``tests/*.py`` file (as ``wc -l`` counts them), so that code moved from the
one into the other shows.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("cohort", "fit", "curves")
SEEDS = (1, 2, 3)


def run(root: Path, workload: str, seed: int, trace: int) -> dict:
    """One benchmark run in ``root``; returns its result record."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--trace", str(trace)]
    subprocess.run(argv, cwd=root, check=True, stdout=subprocess.DEVNULL)
    out = root / ".perfbench_work" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(out.read_text(encoding="utf-8"))


def per_command(records: list) -> dict:
    """Median ``main_s`` and peak RSS of each CLI command over all passes."""
    by_name = {}
    for record in records:
        for cmd in record["commands"]:
            if cmd["rc"] == 0 and cmd["name"] != "warmup":
                by_name.setdefault(cmd["name"], []).append(cmd)
    return {name: {"main_s": statistics.median(c["main_s"] for c in cmds),
                   "maxrss_mb": statistics.median(c["maxrss_kb"] / 1024 for c in cmds),
                   "n": len(cmds)}
            for name, cmds in by_name.items()}


def workload_snapshots(roots: list, workload: str) -> list:
    """The snapshot of ``workload`` in each of ``roots``, from runs that
    alternate between them."""
    records = [[] for _ in roots]
    steps = [(seed, 0) for seed in SEEDS] + [(SEEDS[0], 1)]
    for step, (seed, trace) in enumerate(steps):
        order = list(enumerate(roots))
        for j, root in order if step % 2 == 0 else order[::-1]:
            records[j].append(run(root, workload, seed, trace))
    return [workload_snapshot(r[:-1], r[-1]) for r in records]


def workload_snapshot(runs: list, traced: dict) -> dict:
    end_to_end = {
        name: {"median": statistics.median(r["metrics"][name] for r in runs),
               "per_seed": {str(r["seed"]): r["metrics"][name] for r in runs},
               "passes": [r["summary"][name]["n"] for r in runs]}
        for name in runs[0]["metrics"]
    }
    return {"seconds": runs[0]["seconds"],
            "end_to_end": end_to_end,
            "commands": per_command(runs),
            "per_layer": traced["metrics"],
            "attempted": sum(r["attempted"] for r in runs + [traced]),
            "failed": sum(r["failed"] for r in runs + [traced]),
            "failed_checks": [c["name"] for r in runs + [traced]
                              for c in r["checks"] if not c["ok"]]}


def uncommitted_changes(root: Path) -> bool | None:
    """Whether tracked files differ from ``git_commit``, the commit the
    snapshot names; None outside a git checkout."""
    try:
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=root, capture_output=True, text=True)
    except OSError:
        return None
    return bool(status.stdout.strip()) if status.returncode == 0 else None


def line_counts(directory: Path) -> dict:
    """The line count of each ``*.py`` file in ``directory``, and their total."""
    files = sorted(directory.glob("*.py"))
    lines = {f.name: f.read_bytes().count(b"\n") for f in files}
    return {**lines, "total": sum(lines.values())}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--number", type=int, action="append", required=True,
                   help="n of BENCH_<n>.json; repeat it with --root for each checkout")
    p.add_argument("--root", type=Path, action="append",
                   help="source checkout to measure (default: this one)")
    args = p.parse_args(argv)
    roots = [r.resolve() for r in args.root or [Path(__file__).resolve().parent.parent]]
    if len(roots) != len(args.number):
        p.error("give one --root for each --number")
    if len(set(roots)) != len(roots) or len(set(args.number)) != len(args.number):
        p.error("each --number and each --root may be given only once")

    by_workload = {w: workload_snapshots(roots, w) for w in WORKLOADS}
    for j, (number, root) in enumerate(zip(args.number, roots)):
        env = json.loads((root / ".perfbench_work" / "results"
                          / f"cohort-seed{SEEDS[0]}-trace0.json").read_text(encoding="utf-8"))["env"]
        env.pop("seed", None)
        env["uncommitted_changes"] = uncommitted_changes(root)
        # the runs' CLI processes inherit the flag; when it is set, each one
        # compiles lenrepro from source, and setup_s holds that time
        env["dont_write_bytecode"] = bool(sys.flags.dont_write_bytecode)
        snapshot = {"number": number, "seeds": list(SEEDS),
                    "command": "python3 perfbench/run.py --workload W --seed S --trace T",
                    "env": env, "src_lines": line_counts(root / "src" / "lenrepro"),
                    "tests_lines": line_counts(root / "tests"),
                    "workloads": {w: snaps[j] for w, snaps in by_workload.items()}}
        out = Path(f"BENCH_{number}.json")
        out.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

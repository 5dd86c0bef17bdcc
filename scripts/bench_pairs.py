"""Compare two checkouts with alternating pairs of benchmark runs.

Run from anywhere, naming the two source checkouts:

    python3 scripts/bench_pairs.py --parent ../parent --change . \
        --workload cohort --pairs 10

Pair k runs ``perfbench/run.py --workload W --seed S+k --trace 0`` once in
each checkout, the parent first in even pairs and the change first in odd
ones, so that a drift of the machine's speed falls on both sides alike.
Without ``--workload``, the three workloads run in turn.  For every
end-to-end metric the runs report, it prints each side's median and
quartiles over the pairs, how many pairs the change won (ties count for
neither side), whether a gain may be claimed (the change wins at least nine
tenths of the pairs and the medians differ by more than the parent's
interquartile range) and whether the change's median is worse than the
parent's by more than the metric's bound in ``BENCHMARK.json``, a fraction
of the parent's median.  Each command of the workload adds two rows with no
bound: its median peak RSS and its median time in ``main`` within each run,
over the commands that exited 0, the ``--help`` warm-up left out.  After
each workload's rows, one line holds its summary as one JSON object.

With ``--number PARENT_N CHANGE_N``, each workload gets one more
alternating pair of ``--trace 1`` runs at the first seed, and
``BENCH_<PARENT_N>.json`` and ``BENCH_<CHANGE_N>.json`` are written to the
current directory from the same runs.  A BENCH file holds, per workload, the
median over the pair seeds of each end-to-end metric (each run reports its
median over passes), the per-command medians of ``main_s`` and peak RSS
over all passes, the per-layer metrics of the traced run, operation counts,
the environment (with whether Python writes bytecode files) and the line
count of every ``src/lenrepro/*.py`` and ``tests/*.py`` file (as ``wc -l``
counts them), so that code moved from the one into the other shows.

With ``--control`` in place of ``--change``, the parent is copied to a
sibling path of the same length and run against that copy, with the same
summary.  The two sides run the same code, so what this A/A control reads
is the floor that placement and drift set, to read a claimed gain against.
The copy is removed afterwards.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import string
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("cohort", "fit", "curves")


def run(root: Path, workload: str, seed: int, seconds: float | None, trace: int) -> dict:
    """One benchmark run in ``root``; returns its result record."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--trace", str(trace)]
    if seconds is not None:
        argv += ["--seconds", str(seconds)]
    subprocess.run(argv, cwd=root, check=True, stdout=subprocess.DEVNULL)
    out = root / ".perfbench_work" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(out.read_text(encoding="utf-8"))


def per_command(records: list) -> dict:
    """Each command's median ``main_s`` and peak RSS over the commands of
    ``records`` that exited 0, the ``--help`` warm-up left out."""
    by_name = {}
    for record in records:
        for cmd in record["commands"]:
            if cmd["rc"] == 0 and cmd["name"] != "warmup":
                by_name.setdefault(cmd["name"], []).append(cmd)
    return {name: {"main_s": statistics.median(c["main_s"] for c in cmds),
                   "maxrss_mb": statistics.median(c["maxrss_kb"] / 1024 for c in cmds),
                   "n": len(cmds)}
            for name, cmds in by_name.items()}


def verdict_rows(record: dict) -> dict:
    """The end-to-end metrics of one ``--trace 0`` run, with each command's
    ``<name>.maxrss_mb`` and ``<name>.main_s``, so that the pairs show which
    command sets a workload's peak."""
    rows = {f"{name}.{key}": cmd[key] for name, cmd in per_command([record]).items()
            for key in ("maxrss_mb", "main_s")}
    return {**record["metrics"], **rows}


def pairs(parent: Path, change: Path, workload: str, steps: list,
          seconds: float | None) -> list:
    """A (parent record, change record) pair for each (seed, trace) step,
    the parent first in even steps and the change first in odd ones."""
    out = []
    for k, (seed, trace) in enumerate(steps):
        order = (parent, change) if k % 2 == 0 else (change, parent)
        records = {root: run(root, workload, seed, seconds, trace) for root in order}
        out.append((records[parent], records[change]))
    return out


def compare(results: list, better: str = "lower", bound: float | None = None) -> dict:
    """The summary of one metric over (parent, change) value pairs; a bound
    is a fraction of the parent's median."""
    parent, change = ([pair[j] for pair in results] for j in (0, 1))
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in results)
    losses = sum(sign * (p - c) < 0 for p, c in results)
    q_parent, q_change = statistics.quantiles(parent, n=4), statistics.quantiles(change, n=4)
    gain = sign * (statistics.median(parent) - statistics.median(change))
    iqr = q_parent[2] - q_parent[0]
    return {"parent": {"median": q_parent[1], "q1": q_parent[0], "q3": q_parent[2]},
            "change": {"median": q_change[1], "q1": q_change[0], "q3": q_change[2]},
            "pairs": len(results), "wins": wins, "losses": losses,
            "gain": gain, "parent_iqr": iqr,
            "gain_claimable": wins >= 0.9 * len(results) and gain > iqr,
            "worse_than_bound": None if bound is None else -gain > bound * q_parent[1],
            "values": {"parent": parent, "change": change}}


def report(workload: str, results: list, metrics: dict) -> dict:
    """Prints a verdict row for each metric of the ``--trace 0`` pairs in
    ``results``; returns the summaries."""
    rows = [(verdict_rows(b), verdict_rows(a)) for b, a in results]
    summary = {}
    for name in rows[0][0]:
        m = metrics.get(name, {})
        summary[name] = s = compare([(b[name], a[name]) for b, a in rows],
                                    m.get("better", "lower"), m.get("bound"))
        print(f"{workload} {name}: parent {s['parent']['median']:.4f} "
              f"[{s['parent']['q1']:.4f}-{s['parent']['q3']:.4f}] -> change "
              f"{s['change']['median']:.4f} [{s['change']['q1']:.4f}-{s['change']['q3']:.4f}], "
              f"change better in {s['wins']}/{s['pairs']} (worse in {s['losses']}), "
              f"gain {s['gain']:+.4f} vs parent IQR {s['parent_iqr']:.4f}: "
              f"gain {'claimable' if s['gain_claimable'] else 'not claimable'}"
              + ("" if s["worse_than_bound"] is None else
                 f", {'WORSE' if s['worse_than_bound'] else 'not worse'} than bound "
                 f"{m['bound']} of the parent's median"))
    return summary


def workload_snapshot(runs: list, traced: dict) -> dict:
    """One workload of a BENCH file, from one checkout's ``--trace 0`` runs
    and its traced run."""
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


def bench_file(number: int, root: Path, seeds: list, runs: dict) -> dict:
    """``BENCH_<number>.json`` of the checkout ``root``; ``runs`` maps each
    workload to its records, the traced one last."""
    env = dict(runs[WORKLOADS[0]][0]["env"])
    env.pop("seed", None)
    env["uncommitted_changes"] = uncommitted_changes(root)
    # the runs' CLI processes inherit the flag; when it is set, each one
    # compiles lenrepro from source, and setup_s holds that time
    env["dont_write_bytecode"] = bool(sys.flags.dont_write_bytecode)
    return {"number": number, "seeds": seeds,
            "command": "python3 perfbench/run.py --workload W --seed S --trace T",
            "env": env, "src_lines": line_counts(root / "src" / "lenrepro"),
            "tests_lines": line_counts(root / "tests"),
            "workloads": {w: workload_snapshot(r[:-1], r[-1]) for w, r in runs.items()}}


def uncommitted_changes(root: Path) -> bool | None:
    """Whether tracked files differ from ``git_commit``, the commit the
    BENCH file names; None outside a git checkout."""
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


def spec(root: Path) -> dict:
    """Each end-to-end metric's direction and bound from ``BENCHMARK.json``."""
    path = root / "BENCHMARK.json"
    if not path.exists():
        return {}
    return {m["name"]: m for m in json.loads(path.read_text(encoding="utf-8"))["end_to_end"]}


def control_copy(parent: Path) -> Path:
    """A copy of the checkout ``parent`` at a free sibling path of the same
    length, without the results of earlier benchmark runs."""
    for last in string.digits + string.ascii_lowercase:
        copy = parent.with_name(parent.name[:-1] + last)
        if not copy.exists():
            shutil.copytree(parent, copy, symlinks=True,
                            ignore=shutil.ignore_patterns(".perfbench_work"))
            return copy
    raise SystemExit(f"no free sibling path of the same length as {parent}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True, help="the parent's checkout")
    p.add_argument("--change", type=Path, help="the change's checkout")
    p.add_argument("--control", action="store_true",
                   help="run the parent against a copy of itself instead of a change")
    p.add_argument("--workload", choices=WORKLOADS,
                   help="a workload of perfbench/run.py (default: all three in turn)")
    p.add_argument("--pairs", type=int, default=10, help="pairs of runs (default: 10)")
    p.add_argument("--first-seed", type=int, default=1,
                   help="seed of the first pair; pair k runs seed first + k (default: 1)")
    p.add_argument("--seconds", type=float,
                   help="run length of each run (default: perfbench's own)")
    p.add_argument("--number", type=int, nargs=2, metavar=("PARENT_N", "CHANGE_N"),
                   help="add a traced pair and write BENCH_<PARENT_N>.json and "
                        "BENCH_<CHANGE_N>.json to the current directory")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2")
    if args.control == (args.change is not None):
        p.error("give one of --change and --control")
    parent = args.parent.resolve()
    if args.change is not None and args.change.resolve() == parent:
        p.error("--parent and --change must be different checkouts")
    if args.number and (args.control or args.workload or args.number[0] == args.number[1]):
        p.error("--number takes two different numbers, with --change and all three workloads")

    change = control_copy(parent) if args.control else args.change.resolve()
    metrics = spec(change)
    seeds = list(range(args.first_seed, args.first_seed + args.pairs))
    steps = [(seed, 0) for seed in seeds] + ([(args.first_seed, 1)] if args.number else [])
    runs = {}
    try:
        for workload in [args.workload] if args.workload else WORKLOADS:
            runs[workload] = results = pairs(parent, change, workload, steps, args.seconds)
            summary = report(workload, results[:args.pairs], metrics)
            print(json.dumps({"workload": workload, "first_seed": args.first_seed,
                              "control": args.control, "metrics": summary}, sort_keys=True),
                  flush=True)
    finally:
        if args.control:
            shutil.rmtree(change)
    for j, (number, root) in enumerate(zip(args.number or (), (parent, change))):
        bench = bench_file(number, root, seeds, {w: [r[j] for r in results]
                                                 for w, results in runs.items()})
        out = Path(f"BENCH_{number}.json")
        out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

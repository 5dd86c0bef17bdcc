"""Compare two checkouts with alternating pairs of benchmark runs.

Run from anywhere, naming the two source checkouts:

    python3 scripts/bench_pairs.py --parent ../parent --change . \
        --workload cohort --pairs 10

Pair k runs ``perfbench/run.py --workload W --seed S+k --trace 0`` once in
each checkout, the parent first in even pairs and the change first in odd
ones, so that a drift of the machine's speed falls on both sides alike.
For every end-to-end metric the runs report, it prints each side's median
and quartiles over the pairs, how many pairs the change won (ties count for
neither side), whether a gain may be claimed (the change wins at least nine
tenths of the pairs and the medians differ by more than the parent's
interquartile range) and whether the change's median is worse than the
parent's by more than the metric's bound in ``BENCHMARK.json``.  Each
command of the workload adds two rows with no bound: its median peak RSS
and its median time in ``main`` within each run.  The last line of output
is the same summary as one JSON object.

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


def run(root: Path, workload: str, seed: int, seconds: float | None) -> dict:
    """One ``--trace 0`` benchmark run in ``root``; returns its metrics and
    :func:`per_command` of its record."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        argv += ["--seconds", str(seconds)]
    subprocess.run(argv, cwd=root, check=True, stdout=subprocess.DEVNULL)
    out = root / ".perfbench_work" / "results" / f"{workload}-seed{seed}-trace0.json"
    record = json.loads(out.read_text(encoding="utf-8"))
    return {**record["metrics"], **per_command(record["commands"])}


def per_command(commands: list) -> dict:
    """Each command's median peak RSS (``<name>.maxrss_mb``) and time in
    ``main`` (``<name>.main_s``) over the commands of one run's record, so
    that the pairs show which command sets a workload's peak."""
    out = {}
    for name in dict.fromkeys(c["name"] for c in commands):
        done = [c for c in commands if c["name"] == name and "main_s" in c]
        if done:
            out[f"{name}.maxrss_mb"] = statistics.median(c["maxrss_kb"] / 1024 for c in done)
            out[f"{name}.main_s"] = statistics.median(c["main_s"] for c in done)
    return out


def pairs(parent: Path, change: Path, workload: str, n: int, first_seed: int,
          seconds: float | None) -> list:
    """``n`` (parent metrics, change metrics) pairs, alternating which runs
    first."""
    out = []
    for k in range(n):
        seed = first_seed + k
        if k % 2 == 0:
            before = run(parent, workload, seed, seconds)
            after = run(change, workload, seed, seconds)
        else:
            after = run(change, workload, seed, seconds)
            before = run(parent, workload, seed, seconds)
        out.append((before, after))
    return out


def compare(results: list, better: str = "lower", bound: float | None = None) -> dict:
    """The summary of one metric over (parent, change) value pairs."""
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
            "worse_than_bound": None if bound is None else -gain > bound,
            "values": {"parent": parent, "change": change}}


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
    p.add_argument("--workload", required=True, help="a workload of perfbench/run.py")
    p.add_argument("--pairs", type=int, default=10, help="pairs of runs (default: 10)")
    p.add_argument("--first-seed", type=int, default=1,
                   help="seed of the first pair; pair k runs seed first + k (default: 1)")
    p.add_argument("--seconds", type=float,
                   help="run length of each run (default: perfbench's own)")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2")
    if args.control == (args.change is not None):
        p.error("give one of --change and --control")
    parent = args.parent.resolve()
    if args.change is not None and args.change.resolve() == parent:
        p.error("--parent and --change must be different checkouts")

    change = control_copy(parent) if args.control else args.change.resolve()
    metrics = spec(change)
    try:
        results = pairs(parent, change, args.workload, args.pairs, args.first_seed,
                        args.seconds)
    finally:
        if args.control:
            shutil.rmtree(change)
    summary = {}
    for name in results[0][0]:
        m = metrics.get(name, {})
        summary[name] = s = compare([(b[name], a[name]) for b, a in results],
                                    m.get("better", "lower"), m.get("bound"))
        print(f"{args.workload} {name}: parent {s['parent']['median']:.4f} "
              f"[{s['parent']['q1']:.4f}-{s['parent']['q3']:.4f}] -> change "
              f"{s['change']['median']:.4f} [{s['change']['q1']:.4f}-{s['change']['q3']:.4f}], "
              f"change better in {s['wins']}/{s['pairs']} (worse in {s['losses']}), "
              f"gain {s['gain']:+.4f} vs parent IQR {s['parent_iqr']:.4f}: "
              f"gain {'claimable' if s['gain_claimable'] else 'not claimable'}"
              + ("" if s["worse_than_bound"] is None else
                 f", {'WORSE' if s['worse_than_bound'] else 'not worse'} than bound "
                 f"{m['bound']}"))
    print(json.dumps({"workload": args.workload, "first_seed": args.first_seed,
                      "control": args.control, "metrics": summary}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

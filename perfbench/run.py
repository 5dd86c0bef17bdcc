"""lenrepro benchmark: README CLI commands end to end, plus a traced replay.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cohort --seed 1 --seconds 36 --trace 0

``--trace 0`` runs the workload's README commands, each in a fresh Python
process, in a closed loop with one client, for about ``--seconds`` seconds
and reports the medians of the end-to-end metrics.  ``--trace 1`` runs the
commands once untraced, then replays the same calls in this process with a
span around each call into the package, and reports per-layer metrics.
Every command exit and every output check is one operation; a nonzero exit
or a failed check is a failed operation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(samples, checks, output digests, fitted values, spans, environment) is
written under ``.perfbench_work/results/``.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
WORK = ROOT / ".perfbench_work"

TRIALS_PER_SESSION = 66  # README schedule: 11 lengths x 6 reps, practice dropped
FIT_FLAGS = {
    "finite": ("--trials-per-stimulus", "6"),
    "asymptotic": ("--objective", "ri", "--motor-combination", "quadrature"),
}

# Time each child spends inside lenrepro.cli.main; the rest of its wall
# time (interpreter start, import, teardown) is set-up.
HARNESS = """\
import json, resource, sys, time
t0 = time.perf_counter()
from lenrepro.cli import main
t1 = time.perf_counter()
try:
    rc = main(sys.argv[1:])
except SystemExit as exc:
    rc = exc.code if isinstance(exc.code, int) else 1
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "main_s": t2 - t1, "rc": rc,
                  "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
sys.exit(rc)
"""

# Module -> metric prefix for the -X importtime attribution.
IMPORT_MODULES = {
    "lenrepro.model": "model",
    "lenrepro.records": "records",
    "lenrepro.simulate": "simulate",
    "lenrepro.stats": "stats",
    "lenrepro.analysis": "analysis",
    "lenrepro.fitting": "fitting",
    "lenrepro.cli": "cli",
}


def grid(lo: float, hi: float, step: float) -> list:
    """The inclusive grid the CLI builds from (min, max, step)."""
    n = int(math.floor((hi - lo) / step + 0.5)) + 1
    return [round(lo + step * k, 12) for k in range(n)]


@dataclass(frozen=True)
class Scale:
    """Workload sizes.  The defaults are the README commands; grids equal
    to the CLI defaults are not passed as flags."""

    cohort_participants: int = 400
    fit_participants: int = 25
    conditions: tuple = ("individual", "mechanical", "social")
    sigma_p_grid: tuple = (0.1, 5.0, 0.05)
    wf_grid: tuple = (0.0, 0.6, 0.005)
    ri_grid: tuple = (0.0, 0.9, 0.05)
    sigma_ps: tuple = (0.5, 1.5, 2.5, 3.5)

    def grid_flags(self, *names) -> list:
        flags = []
        for name in names:
            value = getattr(self, f"{name}_grid")
            if value != getattr(Scale, f"{name}_grid"):
                opt = "--" + name.replace("_", "-")
                flags += [f"{opt}-min", str(value[0]), f"{opt}-max", str(value[1]),
                          f"{opt}-step", str(value[2])]
        return flags


# ---------------------------------------------------------------- results

@dataclass
class Run:
    """Everything one benchmark run records."""

    workload: str
    seed: int
    dir: Path
    commands: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    fit_values: dict = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    @property
    def attempted(self) -> int:
        return len(self.commands) + len(self.checks)

    @property
    def failed(self) -> int:
        return (sum(c["rc"] != 0 for c in self.commands)
                + sum(not c["ok"] for c in self.checks))

    def digest(self, path: Path) -> None:
        self.digests[path.relative_to(self.dir).as_posix()] = (
            hashlib.sha256(path.read_bytes()).hexdigest()
        )


def child_env() -> dict:
    # a fixed hash seed removes one source of run-to-run timing spread
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")


def launch(run: Run, name: str, argv: list) -> dict:
    """Run one CLI command in a fresh interpreter and record it."""
    env = child_env()
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", HARNESS, *argv], cwd=ROOT,
                          env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    rec = {"name": name, "argv": argv, "wall_s": wall}
    rc = proc.returncode
    try:
        rec.update(json.loads(proc.stdout.strip().splitlines()[-1]))
    except (IndexError, json.JSONDecodeError):
        rc = rc or 1  # the harness never reported: count it as a failure
    rec["rc"] = rc
    if rc != 0:
        rec["stderr"] = proc.stderr[-2000:]
    run.commands.append(rec)
    return rec


def import_times() -> dict:
    """Cumulative first-import time of each package module, in seconds."""
    env = child_env()
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import lenrepro.cli"],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    out = {f"{prefix}.import_s": 0.0 for prefix in IMPORT_MODULES.values()}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)", line)
        if m and m.group(3) in IMPORT_MODULES:
            out[f"{IMPORT_MODULES[m.group(3)]}.import_s"] = int(m.group(2)) / 1e6
    return out


# -------------------------------------------------------------- workloads

def rows(path: Path) -> int:
    return path.read_bytes().count(b"\n") - 1


def on_grid(value: float, spec: tuple) -> bool:
    return any(abs(value - g) < 1e-6 for g in grid(*spec))


def simulate_argv(seed: int, participants: int, scale: Scale, out: Path) -> list:
    return ["simulate", "--seed", str(seed), "--participants", str(participants),
            "--conditions", ",".join(scale.conditions), "--out", str(out)]


def cohort_iteration(run: Run, d: Path, scale: Scale) -> list:
    trials, out = d / "trials.csv", d / "analysis_out"
    cmds = [launch(run, "simulate", simulate_argv(run.seed, scale.cohort_participants, scale, trials)),
            launch(run, "analyze", ["analyze", "--in", str(trials), "--out", str(out)])]
    n_cond = len(scale.conditions)
    sessions = scale.cohort_participants * n_cond
    expect = {trials: sessions * TRIALS_PER_SESSION,
              out / "per_participant.csv": sessions,
              out / "conditions.csv": n_cond}
    for path, n in expect.items():
        got = rows(path) if path.exists() else None
        run.check(f"cohort.rows.{path.name}", got == n, f"{got} rows, expected {n}")
    for path in (trials, *expect, out / "report.txt"):
        if path.exists():
            run.digest(path)
    return cmds


def parse_fit_report(text: str) -> dict:
    """Fitted values from fit_report.txt, read by label, not by layout."""
    free, _, equal = text.partition("## equal-wf constrained fit")
    num = r"(-?\d+(?:\.\d+)?(?:e[-+]?\d+)?|nan|inf)"
    sp = re.search(rf"shared_sigma_p_cm:\s*{num}", free)
    total = re.search(rf"total_residual:\s*{num}", free)
    wf = {m.group(1): float(m.group(2))
          for m in re.finditer(rf"^(\w+):\s*wf={num}", free, re.M)}
    eq = {k: re.search(rf"^{k}:\s*{num}", equal, re.M)
          for k in ("sigma_p_cm", "wf", "residual")}
    if not (sp and total and wf and all(eq.values())):
        raise ValueError("fit report lacks a fitted value")
    return {"sigma_p": float(sp.group(1)), "wf": wf,
            "total_residual": float(total.group(1)),
            "equal_wf": {k: float(m.group(1)) for k, m in eq.items()}}


def check_fit(run: Run, kind: str, out: Path, scale: Scale) -> None:
    report, resid = out / "fit_report.txt", out / "residuals.csv"
    try:
        fit = parse_fit_report(report.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        run.check(f"fit.{kind}.report", False, str(exc))
        fit = None
    if fit is not None:
        run.fit_values[kind] = {"sigma_p": fit["sigma_p"], "wf": fit["wf"]}
        eq = fit["equal_wf"]
        on = (on_grid(fit["sigma_p"], scale.sigma_p_grid)
              and on_grid(eq["sigma_p_cm"], scale.sigma_p_grid)
              and all(on_grid(w, scale.wf_grid) for w in (*fit["wf"].values(), eq["wf"])))
        run.check(f"fit.{kind}.on_grid", on, json.dumps(fit))
        run.check(f"fit.{kind}.nested", eq["residual"] >= fit["total_residual"],
                  f"equal-wf {eq['residual']} vs total {fit['total_residual']}")
    n = len(grid(*scale.sigma_p_grid))
    got = rows(resid) if resid.exists() else None
    run.check(f"fit.{kind}.residual_rows", got == n, f"{got} rows, expected {n}")
    for path in (report, resid):
        if path.exists():
            run.digest(path)


def fit_setup(run: Run, d: Path, scale: Scale) -> Path:
    """Untimed: simulate and analyze a README-size cohort for `fit` to read."""
    trials, out = d / "setup_trials.csv", d / "setup_analysis"
    launch(run, "setup.simulate", simulate_argv(run.seed, scale.fit_participants, scale, trials))
    launch(run, "setup.analyze", ["analyze", "--in", str(trials), "--out", str(out)])
    return out / "conditions.csv"


def fit_iteration(run: Run, d: Path, scale: Scale, conditions: Path) -> list:
    cmds = []
    for kind, flags in FIT_FLAGS.items():
        out = d / f"fit_{kind}"
        argv = ["fit", "--in", str(conditions), *flags,
                *scale.grid_flags("sigma_p", "wf"), "--out", str(out)]
        cmds.append(launch(run, f"fit_{kind}", argv))
        check_fit(run, kind, out, scale)
    return cmds


def curves_iteration(run: Run, d: Path, scale: Scale) -> list:
    out = d / "curves_out"
    argv = ["curves", "--sigma-p", ",".join(str(s) for s in scale.sigma_ps),
            *scale.grid_flags("wf", "ri"), "--out", str(out)]
    cmds = [launch(run, "curves", argv)]
    n_wf, n_ri = len(grid(*scale.wf_grid)), len(grid(*scale.ri_grid))
    curve_rows = len(scale.sigma_ps) * n_wf
    expect = {"error_curves.csv": curve_rows, "ri_curves.csv": curve_rows,
              "rmse_surface.csv": n_wf * n_ri}
    for name, n in expect.items():
        got = rows(out / name) if (out / name).exists() else None
        run.check(f"curves.rows.{name}", got == n, f"{got} rows, expected {n}")
        if got is not None:
            run.digest(out / name)
    surface = out / "rmse_surface.csv"
    if surface.exists():
        slices = {}
        for line in surface.read_text(encoding="utf-8").splitlines()[1:]:
            cells = line.split(",")
            wf, value = cells[0], cells[-1]
            if value:
                slices.setdefault(wf, []).append(float(value))
        bad = [wf for wf, v in slices.items() if min(v) != 1.0]
        run.check("curves.surface_slices_reach_1", not bad and bool(slices),
                  f"slices with min != 1: {bad[:5]}")
    return cmds


# ------------------------------------------------------------- statistics

def summarize(samples: list) -> dict:
    """Median, plus the highest percentile with at least ten samples
    beyond it (the 11th largest), with the sample count."""
    ordered = sorted(samples)
    n = len(ordered)
    tail = None
    if n >= 11:
        tail = {"percentile": 100.0 * (n - 10) / n, "value": ordered[n - 11]}
    return {"median": statistics.median(ordered), "n": n, "tail": tail}


# Every end-to-end metric a pass yields.  BENCHMARK.json gates all but
# run_s, whose run-to-run spread on a shared two-core machine exceeds the
# largest bound the benchmark may set; wall_s = setup_s + run_s carries it.
E2E_UNITS = {"setup_s": "s", "run_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}


def iteration_metrics(cmds: list) -> dict:
    done = [c for c in cmds if "main_s" in c]
    return {
        "setup_s": sum(c["wall_s"] - c["main_s"] for c in done),
        "run_s": sum(c["main_s"] for c in done),
        "wall_s": sum(c["wall_s"] for c in cmds),
        "peak_rss_mb": max((c["maxrss_kb"] / 1024 for c in done), default=0.0),
    }


def environment(seed: int) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "unknown"

    commit = ""
    if (ROOT / ".git").exists():  # a source checkout need not be a git repository
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True).stdout.strip()
        except OSError:
            pass
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(),
            "git_commit": commit or "unknown", "seed": seed}


# -------------------------------------------------------------------- runs

WORKLOADS = ("cohort", "fit", "curves")


def run_iteration(workload: str, run: Run, scale: Scale, fit_input) -> tuple:
    """One pass of the workload's commands into a fresh directory."""
    d = run.dir / "iteration"
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir()
    if workload == "cohort":
        return cohort_iteration(run, d, scale), d
    if workload == "fit":
        return fit_iteration(run, d, scale, fit_input), d
    return curves_iteration(run, d, scale), d


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: Scale = Scale(), work: Path = WORK) -> dict:
    """One benchmark run; returns the full results record."""
    d = work / workload
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    run = Run(workload, seed, d)
    # compile bytecode and warm the page cache; users do not pay this per call
    launch(run, "warmup", ["--help"])
    fit_input = fit_setup(run, d, scale) if workload == "fit" else None

    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "env": environment(seed)}
    if not trace:
        iterations = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            cmds, _ = run_iteration(workload, run, scale, fit_input)
            iterations.append(iteration_metrics(cmds))
            now = time.perf_counter()
            if now - start + (now - t0) > seconds:  # the next pass would overrun
                break
        record["samples"] = iterations
        record["summary"] = {k: summarize([it[k] for it in iterations])
                             for k in iterations[0]}
        metrics = {k: v["median"] for k, v in record["summary"].items()}
    else:
        if str(ROOT / "src") not in sys.path:
            sys.path.insert(0, str(ROOT / "src"))
        import replay

        cmds, cli_dir = run_iteration(workload, run, scale, fit_input)
        tracer, layers = replay.replay(workload, run, d, scale, fit_input, cli_dir)
        record["spans"] = tracer.spans
        metrics = dict.fromkeys(per_layer_names(), 0)  # layers this workload skips
        metrics.update(import_times())
        metrics.update({f"cli.{c['name']}_run_s": c.get("main_s", 0.0) for c in cmds})
        metrics.update(layers)
        untraced = sum(c.get("main_s", 0.0) for c in cmds)
        metrics["trace.overhead_s"] = tracer.total() - untraced
    record.update(attempted=run.attempted, failed=run.failed,
                  error_rate=run.failed / run.attempted, checks=run.checks,
                  commands=run.commands, digests=run.digests,
                  fit_values=run.fit_values, metrics=metrics)
    return record


def spec() -> dict:
    return json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))


def per_layer_names() -> list:
    return [m["name"] for m in spec()["per_layer"]]


def result_line(record: dict) -> dict:
    kind = "per_layer" if record["trace"] else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec()[kind]}
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {k: {"value": record["metrics"][k], "unit": u}
                        for k, u in units.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "lenrepro" / "cli.py").is_file():
        print(f"error: no lenrepro source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    line = result_line(record)
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    units = {m["name"]: m["unit"] for m in spec()["per_layer"]} if args.trace else E2E_UNITS
    for name, value in record["metrics"].items():
        extra = ""
        if "summary" in record:
            summary = record["summary"][name]
            extra = f"  (median of n={summary['n']}"
            if summary["tail"]:
                extra += f"; p{summary['tail']['percentile']:.1f} {summary['tail']['value']:.6g}"
            extra += ")"
        print(f"{name:40s} {value:.6g} {units[name]}{extra}")
    print(f"{'error_rate':40s} {record['error_rate']:.6g} ratio"
          f"  ({record['failed']}/{record['attempted']} operations failed)")
    for c in record["checks"]:
        if not c["ok"]:
            print(f"FAILED check {c['name']}: {c['detail']}")
    for c in record["commands"]:
        if c["rc"] != 0:
            print(f"FAILED command {c['name']} (exit {c['rc']}): {c.get('stderr', '')}")
    print(f"results: {out.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

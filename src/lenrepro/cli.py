"""Command-line entry point: schedule | simulate | analyze | fit | curves.

Option precedence: command-line flag > LENREPRO_<KEY> environment
variable > --config file (flat JSON key/value) > built-in default.
All floating output uses fixed 6-decimal formatting so reruns are
byte-identical.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

# Only `analyze` and `fit` use `analysis` and `fitting`, so those commands
# import them themselves and `schedule`, `simulate` and `curves` skip them.
from . import model, records, simulate

ENV_PREFIX = "LENREPRO_"
F = "{:.6f}".format


class _Resolver:
    """flag > env > config-file > default, recording the effective config."""

    def __init__(self, args, config_path):
        self.args = args
        self.file = {}
        if config_path:
            self.file = json.loads(Path(config_path).read_text(encoding="utf-8"))
        self.effective = {}

    def get(self, key, cast, default):
        flag = getattr(self.args, key, None)
        if flag is not None:
            value = flag
        else:
            env = os.environ.get(ENV_PREFIX + key.upper())
            if env is not None:
                value = cast(env)
            elif key in self.file:
                value = cast(self.file[key])
            else:
                value = default
        self.effective[key] = value
        return value

    def raw(self, key):
        return self.file.get(key)

    def dump(self, path):
        if path:
            Path(path).write_text(
                json.dumps(self.effective, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )


def _write_lines(path, lines):
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def _add_common(p):
    p.add_argument("--config", help="flat JSON key/value config file")
    p.add_argument("--dump-config", help="write the effective config as JSON")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output file or directory")


def _schedule_config(res) -> simulate.ScheduleConfig:
    return simulate.ScheduleConfig(
        num_lengths=res.get("num_lengths", int, 11),
        min_length=res.get("min_length", float, 6.0),
        step=res.get("step", float, 0.8),
        reps=res.get("reps", int, 6),
        practice=res.get("practice", int, 3),
        first_dot_range=(
            res.get("first_dot_min", float, 0.5),
            res.get("first_dot_max", float, 3.5),
        ),
        seed=res.get("seed", int, 0),
    )


def cmd_schedule(args) -> int:
    res = _Resolver(args, args.config)
    cfg = _schedule_config(res)
    out = res.get("out", str, "schedule.csv")
    res.dump(args.dump_config)
    trials = simulate.generate_schedule(cfg)
    lines = ["index,nominal_length_cm,first_dot_cm,is_practice"]
    lines += [
        f"{t.index},{F(t.nominal_length)},{F(t.first_dot_offset)},"
        f"{1 if t.is_practice else 0}"
        for t in trials
    ]
    _write_lines(out, lines)
    return 0


def _observer_params(res, prefix=""):
    def key(k):
        return f"{prefix}{k}" if prefix else k

    def get(k, cast, default):
        # dotted per-condition keys come only from the config file
        if prefix:
            raw = res.raw(key(k))
            if raw is not None:
                return cast(raw)
            return get_base(k, cast, default)
        return res.get(k, cast, default)

    def get_base(k, cast, default):
        return res.effective.get(k, default)

    sigma_l = get("sigma_l", float, -1.0)
    if sigma_l >= 0:
        noise = model.NoiseModel.constant(sigma_l)
    else:
        noise = model.NoiseModel.weber(get("wf", float, 0.15))
    return simulate.ObserverParams(
        noise=noise,
        prior_mean=get("prior_mean", float, 10.0),
        prior_sd=get("prior_sd", float, 1.5),
        motor_sd=get("motor_sd", float, 1.2),
    )


def cmd_simulate(args) -> int:
    res = _Resolver(args, args.config)
    if getattr(args, "seed", None) is None and "seed" not in res.file \
            and os.environ.get(ENV_PREFIX + "SEED") is None:
        raise ValueError("simulate requires a seed (--seed)")
    cfg = _schedule_config(res)
    n = res.get("participants", int, 1)
    conditions = res.get("conditions", str, "individual").split(",")
    demo = simulate.DemonstratorNoise(res.get("demo_sd", float, 0.0))
    out = res.get("out", str, "trials.csv")
    base = _observer_params(res)
    params = {c: _observer_params(res, prefix=f"{c}.") for c in conditions}
    res.dump(args.dump_config)
    del base  # base keys already resolved into res.effective
    recs = simulate.simulate_cohort(
        n, params, cfg=cfg, demo=demo, master_seed=cfg.seed
    )
    records.write_trial_csv(recs, out)
    return 0


def cmd_analyze(args) -> int:
    from . import analysis

    res = _Resolver(args, args.config)
    inp = res.get("input", str, None)
    if inp is None:
        raise ValueError("analyze requires an input trials CSV (--in)")
    outdir = Path(res.get("out", str, "analysis_out"))
    k = res.get("k", float, 2.5)
    res.dump(args.dump_config)
    recs = analysis.ingest(inp)
    summary = analysis.summarize_cohort(recs, k=k)
    outdir.mkdir(parents=True, exist_ok=True)
    analysis.write_participant_csv(summary, outdir / "per_participant.csv")
    analysis.write_condition_csv(summary, outdir / "conditions.csv")
    (outdir / "report.txt").write_bytes(
        analysis.render_report(summary).encode("utf-8")
    )
    return 0


def _read_observations(path):
    import csv as _csv

    from . import fitting

    # utf-8-sig: spreadsheet programs save "CSV UTF-8" with a byte-order mark
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = _csv.DictReader(fh)
        cols = reader.fieldnames or []
        obs = {}
        for row in reader:
            label = row["condition"]
            if "bias_mean" in cols:  # conditions.csv from `analyze`
                obs[label] = fitting.ObservedErrors(
                    bias=float(row["bias_mean"]),
                    cv=float(row["cv_mean"]),
                    ri=float(row["ri_mean"]),
                )
            else:  # plain condition,bias,cv[,ri]
                obs[label] = fitting.ObservedErrors(
                    bias=float(row["bias"]) if row.get("bias") else None,
                    cv=float(row["cv"]) if row.get("cv") else None,
                    ri=float(row["ri"]) if row.get("ri") else None,
                )
    return obs


def _motor_spec(res):
    comb = res.get("motor_combination", str, "linear_cv")
    return model.MotorNoiseSpec(
        res.get("motor_sd", float, 1.2),
        model.MotorCombination(comb),
    )


def _stimuli(res):
    return model.StimulusSet.linspace(
        res.get("stim_min", float, 6.0),
        res.get("stim_max", float, 14.0),
        res.get("stim_count", int, 11),
    )


def cmd_fit(args) -> int:
    from . import fitting

    res = _Resolver(args, args.config)
    inp = res.get("input", str, None)
    if inp is None:
        raise ValueError("fit requires an input summary CSV (--in)")
    outdir = Path(res.get("out", str, "fit_out"))
    cfg = fitting.FitConfig(
        sigma_p_grid=(
            res.get("sigma_p_min", float, 0.1),
            res.get("sigma_p_max", float, 5.0),
            res.get("sigma_p_step", float, 0.05),
        ),
        wf_grid=(
            res.get("wf_min", float, 0.0),
            res.get("wf_max", float, 0.6),
            res.get("wf_step", float, 0.005),
        ),
        motor=_motor_spec(res),
        objective=fitting.Objective(res.get("objective", str, "biascv")),
        trials_per_stimulus=res.get("trials_per_stimulus", int, 0) or None,
    )
    stimuli = _stimuli(res)
    res.dump(args.dump_config)
    observed = _read_observations(inp)
    result, goodness = fitting._fit_with_goodness(observed, stimuli, cfg)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "fit_report.txt").write_bytes(
        fitting.render_fit_report(result, goodness).encode("utf-8")
    )
    lines = ["sigma_p,total_residual"]
    lines += [f"{F(sp)},{F(r)}" for sp, r in result.residual_landscape]
    _write_lines(outdir / "residuals.csv", lines)
    return 0


def cmd_curves(args) -> int:
    res = _Resolver(args, args.config)
    outdir = Path(res.get("out", str, "curves_out"))
    sigma_ps = [
        float(s)
        for s in str(res.get("sigma_p", str, "0.5,1.5,2.5,3.5")).split(",")
    ]
    wf_grid = model.grid_values(
        res.get("wf_min", float, 0.0),
        res.get("wf_max", float, 0.6),
        res.get("wf_step", float, 0.005),
    )
    ri_grid = model.grid_values(
        res.get("ri_min", float, 0.0),
        res.get("ri_max", float, 0.9),
        res.get("ri_step", float, 0.05),
    )
    motor = _motor_spec(res)
    stimuli = _stimuli(res)
    res.dump(args.dump_config)
    outdir.mkdir(parents=True, exist_ok=True)

    lines = ["sigma_p,wf,bias,cv"]
    for sp in sigma_ps:
        for wf, bias, cv in model.error_curve(sp, wf_grid, stimuli, motor):
            lines.append(f"{F(sp)},{F(wf)},{F(bias)},{F(cv)}")
    _write_lines(outdir / "error_curves.csv", lines)

    lines = ["sigma_p,wf,ri"]
    for sp in sigma_ps:
        for wf, ri in model.ri_curve(sp, wf_grid, stimuli):
            lines.append(f"{F(sp)},{F(wf)},{F(ri)}")
    _write_lines(outdir / "ri_curves.csv", lines)

    surface = model.rmse_surface(wf_grid, ri_grid, stimuli, motor)
    lines = ["wf,ri,normalized_rmse"]
    for i, wf in enumerate(wf_grid):
        for j, ri in enumerate(ri_grid):
            cell = "" if np.isnan(surface[i, j]) else F(surface[i, j])
            lines.append(f"{F(wf)},{F(ri)},{cell}")
    _write_lines(outdir / "rmse_surface.csv", lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lenrepro",
        description="Bayesian-observer toolkit for length-reproduction "
        "experiments: simulate, analyze, fit, and emit plot-ready curves.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("schedule", help="generate a seeded trial schedule CSV")
    _add_common(ps)
    for flag, typ in (
        ("--num-lengths", int), ("--min-length", float), ("--step", float),
        ("--reps", int), ("--practice", int),
        ("--first-dot-min", float), ("--first-dot-max", float),
    ):
        ps.add_argument(flag, type=typ, dest=flag[2:].replace("-", "_"))
    ps.set_defaults(func=cmd_schedule)

    pm = sub.add_parser("simulate", help="simulate a synthetic cohort")
    _add_common(pm)
    for flag, typ in (
        ("--participants", int),
        ("--wf", float), ("--sigma-l", float),
        ("--prior-mean", float), ("--prior-sd", float),
        ("--motor-sd", float), ("--demo-sd", float),
        ("--num-lengths", int), ("--min-length", float), ("--step", float),
        ("--reps", int), ("--practice", int),
        ("--first-dot-min", float), ("--first-dot-max", float),
    ):
        pm.add_argument(flag, type=typ, dest=flag[2:].replace("-", "_"))
    pm.add_argument("--conditions", help="comma-separated condition labels")
    pm.set_defaults(func=cmd_simulate)

    pa = sub.add_parser("analyze", help="run the analysis pipeline on a trials CSV")
    _add_common(pa)
    pa.add_argument("--in", dest="input")
    pa.add_argument("--k", type=float, help="outlier SD multiplier")
    pa.set_defaults(func=cmd_analyze)

    pf = sub.add_parser("fit", help="fit a shared prior width to condition summaries")
    _add_common(pf)
    pf.add_argument("--in", dest="input")
    pf.add_argument("--objective", choices=["biascv", "ri"])
    for flag, typ in (
        ("--motor-sd", float),
        ("--sigma-p-min", float), ("--sigma-p-max", float), ("--sigma-p-step", float),
        ("--wf-min", float), ("--wf-max", float), ("--wf-step", float),
        ("--stim-min", float), ("--stim-max", float), ("--stim-count", int),
        ("--trials-per-stimulus", int),
    ):
        pf.add_argument(flag, type=typ, dest=flag[2:].replace("-", "_"))
    pf.add_argument("--motor-combination", choices=["linear_cv", "quadrature"],
                    dest="motor_combination")
    pf.set_defaults(func=cmd_fit)

    pc = sub.add_parser("curves", help="emit plot-ready model curve/surface CSVs")
    _add_common(pc)
    pc.add_argument("--sigma-p", dest="sigma_p",
                    help="comma-separated prior widths (cm)")
    for flag, typ in (
        ("--wf-min", float), ("--wf-max", float), ("--wf-step", float),
        ("--ri-min", float), ("--ri-max", float), ("--ri-step", float),
        ("--motor-sd", float),
        ("--stim-min", float), ("--stim-max", float), ("--stim-count", int),
    ):
        pc.add_argument(flag, type=typ, dest=flag[2:].replace("-", "_"))
    pc.add_argument("--motor-combination", choices=["linear_cv", "quadrature"],
                    dest="motor_combination")
    pc.set_defaults(func=cmd_curves)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # single-line diagnostic, exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point: schedule | simulate | analyze | fit | curves.

Each option is one row of ``OPTIONS``. Precedence: flag > LENREPRO_<KEY>
environment variable > --config file (flat JSON key/value) > default;
``simulate`` also reads ``<condition>.<observer key>`` keys from the file.
Every CSV goes through a ``records`` writer (6-decimal floats, LF line
ends), so reruns are byte-identical.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import NamedTuple

# Each command imports the modules only it uses (`simulate`, `analysis`,
# `fitting`) itself, so the other commands skip them.
from . import model, records

ENV_PREFIX = "LENREPRO_"


def number_list(text) -> str:
    """Comma-separated numbers, kept as the text that lists them."""
    [float(s) for s in str(text).split(",")]
    return str(text)


class Option(NamedTuple):
    key: str
    type: object       # a cast, or the tuple of allowed strings
    default: object    # None: the commands require the key
    commands: str      # space-separated
    help: str = ""


SCHEDULE, GRID = "schedule simulate", "fit curves"
OPTIONS = (
    Option("seed", int, 0, "schedule"),
    Option("seed", int, None, "simulate", "a seed"),
    Option("input", str, None, "analyze", "an input trials CSV"),
    Option("input", str, None, "fit", "an input summary CSV"),
    Option("out", str, "schedule.csv", "schedule", "output file"),
    Option("out", str, "trials.csv", "simulate", "output file"),
    Option("out", str, "analysis_out", "analyze", "output directory"),
    Option("out", str, "fit_out", "fit", "output directory"),
    Option("out", str, "curves_out", "curves", "output directory"),
    Option("num_lengths", int, 11, SCHEDULE),
    Option("min_length", float, 6.0, SCHEDULE, "cm"),
    Option("step", float, 0.8, SCHEDULE, "cm"),
    Option("reps", int, 6, SCHEDULE),
    Option("practice", int, 3, SCHEDULE),
    Option("first_dot_min", float, 0.5, SCHEDULE, "cm"),
    Option("first_dot_max", float, 3.5, SCHEDULE, "cm"),
    Option("participants", int, 1, "simulate"),
    Option("conditions", str, "individual", "simulate", "comma-separated labels"),
    Option("wf", float, 0.15, "simulate", "Weber fraction"),
    Option("sigma_l", float, -1.0, "simulate", "sensory sd (cm); < 0: use wf"),
    Option("prior_mean", float, 10.0, "simulate", "cm"),
    Option("prior_sd", float, 1.5, "simulate", "cm"),
    Option("motor_sd", float, 1.2, "simulate " + GRID, "cm"),
    Option("demo_sd", float, 0.0, "simulate", "cm"),
    Option("k", float, 2.5, "analyze", "outlier SD multiplier"),
    Option("objective", ("biascv", "ri"), "biascv", "fit"),
    Option("sigma_p_min", float, 0.1, "fit", "cm"),
    Option("sigma_p_max", float, 5.0, "fit", "cm"),
    Option("sigma_p_step", float, 0.05, "fit", "cm"),
    Option("wf_min", float, 0.0, GRID),
    Option("wf_max", float, 0.6, GRID),
    Option("wf_step", float, 0.005, GRID),
    Option("stim_min", float, 6.0, GRID, "cm"),
    Option("stim_max", float, 14.0, GRID, "cm"),
    Option("stim_count", int, 11, GRID),
    Option("trials_per_stimulus", int, 0, "fit", "0: asymptotic model"),
    Option("motor_combination", ("linear_cv", "quadrature"), "linear_cv", GRID),
    Option("sigma_p", number_list, "0.5,1.5,2.5,3.5", "curves", "prior widths (cm)"),
    Option("ri_min", float, 0.0, "curves"),
    Option("ri_max", float, 0.9, "curves"),
    Option("ri_step", float, 0.05, "curves"),
)
KEYS = {opt.key for opt in OPTIONS}
# observer keys that a "<condition>.<key>" config entry can set per condition
OBSERVER_KEYS = ("sigma_l", "wf", "prior_mean", "prior_sd", "motor_sd")


def _flag(key: str) -> str:
    return "--in" if key == "input" else "--" + key.replace("_", "-")


def _cast(typ, value, source: str):
    """An env or config-file value as the key's type; errors name the source."""
    scalar = isinstance(value, (str, int, float)) and not isinstance(value, bool)
    try:
        if isinstance(typ, tuple):
            if scalar and value in typ:
                return value
        elif scalar and not (typ is int and isinstance(value, float)):
            return typ(value)
    except ValueError:
        pass
    want = "one of " + ", ".join(typ) if isinstance(typ, tuple) else typ.__name__
    raise ValueError(f"{source}: expected {want}, got {value!r}")


def _resolve(args) -> dict:
    """The command's keys, and the file's keys for the conditions it runs."""
    path = args.config
    if path or args.dump_config:
        import json  # only these two options read or write JSON
    file = json.loads(Path(path).read_text(encoding="utf-8")) if path else {}
    if not isinstance(file, dict):
        raise ValueError(f"--config {path}: expected a JSON object, "
                         f"got {type(file).__name__}")
    for key in file:  # keys of other commands are allowed: one file, one pipeline
        label, _, sub = key.rpartition(".")
        if key not in KEYS and not (label and sub in OBSERVER_KEYS):
            raise ValueError(f"config key {key} in {path}: no command takes it")
    cfg = {}
    for opt in OPTIONS:
        if args.command not in opt.commands.split():
            continue
        flag, env = getattr(args, opt.key), ENV_PREFIX + opt.key.upper()
        if flag is not None:
            cfg[opt.key] = flag
        elif env in os.environ:
            cfg[opt.key] = _cast(opt.type, os.environ[env], env)
        elif opt.key in file:
            cfg[opt.key] = _cast(opt.type, file[opt.key],
                                 f"config key {opt.key} in {path}")
        elif opt.default is None:
            raise ValueError(f"{args.command} requires {opt.help} ({_flag(opt.key)})")
        else:
            cfg[opt.key] = opt.default
    for label in cfg["conditions"].split(",") if "conditions" in cfg else ():
        for key in (f"{label}.{sub}" for sub in OBSERVER_KEYS):
            if key in file:
                cfg[key] = _cast(float, file[key], f"config key {key} in {path}")
    if args.dump_config:
        dump = json.dumps(cfg, indent=2, sort_keys=True) + "\n"
        Path(args.dump_config).write_text(dump, encoding="utf-8")
    return cfg


def _grid(cfg, name) -> tuple:
    return tuple(cfg[f"{name}_{end}"] for end in ("min", "max", "step"))


def _schedule_config(cfg):
    from . import simulate

    keys = ("num_lengths", "min_length", "step", "reps", "practice", "seed")
    return simulate.ScheduleConfig(
        **{key: cfg[key] for key in keys},
        first_dot_range=(cfg["first_dot_min"], cfg["first_dot_max"]),
    )


def cmd_schedule(cfg) -> int:
    """Generate a seeded trial schedule CSV."""
    from . import simulate

    records.write_csv(cfg["out"], "index,nominal_length_cm,first_dot_cm,is_practice",
                      "%d,%.6f,%.6f,%d", simulate.generate_schedule(_schedule_config(cfg)))
    return 0


def _observer_params(cfg, label):
    from . import simulate

    p = {key: cfg.get(f"{label}.{key}", cfg[key]) for key in OBSERVER_KEYS}
    noise = (model.NoiseModel.constant(p["sigma_l"]) if p["sigma_l"] >= 0
             else model.NoiseModel.weber(p["wf"]))
    return simulate.ObserverParams(noise=noise, prior_mean=p["prior_mean"],
                                   prior_sd=p["prior_sd"], motor_sd=p["motor_sd"])


def cmd_simulate(cfg) -> int:
    """Simulate a synthetic cohort."""
    from . import simulate

    # pairs, so that simulate_cohort rejects a label given twice
    params = [(c, _observer_params(cfg, c)) for c in cfg["conditions"].split(",")]
    blocks = simulate.cohort_blocks(
        cfg["participants"], params, cfg=_schedule_config(cfg),
        demo=simulate.DemonstratorNoise(cfg["demo_sd"]), master_seed=cfg["seed"],
    )
    records.write_trial_csv(blocks, cfg["out"])
    return 0


def cmd_analyze(cfg) -> int:
    """Run the analysis pipeline on a trials CSV."""
    from . import analysis

    outdir = Path(cfg["out"])
    summary = analysis.summarize_file(cfg["input"], k=cfg["k"])
    outdir.mkdir(parents=True, exist_ok=True)
    analysis.write_participant_csv(summary, outdir / "per_participant.csv")
    analysis.write_condition_csv(summary, outdir / "conditions.csv")
    report = analysis.render_report(summary)
    (outdir / "report.txt").write_bytes(report.encode("utf-8"))
    return 0


def _number(cell, col, rownum, required):
    """One summary cell; an empty optional cell reads as None."""
    if not (cell or required):
        return None
    try:
        return float(cell)
    except ValueError as exc:
        raise ValueError(f"row {rownum}: non-numeric cell in {col} ({exc})") from None


def _read_observations(path):
    """condition -> ObservedErrors from `analyze`'s conditions.csv or a plain
    condition,bias,cv[,ri] file; rows count from 1 after the header."""
    import csv as _csv

    from . import fitting

    # utf-8-sig: spreadsheet programs save "CSV UTF-8" with a byte-order mark
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = _csv.DictReader(fh)
        cols = reader.fieldnames or []
        analyzed = "bias_mean" in cols  # every *_mean column is required
        fields = {n: n + "_mean" if analyzed else n for n in ("bias", "cv", "ri")}
        for col in ["condition", *fields.values()] if analyzed else ["condition"]:
            if col not in cols:
                raise ValueError(f"missing column {col}")
        observed = {}
        for rownum, row in enumerate(reader, start=1):
            if row["condition"] in observed:
                raise ValueError(f"row {rownum}: duplicate condition {row['condition']}")
            observed[row["condition"]] = fitting.ObservedErrors(**{
                n: _number(row.get(col) or "", col, rownum, analyzed)
                for n, col in fields.items()
            })
        return observed


def _motor_and_stimuli(cfg) -> tuple:
    combination = model.MotorCombination(cfg["motor_combination"])
    return (model.MotorNoiseSpec(cfg["motor_sd"], combination),
            model.StimulusSet.linspace(cfg["stim_min"], cfg["stim_max"],
                                       cfg["stim_count"]))


def cmd_fit(cfg) -> int:
    """Fit a shared prior width to condition summaries."""
    from . import fitting

    outdir = Path(cfg["out"])
    motor, stimuli = _motor_and_stimuli(cfg)
    fit_cfg = fitting.FitConfig(
        sigma_p_grid=_grid(cfg, "sigma_p"), wf_grid=_grid(cfg, "wf"), motor=motor,
        objective=fitting.Objective(cfg["objective"]),
        trials_per_stimulus=cfg["trials_per_stimulus"] or None,
    )
    observed = _read_observations(cfg["input"])
    result, goodness = fitting._fit_with_goodness(observed, stimuli, fit_cfg)
    outdir.mkdir(parents=True, exist_ok=True)
    report = fitting.render_fit_report(result, goodness)
    (outdir / "fit_report.txt").write_bytes(report.encode("utf-8"))
    records.write_csv(outdir / "residuals.csv", "sigma_p,total_residual", "%.6f,%.6f",
                      result.residual_landscape)
    return 0


def cmd_curves(cfg) -> int:
    """Emit plot-ready model curve/surface CSVs."""
    outdir = Path(cfg["out"])
    sigma_ps = [float(s) for s in cfg["sigma_p"].split(",")]
    wf_grid = model.grid_values(*_grid(cfg, "wf"))
    ri_grid = model.grid_values(*_grid(cfg, "ri"))
    motor, stimuli = _motor_and_stimuli(cfg)
    # first, so that its ri-grid and regression-index checks fail before a
    # file is opened
    surface = model.rmse_surface(wf_grid, ri_grid, stimuli, motor)
    outdir.mkdir(parents=True, exist_ok=True)
    records.write_csv(outdir / "error_curves.csv", "sigma_p,wf,bias,cv", "%.6f,%.6f,%.6f,%.6f", (
        (sp, *point) for sp in sigma_ps
        for point in model.error_curve(sp, wf_grid, stimuli, motor)
    ))
    records.write_csv(outdir / "ri_curves.csv", "sigma_p,wf,ri", "%.6f,%.6f,%.6f", (
        (sp, *point) for sp in sigma_ps
        for point in model.ri_curve(sp, wf_grid, stimuli)
    ))
    # a cell whose ri is unreachable at its wf is NaN, and is written empty
    records.write_csv(outdir / "rmse_surface.csv", "wf,ri,normalized_rmse", "%.6f,%.6f,%s", (
        (wf, ri, "" if math.isnan(value) else "%.6f" % value)
        for wf, row in zip(wf_grid, surface) for ri, value in zip(ri_grid, row.tolist())
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lenrepro",
        description="Bayesian-observer toolkit for length-reproduction "
        "experiments: simulate, analyze, fit, and emit plot-ready curves.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for func in (cmd_schedule, cmd_simulate, cmd_analyze, cmd_fit, cmd_curves):
        command = func.__name__.removeprefix("cmd_")
        pc = sub.add_parser(command, help=func.__doc__)
        pc.add_argument("--config", help="flat JSON key/value config file")
        pc.add_argument("--dump-config", help="write the effective config as JSON")
        for opt in OPTIONS:
            if command not in opt.commands.split():
                continue
            given = "required" if opt.default is None else f"default: {opt.default}"
            kind = ({"choices": opt.type} if isinstance(opt.type, tuple)
                    else {"type": opt.type})
            pc.add_argument(_flag(opt.key), dest=opt.key, **kind,
                            help=f"{opt.help} ({given})" if opt.help else given)
        pc.set_defaults(func=func)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(_resolve(args))
    except Exception as exc:  # single-line diagnostic, exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

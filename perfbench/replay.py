"""Traced in-process replay of a benchmark workload.

The replay calls the same public functions the CLI calls, with the same
inputs, and records a span around each call.  Spans are recorded only
here, around calls into the package; nothing in the package is patched.
Spans stay in memory until the run writes its results.
"""
from __future__ import annotations

import csv
import math
import time
from collections import defaultdict
from contextlib import contextmanager

from lenrepro import analysis, fitting, model, records, simulate


def self_times(spans: list) -> dict:
    """Span id -> duration minus the time its children cover.

    Children of one span run one after another, so their durations add.
    """
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - covered[s["id"]] for s in spans}


class Tracer:
    """In-memory spans: name, start, end, parent, workload and run id."""

    def __init__(self, workload: str, run_id: str):
        self.workload = workload
        self.run_id = run_id
        self.spans = []
        self._open = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "workload": self.workload, "run_id": self.run_id,
               "start": time.perf_counter() - self._t0, "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self._t0
            self._open.pop()

    def by_name(self) -> dict:
        """Metric ``<span name>_s``: self time summed over spans of that name."""
        out = defaultdict(float)
        for sid, t in self_times(self.spans).items():
            out[f"{self.spans[sid]['name']}_s"] += t
        return dict(out)

    def total(self) -> float:
        roots = [s for s in self.spans if s["parent"] is None]
        return sum(s["end"] - s["start"] for s in roots)


def _cohort(tr, run, d, scale, cli_dir):
    # the CLI's defaults for `simulate`
    params = {c: simulate.ObserverParams(noise=model.NoiseModel.weber(0.15),
                                         prior_mean=10.0, prior_sd=1.5, motor_sd=1.2)
              for c in scale.conditions}
    cfg = simulate.ScheduleConfig(seed=run.seed)
    trials, out = d / "trials.csv", d / "analysis_out"
    with tr.span("simulate"):
        with tr.span("simulate.simulate_cohort"):
            recs = simulate.simulate_cohort(
                scale.cohort_participants, params, cfg=cfg,
                demo=simulate.DemonstratorNoise(0.0), master_seed=cfg.seed, workers=1)
        with tr.span("records.write_trial_csv"):
            records.write_trial_csv(recs, trials)
    counts = {"simulate.sessions": len({(r.participant_id, r.condition) for r in recs}),
              "simulate.trials": len(recs),
              "records.csv_bytes": trials.stat().st_size}
    del recs
    with tr.span("analyze"):
        with tr.span("analysis.ingest"):
            ingested = analysis.ingest(trials)
        with tr.span("analysis.summarize_cohort"):
            summary = analysis.summarize_cohort(ingested)
        out.mkdir()
        with tr.span("analysis.write_outputs"):
            analysis.write_participant_csv(summary, out / "per_participant.csv")
            analysis.write_condition_csv(summary, out / "conditions.csv")
            (out / "report.txt").write_bytes(analysis.render_report(summary).encode("utf-8"))
    counts.update({"analysis.rows": len(ingested),
                   "analysis.sessions": len(summary.sessions),
                   "analysis.excluded": len(summary.excluded),
                   "analysis.contrasts": len(summary.contrasts)})
    cli_trials = cli_dir / "trials.csv"
    same = cli_trials.exists() and cli_trials.read_bytes() == trials.read_bytes()
    run.check("cohort.replay_trials_csv_identical", same,
              "traced replay vs CLI trials.csv")
    return counts


def _fit(tr, scale, conditions_csv):
    with open(conditions_csv, newline="", encoding="utf-8") as fh:
        observed = {row["condition"]: fitting.ObservedErrors(
            bias=float(row["bias_mean"]), cv=float(row["cv_mean"]), ri=float(row["ri_mean"]))
            for row in csv.DictReader(fh)}
    stimuli = model.StimulusSet.linspace(6.0, 14.0, 11)
    # the CLI's `fit` defaults, changed only by the workload's flags
    configs = {
        "finite": fitting.FitConfig(
            sigma_p_grid=scale.sigma_p_grid, wf_grid=scale.wf_grid,
            motor=model.MotorNoiseSpec(1.2, model.MotorCombination.LINEAR_CV),
            trials_per_stimulus=6),
        "asymptotic": fitting.FitConfig(
            sigma_p_grid=scale.sigma_p_grid, wf_grid=scale.wf_grid,
            motor=model.MotorNoiseSpec(1.2, model.MotorCombination.QUADRATURE),
            objective=fitting.Objective.RI),
    }
    for kind, cfg in configs.items():
        with tr.span(f"fit_{kind}"):
            with tr.span(f"fitting.{kind}.fit_shared_prior"):
                result = fitting.fit_shared_prior(observed, stimuli, cfg)
            with tr.span(f"fitting.{kind}.goodness_of_fit"):
                goodness = fitting.goodness_of_fit(result, observed, stimuli, cfg)
            with tr.span("fitting.render_fit_report"):
                fitting.render_fit_report(result, goodness)
    n_sp = len(fitting.grid_values(*scale.sigma_p_grid))
    n_wf = len(fitting.grid_values(*scale.wf_grid))
    return {"fitting.grid_cells": n_sp * n_wf, "fitting.conditions": len(observed)}


def _curves(tr, scale):
    wf_grid = fitting.grid_values(*scale.wf_grid)
    ri_grid = fitting.grid_values(*scale.ri_grid)
    stimuli = model.StimulusSet.linspace(6.0, 14.0, 11)
    motor = model.MotorNoiseSpec(1.2, model.MotorCombination.LINEAR_CV)
    points = 0
    with tr.span("curves"):
        for sp in scale.sigma_ps:
            with tr.span("model.error_curve"):
                points += len(model.error_curve(sp, wf_grid, stimuli, motor))
        for sp in scale.sigma_ps:
            with tr.span("model.ri_curve"):
                model.ri_curve(sp, wf_grid, stimuli)
        with tr.span("model.rmse_surface"):
            surface = model.rmse_surface(wf_grid, ri_grid, stimuli, motor)
    defined = sum(not math.isnan(v) for v in surface.ravel())
    return {"model.surface_cells": surface.size,
            "model.surface_defined_ratio": defined / surface.size,
            "model.curve_points": points}


def replay(workload: str, run, d, scale, fit_input, cli_dir):
    """Replay ``workload`` traced; returns (tracer, per-layer metrics)."""
    tr = Tracer(workload, f"{workload}-seed{run.seed}")
    rd = d / "replay"
    rd.mkdir()
    with tr.span(workload):
        if workload == "cohort":
            counts = _cohort(tr, run, rd, scale, cli_dir)
        elif workload == "fit":
            counts = _fit(tr, scale, fit_input)
        else:
            counts = _curves(tr, scale)
    # command and workload spans carry no dot; layer spans are module.function
    layers = {k: v for k, v in tr.by_name().items() if "." in k}
    layers.update(counts)
    return tr, layers

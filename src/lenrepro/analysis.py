"""Empirical pipeline: ingestion, constant-bias removal, per-stimulus
error decomposition, regression index, outlier screening, cohort summary.

Conventions (documented choices):
  * per-stimulus CV uses the population sd (divide by N);
  * the regression index is fitted on trial-level points;
  * session bias/cv/rmse are unweighted means over the stimulus groups;
  * outlier screening is a single pass at mean + k * sample sd of the
    per-participant session RMSE (averaged over that participant's
    conditions).
"""
from __future__ import annotations

import csv
import dataclasses
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import stats
from .records import TRIAL_CSV_HEADER, TrialRecord

_TRUTHY = {"1", "true", "yes"}


class IngestionError(ValueError):
    pass


class DegenerateDataError(ValueError):
    pass


@dataclass(frozen=True)
class StimulusErrors:
    """Normalized errors for one stimulus group."""

    nominal: float
    mean_actual: float      # S_Mi, mean presented length in the group
    mean_response: float    # R_Mi, mean adjusted response
    bias: float
    cv: float
    rmse: float
    n: int


@dataclass(frozen=True)
class ErrorDecomposition:
    per_stimulus: tuple
    session_bias: float
    session_cv: float
    session_rmse: float
    mean_stimulus: float
    singleton_groups: tuple = ()  # nominals whose cv had a single trial


@dataclass(frozen=True)
class RegressionFit:
    slope: float
    intercept: float
    regression_index: float
    r_squared: float


@dataclass(frozen=True)
class SessionSummary:
    participant_id: str
    condition: str
    fit: RegressionFit
    errors: ErrorDecomposition


@dataclass(frozen=True)
class GroupStats:
    n: int
    mean: float
    sd: float


@dataclass(frozen=True)
class PairedContrast:
    condition_a: str
    condition_b: str
    metric: str
    n: int
    t: float
    df: int
    p: float
    d: float


@dataclass(frozen=True)
class CohortSummary:
    sessions: Mapping          # (participant_id, condition) -> SessionSummary
    condition_stats: Mapping   # condition -> metric -> GroupStats
    contrasts: tuple           # of PairedContrast
    excluded: Mapping          # participant_id -> reason
    screening_metric: str = "session_rmse"


def _cell(row, rownum: int, col: str, cast):
    """One numeric cell; errors name the row and the column."""
    try:
        value = cast(row[col])
    except (TypeError, ValueError) as exc:
        raise IngestionError(f"row {rownum}: non-numeric cell in {col} ({exc})") from exc
    if not math.isfinite(value):
        raise IngestionError(f"row {rownum}: {col} must be finite, got {value}")
    return value


def ingest(source) -> list:
    """Read TrialRecords from a CSV path or open text stream.

    Requires participant_id, condition, trial_index, nominal_length_cm and
    response_cm columns; actual_length_cm defaults to the nominal with a
    warning when absent.  Rows flagged by an is_practice column are
    dropped.  Errors name the offending 1-based data row, and the column
    of a non-numeric or non-finite cell.
    """
    if isinstance(source, (str, Path)):
        with open(source, newline="", encoding="utf-8") as fh:
            return ingest(fh)
    reader = csv.DictReader(source)
    header = reader.fieldnames or []
    required = [c for c in TRIAL_CSV_HEADER if c != "actual_length_cm"]
    for col in required:
        if col not in header:
            raise IngestionError(f"missing column {col}")
    has_actual = "actual_length_cm" in header
    if not has_actual:
        warnings.warn(
            "actual_length_cm column absent; defaulting to nominal_length_cm",
            stacklevel=2,
        )
    records = []
    seen = set()
    for rownum, row in enumerate(reader, start=1):
        if "is_practice" in header and (row["is_practice"] or "").strip().lower() in _TRUTHY:
            continue
        trial_index = _cell(row, rownum, "trial_index", int)
        nominal = _cell(row, rownum, "nominal_length_cm", float)
        actual = _cell(row, rownum, "actual_length_cm", float) if has_actual else nominal
        response = _cell(row, rownum, "response_cm", float)
        if response < 0:
            raise IngestionError(f"row {rownum}: response must be >= 0, got {response}")
        key = (row["participant_id"], row["condition"], trial_index)
        if key in seen:
            raise IngestionError(f"row {rownum}: duplicate trial key {key}")
        seen.add(key)
        try:
            records.append(
                TrialRecord(
                    participant_id=row["participant_id"],
                    condition=row["condition"],
                    trial_index=trial_index,
                    nominal_length=nominal,
                    actual_length=actual,
                    response=response,
                )
            )
        except ValueError as exc:
            raise IngestionError(f"row {rownum}: {exc}") from exc
    return records


def debias_session(records: Sequence[TrialRecord]) -> list:
    """Remove the constant response offset of one participant+condition:
    response' = response - mean(responses) + mean(actual stimuli).
    """
    if not records:
        raise DegenerateDataError("empty session")
    responses = np.array([r.response for r in records])
    s_bar = float(np.mean([r.actual_length for r in records]))
    shift = s_bar - float(responses.mean())
    return [dataclasses.replace(r, response=r.response + shift) for r in records]


def per_stimulus_errors(records: Sequence[TrialRecord]) -> ErrorDecomposition:
    """Per-stimulus normalized bias / cv / rmse of an adjusted session.

    Groups by nominal length; within each group S_Mi is the mean actually
    presented length, bias = |R_Mi - S_Mi| / S-bar and cv is the population
    sd of the responses / S-bar.  Session values are unweighted means over
    the groups.
    """
    if not records:
        raise DegenerateDataError("empty session")
    s_bar = float(np.mean([r.actual_length for r in records]))
    groups = {}
    for r in records:
        groups.setdefault(r.nominal_length, []).append(r)
    per = []
    singletons = []
    for nominal in sorted(groups):
        grp = groups[nominal]
        actual = np.array([r.actual_length for r in grp])
        resp = np.array([r.response for r in grp])
        s_mi = float(actual.mean())
        r_mi = float(resp.mean())
        bias = abs(r_mi - s_mi) / s_bar
        if resp.size == 1:
            cv = 0.0
            singletons.append(nominal)
        else:
            cv = float(resp.std(ddof=0)) / s_bar
        per.append(
            StimulusErrors(
                nominal, s_mi, r_mi, bias, cv, math.hypot(bias, cv), resp.size
            )
        )
    if singletons:
        warnings.warn(
            f"stimulus groups with a single trial (cv set to 0): {singletons}",
            stacklevel=2,
        )
    return ErrorDecomposition(
        per_stimulus=tuple(per),
        session_bias=float(np.mean([g.bias for g in per])),
        session_cv=float(np.mean([g.cv for g in per])),
        session_rmse=float(np.mean([g.rmse for g in per])),
        mean_stimulus=s_bar,
        singleton_groups=tuple(singletons),
    )


def fit_regression_index(
    records: Sequence[TrialRecord], per_group: bool = False
) -> RegressionFit:
    """OLS of responses on the actually presented stimuli; index = 1 - slope.

    Fits trial-level points by default; ``per_group=True`` fits the
    per-stimulus mean points instead.
    """
    if not records:
        raise DegenerateDataError("empty session")
    x = np.array([r.actual_length for r in records])
    y = np.array([r.response for r in records])
    if per_group:
        groups = {}
        for r in records:
            groups.setdefault(r.nominal_length, []).append(r)
        x = np.array([np.mean([r.actual_length for r in g]) for g in groups.values()])
        y = np.array([np.mean([r.response for r in g]) for g in groups.values()])
    xc = x - x.mean()
    denom = float(np.dot(xc, xc))
    if denom == 0:
        raise DegenerateDataError("all stimulus values identical")
    slope = float(np.dot(xc, y - y.mean()) / denom)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 0.0
    return RegressionFit(slope, intercept, 1.0 - slope, r2)


def screen_outliers(metrics: Mapping[str, float], k: float = 2.5):
    """Single-pass screen: drop ids whose metric exceeds mean + k * sample sd.

    Returns (kept_ids, excluded_ids), each sorted.
    """
    if len(metrics) < 2:
        raise DegenerateDataError("screening needs >= 2 participants")
    ids = sorted(metrics)
    values = np.array([metrics[i] for i in ids])
    threshold = values.mean() + k * values.std(ddof=1)
    kept = [i for i in ids if not metrics[i] > threshold]
    excluded = [i for i in ids if metrics[i] > threshold]
    return kept, excluded


_METRICS = ("regression_index", "bias", "cv", "rmse")


def _session_metric(summary: SessionSummary, metric: str) -> float:
    if metric == "regression_index":
        return summary.fit.regression_index
    return getattr(summary.errors, f"session_{metric}")


def analyze_session(records: Sequence[TrialRecord]) -> SessionSummary:
    """Debias one session, then decompose errors and fit the index."""
    adjusted = debias_session(records)
    return SessionSummary(
        participant_id=records[0].participant_id,
        condition=records[0].condition,
        fit=fit_regression_index(adjusted),
        errors=per_stimulus_errors(adjusted),
    )


def summarize_cohort(records: Sequence[TrialRecord], k: float = 2.5) -> CohortSummary:
    """Full cohort summary: per-session analysis, 2.5-SD screening on the
    per-participant mean session RMSE, per-condition group stats and
    paired contrasts between all condition pairs.
    """
    if not records:
        raise DegenerateDataError("empty dataset")
    by_session = {}
    for r in records:
        by_session.setdefault((r.participant_id, r.condition), []).append(r)
    sessions = {key: analyze_session(by_session[key]) for key in sorted(by_session)}

    participants = sorted({pid for pid, _ in sessions})
    conditions = sorted({cond for _, cond in sessions})

    excluded = {}
    if len(participants) >= 2 and not math.isinf(k):
        metric = {
            pid: float(
                np.mean(
                    [
                        s.errors.session_rmse
                        for (p, _), s in sessions.items()
                        if p == pid
                    ]
                )
            )
            for pid in participants
        }
        _, dropped = screen_outliers(metric, k)
        for pid in dropped:
            excluded[pid] = (
                f"session_rmse {metric[pid]:.6f} exceeds mean + {k} * SD"
            )
    kept = [p for p in participants if p not in excluded]

    condition_stats = {}
    for cond in conditions:
        per_metric = {}
        for m in _METRICS:
            vals = [
                _session_metric(sessions[(pid, cond)], m)
                for pid in kept
                if (pid, cond) in sessions
            ]
            arr = np.array(vals)
            per_metric[m] = GroupStats(
                n=arr.size,
                mean=float(arr.mean()) if arr.size else float("nan"),
                sd=float(arr.std(ddof=1)) if arr.size > 1 else float("nan"),
            )
        condition_stats[cond] = per_metric

    contrasts = []
    for i, ca in enumerate(conditions):
        for cb in conditions[i + 1:]:
            common = [
                pid
                for pid in kept
                if (pid, ca) in sessions and (pid, cb) in sessions
            ]
            if len(common) < 2:
                continue
            for m in _METRICS:
                a = [_session_metric(sessions[(pid, ca)], m) for pid in common]
                b = [_session_metric(sessions[(pid, cb)], m) for pid in common]
                try:
                    t, df, p = stats.paired_t(a, b)
                    d = stats.cohens_d_paired(a, b)
                except stats.DegenerateTestError:
                    continue
                contrasts.append(
                    PairedContrast(ca, cb, m, len(common), t, df, p, d)
                )

    return CohortSummary(
        sessions=sessions,
        condition_stats=condition_stats,
        contrasts=tuple(contrasts),
        excluded=excluded,
    )


def render_report(summary: CohortSummary) -> str:
    """Deterministic structured-text report (stable key order, 6 decimals)."""
    f = "{:.6f}".format
    lines = ["# cohort summary", ""]
    lines.append("## exclusions")
    if summary.excluded:
        for pid in sorted(summary.excluded):
            lines.append(f"{pid}: {summary.excluded[pid]}")
    else:
        lines.append("none")
    lines.append("")
    lines.append("## condition statistics")
    for cond in sorted(summary.condition_stats):
        for m in _METRICS:
            g = summary.condition_stats[cond][m]
            lines.append(
                f"{cond}.{m}: n={g.n} mean={f(g.mean)} sd={f(g.sd)}"
            )
    lines.append("")
    lines.append("## paired contrasts")
    if summary.contrasts:
        for c in summary.contrasts:
            lines.append(
                f"{c.condition_a}-vs-{c.condition_b}.{c.metric}: n={c.n} "
                f"t={f(c.t)} df={c.df} p={f(c.p)} d={f(c.d)}"
            )
    else:
        lines.append("none")
    lines.append("")
    return "\n".join(lines)


def write_participant_csv(summary: CohortSummary, path) -> None:
    f = "{:.6f}".format
    lines = [
        "participant_id,condition,regression_index,slope,intercept,"
        "r_squared,bias,cv,rmse,excluded"
    ]
    for (pid, cond) in sorted(summary.sessions):
        s = summary.sessions[(pid, cond)]
        lines.append(
            ",".join(
                (
                    pid,
                    cond,
                    f(s.fit.regression_index),
                    f(s.fit.slope),
                    f(s.fit.intercept),
                    f(s.fit.r_squared),
                    f(s.errors.session_bias),
                    f(s.errors.session_cv),
                    f(s.errors.session_rmse),
                    "1" if pid in summary.excluded else "0",
                )
            )
        )
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def write_condition_csv(summary: CohortSummary, path) -> None:
    f = "{:.6f}".format
    lines = [
        "condition,n,ri_mean,ri_sd,bias_mean,bias_sd,cv_mean,cv_sd,"
        "rmse_mean,rmse_sd"
    ]
    for cond in sorted(summary.condition_stats):
        g = summary.condition_stats[cond]
        lines.append(
            ",".join(
                (
                    cond,
                    str(g["regression_index"].n),
                    f(g["regression_index"].mean),
                    f(g["regression_index"].sd),
                    f(g["bias"].mean),
                    f(g["bias"].sd),
                    f(g["cv"].mean),
                    f(g["cv"].sd),
                    f(g["rmse"].mean),
                    f(g["rmse"].sd),
                )
            )
        )
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))

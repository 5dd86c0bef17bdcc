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
import math
import sys
import warnings
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path
from typing import Mapping

import numpy as np

from . import stats
from .records import TRIAL_CSV_HEADER, Trials

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


def _int64(text: str) -> int:
    return int(np.int64(text))  # OverflowError outside the column's range


def _cell(value: str, rownum: int, col: str, cast):
    """One numeric cell; errors name the row and the column."""
    try:
        value = cast(value)
    except (ValueError, OverflowError) as exc:
        raise IngestionError(f"row {rownum}: non-numeric cell in {col} ({exc})") from exc
    if not math.isfinite(value):
        raise IngestionError(f"row {rownum}: {col} must be finite, got {value}")
    return value


def ingest(source) -> Trials:
    """Read trials from a CSV path or open text stream.

    Requires participant_id, condition, trial_index, nominal_length_cm and
    response_cm columns; actual_length_cm defaults to the nominal with a
    warning when absent.  Rows flagged by an is_practice column are
    dropped.  Errors name the offending 1-based data row, and the column
    of a non-numeric, non-finite or out-of-range cell.
    """
    if isinstance(source, (str, Path)):
        with open(source, newline="", encoding="utf-8") as fh:
            return ingest(fh)
    reader = csv.reader(source)
    header = next(reader, [])
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
    # a repeated header name reads its last column, as csv.DictReader does
    where = {name: i for i, name in enumerate(header)}
    actual_col = "actual_length_cm" if has_actual else "nominal_length_cm"
    numeric = [
        (where[col], col, cast)
        for col, cast in (("trial_index", _int64), ("nominal_length_cm", float),
                          (actual_col, float), ("response_cm", float))
    ]
    pid, cond = where["participant_id"], where["condition"]
    practice = where.get("is_practice")
    columns = ([], [], [], [], [], [])
    seen = set()
    # blank lines are skipped and not counted
    for rownum, row in enumerate(filter(None, reader), start=1):
        row += [""] * (len(header) - len(row))  # missing trailing cells read empty
        if practice is not None and row[practice].strip().lower() in _TRUTHY:
            continue
        trial_index, nominal, actual, response = [
            _cell(row[i], rownum, col, cast) for i, col, cast in numeric
        ]
        if actual <= 0:
            raise IngestionError(f"row {rownum}: {actual_col} must be > 0, got {actual}")
        if response < 0:
            raise IngestionError(f"row {rownum}: response must be >= 0, got {response}")
        # one shared string per id: a copy per row would dominate peak memory
        key = (sys.intern(row[pid]), sys.intern(row[cond]), trial_index)
        if key in seen:
            raise IngestionError(f"row {rownum}: duplicate trial key {key}")
        seen.add(key)
        for column, value in zip(columns, (*key, nominal, actual, response)):
            column.append(value)
    return Trials(*columns)


def debias_session(trials: Trials) -> Trials:
    """Remove the constant response offset of one participant+condition:
    response' = response - mean(responses) + mean(actual stimuli).
    """
    if not len(trials):
        raise DegenerateDataError("empty session")
    shift = float(trials.actual_length.mean()) - float(trials.response.mean())
    return Trials(*trials.columns[:-1], trials.response + shift)


def _groups(codes: np.ndarray) -> list:
    """Row indices of each distinct code, in code order, each in row order."""
    order = np.argsort(codes, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(codes[order])) + 1)


def _stimulus_groups(trials: Trials):
    """Distinct nominal lengths, ascending, and the rows of each."""
    nominals, inverse = np.unique(trials.nominal_length, return_inverse=True)
    return nominals.tolist(), _groups(inverse)


def per_stimulus_errors(trials: Trials) -> ErrorDecomposition:
    """Per-stimulus normalized bias / cv / rmse of an adjusted session.

    Groups by nominal length; within each group S_Mi is the mean actually
    presented length, bias = |R_Mi - S_Mi| / S-bar and cv is the population
    sd of the responses / S-bar.  Session values are unweighted means over
    the groups.
    """
    if not len(trials):
        raise DegenerateDataError("empty session")
    s_bar = float(trials.actual_length.mean())
    per = []
    for nominal, rows in zip(*_stimulus_groups(trials)):
        resp = trials.response[rows]
        s_mi = float(trials.actual_length[rows].mean())
        r_mi = float(resp.mean())
        bias = abs(r_mi - s_mi) / s_bar
        cv = float(resp.std(ddof=0)) / s_bar  # exactly 0 for a single trial
        per.append(
            StimulusErrors(
                nominal, s_mi, r_mi, bias, cv, math.hypot(bias, cv), resp.size
            )
        )
    singletons = [g.nominal for g in per if g.n == 1]
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


def fit_regression_index(trials: Trials, per_group: bool = False) -> RegressionFit:
    """OLS of responses on the actually presented stimuli; index = 1 - slope.

    Fits trial-level points by default; ``per_group=True`` fits the
    per-stimulus mean points instead, in ascending nominal order.
    """
    if not len(trials):
        raise DegenerateDataError("empty session")
    x = trials.actual_length
    y = trials.response
    if per_group:
        _, groups = _stimulus_groups(trials)
        x = np.array([x[rows].mean() for rows in groups])
        y = np.array([y[rows].mean() for rows in groups])
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


def analyze_session(trials: Trials) -> SessionSummary:
    """Debias one session, then decompose errors and fit the index."""
    adjusted = debias_session(trials)
    return SessionSummary(
        participant_id=str(trials.participant_id[0]),
        condition=str(trials.condition[0]),
        fit=fit_regression_index(adjusted),
        errors=per_stimulus_errors(adjusted),
    )


def summarize_cohort(trials: Trials, k: float = 2.5) -> CohortSummary:
    """Full cohort summary: per-session analysis, 2.5-SD screening on the
    per-participant mean session RMSE, per-condition group stats and
    paired contrasts between all condition pairs.
    """
    if not len(trials):
        raise DegenerateDataError("empty dataset")
    participants, p_code = np.unique(trials.participant_id, return_inverse=True)
    conditions, c_code = np.unique(trials.condition, return_inverse=True)
    sessions = {}
    for rows in _groups(p_code * conditions.size + c_code):
        s = analyze_session(trials[rows])
        sessions[(s.participant_id, s.condition)] = s
    participants = participants.tolist()
    conditions = conditions.tolist()

    excluded = {}
    if len(participants) >= 2 and not math.isinf(k):
        metric = {
            pid: float(np.mean([s.errors.session_rmse for _, s in group]))
            for pid, group in groupby(sessions.items(), key=lambda item: item[0][0])
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

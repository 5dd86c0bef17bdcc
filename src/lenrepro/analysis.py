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
from .records import TRIAL_CSV_HEADER, Trials, write_csv

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

    A path is read as UTF-8, with or without a byte-order mark.  Files in
    the ``records`` contract are parsed by numpy's C reader; any other
    file, or any file that reader or its checks reject, goes through the
    per-cell reader, which raises the row- and column-named error.
    """
    if isinstance(source, (str, Path)):
        with open(source, newline="", encoding="utf-8-sig") as fh:
            return ingest(fh)
    try:  # a stream read only once, or a list of lines, has no start to return to
        start = source.tell() if source.seekable() else None
    except (AttributeError, OSError):
        start = None
    if start is not None:
        trials = _parse_contract(source, start)
        if trials is not None:
            return trials
        source.seek(start)
    return _read_cells(source)


_HEADER_LINE = ",".join(TRIAL_CSV_HEADER) + "\n"
_PRINTABLE = bytes(range(0x20, 0x7F)).replace(b'"', b"")


def _in_contract(fh, chunk: int = 1 << 20) -> bool:
    """Whether the rest of ``fh`` is a file that ``np.loadtxt`` reads as
    the per-cell reader does: the exact contract header, then at least one
    data row, all of it printable ASCII and LF, with no quote and no blank
    line.

    The C parser strips the separators U+001C-U+001F around numbers, which
    ``float()`` rejects, and reads some non-ASCII letters as digits of
    ``trial_index`` (U+01FE as 462), so both go to the per-cell reader.
    """
    try:
        if fh.readline() != _HEADER_LINE:
            return False
        text = fh.read(chunk)
        if not text or text.startswith("\n"):
            return False
        while text:
            if not text.isascii() or "\n\n" in text:
                return False
            # printable ASCII but the quote deleted, one LF per line is left
            if text.encode("ascii").translate(None, _PRINTABLE).strip(b"\n"):
                return False
            last, text = text[-1], fh.read(chunk)
            if last == "\n" and text.startswith("\n"):
                return False
    except UnicodeDecodeError:
        return False  # raised again, by the per-cell reader
    return True


def _parse_contract(fh, start) -> Trials | None:
    """The trials of a contract file, parsed by numpy's C reader one dtype
    at a time, or None when the per-cell reader has to decide.

    Every check of the per-cell reader is made in bulk: finite numbers,
    ``actual > 0``, ``response >= 0`` and unique trial keys.
    """
    if not _in_contract(fh):
        return None

    def load(dtype, usecols):
        fh.seek(start)
        return np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None,
                          skiprows=1, usecols=usecols, ndmin=2)

    try:
        ids, index, values = load(str, (0, 1)), load(np.int64, (2,)), load(float, (3, 4, 5))
    except ValueError:
        return None
    nominal, actual, response = values.T
    if not (np.isfinite(values).all() and (actual > 0).all() and (response >= 0).all()):
        return None
    trials = Trials(*ids.T, index[:, 0], nominal, actual, response)
    sessions = _session_keys(trials)
    order = np.lexsort((trials.trial_index, sessions))
    sessions, trial_index = sessions[order], trials.trial_index[order]
    if np.any((sessions[1:] == sessions[:-1]) & (trial_index[1:] == trial_index[:-1])):
        return None
    return trials


def _read_cells(source) -> Trials:
    """The per-cell reader: ``csv.reader`` and one Python cast per cell."""
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
            stacklevel=3,  # the caller of ingest
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


class _Segments:
    """Rows grouped by an integer key: groups in key order, the rows of each
    in table order.

    Groups of equal length form a bucket that is gathered as one (m, k)
    block.  Reducing a C-contiguous block along its rows sums each group as
    the 1-d reduction of that group alone does, so the results equal a loop
    over the groups bit for bit.  ``np.add.reduceat`` sums in another order,
    and zero-padding the groups to one width would change numpy's pairwise
    blocking, so neither is used.
    """

    def __init__(self, keys: np.ndarray):
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        self.lengths = np.diff(np.r_[starts, keys.size])
        self.first_rows = order[starts]
        self.buckets = []  # (group numbers, (m, k) row indices)
        for k in np.unique(self.lengths):
            groups = np.flatnonzero(self.lengths == k)
            self.buckets.append((groups, order[starts[groups, None] + np.arange(k)]))

    def __len__(self) -> int:
        return self.lengths.size

    def labels(self) -> np.ndarray:
        """The group number of each row."""
        label = np.empty(self.lengths.sum(), np.intp)
        for groups, rows in self.buckets:
            label[rows] = groups[:, None]
        return label

    def reduce(self, fn, *columns) -> list:
        """Apply ``fn`` to each bucket's (m, k) blocks of ``columns``.  It
        returns arrays of m values, one per group of the bucket; each output
        is gathered into one array indexed by group number."""
        out = None
        for groups, rows in self.buckets:
            values = fn(*(column[rows] for column in columns))
            if out is None:
                out = [np.empty(len(self), v.dtype) for v in values]
            for o, v in zip(out, values):
                o[groups] = v
        return out


def _means(*blocks) -> list:
    return [block.mean(axis=1) for block in blocks]


def _sessions(trials: Trials, keys: np.ndarray | None = None) -> tuple:
    """The sessions of the table by key, or the whole table as one session
    when ``keys`` is None; the session number of each row; and the mean
    actual length of each session."""
    if keys is None:
        if not len(trials):
            raise DegenerateDataError("empty session")
        keys = np.zeros(len(trials), np.intp)
    sessions = _Segments(keys)
    s_bar, = sessions.reduce(_means, trials.actual_length)
    return sessions, sessions.labels(), s_bar


def _debiased(trials: Trials, sessions: _Segments, label, s_bar) -> np.ndarray:
    """Responses shifted so that each session's mean response is its mean
    actual length ``s_bar``; ``label`` is the session of each row."""
    mean_response, = sessions.reduce(_means, trials.response)
    return trials.response + (s_bar - mean_response)[label]


def _fit_lines(segments: _Segments, x, y) -> list:
    """OLS of y on x within each segment: (slope, intercept, r_squared,
    denominator) arrays.  A zero denominator marks a constant x, which
    the callers reject."""

    def fit(x, y):
        x_mean = x.mean(axis=1, keepdims=True)
        y_mean = y.mean(axis=1, keepdims=True)
        xc = x - x_mean
        yc = y - y_mean
        denom = np.vecdot(xc, xc)  # per row, np.dot's sum
        with np.errstate(divide="ignore", invalid="ignore"):  # a zero denom
            slope = np.vecdot(xc, yc) / denom
        intercept = y_mean[:, 0] - slope * x_mean[:, 0]
        resid = y - (intercept[:, None] + slope[:, None] * x)
        ss_tot = np.sum(yc**2, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):  # r2 = 0 there
            r2 = np.where(ss_tot > 0, 1.0 - np.sum(resid**2, axis=1) / ss_tot, 0.0)
        return slope, intercept, r2, denom

    return segments.reduce(fit, x, y)


def _regression_fits(slope, intercept, r2, denom) -> list:
    if (denom == 0).any():
        raise DegenerateDataError("all stimulus values identical")
    return [
        RegressionFit(b, a, 1.0 - b, r)
        for b, a, r in zip(slope.tolist(), intercept.tolist(), r2.tolist())
    ]


def _stimulus_groups(trials: Trials, label, response):
    """The stimulus groups of each session (``label`` per row), by ascending
    nominal length.

    Returns the runs of groups of each session, and per group its
    nominal, mean actual length, mean response, population sd of the
    responses and number of trials.
    """
    nominals, code = np.unique(trials.nominal_length, return_inverse=True)
    groups = _Segments(label * nominals.size + code)
    first = groups.first_rows
    mean_actual, mean_response, sd = groups.reduce(
        lambda actual, resp: (*_means(actual, resp), resp.std(axis=1)),
        trials.actual_length, response,
    )
    runs = _Segments(label[first])
    return runs, nominals[code[first]], mean_actual, mean_response, sd, groups.lengths


def _group_errors(trials: Trials, label, s_bar, response) -> tuple:
    """Normalized errors of the stimulus groups of each session (``label``
    per row, ``s_bar`` its mean actual length) with these responses.

    Returns the :class:`StimulusErrors` fields per group, the number of
    groups of each session, each session's mean bias, cv and rmse over its
    groups, and ``s_bar``: all the arguments of :func:`_decompositions`.
    """
    runs, nominal, s_mi, r_mi, sd, n = _stimulus_groups(trials, label, response)
    s_bar_of_group = np.repeat(s_bar, runs.lengths)
    bias = np.abs(r_mi - s_mi) / s_bar_of_group
    cv = sd / s_bar_of_group  # exactly 0 for a single trial
    rmse = np.array(list(map(math.hypot, bias.tolist(), cv.tolist())))
    per_group = (nominal, s_mi, r_mi, bias, cv, rmse, n)
    return per_group, runs.lengths, runs.reduce(_means, bias, cv, rmse), s_bar


def _decompositions(per_group, run_lengths, session_means, s_bar) -> list:
    """ErrorDecomposition of each session from :func:`_group_errors`."""
    groups = list(map(StimulusErrors, *(column.tolist() for column in per_group)))
    out, start = [], 0
    for stop, *values in zip(np.cumsum(run_lengths).tolist(),
                             *(m.tolist() for m in session_means), s_bar.tolist()):
        per = tuple(groups[start:stop])
        out.append(ErrorDecomposition(
            per, *values, tuple(g.nominal for g in per if g.n == 1)
        ))
        start = stop
    return out


def _warn_singletons(errors: ErrorDecomposition, stacklevel: int) -> None:
    if errors.singleton_groups:
        warnings.warn(
            "stimulus groups with a single trial (cv set to 0): "
            f"{list(errors.singleton_groups)}",
            stacklevel=stacklevel + 1,
        )


def _reduce_sessions(trials: Trials, keys: np.ndarray | None) -> tuple:
    """The numbers of each session, in key order: debias the session, fit
    the index on its trials and reduce its stimulus groups.

    Returns the first row of each session, the :func:`_fit_lines` arrays,
    the :func:`_group_errors` tuple, and where and how a loop over the
    sessions would have stopped: the number of the first session with a
    non-finite debiased response or a constant stimulus (the number of
    sessions if none), and that session's first non-finite response (None
    if it has none).  The row-length arrays stay local, so they are freed
    before the caller builds the per-session objects.
    """
    sessions, label, s_bar = _sessions(trials, keys)
    response = _debiased(trials, sessions, label, s_bar)
    with np.errstate(invalid="ignore"):  # a non-finite response raises
        fit = _fit_lines(sessions, trials.actual_length, response)
        group_errors = _group_errors(trials, label, s_bar, response)
    nonfinite = np.flatnonzero(~np.isfinite(response))
    failed = np.union1d(label[nonfinite], np.flatnonzero(fit[-1] == 0))
    stop = int(failed[0]) if failed.size else len(sessions)
    bad = response[nonfinite[label[nonfinite] == stop]]
    return (sessions.first_rows, fit, group_errors, stop,
            bad[0].item() if bad.size else None)


def _analyze(trials: Trials, keys: np.ndarray | None = None) -> list:
    """SessionSummary of each session (see :func:`_sessions`), in key order.

    Errors and warnings come as a loop over the sessions would raise them:
    the singleton-group warnings of the sessions before the first one that
    cannot be analyzed, then its error (a non-finite debiased response
    before a constant stimulus).
    """
    first, lines, group_errors, stop, nonfinite = _reduce_sessions(trials, keys)
    errors = _decompositions(*group_errors)
    for e in errors[:stop]:
        _warn_singletons(e, 1)
    if nonfinite is not None:
        raise ValueError(f"response must be finite, got {nonfinite}")
    return [
        SessionSummary(pid, cond, fit, e)
        for pid, cond, fit, e in zip(
            trials.participant_id[first].tolist(), trials.condition[first].tolist(),
            _regression_fits(*lines), errors,
        )
    ]


def debias_session(trials: Trials) -> Trials:
    """Remove the constant response offset of one participant+condition:
    response' = response - mean(responses) + mean(actual stimuli).
    """
    sessions, label, s_bar = _sessions(trials)
    return Trials(*trials.columns[:-1], _debiased(trials, sessions, label, s_bar))


def per_stimulus_errors(trials: Trials) -> ErrorDecomposition:
    """Per-stimulus normalized bias / cv / rmse of an adjusted session.

    Groups by nominal length; within each group S_Mi is the mean actually
    presented length, bias = |R_Mi - S_Mi| / S-bar and cv is the population
    sd of the responses / S-bar.  Session values are unweighted means over
    the groups.
    """
    _, label, s_bar = _sessions(trials)
    errors, = _decompositions(*_group_errors(trials, label, s_bar, trials.response))
    _warn_singletons(errors, 2)
    return errors


def fit_regression_index(trials: Trials, per_group: bool = False) -> RegressionFit:
    """OLS of responses on the actually presented stimuli; index = 1 - slope.

    Fits trial-level points by default; ``per_group=True`` fits the
    per-stimulus mean points instead, in ascending nominal order.
    """
    segments, label, _ = _sessions(trials)
    x, y = trials.actual_length, trials.response
    if per_group:
        segments, _, x, y, _, _ = _stimulus_groups(trials, label, y)
    fit, = _regression_fits(*_fit_lines(segments, x, y))
    return fit


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
    summary, = _analyze(trials)
    return summary


def _codes(column: np.ndarray, chunk: int = 8192) -> tuple:
    """``np.unique(column, return_inverse=True)``, a chunk of rows at a time.

    ``np.unique`` sorts two copies of its input; for the 10-character
    condition ids of a 79,200-trial cohort they would set the peak memory
    of ``analyze``.
    """
    parts = [np.unique(column[i:i + chunk], return_inverse=True)
             for i in range(0, column.size, chunk)]
    values = np.unique(np.concatenate([part for part, _ in parts]))
    return values, np.concatenate(
        [np.searchsorted(values, part)[inverse] for part, inverse in parts]
    )


def _session_keys(trials: Trials) -> np.ndarray:
    """Each row's session key, ordered as (participant id, condition)."""
    _, p_code = _codes(trials.participant_id)
    conditions, c_code = _codes(trials.condition)
    return p_code * conditions.size + c_code


def summarize_cohort(trials: Trials, k: float = 2.5) -> CohortSummary:
    """Full cohort summary: per-session analysis, 2.5-SD screening on the
    per-participant mean session RMSE, per-condition group stats and
    paired contrasts between all condition pairs.
    """
    if not len(trials):
        raise DegenerateDataError("empty dataset")
    sessions = {
        (s.participant_id, s.condition): s for s in _analyze(trials, _session_keys(trials))
    }
    participants = list(dict.fromkeys(pid for pid, _ in sessions))  # in key order
    conditions = sorted({cond for _, cond in sessions})

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
    def row(key):
        fit, errors = summary.sessions[key].fit, summary.sessions[key].errors
        return (*key, fit.regression_index, fit.slope, fit.intercept, fit.r_squared,
                errors.session_bias, errors.session_cv, errors.session_rmse,
                key[0] in summary.excluded)

    write_csv(path, "participant_id,condition,regression_index,slope,intercept,"
              "r_squared,bias,cv,rmse,excluded",
              "%s,%s" + ",%.6f" * 7 + ",%d", map(row, sorted(summary.sessions)))


def write_condition_csv(summary: CohortSummary, path) -> None:
    def row(cond):
        g = summary.condition_stats[cond]
        return (cond, g["regression_index"].n,
                *(v for m in _METRICS for v in (g[m].mean, g[m].sd)))

    write_csv(path, "condition,n,ri_mean,ri_sd,bias_mean,bias_sd,cv_mean,cv_sd,"
              "rmse_mean,rmse_sd", "%s,%d" + ",%.6f" * 8,
              map(row, sorted(summary.condition_stats)))

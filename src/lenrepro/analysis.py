"""Empirical pipeline: ingestion, constant-bias removal, per-stimulus
error decomposition, regression index, outlier screening, cohort summary.

``summarize_cohort`` reduces all sessions at once, straight to one table
of columns (:class:`SessionTable`) and the condition statistics and
contrasts computed from it.  ``summarize_file`` gives the same summary
from a trial CSV without holding its table: it reduces the sessions of a
contract file a block of whole sessions at a time and merges their
per-session columns.

Memory: above its table, ``summarize_cohort`` holds one row-sized index
array: the order of the sessions' rows, which sorting each session's rows
by nominal length turns into the order of the stimulus groups, in place
when the sessions are all of one length.  The debiased responses are
never stored: each block of rows adds its session's shift as it is
gathered.  Every other array has a value per session or per stimulus
group, or a block of at most ``_BLOCK_SIZE`` values.  On the seed-1
``cohort`` file it peaks at 0.27 times the table above it, ``ingest`` at
1.11 times the table, and ``summarize_file`` at 0.24 times the table that
``ingest`` would build.

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
import io
import math
import sys
from dataclasses import dataclass, fields
from itertools import combinations
from pathlib import Path
from typing import Mapping

import numpy as np

from . import stats
from .model import _warn
from .records import _UNWRITABLE, TRIAL_CSV_HEADER, Trials, write_csv

_TRUTHY = {"1", "true", "yes"}


class IngestionError(ValueError):
    pass


class DegenerateDataError(ValueError):
    pass


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


@dataclass(frozen=True, eq=False)
class SessionTable:
    """The results of a cohort's sessions as columns, one array each and
    in the column order of ``per_participant.csv``, the rows in
    (participant id, condition) key order.  ``len()`` counts the
    sessions."""

    participant_id: np.ndarray
    condition: np.ndarray
    regression_index: np.ndarray
    slope: np.ndarray
    intercept: np.ndarray
    r_squared: np.ndarray
    bias: np.ndarray
    cv: np.ndarray
    rmse: np.ndarray

    def __len__(self) -> int:
        return self.participant_id.size


@dataclass(frozen=True)
class CohortSummary:
    sessions: SessionTable
    condition_stats: Mapping   # condition -> metric -> GroupStats
    contrasts: tuple           # of PairedContrast
    excluded: Mapping          # participant_id -> reason


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
    of a non-numeric, non-finite or out-of-range cell, or of an id holding
    a comma, a double quote, CR or LF, which no output CSV can hold.

    A path is read as UTF-8, with or without a byte-order mark.  Files in
    the ``records`` contract are scanned, then parsed in one pass by
    numpy's C reader; any other file, or any file that reader or its
    checks reject, goes through the per-cell reader, which raises the row-
    and column-named error.
    """
    if isinstance(source, (str, Path)):
        with open(source, newline="", encoding="utf-8-sig") as fh:
            return ingest(fh)
    start = _start(source)
    if start is not None:
        trials = _parse_contract(source, start)
        if trials is not None:
            return trials
        source.seek(start)
    return _read_cells(source)


def _start(source) -> int | None:
    """The position of a seekable stream, or None for a stream read only
    once or a list of lines, which have no start to return to."""
    try:
        return source.tell() if source.seekable() else None
    except (AttributeError, OSError):
        return None


_HEADER_LINE = ",".join(TRIAL_CSV_HEADER) + "\n"
_PRINTABLE = bytes(range(0x20, 0x7F)).replace(b'"', b"")


_SCAN_CHUNK = 1 << 15  # characters the contract scan and parse read at a time
# values of a column that _Segments and the duplicate-key check of the
# contract parse compare or reduce at a time; blocks of 2**14 raised the
# traced peak of summarize_cohort on the seed-1 cohort by 0.25 MiB
_BLOCK_SIZE = 1 << 13
# rows that summarize_file reduces at a time, unless one session is longer
_SESSION_ROWS = 1 << 13


def _blocks(fh, chunk: int):
    """The rest of ``fh`` as blocks of whole lines, read ``chunk``
    characters at a time; each block ends in LF, and a last line without
    one gets it."""
    rest = ""
    while text := fh.read(chunk):
        text = rest + text
        end = text.rfind("\n") + 1  # a line cut by the chunk waits for the next
        if end:
            yield text[:end]
        rest = text[end:]
    if rest:
        yield rest + "\n"


def _scan(lines: str, widths: tuple) -> tuple | None:
    """A block of whole LF-ended lines of a contract file as ASCII bytes,
    ``widths`` widened to the lengths of its longest participant id and
    longest condition, and its number of lines; None unless every line is
    one that ``np.loadtxt`` reads as the per-cell reader does: printable
    ASCII, with no quote and at least six fields.

    The C parser strips the separators U+001C-U+001F around numbers, which
    ``float()`` rejects, and reads some non-ASCII letters as digits of
    ``trial_index`` (U+01FE as 462), so both go to the per-cell reader.
    ``np.loadtxt`` cuts a string longer than its dtype without a word, so
    the ids are parsed at the widths found here.
    """
    if not lines.isascii():
        return None
    data = lines.encode("ascii")
    # printable ASCII but the quote deleted, one LF per line is left
    if data.translate(None, _PRINTABLE).strip(b"\n"):
        return None
    widths = _id_widths(data, widths)
    return None if widths is None else (data, widths, data.count(b"\n"))


def _in_contract(fh, chunk: int) -> tuple | None:
    """The number of data rows in the rest of ``fh``, and the widths of
    :func:`_scan`, if it is the exact contract header, then at least one
    data row, every block of which passes :func:`_scan`.  None for any
    other file."""
    try:
        if fh.readline() != _HEADER_LINE:
            return None
        rows, widths = 0, (0, 0)
        for lines in _blocks(fh, chunk):
            scanned = _scan(lines, widths)
            if scanned is None:
                return None
            _, widths, n = scanned
            rows += n
        return (rows, widths) if rows else None
    except UnicodeDecodeError:
        return None  # raised again, by the per-cell reader


def _id_widths(lines, widths: tuple) -> tuple | None:
    """``widths`` widened to the longest first and second field of these
    LF-ended lines, or None when a line has fewer than six fields."""
    text = np.frombuffer(lines, np.uint8)
    ends = np.flatnonzero((text == ord(",")) | (text == ord("\n")))  # of every field
    lf = np.flatnonzero(text[ends] == ord("\n"))
    first = np.r_[0, lf + 1][:-1]  # each line's first field end, as an index of ends
    if np.any(lf - first < 5):
        return None
    start = np.r_[0, ends[lf] + 1][:-1]
    comma1, comma2 = ends[first], ends[first + 1]
    return ((comma1 - start).max(initial=widths[0]).item(),
            (comma2 - comma1 - 1).max(initial=widths[1]).item())


def _columns(rows: int, widths: tuple) -> list:
    """Empty trial columns of ``rows`` rows, the ids at ``widths``."""
    return [np.empty(rows, dtype) for dtype in (
        *(f"U{max(1, width)}" for width in widths), np.int64, float, float, float)]


def _parse_into(data: bytes, columns: list, first: int) -> int | None:
    """Parse a block that passed :func:`_scan` with numpy's C reader, one
    structured dtype for the dtypes of ``columns``, into their rows from
    ``first`` on; returns the row after the last one filled, or None when
    the reader rejects a line or the columns have no room for its rows."""
    dtype = np.dtype([(str(i), column.dtype) for i, column in enumerate(columns)])
    try:
        # a trailing comma on every row makes a seventh, empty field
        table = np.loadtxt(io.BytesIO(data), dtype=dtype, delimiter=",", comments=None,
                           usecols=range(6), ndmin=1)
    except ValueError:
        return None
    stop = first + table.size
    if stop > columns[0].size:
        return None
    for name, column in zip(dtype.names, columns):
        column[first:stop] = table[name]
    return stop


def _in_range(nominal, actual, response) -> bool:
    """Whether the parsed values pass the checks of the per-cell reader:
    finite numbers, ``actual > 0`` and ``response >= 0``."""
    return (all(np.isfinite(v).all() for v in (nominal, actual, response))
            and (actual > 0).all() and (response >= 0).all())


def _parse_contract(fh, start) -> Trials | None:
    """The trials of a contract file, or None when the per-cell reader has
    to decide.

    After the scan, one pass: each block of whole lines is parsed by
    :func:`_parse_into` straight into columns allocated for the rows the
    scan counted, each id column at the width of its longest value, and
    the table adopts every column without a copy.  Then every check of the
    per-cell reader is made in bulk: the values (:func:`_in_range`) and
    unique trial keys.
    """
    chunk = _SCAN_CHUNK
    scanned = _in_contract(fh, chunk)
    if scanned is None:
        return None
    columns = _columns(*scanned)
    fh.seek(start)
    fh.readline()
    stop = 0
    for lines in _blocks(fh, chunk):
        stop = _parse_into(lines.encode("ascii"), columns, stop)
        if stop is None:
            return None
    if stop < len(columns[0]) or not _in_range(*columns[3:]):
        return None
    for column in columns:
        column.flags.writeable = False  # so the table adopts it
    trials = Trials(*columns)
    # sorted by key, a repeated key sits next to itself; compare a block of
    # neighbours at a time, and the ids only where their trial indices match
    order = np.lexsort((trials.trial_index, trials.condition, trials.participant_id))
    for i in range(1, order.size, _BLOCK_SIZE):
        rows = order[i - 1:i + _BLOCK_SIZE]
        index = trials.trial_index[rows]
        same = np.flatnonzero(index[1:] == index[:-1])
        first, second = rows[same], rows[same + 1]
        if np.any((trials.participant_id[first] == trials.participant_id[second])
                  & (trials.condition[first] == trials.condition[second])):
            return None
    return trials


def _repeats_a_key(trials: Trials, sessions: _Segments) -> bool:
    """Whether a session of ``sessions`` repeats a trial index.  The
    indices of a session must rise in table order; only a session where
    they do not is sorted, on its own, and its neighbours compared."""
    for _, rows in sessions.blocks():
        index = trials.trial_index[rows]
        unsorted = (index[:, 1:] <= index[:, :-1]).any(axis=1)
        index = np.sort(index[unsorted], axis=1)
        if (index[:, 1:] == index[:, :-1]).any():
            return True
    return False


def _last_run(pid, cond) -> int:
    """Where the last run of rows of one (participant id, condition) key
    starts."""
    new = np.flatnonzero((pid[1:] != pid[:-1]) | (cond[1:] != cond[:-1]))
    return new[-1].item() + 1 if new.size else 0


def _session_blocks(fh):
    """The data rows of the contract file ``fh``, after its header, as
    tables of at most ``_SESSION_ROWS`` rows, or more when one session's
    rows run longer; each table ends where a run of one session's rows
    ends, so no such run spans two tables.  Yields None, and stops, at a
    block of lines that fails :func:`_scan`, :func:`_parse_into` or
    :func:`_in_range`."""
    columns, fill, widths = None, 0, (0, 0)
    for lines in _blocks(fh, _SCAN_CHUNK):
        scanned = _scan(lines, widths)
        if scanned is None:
            yield None
            return
        data, widths, rows = scanned
        if columns is not None and fill + rows > columns[0].size:
            cut = _last_run(*(column[:fill] for column in columns[:2]))
            if cut:
                yield _table(columns, cut)
                columns = [column[cut:fill].copy() for column in columns]
                fill -= cut
        columns = _room(columns, fill, rows, widths)
        if _parse_into(data, columns, fill) != fill + rows:
            yield None
            return
        fill += rows
    if fill:
        yield _table(columns, fill)


def _table(columns: list, stop: int) -> Trials | None:
    """The first ``stop`` rows of ``columns``, which are no longer written,
    as a table that adopts them; None when a value fails :func:`_in_range`."""
    if not _in_range(*(column[:stop] for column in columns[3:])):
        return None
    for column in columns:
        column.flags.writeable = False
    return Trials(*(column[:stop] for column in columns))


def _room(columns: list | None, fill: int, rows: int, widths: tuple) -> list:
    """``columns`` if they have room for ``rows`` more rows after their
    first ``fill``, and ids of ``widths``; otherwise new columns that do,
    holding those first rows."""
    if columns is not None and fill + rows <= columns[0].size and all(
            column.itemsize >= 4 * width for column, width in zip(columns, widths)):
        return columns
    size = max(_SESSION_ROWS, fill + rows)
    wider = _columns(2 * size if size > _SESSION_ROWS else size, widths)
    for new, column in zip(wider, columns or ()):
        new[:fill] = column[:fill]
    return wider


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
        _warn("actual_length_cm column absent; defaulting to nominal_length_cm")
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
    seen, plain = set(), set()  # trial keys, and the id pairs checked once each
    # blank lines are skipped and not counted
    for rownum, row in enumerate(filter(None, reader), start=1):
        row += [""] * (len(header) - len(row))  # missing trailing cells read empty
        if practice is not None and row[practice].strip().lower() in _TRUTHY:
            continue
        # one shared string per id: a copy per row would dominate peak memory
        ids = (sys.intern(row[pid]), sys.intern(row[cond]))
        if ids not in plain:
            for col, value in zip(("participant_id", "condition"), ids):
                if not _UNWRITABLE.isdisjoint(value):
                    raise IngestionError(f"row {rownum}: {col} {value!r} holds a comma, a "
                                         "double quote, CR or LF, which no output CSV can hold")
            plain.add(ids)
        trial_index, nominal, actual, response = [
            _cell(row[i], rownum, col, cast) for i, col, cast in numeric
        ]
        if actual <= 0:
            raise IngestionError(f"row {rownum}: {actual_col} must be > 0, got {actual}")
        if response < 0:
            raise IngestionError(f"row {rownum}: response must be >= 0, got {response}")
        key = ids + (trial_index,)
        if key in seen:
            raise IngestionError(f"row {rownum}: duplicate trial key {key}")
        seen.add(key)
        for column, value in zip(columns, (*key, nominal, actual, response)):
            column.append(value)
    return Trials(*columns)


class _Segments:
    """Rows grouped by equal values of the key columns: groups in key order,
    the last key primary as in ``np.lexsort``, the rows of each in table
    order.  Two NaNs are equal, as in ``np.unique``.

    Groups of equal length form a bucket that is gathered as (m, k) blocks.
    Reducing a C-contiguous block along its rows sums each group as the 1-d
    reduction of that group alone does, so the results equal a loop over
    the groups bit for bit, whatever the size of the block; bounding it
    bounds the memory of every reduction.  ``np.add.reduceat`` sums in
    another order, and zero-padding the groups to one width would change
    numpy's pairwise blocking, so neither is used.
    """

    def __init__(self, *keys):
        order = np.lexsort(keys)
        new = np.zeros(order.size, bool)  # whether a sorted row starts a group
        new[:1] = True
        self._split(order, new, keys)

    @classmethod
    def within(cls, outer: _Segments, key) -> _Segments:
        """The groups of ``_Segments(key, outer.labels())``: each group of
        ``outer`` split by equal values of ``key``, without a label or a
        sort of the whole table.  The rows of each group of ``outer``, in
        table order, are sorted stably by ``key`` a block of groups at a
        time, into that group's place in the order.

        ``outer`` is spent: when its groups are all of one length, their
        rows are its order, and that is sorted in place and reused.
        """
        size = outer.lengths.sum()
        order = (outer.buckets[0][1].reshape(-1) if len(outer.buckets) == 1
                 else np.empty(size, np.intp))
        new = np.zeros(size, bool)
        starts = np.cumsum(outer.lengths) - outer.lengths  # of each outer group
        new[starts] = True
        for groups, rows in outer.blocks():
            place = starts[groups, None] + np.arange(rows.shape[1])
            order[place] = np.take_along_axis(
                rows, np.argsort(key[rows], axis=1, kind="stable"), axis=1)
        segments = cls.__new__(cls)
        segments._split(order, new, (key,))
        return segments

    def _split(self, order, new, keys) -> None:
        """Group the rows of ``order``, which sorts ``keys``, where ``new``
        or a change of a key starts a group."""
        # a block of sorted values at a time, not a sorted copy of a key
        for key in keys:
            for i in range(1, order.size, _BLOCK_SIZE):
                values = key[order[i - 1:i + _BLOCK_SIZE]]
                differ = values[1:] != values[:-1]
                if values.dtype.kind == "f":
                    differ &= ~(np.isnan(values[1:]) & np.isnan(values[:-1]))
                new[i:i + _BLOCK_SIZE] |= differ
        starts = np.flatnonzero(new)
        self.lengths = np.diff(np.r_[starts, order.size])
        self.first_rows = order[starts]
        self.buckets = []  # (group numbers, (m, k) row indices)
        for k in np.flatnonzero(np.bincount(self.lengths)):
            groups = np.flatnonzero(self.lengths == k)
            # groups all of one length: their rows are the order itself
            rows = (order.reshape(-1, k) if groups.size == starts.size
                    else order[starts[groups, None] + np.arange(k)])
            self.buckets.append((groups, rows))

    def __len__(self) -> int:
        return self.lengths.size

    def labels(self) -> np.ndarray:
        """The group number of each row."""
        label = np.empty(self.lengths.sum(), np.intp)
        for groups, rows in self.buckets:
            label[rows] = groups[:, None]
        return label

    def blocks(self):
        """Each bucket's group numbers and (m, k) rows, in blocks of at
        most ``_BLOCK_SIZE`` values, or of one group when it is longer."""
        for groups, rows in self.buckets:
            m = max(1, _BLOCK_SIZE // rows.shape[1])
            for i in range(0, groups.size, m):
                yield groups[i:i + m], rows[i:i + m]

    def reduce(self, fn, *columns, shift=None) -> list:
        """Apply ``fn`` to the (m, k) blocks of ``columns`` of :meth:`blocks`.
        ``shift``, one value per group, is added to each group's values of
        the last column first, so the shifted column is never stored whole.
        ``fn`` returns arrays of m values, one per group of the block; each
        output is gathered into one array indexed by group number."""
        out = None
        for groups, rows in self.blocks():
            blocks = [column[rows] for column in columns]
            if shift is not None:
                blocks[-1] += shift[groups, None]
            values = fn(*blocks)
            if out is None:
                out = [np.empty(len(self), v.dtype) for v in values]
            for o, v in zip(out, values):
                o[groups] = v
        return out


def _means(*blocks) -> list:
    return [block.mean(axis=1) for block in blocks]


def _shift(trials: Trials, sessions: _Segments, s_bar) -> np.ndarray:
    """What debiasing adds to each response of a session: its mean actual
    length ``s_bar`` less its mean response."""
    mean_response, = sessions.reduce(_means, trials.response)
    return s_bar - mean_response


def _first_nonfinite(values) -> tuple:
    """Per row of a block: whether a value is not finite, and the first
    such value."""
    bad = ~np.isfinite(values)
    return bad.any(axis=1), values[np.arange(len(values)), bad.argmax(axis=1)]


def _fit_lines(segments: _Segments, x, y, shift) -> list:
    """OLS of y (plus ``shift`` per segment) on x within each segment:
    (slope, intercept, r_squared, denominator) arrays.  A zero denominator
    marks a constant x, which the caller rejects."""

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

    return segments.reduce(fit, x, y, shift=shift)


def _stimulus_groups(trials: Trials, sessions: _Segments) -> tuple:
    """The stimulus groups of each of ``sessions``, by ascending nominal
    length, and the session of each group.  ``sessions`` is spent (see
    :meth:`_Segments.within`)."""
    groups = _Segments.within(sessions, trials.nominal_length)
    # a group's session is the first whose rows end at or after the group's
    return groups, np.searchsorted(np.cumsum(sessions.lengths), np.cumsum(groups.lengths))


def _group_means(trials: Trials, groups: _Segments, shift) -> tuple:
    """Per stimulus group, with the responses plus ``shift`` per group: its
    nominal, mean actual length, mean response, population sd of the
    responses and number of trials."""
    mean_actual, mean_response, sd = groups.reduce(
        lambda actual, resp: (*_means(actual, resp), resp.std(axis=1)),
        trials.actual_length, trials.response, shift=shift,
    )
    return (trials.nominal_length[groups.first_rows], mean_actual, mean_response, sd,
            groups.lengths)


_hypot = np.frompyfunc(math.hypot, 2, 1)


def _group_errors(per_group: tuple, session, s_bar) -> list:
    """Each session's mean normalized bias, cv and rmse over its stimulus
    groups of :func:`_group_means`, with ``session`` the session of each
    group and ``s_bar`` its mean actual length.  A group's bias is
    |R_Mi - S_Mi| / S-bar, its cv the population sd of its responses over
    S-bar, and its rmse the hypotenuse of the two."""
    _, s_mi, r_mi, sd, _ = per_group
    s_bar_of_group = s_bar[session]
    bias = np.abs(r_mi - s_mi) / s_bar_of_group
    cv = sd / s_bar_of_group  # exactly 0 for a single trial
    # math.hypot, one value at a time instead of through lists of them
    rmse = _hypot(bias, cv).astype(float)
    return _Segments(session).reduce(_means, bias, cv, rmse)


def _warn_singletons(nominals) -> None:
    if nominals:
        _warn(f"stimulus groups with a single trial (cv set to 0): {list(nominals)}")


def _check_k(k: float) -> None:
    if math.isnan(k):  # k = inf screens no one; NaN would too, silently
        raise ValueError(f"outlier SD multiplier k must not be NaN, got {k}")
    if k < 0:  # would exclude participants below the mean, or everyone
        raise ValueError(f"outlier SD multiplier k must be >= 0, got {k}")


def screen_outliers(metrics: Mapping[str, float], k: float = 2.5):
    """Single-pass screen: drop ids whose metric exceeds mean + k * sample sd.

    Returns (kept_ids, excluded_ids), each sorted.
    """
    _check_k(k)
    if len(metrics) < 2:
        raise DegenerateDataError("screening needs >= 2 participants")
    ids = sorted(metrics)
    values = np.array([metrics[i] for i in ids])
    threshold = values.mean() + k * values.std(ddof=1)
    kept = [i for i in ids if not metrics[i] > threshold]
    excluded = [i for i in ids if metrics[i] > threshold]
    return kept, excluded


_METRICS = ("regression_index", "bias", "cv", "rmse")


def _numbered(values: np.ndarray) -> tuple:
    """The distinct values in sorted order, and the number of each value
    among them."""
    groups = _Segments(values)
    return values[groups.first_rows], groups.labels()


def _session_columns(trials: Trials, sessions: _Segments) -> list:
    """Debias each of the table's ``sessions`` (of participant id and
    condition), fit its index on its trials and reduce its stimulus groups.
    ``sessions`` is spent.

    Returns one column per result, each with a value per session in
    (participant id, condition) order: participant id, condition, slope,
    intercept, r_squared, bias, cv, rmse, then two object columns, which
    :func:`_summary` issues: the nominals of the session's stimulus groups
    of a single trial, and the error that stops the cohort at the session
    (a non-finite debiased response before a constant stimulus); None
    where there are none.
    """
    n_sessions = len(sessions)
    pids, conds = (ids[sessions.first_rows] for ids in (trials.participant_id, trials.condition))
    s_bar, = sessions.reduce(_means, trials.actual_length)
    shift = _shift(trials, sessions, s_bar)
    with np.errstate(invalid="ignore"):  # a non-finite response raises
        slope, intercept, r2, denom = _fit_lines(
            sessions, trials.actual_length, trials.response, shift)
        nonfinite, bad = sessions.reduce(_first_nonfinite, trials.response, shift=shift)
        groups, session = _stimulus_groups(trials, sessions)
        del sessions  # spent: its rows may be the order of the groups
        per_group = _group_means(trials, groups, shift[session])
        del groups
        nominal, n = per_group[0], per_group[-1]
        errors = _group_errors(per_group, session, s_bar)
    singletons, failure = np.full(n_sessions, None), np.full(n_sessions, None)
    ones = n == 1
    single = session[ones]
    first = np.flatnonzero(np.diff(single, prepend=-1))  # of each session's singletons
    for s, nominals in zip(single[first].tolist(), np.split(nominal[ones], first[1:])):
        singletons[s] = nominals.tolist()
    for s in np.flatnonzero(nonfinite | (denom == 0)).tolist():
        failure[s] = (ValueError(f"response must be finite, got {bad[s].item()}")
                      if nonfinite[s] else DegenerateDataError("all stimulus values identical"))
    return [pids, conds, slope, intercept, r2, *errors, singletons, failure]


def summarize_cohort(trials: Trials, k: float = 2.5) -> CohortSummary:
    """Full cohort summary: per-session analysis, 2.5-SD screening on the
    per-participant mean session RMSE, per-condition group stats and
    paired contrasts between all condition pairs.
    """
    _check_k(k)
    if not len(trials):
        raise DegenerateDataError("empty dataset")
    # no name holds the sessions, so _session_columns can drop them
    return _summary(_session_columns(trials, _Segments(trials.condition, trials.participant_id)),
                    k)


def summarize_file(source, k: float = 2.5) -> CohortSummary:
    """``summarize_cohort(ingest(source), k)``, with the same warnings and
    errors, from a CSV path or open text stream.

    A file in the ``records`` contract is read once, and its sessions are
    reduced about ``_SESSION_ROWS`` rows at a time, so only a block of the
    trial table is ever held: each block of lines is checked and parsed
    as ``ingest`` does (:func:`_scan`, :func:`_parse_into`,
    :func:`_in_range`), and the blocks are cut where a session's rows end
    (see :func:`_session_blocks`).  Within a block a session must not
    repeat a trial index, and no session may come back in a later block.
    Any other source, a block that fails a check, and a source that cannot
    seek are summarized as ``summarize_cohort(ingest(source), k)``.

    Only numpy's own floating-point warnings, which values near the
    largest float raise, can differ: a block issues its own.
    """
    if isinstance(source, (str, Path)):
        with open(source, newline="", encoding="utf-8-sig") as fh:
            return summarize_file(fh, k)
    start = _start(source)
    columns = None if start is None else _file_sessions(source)
    if columns is None:
        if start is not None:
            source.seek(start)
        return summarize_cohort(ingest(source), k)
    _check_k(k)
    return _summary(columns, k)


def _file_sessions(fh) -> list | None:
    """The columns of :func:`_session_columns` of the blocks of
    :func:`_session_blocks`, merged in key order; None when a block fails
    a check, a session of a block repeats a trial index, or a session
    comes back in a later block, which the set of the finished sessions'
    keys shows before that block is reduced."""
    try:
        if fh.readline() != _HEADER_LINE:
            return None
        parts, finished = [], set()
        for trials in _session_blocks(fh):
            if trials is None:
                return None
            sessions = _Segments(trials.condition, trials.participant_id)
            # hashes, not the keys, to hold less: equal keys hash alike, and
            # a rare collision only sends the file to the table path
            keys = {hash(key) for key in zip(*(ids[sessions.first_rows].tolist()
                                               for ids in (trials.participant_id,
                                                           trials.condition)))}
            if not finished.isdisjoint(keys) or _repeats_a_key(trials, sessions):
                return None
            finished |= keys
            parts.append(_session_columns(trials, sessions))
            del trials, sessions, keys  # before the next block is read
    except UnicodeDecodeError:
        return None  # raised again, by the per-cell reader
    if not parts:
        return None
    columns = [np.concatenate(column) for column in zip(*parts)]
    order = np.lexsort((columns[1], columns[0]))
    return [column[order] for column in columns]


def _summary(columns: list, k: float) -> CohortSummary:
    """The cohort summary from the per-session columns of
    :func:`_session_columns`, in (participant id, condition) order.

    Warnings and errors come as a loop over the sessions would raise them:
    the singleton-group warnings of the sessions before the first one that
    cannot be analyzed, each pointing at the caller, then that session's
    error.
    """
    pids, conds, slope, intercept, r2, bias, cv, rmse, singletons, failure = columns
    failed = np.flatnonzero(failure.astype(bool))
    for nominals in singletons[:failed[0] if failed.size else None]:
        _warn_singletons(nominals)
    if failed.size:
        raise failure[failed[0]]
    (participants, pid), (conditions, cond) = _numbered(pids), _numbered(conds)
    sessions = SessionTable(pids, conds, 1.0 - slope, slope, intercept, r2, bias, cv, rmse)

    excluded = {}
    if participants.size >= 2 and not math.isinf(k):
        mean_rmse, = _Segments(pid).reduce(_means, rmse)
        metric = dict(zip(participants.tolist(), mean_rmse.tolist()))
        for p in screen_outliers(metric, k)[1]:
            excluded[p] = f"session_rmse {metric[p]:.6f} exceeds mean + {k} * SD"
    # the row of each kept session by (participant, condition); -1 for none
    kept = np.array([p not in excluded for p in participants.tolist()])[pid]
    rows = np.full((participants.size, conditions.size), -1)
    rows[pid[kept], cond[kept]] = np.flatnonzero(kept)
    names = conditions.tolist()
    emptied = [name for c, name in enumerate(names) if not (rows[:, c] >= 0).any()]
    if emptied:
        _warn(f"outlier screening at k = {k} keeps no session of condition(s) "
              f"{', '.join(emptied)}; their statistics are nan")

    def group_stats(values):
        return GroupStats(values.size, float(values.mean()) if values.size else math.nan,
                          float(values.std(ddof=1)) if values.size > 1 else math.nan)

    condition_stats = {
        name: {m: group_stats(getattr(sessions, m)[rows[rows[:, c] >= 0, c]])
               for m in _METRICS}
        for c, name in enumerate(names)
    }
    contrasts = []
    for a, b in combinations(range(len(names)), 2):
        both = rows[(rows[:, a] >= 0) & (rows[:, b] >= 0)]
        if len(both) < 2:
            continue
        for m in _METRICS:
            x, y = getattr(sessions, m)[both[:, a]], getattr(sessions, m)[both[:, b]]
            try:
                t, df, p = stats.paired_t(x, y)
                d = stats.cohens_d_paired(x, y)
            except stats.DegenerateTestError:
                continue
            contrasts.append(PairedContrast(names[a], names[b], m, len(both), t, df, p, d))
    return CohortSummary(sessions, condition_stats, tuple(contrasts), excluded)


def render_report(summary: CohortSummary) -> str:
    """Deterministic structured-text report (stable key order, 6 decimals)."""
    f = "{:.6f}".format
    lines = ["# cohort summary", ""]
    lines.append("## exclusions")
    if summary.excluded:
        for pid in sorted(summary.excluded):
            lines.append(f"{pid}: {summary.excluded[pid]}")
        for cond in sorted(summary.condition_stats):
            if not summary.condition_stats[cond]["regression_index"].n:
                lines.append(f"condition {cond}: no session kept")
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
    s = summary.sessions
    excluded = [pid in summary.excluded for pid in s.participant_id.tolist()]
    write_csv(path, "participant_id,condition,regression_index,slope,intercept,"
              "r_squared,bias,cv,rmse,excluded", "%s,%s" + ",%.6f" * 7 + ",%d",
              zip(*(getattr(s, f.name).tolist() for f in fields(s)), excluded))


def write_condition_csv(summary: CohortSummary, path) -> None:
    def row(cond):
        g = summary.condition_stats[cond]
        return (cond, g["regression_index"].n,
                *(v for m in _METRICS for v in (g[m].mean, g[m].sd)))

    write_csv(path, "condition,n,ri_mean,ri_sd,bias_mean,bias_sd,cv_mean,cv_sd,"
              "rmse_mean,rmse_sd", "%s,%d" + ",%.6f" * 8,
              map(row, sorted(summary.condition_stats)))

"""Trial table, and the CSV writers of every table lenrepro writes.

The CSV format is bit-exact: UTF-8, ``.`` decimal separator, 6-decimal
floats, LF line endings.  The trial CSV contract adds the header
``participant_id,condition,trial_index,nominal_length_cm,
actual_length_cm,response_cm``.  One private writer opens every file,
writes the header and the text, and removes a partial file when a row
fails.  :func:`write_csv` formats each row with ``%``;
:func:`write_trial_csv` builds the same text with numpy, equal to
``"%s"``, ``"%d"`` and ``"%.6f"`` cell for cell, and a block that numpy
cannot match exactly is formatted with ``%`` by the same helper.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, fields
from itertools import islice, starmap
from pathlib import Path

import numpy as np

TRIAL_CSV_HEADER = (
    "participant_id",
    "condition",
    "trial_index",
    "nominal_length_cm",
    "actual_length_cm",
    "response_cm",
)


@dataclass(frozen=True, eq=False)
class Trials:
    """Reproduction trials as a table: one read-only numpy array per column,
    in the order of :data:`TRIAL_CSV_HEADER`.  A string column is stored at
    the width of its longest value.

    ``len()`` counts the trials, ``==`` compares every column, indexing with
    an index array, a boolean mask or a slice selects rows, and iteration
    yields :class:`TrialRow` tuples.

    A column is copied only when the table could not hold it as given: a
    C-contiguous array at the column's dtype and width is adopted as it is
    when no array can write to it (it and every array it views are
    read-only), or when it was built for the table from another value.  So
    a table never aliases an array its caller can still write.
    """

    participant_id: np.ndarray
    condition: np.ndarray
    trial_index: np.ndarray
    nominal_length: np.ndarray  # cm
    actual_length: np.ndarray   # cm, as actually presented
    response: np.ndarray        # cm

    def __post_init__(self):
        for name, dtype in zip(TrialRow._fields, (str, str, np.int64, float, float, float)):
            value = getattr(self, name)
            column = np.asarray(value, dtype=dtype)
            built = column is not value and column.base is None
            if not column.flags.c_contiguous:
                column, built = column.copy(order="C"), True
            if dtype is str:  # ids parsed together come at one, common width
                dtype = np.dtype(f"U{max(1, _longest(column))}")
                if column.dtype != dtype:
                    column, built = column.astype(dtype), True
            if not (built or _read_only(column)):
                column = column.copy()
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        shapes = {c.shape for c in self.columns}
        if len(shapes) != 1 or self.response.ndim != 1:
            raise ValueError(f"columns must be 1-d and of equal length, got {sorted(shapes)}")
        # raw responses are nonnegative, but debiasing may shift a response
        # below zero, so only finiteness is enforced here
        bad = self.response[~np.isfinite(self.response)]
        if bad.size:
            raise ValueError(f"response must be finite, got {bad[0].item()}")
        bad = self.actual_length[~(self.actual_length > 0)]
        if bad.size:
            raise ValueError(f"actual_length must be > 0, got {bad[0].item()}")

    @property
    def columns(self) -> tuple:
        return tuple(getattr(self, name) for name in TrialRow._fields)

    @classmethod
    def concatenate(cls, tables) -> "Trials":
        return cls(*map(np.concatenate, zip(*(t.columns for t in tables))))

    def __len__(self) -> int:
        return self.response.size

    def __eq__(self, other):
        if not isinstance(other, Trials):
            return NotImplemented
        return all(map(np.array_equal, self.columns, other.columns))

    def __getitem__(self, rows) -> "Trials":
        if np.ndim(rows) == 0 and not isinstance(rows, slice):
            raise TypeError("select Trials rows with an index array, a boolean mask or "
                            f"a slice, not {type(rows).__name__}")
        columns = [c[rows] for c in self.columns]
        for column in columns:  # fresh, or a view of a read-only column
            column.flags.writeable = False  # so the table adopts it
        return Trials(*columns)

    def __iter__(self):
        return starmap(TrialRow, zip(*(c.tolist() for c in self.columns)))


#: One trial of a :class:`Trials` table, with Python scalars for values.
TrialRow = namedtuple("TrialRow", [f.name for f in fields(Trials)])


def _longest(column: np.ndarray) -> int:
    """The length of the longest string of a C-contiguous string column:
    the last character position that some value fills.  It reads one
    position of each value at a time, where ``np.char.str_len`` would make
    an int64 array of all the lengths."""
    width = column.itemsize // 4
    chars = column.reshape(-1).view(np.uint32).reshape(-1, width) if width else None
    while width and not chars[:, width - 1].any():
        width -= 1
    return width


def _read_only(column: np.ndarray) -> bool:
    """Whether no array can write to ``column``: it and every array whose
    memory it views are read-only, and the last of them owns its memory."""
    while isinstance(column, np.ndarray):
        if column.flags.writeable:
            return False
        column = column.base
    return column is None


_BLOCK_ROWS = 1 << 10  # rows simulated and formatted at a time; more add memory, not speed
# the writers quote no cell, so an id holding one of these would shift or
# split its row
_UNWRITABLE = frozenset(',"\r\n')


def _write(path: str | Path, header: str, chunks) -> None:
    """Write ``header`` and then each byte chunk of ``chunks`` to ``path``.
    If a chunk fails to come or to be written, the partial file is removed
    before the error propagates (a path that is not a regular file, such as
    a device, is left in place)."""
    path = Path(path)
    fh = open(path, "wb")  # a file that cannot be opened is not removed
    try:
        with fh:
            fh.write((header + "\n").encode("utf-8"))
            fh.writelines(chunks)  # drops each chunk before it takes the next
    except BaseException:
        if path.is_file():
            path.unlink()
        raise


def _rows_text(line: str, rows) -> bytes:
    """The rows as ``line % row`` each, UTF-8 encoded."""
    return "".join(line % row for row in rows).encode("utf-8")


def write_csv(path: str | Path, header: str, row_format: str, rows) -> None:
    """Write a table in the CSV wire format: UTF-8, LF line ends, and each
    row as ``row_format % row`` (``%.6f`` for every float column).

    ``rows`` is read lazily, ``_BLOCK_ROWS`` rows at a time, so neither the
    rows nor the text of the whole table sit in memory at once.  If a row
    fails to come or to format, the partial file is removed.
    """
    line, rows = row_format + "\n", iter(rows)
    _write(path, header, iter(lambda: _rows_text(line, islice(rows, _BLOCK_ROWS)), b""))


def write_trial_csv(trials, path: str | Path) -> None:
    """Write a table, or the rows of an iterable of tables in turn, in the
    bit-exact trial CSV contract: each row as ``"%s,%s,%d,%.6f,%.6f,%.6f" %
    row``.  The text is built with numpy ``_BLOCK_ROWS`` rows at a time
    (see :mod:`lenrepro.trialtext`).  If a table fails to come, the partial
    file is removed.
    """
    from .trialtext import rows_text

    tables = (trials,) if isinstance(trials, Trials) else trials
    _write(path, ",".join(TRIAL_CSV_HEADER), (
        rows_text([c[start:start + _BLOCK_ROWS] for c in table.columns])
        for table in tables for start in range(0, len(table), _BLOCK_ROWS)))

"""The text of the trial CSV, built with numpy digit arithmetic.

Only :func:`lenrepro.records.write_trial_csv` imports this module, so the
commands that write no trials never load it.

:func:`rows_text` gives the bytes that ``"%s,%s,%d,%.6f,%.6f,%.6f\\n" % row``
gives for every row of a block, UTF-8 encoded.  The writer passes it blocks
of ``records._BLOCK_ROWS`` = 1,024 rows, so the text it holds is bounded by
one block: about 250 bytes a row at the peak of :func:`rows_text`.  A block
of rows is laid out in fixed slots, one ``uint8`` character per slot and
slot-major, so that each slot of all rows is written by one array
operation.  A slot a row leaves unused (an id's padding, a leading zero, the
sign of a positive float) holds NUL, which no written character is, and the
block's bytes are its rows with the NULs removed.  A float is written from
``n = rint(|x|·1e6)``: its integer part ``n // 10**6`` and its six fraction
digits, two digits at a time from a table of the 100 digit pairs.  ``%.6f``
rounds the exact binary value correctly, and ``n`` is that rounding whenever
``|x|·1e6`` lies further than one ulp from a half-integer, since the product
is then on the same side of it as the exact value.

A block with a cell outside that exact domain is formatted by ``%`` alone,
through the writer's own helper: a float within one ulp of a rounding tie,
at least ``2**53`` after scaling, or not finite; a negative index; an id
that is not ASCII or holds a NUL before a later character.  Before either
path, a block whose ids hold a comma, a double quote, CR or LF is refused,
since the CSV quotes no cell.
"""
from __future__ import annotations

import numpy as np

from .records import _UNWRITABLE, TRIAL_CSV_HEADER, _rows_text, _unwritable

_LINE = "%s,%s,%d,%.6f,%.6f,%.6f\n"
_TENS, _ONES = np.array([divmod(k, 10) for k in range(100)], np.uint8).T + ord("0")
# True at the codes of the characters no output CSV can hold, all below 128
_UNWRITABLE_CODES = np.isin(np.arange(128), [ord(c) for c in _UNWRITABLE])
_UNWRITABLE_BYTES = [c.encode() for c in _UNWRITABLE]


def rows_text(columns) -> bytes:
    """The CSV rows of the six trial columns, as UTF-8 bytes.  An id holding
    a comma, a double quote, CR or LF raises ``ValueError``."""
    n = columns[0].size
    ids = [c.view(np.uint32).reshape(n, -1) for c in columns[:2]]
    for name, column, codes in zip(TRIAL_CSV_HEADER, columns, ids):
        # a byte search first: each of these codes holds its character's
        # byte, and few other codes do; a code of 128 or more then reads the
        # table's last entry, False
        if any(map(codes.tobytes().__contains__, _UNWRITABLE_BYTES)):
            bad = _UNWRITABLE_CODES.take(codes, mode="clip").any(axis=1)
            if bad.any():
                raise _unwritable(name, column[bad.argmax()].item())
    index, floats = columns[2], np.stack(columns[3:])
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.abs(floats) * 1e6
        exact = ((np.abs(scaled - np.floor(scaled) - 0.5) > np.spacing(scaled)).all()
                 and (scaled < 2.0 ** 53).all())
    if not (exact and (index >= 0).all() and all(map(_plain_ascii, ids))):
        return _rows_text(_LINE, zip(*(c.tolist() for c in columns)))
    whole, fraction = np.divmod(np.rint(scaled).astype(np.int64), 10 ** 6)
    whole_width = _width(whole)
    widths = np.array([ids[0].shape[1], ids[1].shape[1], _width(index)]
                      + [whole_width + 8] * 3)
    ends = np.cumsum(widths + 1)  # each field and its comma
    begins = ends - widths - 1

    text = np.empty((ends[-1], n), np.uint8)
    text[ends - 1] = ord(",")
    text[-1] = ord("\n")
    for k, codes in enumerate(ids):
        text[begins[k]:ends[k] - 1] = codes.T
    _put_digits(index, text[begins[2]:ends[2] - 1])
    f = text[begins[3]:].reshape(3, whole_width + 9, n)  # sign, digits, '.', fraction, ','
    np.multiply(np.signbit(floats), ord("-"), out=f[:, 0], casting="unsafe")
    _put_digits(whole, f[:, 1:whole_width + 1])
    f[:, whole_width + 1] = ord(".")
    _put_digits(fraction.astype(np.uint32), f[:, whole_width + 2:-1], leading_zeros=True)
    return text.T.tobytes().translate(None, b"\0")


def _width(values: np.ndarray) -> int:
    return len(str(int(values.max(initial=0))))


def _put_digits(values: np.ndarray, out: np.ndarray, leading_zeros: bool = False) -> None:
    """Write the decimal digits of nonnegative ``values`` (..., n) into the
    slots ``out`` (..., width, n), right-aligned, two at a time.  Unless
    ``leading_zeros``, the slots of leading zeros get NUL (a zero keeps its
    last digit)."""
    width, rest = out.shape[-2], values
    for slot in range(width - 1, -1, -2):
        quotient = rest // 100
        pair = rest - quotient * 100
        # a pair is 0..99, so "clip" never clips; it writes without a buffer
        np.take(_ONES, pair, out=out[..., slot, :], mode="clip")
        if slot:
            np.take(_TENS, pair, out=out[..., slot - 1, :], mode="clip")
        rest = quotient
    for slot in range(0 if leading_zeros else width - 1):
        out[..., slot, :] *= values >= 10 ** (width - 1 - slot)


def _plain_ascii(codes: np.ndarray) -> bool:
    """Whether every row of UCS-4 ``codes`` (rows, width) is ASCII with no
    NUL before a later character."""
    filled = codes != 0
    return codes.max(initial=0) < 128 and not (filled[:, 1:] > filled[:, :-1]).any()

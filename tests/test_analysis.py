"""Ingestion, debiasing, error decomposition and cohort summary."""
import contextlib
import dataclasses
import io
import itertools
import math
import pickle
import re
import string
import tempfile
import tracemalloc
import warnings
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenrepro import analysis
from lenrepro.analysis import (
    DegenerateDataError,
    GroupStats,
    IngestionError,
    PairedContrast,
    ingest,
    render_report,
    screen_outliers,
    summarize_cohort,
    summarize_file,
    write_condition_csv,
    write_participant_csv,
)
from lenrepro.analysis import _in_contract, _parse_contract, _read_cells
from lenrepro.model import NoiseModel
from lenrepro.records import TRIAL_CSV_HEADER, Trials, write_trial_csv
from lenrepro.simulate import ObserverParams, ScheduleConfig, simulate_cohort
from lenrepro.stats import cohens_d_paired, paired_t


def _rec(pid, cond, idx, nominal, response, actual=None):
    return (pid, cond, idx, nominal, nominal if actual is None else actual, response)


def _trials(*recs):
    """A Trials table of ``_rec`` rows."""
    return Trials(*zip(*recs)) if recs else Trials(*[[]] * 6)


def _relabel(trials, pid):
    return dataclasses.replace(trials, participant_id=np.full(len(trials), pid))


def _one_session(trials):
    """The SessionTable values of a table of one session, by column name."""
    sessions = summarize_cohort(trials).sessions
    assert len(sessions) == 1
    return {f.name: getattr(sessions, f.name)[0].item() for f in dataclasses.fields(sessions)}


class TestIngest:
    def test_round_trip(self, tmp_path):
        recs = _trials(
            _rec("p01", "social", 3, 6.0, 7.25),
            _rec("p01", "social", 4, 14.0, 12.5, actual=13.9),
        )
        path = tmp_path / "trials.csv"
        write_trial_csv(recs, path)
        assert ingest(path) == recs

    def test_stream_without_position(self):
        # an iterable of lines has no start to come back to: per-cell reader
        lines = [_CONTRACT, "p01,social,3,6.0,6.0,7.2"]
        assert ingest(lines) == _trials(_rec("p01", "social", 3, 6.0, 7.2))

    def test_missing_actual_defaults_with_warning(self):
        csv_text = (
            "participant_id,condition,trial_index,nominal_length_cm,response_cm\n"
            "p01,social,3,6.0,7.2\n"
        )
        with pytest.warns(UserWarning, match="actual_length_cm"):
            recs = ingest(io.StringIO(csv_text))
        assert recs.actual_length[0] == 6.0

    def test_practice_rows_dropped(self):
        csv_text = (
            "participant_id,condition,trial_index,nominal_length_cm,"
            "actual_length_cm,response_cm,is_practice\n"
            "p01,social,0,8.0,8.0,8.5,1\n"
            "p01,social,1,8.0,8.0,8.5,true\n"
            "p01,social,3,6.0,6.0,7.2,0\n"
        )
        recs = ingest(io.StringIO(csv_text))
        assert len(recs) == 1
        assert recs.trial_index[0] == 3

    def test_missing_column_rejected(self):
        with pytest.raises(IngestionError, match="response_cm"):
            ingest(io.StringIO("participant_id,condition,trial_index,nominal_length_cm\n"))

    def test_non_numeric_cell_names_row(self):
        csv_text = (
            "participant_id,condition,trial_index,nominal_length_cm,"
            "actual_length_cm,response_cm\n"
            "p01,social,3,6.0,6.0,7.2\n"
            "p01,social,4,6.0,6.0,oops\n"
        )
        with pytest.raises(IngestionError, match="row 2"):
            ingest(io.StringIO(csv_text))

    def test_duplicate_trial_key_rejected(self):
        csv_text = (
            "participant_id,condition,trial_index,nominal_length_cm,"
            "actual_length_cm,response_cm\n"
            "p01,social,3,6.0,6.0,7.2\n"
            "p01,social,3,6.8,6.8,7.0\n"
        )
        with pytest.raises(IngestionError, match="duplicate"):
            ingest(io.StringIO(csv_text))

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_duplicate_key_found_across_blocks(self, monkeypatch, block):
        # the C reader's check compares sorted neighbours a block at a time;
        # a repeated key at any sorted position sends the file to the
        # per-cell reader
        monkeypatch.setattr(analysis, "_BLOCK_SIZE", block)
        rows = [f"p{i:02d},social,3,6,6,6" for i in range(7)]
        assert _parse_contract(io.StringIO(_text(_CONTRACT, *rows).decode()), 0) is not None
        for repeated in rows:
            text = _text(_CONTRACT, *rows, repeated).decode()
            assert _parse_contract(io.StringIO(text), 0) is None
            with pytest.raises(IngestionError, match="^row 8: duplicate trial key"):
                ingest(io.StringIO(text))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", [
        "trial_index", "nominal_length_cm", "actual_length_cm", "response_cm",
    ])
    def test_non_finite_cell_names_row_and_column(self, column, value):
        header = ("participant_id", "condition", "trial_index",
                  "nominal_length_cm", "actual_length_cm", "response_cm")
        good = {"participant_id": "p01", "condition": "social", "trial_index": "4",
                "nominal_length_cm": "6.0", "actual_length_cm": "6.0",
                "response_cm": "7.2"}
        bad = dict(good, **{column: value})
        csv_text = ",".join(header) + "\n" + "p01,social,3,6.0,6.0,7.2\n"
        csv_text += ",".join(bad[c] for c in header) + "\n"
        with pytest.raises(IngestionError, match=f"row 2: .*{column}"):
            ingest(io.StringIO(csv_text))

    def test_negative_response_rejected(self):
        csv_text = (
            "participant_id,condition,trial_index,nominal_length_cm,"
            "actual_length_cm,response_cm\n"
            "p01,social,3,6.0,6.0,-1.0\n"
        )
        with pytest.raises(IngestionError, match="row 1"):
            ingest(io.StringIO(csv_text))

    def test_trial_index_beyond_int64_names_row_and_column(self):
        csv_text = (
            "participant_id,condition,trial_index,nominal_length_cm,"
            "actual_length_cm,response_cm\n"
            "p01,social,3,6.0,6.0,7.2\n"
            "p01,social,9223372036854775808,6.0,6.0,7.2\n"
        )
        with pytest.raises(IngestionError, match="row 2: .*trial_index"):
            ingest(io.StringIO(csv_text))

    @pytest.mark.parametrize("value", ["0", "-1.0"])
    @pytest.mark.parametrize("column", ["actual_length_cm", "nominal_length_cm"])
    def test_nonpositive_actual_names_row_and_column(self, column, value):
        # without an actual_length_cm column the nominal is the actual length
        header = ["participant_id", "condition", "trial_index",
                  "nominal_length_cm", "actual_length_cm", "response_cm"]
        good = ["p01", "social", "3", "6.0", "6.0", "7.2"]
        bad = ["p01", "social", "4", "6.0", "6.0", "7.2"]
        bad[header.index(column)] = value
        if column == "nominal_length_cm":
            for row in (header, good, bad):
                del row[4]
        csv_text = "".join(",".join(row) + "\n" for row in (header, good, bad))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the absent actual column warns
            with pytest.raises(IngestionError, match=f"row 2: {column} must be > 0"):
                ingest(io.StringIO(csv_text))


# Cell values in cm with at most 6 decimals, so they survive the CSV's
# 6-decimal formatting exactly.
_CM = st.integers(1, 30_000_000).map(lambda k: k / 1e6)
_LABEL_CHARS = string.ascii_lowercase + string.digits + "_"
_LABEL = st.text(_LABEL_CHARS, min_size=1, max_size=4)
_ROWS = st.lists(
    st.tuples(_LABEL, _LABEL, st.integers(0, 10_000), _CM, _CM,
              st.integers(0, 30_000_000).map(lambda k: k / 1e6)),
    min_size=1, max_size=20, unique_by=lambda row: row[:3],
)
# Not a finite number in any numeric column: letters parse as nothing or as
# inf / nan.
_BAD_TOKEN = st.sampled_from(["", "nan", "-inf", "1e999", "1.2.3", "--1"]) | st.text(
    string.ascii_letters, min_size=1, max_size=8
)
# Characters an edit may insert: the CSV's own syntax, number spellings,
# whitespace and control characters, and some non-ASCII.
_EDIT_CHARS = st.sampled_from(
    list(',"\n\r\t\x0b\x0c\x1c\x1f\x00 +-._eE0123456789xinfaINF#\ufeff\u01fe\u0663\u2028\xa0')
)
# Numbers as float() and the C parser may spell them.
_FLOAT_TEXT = st.one_of(
    st.floats(min_value=0, allow_nan=False).map(repr),
    st.floats(min_value=0, allow_nan=False).map(lambda x: f"{x:.17e}"),
    st.decimals(min_value=0, max_value=10**6, places=25).map(str),
    st.text("0123456789.eE+-_", min_size=1, max_size=6),
)


def _csv_lines(trials):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "trials.csv"
        write_trial_csv(trials, path)
        return path.read_text(encoding="utf-8").splitlines()


def _outcome(read, source):
    """What a reader makes of a source: the trials or the error, and the
    messages of the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = read(source)
        except Exception as exc:  # compared between the readers, not handled
            result = f"{type(exc).__name__}: {exc}"
    return result, [str(w.message) for w in caught]


def _read_both(data: bytes) -> tuple:
    """``ingest`` of a file holding ``data``, checked against the per-cell
    reader of the same file; returns the outcome and whether numpy's C
    parser read the file."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "trials.csv"
        path.write_bytes(data)
        fast = _outcome(ingest, path)
        with open(path, newline="", encoding="utf-8-sig") as fh:
            slow = _outcome(_read_cells, fh)
            fh.seek(0)
            parsed = _parse_contract(fh, 0) is not None
    assert fast == slow
    return fast, parsed


@contextlib.contextmanager
def _scan_chunk(chunk):
    """``ingest`` with the contract scan and parse reading ``chunk``
    characters at a time."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_SCAN_CHUNK", chunk)
        yield


def _text(*lines, end="\n"):
    return "".join(line + end for line in lines).encode("utf-8")


_ROW = "p01,social,3,6.000000,6.000000,7.200000"
_CONTRACT = ",".join(TRIAL_CSV_HEADER)

# (file, read by the C parser?, expected: error or number of trials)
_NAMED_FILES = {
    "contract": (_text(_CONTRACT, _ROW, "p01,social,4,8.0,8.0,8.5"), True, 2),
    "quoted ids": (_text(_CONTRACT, '"p01","social",3,6.0,6.0,7.2'), False, 1),
    "blank line": (_text(_CONTRACT, _ROW, "", "p01,social,4,8.0,8.0,8.5"), False, 2),
    "short row": (_text(_CONTRACT, _ROW, "p01,social,4,8.0,8.0"), False,
                  "row 2: non-numeric cell in response_cm"),
    "trailing comma": (_text(_CONTRACT + ",", _ROW + ",", "p01,social,4,8.0,8.0,8.5,"),
                       False, 2),
    "trailing comma on rows": (_text(_CONTRACT, _ROW + ",", "p01,social,4,8.0,8.0,8.5,"),
                               True, 2),
    "repeated header name": (_text(_CONTRACT + ",response_cm", _ROW + ",9.5"), False, 1),
    "spaces around cells": (_text(_CONTRACT, " p01 , social , 3 , 6.0 , 6.0 , 7.2 "), True, 1),
    "underscore in trial_index": (_text(_CONTRACT, "p01,social,1_0,6.0,6.0,7.2"), False, 1),
    "underscore in response": (_text(_CONTRACT, "p01,social,3,6.0,6.0,7_2"), False, 1),
    "plus sign": (_text(_CONTRACT, "p01,social,+3,+6.0,+6.0,+7.2"), True, 1),
    "decimal trial_index": (_text(_CONTRACT, "p01,social,3.0,6.0,6.0,7.2"), False,
                            "row 1: non-numeric cell in trial_index"),
    "CRLF": (_text(_CONTRACT, _ROW, end="\r\n"), False, 1),
    "header only": (_text(_CONTRACT), False, 0),
    "empty file": (b"", False, "missing column participant_id"),
    "is_practice": (_text(_CONTRACT + ",is_practice", _ROW + ",0", "p01,social,4,8,8,8,1"),
                    False, 1),
    "missing actual column": (
        _text("participant_id,condition,trial_index,nominal_length_cm,response_cm",
              "p01,social,3,6.0,7.2"), False, 1),
    "byte-order mark": (b"\xef\xbb\xbf" + _text(_CONTRACT, _ROW), True, 1),
    "byte-order mark, is_practice": (
        b"\xef\xbb\xbf" + _text(_CONTRACT + ",is_practice", _ROW + ",0"), False, 1),
    "trial_index beyond int64": (
        _text(_CONTRACT, _ROW, "p01,social,9223372036854775808,6.0,6.0,7.2"), False,
        "row 2: non-numeric cell in trial_index"),
    "trial_index at int64 max": (
        _text(_CONTRACT, "p01,social,9223372036854775807,6.0,6.0,7.2"), True, 1),
    "non-finite response": (_text(_CONTRACT, _ROW, "p01,social,4,6.0,6.0,inf"), False,
                            "row 2: response_cm must be finite"),
    "negative response": (_text(_CONTRACT, "p01,social,4,6.0,6.0,-0.5"), False,
                          "row 1: response must be >= 0"),
    "zero actual": (_text(_CONTRACT, "p01,social,4,6.0,0,6.5"), False,
                    "row 1: actual_length_cm must be > 0"),
    "duplicate key": (_text(_CONTRACT, _ROW, "p02,social,3,6,6,6", _ROW), False,
                      "row 3: duplicate trial key"),
    "trial_index repeated in other sessions": (
        _text(_CONTRACT, _ROW, "p02,social,3,6,6,6", "p01,solo,3,6,6,6"), True, 3),
    "non-ASCII id": (_text(_CONTRACT, "p\u00e9,social,3,6.0,6.0,7.2"), False, 1),
    "non-ASCII letter as trial_index": (_text(_CONTRACT, "p01,social,\u01fe,6.0,6.0,7.2"),
                                        False, "row 1: non-numeric cell in trial_index"),
    "separator control character": (_text(_CONTRACT, "p01,social,3,6.0,6.0,7.2\x1c"), False,
                                    "row 1: non-numeric cell in response_cm"),
    "tab around a number": (_text(_CONTRACT, "p01,social,3,6.0,6.0,\t7.2"), False, 1),
    "invalid UTF-8": (_text(_CONTRACT, _ROW) + b"p\xff,social,4,6,6,6\n", False,
                      "UnicodeDecodeError"),
    # ids that no output CSV can hold, since the writers quote no cell
    "comma in a quoted condition": (
        _text(_CONTRACT, 'p01,"a,b",3,6.0,6.0,7.2'), False,
        "row 1: condition 'a,b' holds a comma, a double quote, CR or LF"),
    "quote in a quoted participant id": (
        _text(_CONTRACT, _ROW, '"p""1",social,4,6.0,6.0,7.2'), False,
        "row 2: participant_id 'p\"1' holds a comma"),
    "LF in a quoted condition": (_text(_CONTRACT, 'p01,"a\nb",3,6.0,6.0,7.2'), False,
                                 "row 1: condition 'a\\nb' holds a comma"),
    "CR in a quoted participant id": (_text(_CONTRACT, '"p\r1",social,3,6.0,6.0,7.2'), False,
                                      "row 1: participant_id 'p\\r1' holds a comma"),
}


class TestIngestFuzz:
    @settings(max_examples=60, deadline=None)
    @given(rows=_ROWS)
    def test_written_trials_read_back_equal(self, rows):
        trials = Trials(*zip(*rows))
        lines = _csv_lines(trials)
        assert ingest(io.StringIO("\n".join(lines) + "\n")) == trials
        (result, caught), parsed = _read_both(_text(*lines))
        assert result == trials and caught == [] and parsed

    @settings(max_examples=100, deadline=None)
    @given(rows=_ROWS, data=st.data())
    def test_corrupt_numeric_cell_names_row_and_column(self, rows, data):
        lines = _csv_lines(Trials(*zip(*rows)))
        header = lines[0].split(",")
        rownum = data.draw(st.integers(1, len(rows)), label="row")
        col = data.draw(st.integers(2, 5), label="column")
        cells = lines[rownum].split(",")
        cells[col] = data.draw(_BAD_TOKEN, label="token")
        lines[rownum] = ",".join(cells)
        with pytest.raises(IngestionError, match=f"row {rownum}: .*{header[col]}"):
            ingest(io.StringIO("\n".join(lines) + "\n"))
        (result, _), _ = _read_both(_text(*lines))
        assert re.match(f"IngestionError: row {rownum}: .*{header[col]}", result)

    @settings(max_examples=200, deadline=None)
    @given(rows=_ROWS, data=st.data())
    def test_edited_file_reads_as_the_per_cell_reader_reads_it(self, rows, data):
        text = "\n".join(_csv_lines(Trials(*zip(*rows)))) + "\n"
        start = data.draw(st.integers(0, len(text)), label="start")
        stop = data.draw(st.integers(start, min(start + 3, len(text))), label="stop")
        insert = data.draw(st.text(_EDIT_CHARS, max_size=3), label="insert")
        _read_both((text[:start] + insert + text[stop:]).encode("utf-8"))

    @settings(max_examples=100, deadline=None)
    @given(rows=_ROWS, values=st.lists(_FLOAT_TEXT, min_size=3, max_size=3))
    def test_float_spellings_parse_alike(self, rows, values):
        lines = _csv_lines(Trials(*zip(*rows)))
        cells = lines[1].split(",")
        cells[3:] = values
        lines[1] = ",".join(cells)
        _read_both(_text(*lines))

    @pytest.mark.parametrize("chunk", [1, 2, 3, 5, 40, 1 << 20])
    def test_blank_line_found_at_any_chunk_boundary(self, chunk):
        blank = _text(_CONTRACT, _ROW, "", _ROW, "").decode()
        assert not _in_contract(io.StringIO(blank), chunk)
        assert _in_contract(io.StringIO(_text(_CONTRACT, _ROW, _ROW).decode()), chunk)

    @settings(max_examples=60, deadline=None)
    @given(rows=_ROWS, wide=st.text(_LABEL_CHARS, min_size=5, max_size=40),
           column=st.integers(0, 1), chunk=st.sampled_from([1, 3, 16, 1 << 16]),
           final_lf=st.booleans())
    def test_widest_id_in_the_last_row_is_not_cut(self, rows, wide, column, chunk,
                                                  final_lf):
        lines = _csv_lines(Trials(*zip(*rows)))
        cells = lines[-1].split(",")
        cells[column] = wide  # longer than every _LABEL, so the key stays unique
        lines[-1] = ",".join(cells)
        data = _text(*lines)
        with _scan_chunk(chunk):
            (result, _), parsed = _read_both(data if final_lf else data[:-1])
        assert parsed and isinstance(result, Trials)
        assert result.columns[column][-1] == wide
        assert result.columns[column].dtype == np.dtype(f"U{len(wide)}")

    @pytest.mark.parametrize("chunk", [1, 5, 64, 1 << 16])
    @pytest.mark.parametrize("column", [0, 1])
    def test_widest_id_after_the_first_chunk(self, chunk, column):
        rows = [[f"p{i:03d}", "solo", str(i), "6.0", "6.0", "7.0"] for i in range(150)]
        rows[-1][column] = "x" * 30
        with _scan_chunk(chunk):
            (result, _), parsed = _read_both(_text(_CONTRACT, *map(",".join, rows)))
            assert parsed and result.columns[column][-1] == "x" * 30
            # that row with a bad response, or without one: the same errors
            for last in (rows[-1][:5] + ["x"], rows[-1][:5]):
                lines = map(",".join, rows[:-1] + [last])
                (error, _), parsed = _read_both(_text(_CONTRACT, *lines))
                assert not parsed
                assert error.startswith("IngestionError: row 150: non-numeric cell in response")

    @pytest.mark.parametrize("chunk", [1, 7, 64, 1 << 16])
    def test_rows_straddle_parse_chunks(self, chunk):
        params = {c: ObserverParams(NoiseModel.weber(0.15), 10.0, 1.5, 1.2)
                  for c in ("individual", "social")}
        trials = simulate_cohort(12, params, ScheduleConfig(num_lengths=3, reps=2),
                                 master_seed=2)
        data = _text(*_csv_lines(trials))
        with _scan_chunk(chunk):
            (result, _), parsed = _read_both(data[:-1])  # the last line has no LF
        # equal to the per-cell reader's table, and the same trials
        assert parsed and len(result) == len(trials)
        for read, written in zip(result.columns[:3], trials.columns):
            assert read.dtype == written.dtype and np.array_equal(read, written)

    @pytest.mark.parametrize("name", _NAMED_FILES)
    def test_named_file(self, name):
        data, parsed_by_c, expected = _NAMED_FILES[name]
        (result, _), parsed = _read_both(data)
        assert parsed == parsed_by_c
        if isinstance(expected, int):
            assert isinstance(result, Trials) and len(result) == expected
        else:
            assert isinstance(result, str) and expected in result


class TestIngestMemory:
    def test_contract_ingest_peaks_near_its_table(self, tmp_path):
        params = {c: ObserverParams(NoiseModel.weber(0.15), 10.0, 1.5, 1.2)
                  for c in ("individual", "mechanical", "social")}
        path = tmp_path / "trials.csv"
        write_trial_csv(simulate_cohort(1, params), path)
        ingest(path)  # first-call imports are not the table's
        write_trial_csv(simulate_cohort(100, params, master_seed=5), path)
        tracemalloc.start()
        try:
            trials = ingest(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        with open(path) as fh:
            assert _parse_contract(fh, 0) is not None  # the C reader's path
        assert peak <= 1.27 * sum(c.nbytes for c in trials.columns)  # 1.18 measured


class TestSummarizeMemory:
    def test_peaks_at_a_fraction_of_its_table(self):
        params = {c: ObserverParams(NoiseModel.weber(0.15), 10.0, 1.5, 1.2)
                  for c in ("individual", "mechanical", "social")}
        summarize_cohort(simulate_cohort(3, params))  # first-call imports are not the summary's
        trials = simulate_cohort(400, params, master_seed=1)
        tracemalloc.start()
        try:
            summarize_cohort(trials)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # no row-sized label, second sort or debiased column is held
        assert peak <= 0.30 * sum(c.nbytes for c in trials.columns)  # 0.274 measured

    def test_file_peaks_at_a_block_not_the_file(self, tmp_path):
        params = {c: ObserverParams(NoiseModel.weber(0.15), 10.0, 1.5, 1.2)
                  for c in ("individual", "mechanical", "social")}
        path = tmp_path / "trials.csv"
        write_trial_csv(simulate_cohort(3, params), path)
        summarize_file(path)  # first-call imports are not the summary's
        peaks = {}
        for n in (100, 400):
            write_trial_csv(simulate_cohort(n, params, master_seed=1), path)
            tracemalloc.start()
            try:
                summarize_file(path)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert _streams(path)
        # against the table ingest builds: 0.24 measured for 400 x 3
        assert peaks[400] <= 0.30 * sum(c.nbytes for c in ingest(path).columns)
        # only the per-session results and the finished sessions' keys grow
        # with the file: 1.13 measured
        assert peaks[400] <= 1.15 * peaks[100]


class TestIngestWarningState:
    def test_filters_and_once_per_location_registry_unchanged(self, tmp_path):
        contract, fallback = tmp_path / "contract.csv", tmp_path / "fallback.csv"
        contract.write_bytes(_text(_CONTRACT, _ROW))
        fallback.write_bytes(_text(_CONTRACT, '"p01",social,3,6.0,6.0,7.2'))

        def warn():
            warnings.warn("once per location")

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            warn()
            filters = list(warnings.filters)
            for path in (contract, fallback):
                assert len(ingest(path)) == 1
                assert warnings.filters == filters
                warn()
        assert [str(w.message) for w in caught] == ["once per location"]


class TestDebias:
    def test_constant_offset_removed(self):
        # debiased responses 8 and 12 lie on the identity line
        recs = _trials(
            _rec("p01", "a", 0, 8.0, 9.0),
            _rec("p01", "a", 1, 12.0, 13.0),
        )
        with pytest.warns(UserWarning, match="single trial"):
            s = _one_session(recs)
        assert (s["slope"], s["intercept"], s["bias"]) == (1.0, 0.0, 0.0)

    def test_idempotent(self):
        recs = _trials(
            _rec("p01", "a", 0, 8.0, 9.3),
            _rec("p01", "a", 1, 12.0, 11.1),
            _rec("p01", "a", 2, 10.0, 10.4),
        )
        once = dataclasses.replace(
            recs, response=recs.response - recs.response.mean() + recs.actual_length.mean())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # single-trial groups
            a, b = _one_session(recs), _one_session(once)
        for name in ("regression_index", "slope", "intercept", "r_squared", "bias", "cv", "rmse"):
            assert a[name] == pytest.approx(b[name], abs=1e-12), name

    def test_mean_response_equals_mean_actual(self):
        # the fit passes through the mean point, so with the mean response
        # at the mean actual length the intercept is that length times the index
        recs = _trials(*(_rec("p01", "a", i, 6.0 + i, 5.0 + 2 * i) for i in range(5)))
        with pytest.warns(UserWarning, match="single trial"):
            s = _one_session(recs)
        assert s["intercept"] == pytest.approx(
            recs.actual_length.mean() * s["regression_index"], abs=1e-12)


class TestPerStimulusErrors:
    def test_pythagorean_hand_case(self):
        # responses {9, 17} at 10 and {13, 21} at 20: no offset to remove,
        # mean stimulus 15, each group |bias| 3 and sd 4, so bias 0.2, cv 4/15
        recs = _trials(*(_rec("p01", "a", i, x, r) for i, (x, r) in enumerate(
            ((10.0, 9.0), (10.0, 17.0), (20.0, 13.0), (20.0, 21.0)))))
        s = _one_session(recs)
        assert s["bias"] == pytest.approx(0.2)
        assert s["cv"] == pytest.approx(4 / 15)
        assert s["rmse"] == pytest.approx(1 / 3)

    def test_population_sd_convention(self):
        # responses {9, 10, 11} at 10 and {19, 20, 21} at 20: population sd
        # sqrt(2/3) in each group, over the mean stimulus 15
        recs = _trials(*(_rec("p01", "a", i, x, x + d) for i, (x, d) in enumerate(
            itertools.product((10.0, 20.0), (-1.0, 0.0, 1.0)))))
        s = _one_session(recs)
        assert s["cv"] == pytest.approx(math.sqrt(2 / 3) / 15, abs=1e-12)
        assert s["bias"] == pytest.approx(0.0, abs=1e-15)

    def test_session_values_are_unweighted_group_means(self):
        recs = _trials(
            _rec("p01", "a", 0, 8.0, 9.0),
            _rec("p01", "a", 1, 8.0, 9.0),
            _rec("p01", "a", 2, 12.0, 11.0),
            _rec("p01", "a", 3, 12.0, 13.0),
            _rec("p01", "a", 4, 12.0, 12.0),
        )
        s = _one_session(recs)
        s_bar = np.mean([8.0, 8.0, 12.0, 12.0, 12.0])
        shift = s_bar - np.mean([9.0, 9.0, 11.0, 13.0, 12.0])  # debiasing
        b8 = abs(9.0 + shift - 8.0) / s_bar
        b12 = abs(12.0 + shift - 12.0) / s_bar
        assert s["bias"] == pytest.approx((b8 + b12) / 2, abs=1e-12)
        cv12 = float(np.std([11.0, 13.0, 12.0])) / s_bar
        assert s["cv"] == pytest.approx((0.0 + cv12) / 2, abs=1e-12)

    def test_singleton_group_warns(self):
        recs = _trials(
            _rec("p01", "a", 0, 8.0, 9.0),
            _rec("p01", "a", 1, 12.0, 11.0),
            _rec("p01", "a", 2, 12.0, 13.0),
        )
        with pytest.warns(UserWarning, match=r"single trial \(cv set to 0\): \[8\.0\]$"):
            s = _one_session(recs)
        s_bar = np.mean([8.0, 12.0, 12.0])
        assert s["cv"] == pytest.approx((0.0 + 1.0 / s_bar) / 2, abs=1e-12)

    def test_groups_use_actual_lengths(self):
        # each group's mean response equals its mean actual length, not its
        # nominal length
        recs = _trials(
            _rec("p01", "a", 0, 10.0, 10.5, actual=10.2),
            _rec("p01", "a", 1, 10.0, 10.5, actual=10.8),
            _rec("p01", "a", 2, 14.0, 14.0, actual=13.8),
            _rec("p01", "a", 3, 14.0, 14.0, actual=14.2),
        )
        assert _one_session(recs)["bias"] == pytest.approx(0.0, abs=1e-12)

    def test_nan_nominals_form_one_group(self):
        """Rows whose nominal length is NaN are one stimulus group, as
        ``np.unique`` groups NaNs; not one group of a single trial per row."""
        nan = math.nan
        trials = Trials(["p01"] * 6, ["a"] * 6, range(6), [8.0, nan, 12.0, 8.0, nan, 12.0],
                        [8.0, 10.0, 12.0, 8.0, 10.0, 12.0], [9.0, 10.5, 11.0, 8.5, 9.5, 12.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a group of a single trial warns
            rmse = summarize_cohort(trials).sessions.rmse.tolist()
        assert rmse[0] == pytest.approx(0.067322, abs=5e-7)


class TestRegressionIndex:
    def test_three_point_oracle(self):
        recs = _trials(
            _rec("p01", "a", 0, 6.0, 8.0),
            _rec("p01", "a", 1, 10.0, 10.0),
            _rec("p01", "a", 2, 14.0, 12.0),
        )
        with pytest.warns(UserWarning, match="single trial"):
            s = _one_session(recs)
        assert s["slope"] == pytest.approx(0.5, abs=1e-12)
        assert s["regression_index"] == pytest.approx(0.5, abs=1e-12)
        assert s["intercept"] == pytest.approx(5.0, abs=1e-12)
        assert s["r_squared"] == pytest.approx(1.0, abs=1e-12)

    def test_translation_invariance_of_slope(self):
        rng = np.random.default_rng(0)
        recs = _trials(*(
            _rec("p01", "a", i, float(s), float(s + rng.normal(0, 0.5)))
            for i, s in enumerate(np.tile([6, 10, 14], 10))
        ))
        shifted = _trials(*(
            _rec(r.participant_id, r.condition, r.trial_index,
                 r.nominal_length, r.response + 2.0, actual=r.actual_length)
            for r in recs
        ))
        a = _one_session(recs)
        b = _one_session(shifted)
        assert a["slope"] == pytest.approx(b["slope"], abs=1e-12)
        assert a["regression_index"] == pytest.approx(b["regression_index"], abs=1e-12)

    def test_degenerate_stimuli(self):
        recs = _trials(*(_rec("p01", "a", i, 10.0, 10.0) for i in range(4)))
        with pytest.raises(DegenerateDataError, match="^all stimulus values identical$"):
            summarize_cohort(recs)


class TestScreenOutliers:
    def test_hand_case(self):
        # 24 values at 0.1 plus one at 1.0: mean 0.136, sd 0.18,
        # threshold at k=2.5 is 0.586, so only the 1.0 is dropped
        metrics = {f"p{i:02d}": 0.1 for i in range(24)}
        metrics["p99"] = 1.0
        kept, excluded = screen_outliers(metrics, k=2.5)
        assert excluded == ["p99"]
        assert len(kept) == 24

    def test_no_outliers(self):
        kept, excluded = screen_outliers({"a": 0.1, "b": 0.11, "c": 0.12}, k=2.5)
        assert excluded == []
        assert kept == ["a", "b", "c"]

    def test_single_pass_not_iterated(self):
        # after dropping 10.0 the value 5.0 would be extreme relative to the
        # rest, but the screen is a single pass so it stays
        metrics = {f"p{i}": 1.0 for i in range(20)}
        metrics["x"] = 5.0
        metrics["y"] = 10.0
        kept, excluded = screen_outliers(metrics, k=2.5)
        assert "y" in excluded and "x" in kept

    def test_needs_two(self):
        with pytest.raises(DegenerateDataError):
            screen_outliers({"a": 0.1})

    def test_nan_k_raises(self):
        # NaN would screen no one without a word, as k = inf does on purpose
        with pytest.raises(ValueError, match="^outlier SD multiplier k must not be NaN, got nan$"):
            screen_outliers({"a": 0.1, "b": 0.11, "c": 5.0}, k=math.nan)

    @pytest.mark.parametrize("k", [-1.0, -10.0, -math.inf])
    def test_negative_k_raises(self, k):
        with pytest.raises(ValueError, match=f"^outlier SD multiplier k must be >= 0, got {k}$"):
            screen_outliers({"a": 0.1, "b": 0.11, "c": 5.0}, k=k)

    def test_zero_k_screens_above_the_mean(self):
        assert screen_outliers({"a": 0.1, "b": 0.11, "c": 5.0}, k=0.0) == (["a", "b"], ["c"])


def _cohort(n=12, master_seed=0, wf=(0.3, 0.18, 0.14)):
    params = {
        "individual": ObserverParams(NoiseModel.weber(wf[0]), 10.0, 1.5, 1.2),
        "mechanical": ObserverParams(NoiseModel.weber(wf[1]), 10.0, 1.5, 1.2),
        "social": ObserverParams(NoiseModel.weber(wf[2]), 10.0, 1.5, 1.2),
    }
    return simulate_cohort(n, params, master_seed=master_seed)


# a session of the row reference: its SessionTable values, the sizes of its
# stimulus groups in nominal order, and the nominals of its single-trial groups
_RefSession = namedtuple("_RefSession", "regression_index slope intercept r_squared "
                                        "bias cv rmse group_sizes singletons")


def _reference_summary(trials, k=2.5):
    """summarize_cohort restated over rows, as the list-of-records pipeline
    computed it: dict grouping, np.mean over Python lists and a per-row
    debias.  Returns (sessions, condition_stats, contrasts, excluded), with
    sessions a dict of :data:`_RefSession` by (participant id, condition)."""
    by_session = {}
    for r in trials:
        by_session.setdefault((r.participant_id, r.condition), []).append(r)
    sessions = {}
    for key in sorted(by_session):
        rows = by_session[key]
        shift = float(np.mean([r.actual_length for r in rows])) - float(
            np.array([r.response for r in rows]).mean()
        )
        rows = [r._replace(response=r.response + shift) for r in rows]
        s_bar = float(np.mean([r.actual_length for r in rows]))
        groups = {}
        for r in rows:
            groups.setdefault(r.nominal_length, []).append(r)
        per, singletons = [], []
        for nominal in sorted(groups):
            actual = np.array([r.actual_length for r in groups[nominal]])
            resp = np.array([r.response for r in groups[nominal]])
            s_mi, r_mi = float(actual.mean()), float(resp.mean())
            bias = abs(r_mi - s_mi) / s_bar
            if resp.size == 1:
                cv = 0.0
                singletons.append(nominal)
            else:
                cv = float(resp.std(ddof=0)) / s_bar
            per.append((bias, cv, math.hypot(bias, cv), resp.size))
        bias, cv, rmse, sizes = zip(*per)
        x = np.array([r.actual_length for r in rows])
        y = np.array([r.response for r in rows])
        xc = x - x.mean()
        slope = float(np.dot(xc, y - y.mean()) / float(np.dot(xc, xc)))
        intercept = float(y.mean() - slope * x.mean())
        resid = y - (intercept + slope * x)
        r2 = 1.0 - float(np.sum(resid**2)) / float(np.sum((y - y.mean()) ** 2))
        sessions[key] = _RefSession(
            1.0 - slope, slope, intercept, r2, float(np.mean(list(bias))),
            float(np.mean(list(cv))), float(np.mean(list(rmse))), sizes, tuple(singletons))

    participants = sorted({pid for pid, _ in sessions})
    conditions = sorted({cond for _, cond in sessions})
    metric = {
        pid: float(np.mean([s.rmse for (p, _), s in sessions.items() if p == pid]))
        for pid in participants
    }
    values = np.array([metric[pid] for pid in participants])
    threshold = values.mean() + k * values.std(ddof=1)
    excluded = {pid: f"session_rmse {metric[pid]:.6f} exceeds mean + {k} * SD"
                for pid in participants if metric[pid] > threshold}
    kept = [pid for pid in participants if pid not in excluded]

    metrics = ("regression_index", "bias", "cv", "rmse")
    condition_stats = {}
    for cond in conditions:
        condition_stats[cond] = {}
        for m in metrics:
            arr = np.array([getattr(sessions[(pid, cond)], m)
                            for pid in kept if (pid, cond) in sessions])
            condition_stats[cond][m] = GroupStats(
                arr.size, float(arr.mean()), float(arr.std(ddof=1))
            )
    contrasts = []
    for i, ca in enumerate(conditions):
        for cb in conditions[i + 1:]:
            common = [pid for pid in kept
                      if (pid, ca) in sessions and (pid, cb) in sessions]
            for m in metrics:
                a = [getattr(sessions[(pid, ca)], m) for pid in common]
                b = [getattr(sessions[(pid, cb)], m) for pid in common]
                t, df, p = paired_t(a, b)
                contrasts.append(PairedContrast(ca, cb, m, len(common), t, df, p,
                                                cohens_d_paired(a, b)))
    return sessions, condition_stats, tuple(contrasts), excluded


def _assert_session_table(table, sessions):
    """The SessionTable holds the values of the reference's sessions, bit
    for bit and in their key order."""
    assert len(table) == len(sessions)
    assert list(zip(table.participant_id.tolist(), table.condition.tolist())) == list(sessions)
    for name in _RefSession._fields[:7]:
        expected = np.array([getattr(s, name) for s in sessions.values()])
        assert getattr(table, name).tobytes() == expected.tobytes(), name


def _assert_sessions_alone(trials, sessions):
    """Each session summarized alone holds the reference's values."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # singleton groups warn
        for key in sessions:
            alone = trials[(trials.participant_id == key[0]) & (trials.condition == key[1])]
            _assert_session_table(summarize_cohort(alone).sessions, {key: sessions[key]})


def _ragged_cohort(seed=0):
    """Sessions of unequal length and group count, rows shuffled.

    Stimulus groups have 1, 2, 5, 8, 9, 16, 17, 25, 33 or 130 trials: a
    reduction copies the first element and sums the rest pairwise in eight
    lanes from 8 of them (9 trials) and in halves above 128, so these sizes
    sit on both sides of each change of summation order.  Sessions use 2 to
    20 of 20 lengths.
    """
    rng = np.random.default_rng(seed)
    nominals = np.arange(20) * 0.5 + 5.0
    rows = []
    for p in range(8):
        for cond in ("individual", "mechanical", "social"):
            index = 0
            for nominal in rng.choice(nominals, rng.integers(2, 21), replace=False):
                k = int(rng.choice([1, 2, 5, 8, 9, 16, 17, 25, 33, 130]))
                actual = nominal + rng.normal(0.0, 0.2, k)
                response = np.maximum(0.6 * actual + 4.0 + rng.normal(0.0, 1.0, k), 0.0)
                for a, r in zip(actual.tolist(), response.tolist()):
                    rows.append((f"p{p:02d}", cond, index, float(nominal), a, r))
                    index += 1
    trials = _trials(*rows)
    return trials[rng.permutation(len(trials))]


def _key_columns(n, kinds, rng):
    """Shuffled key columns of n rows: str ids, small ints, and floats with
    NaN, drawn from few values so that groups repeat."""
    make = {
        "str": lambda: np.array([f"p{i:02d}" for i in rng.integers(0, 7, n)]),
        "int": lambda: rng.integers(-2, 3, n),
        "float": lambda: rng.choice([np.nan, -1.5, 0.0, 2.25, 7.0], n),
    }
    return [make[kind]() for kind in kinds]


def _sort_key(values):
    # NaN sorts last and equals NaN, as in np.lexsort and np.unique
    return tuple((1, 0.0) if v != v else (0, v) for v in values)


class TestSegments:
    @pytest.mark.parametrize("kinds", [
        ("str",), ("int",), ("float",), ("str", "float"), ("float", "str"),
        ("int", "float", "str"),
    ])
    @pytest.mark.parametrize("n", [1, analysis._BLOCK_SIZE, analysis._BLOCK_SIZE + 1,
                                   2 * analysis._BLOCK_SIZE, 2 * analysis._BLOCK_SIZE + 1,
                                   4 * analysis._BLOCK_SIZE + 1])
    def test_matches_python_grouping(self, kinds, n):
        keys = _key_columns(n, kinds, np.random.default_rng(n + len(kinds)))

        def key(row):  # the last key column is primary
            return _sort_key([column[row].item() for column in keys[::-1]])

        # sorted() is stable, so the rows of a group stay in table order
        groups = [list(g) for _, g in itertools.groupby(sorted(range(n), key=key), key)]
        segments = analysis._Segments(*keys)
        assert len(segments) == len(groups)
        assert segments.first_rows.tolist() == [g[0] for g in groups]
        assert segments.lengths.tolist() == [len(g) for g in groups]
        label = np.empty(n, int)
        for number, group in enumerate(groups):
            label[group] = number
        assert segments.labels().tolist() == label.tolist()
        for numbers, rows in segments.buckets:
            assert [groups[g] for g in numbers.tolist()] == rows.tolist()


    @pytest.mark.parametrize("block", [3, analysis._BLOCK_SIZE])
    @pytest.mark.parametrize("seed", range(24))
    def test_within_matches_grouping_by_label(self, monkeypatch, seed, block):
        rng = np.random.default_rng(seed)
        n_sessions = 1 if seed % 6 == 0 else int(rng.integers(2, 9))
        # sessions longer than 16 rows, which np.sort's default kind would
        # not keep in table order
        if seed % 3 == 1:  # sessions all of one length, whose order is reused
            lengths = np.full(n_sessions, int(rng.integers(1, 41)))
        else:  # unequal lengths, down to a single trial
            lengths = rng.integers(1, 41, n_sessions)
        session = np.repeat(np.arange(n_sessions), lengths)
        if seed % 2:  # rows of sessions interleaved, each session in runs apart
            session = rng.permutation(session)
        pid = np.array([f"p{s // 2}" for s in session])
        cond = np.array([f"c{s % 2}" for s in session])
        # few distinct values, so groups of one and of many; NaN sorts last
        # and equals NaN, -0.0 equals 0.0
        nominal = rng.choice([6.0, 10.0, 14.0, 0.0, -0.0, math.nan], session.size,
                             p=[0.3, 0.25, 0.2, 0.1, 0.05, 0.1])
        monkeypatch.setattr(analysis, "_BLOCK_SIZE", block)
        outer = analysis._Segments(cond, pid)
        reference = analysis._Segments(nominal, outer.labels())
        within = analysis._Segments.within(outer, nominal)
        assert within.lengths.tolist() == reference.lengths.tolist()
        assert within.first_rows.tolist() == reference.first_rows.tolist()
        assert [(g.tolist(), r.tolist()) for g, r in within.buckets] == [
            (g.tolist(), r.tolist()) for g, r in reference.buckets]


class TestCohortSummary:
    def test_session_shape(self):
        recs = _cohort(1)
        s = _one_session(recs[recs.condition == "individual"])
        assert (s["participant_id"], s["condition"]) == ("p01", "individual")
        assert 0.0 < s["regression_index"] < 1.0
        assert s["rmse"] > 0

    def test_condition_ordering_tracks_weber_fractions(self):
        summary = summarize_cohort(_cohort(20, master_seed=2))
        ri = {c: summary.condition_stats[c]["regression_index"].mean
              for c in summary.condition_stats}
        assert ri["social"] < ri["mechanical"] < ri["individual"]

    def test_contrasts_cover_all_pairs_and_metrics(self):
        summary = summarize_cohort(_cohort(8, master_seed=3))
        keys = {(c.condition_a, c.condition_b, c.metric) for c in summary.contrasts}
        assert len(keys) == 3 * 4
        for c in summary.contrasts:
            assert c.n == 8
            assert 0.0 <= c.p <= 1.0

    def test_nan_k_rejected(self):
        # NaN would screen no one without a word, as k = inf does on purpose
        with pytest.raises(ValueError, match="^outlier SD multiplier k must not be NaN, got nan$"):
            summarize_cohort(_cohort(4, master_seed=4), k=math.nan)

    def test_negative_k_rejected(self):
        # k = -10 would exclude every participant, and leave no condition data
        with pytest.raises(ValueError, match="^outlier SD multiplier k must be >= 0, got -10.0$"):
            summarize_cohort(_cohort(4, master_seed=4), k=-10.0)

    def test_screening_disabled_with_infinite_k(self):
        recs = _cohort(10, master_seed=4)
        screened = summarize_cohort(recs, k=2.5)
        unscreened = summarize_cohort(recs, k=math.inf)
        assert unscreened.excluded == {}
        # session-level analysis is unaffected by the screening threshold
        assert len(screened.sessions) == len(unscreened.sessions) == 10 * 3
        for field in dataclasses.fields(screened.sessions):
            assert np.array_equal(getattr(screened.sessions, field.name),
                                  getattr(unscreened.sessions, field.name))

    def test_noisy_participant_excluded(self):
        import warnings as _warnings

        recs = _cohort(15, master_seed=5)
        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore")
            wild = ObserverParams(NoiseModel.weber(0.9), 10.0, 5.0, 4.0)
        extra = simulate_cohort(
            1, {"individual": wild, "mechanical": wild, "social": wild},
            master_seed=99,
        )
        # simulate_cohort restarts pids at p01, so relabel the extra one
        recs = Trials.concatenate([recs, _relabel(extra, "p99")])
        summary = summarize_cohort(recs)
        assert "p99" in summary.excluded
        for cond in summary.condition_stats:
            assert summary.condition_stats[cond]["rmse"].n == 15

    def test_matches_row_reference_bit_for_bit(self):
        recs = _cohort(15, master_seed=5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            wild = ObserverParams(NoiseModel.weber(0.9), 10.0, 5.0, 4.0)
        extra = simulate_cohort(
            1, {"individual": wild, "mechanical": wild, "social": wild},
            master_seed=99,
        )
        recs = Trials.concatenate([recs, _relabel(extra, "p99")])
        # a singleton stimulus group: one of p01's six individual 6 cm trials
        drop = ((recs.participant_id == "p01") & (recs.condition == "individual")
                & (recs.nominal_length == 6.0))
        drop[np.flatnonzero(drop)[0]] = False
        recs = recs[~drop]
        # sessions interleaved in file order
        recs = recs[np.random.default_rng(8).permutation(len(recs))]

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the singleton group warns
            summary = summarize_cohort(recs)
            sessions, condition_stats, contrasts, excluded = _reference_summary(recs)
        assert "p99" in excluded
        assert sessions[("p01", "individual")].singletons == (6.0,)
        _assert_session_table(summary.sessions, sessions)
        assert summary.condition_stats == condition_stats
        assert summary.contrasts == contrasts
        assert summary.excluded == excluded
        _assert_sessions_alone(recs, sessions)

    # blocks of single groups, of 100 values (below the 130-trial groups),
    # the default and twice the default
    @pytest.mark.parametrize("block", [1, 100, analysis._BLOCK_SIZE, 2 * analysis._BLOCK_SIZE])
    def test_ragged_sessions_match_row_reference_bit_for_bit(self, monkeypatch, block):
        monkeypatch.setattr(analysis, "_BLOCK_SIZE", block)
        recs = _ragged_cohort()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            summary = summarize_cohort(recs)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sessions, condition_stats, contrasts, excluded = _reference_summary(recs)
        sizes = {n for s in sessions.values() for n in s.group_sizes}
        assert {1, 8, 9, 16, 17, 130} <= sizes
        assert len({len(s.group_sizes) for s in sessions.values()}) > 8
        _assert_session_table(summary.sessions, sessions)
        assert summary.condition_stats == condition_stats
        assert summary.contrasts == contrasts
        assert summary.excluded == excluded
        # one singleton warning per session that has any, in session order
        assert [str(w.message) for w in caught] == [
            f"stimulus groups with a single trial (cv set to 0): "
            f"{list(s.singletons)}"
            for s in sessions.values() if s.singletons
        ]
        _assert_sessions_alone(recs, sessions)

    def test_single_participant_no_contrasts(self):
        summary = summarize_cohort(_cohort(1))
        assert summary.contrasts == ()
        assert summary.excluded == {}

    def test_pipeline_matches_closed_form_at_large_reps(self):
        # many repetitions per stimulus: empirical session errors approach
        # the asymptotic model predictions
        from lenrepro.model import (
            DEFAULT_STIMULI, MotorCombination, MotorNoiseSpec, closed_form,
            normalized_errors, regression_index,
        )
        cfg = ScheduleConfig(reps=400, seed=1)
        params = {"a": ObserverParams(NoiseModel.weber(0.2), 10.0, 1.5, 1.2)}
        recs = simulate_cohort(1, params, cfg=cfg, master_seed=6)
        s = _one_session(recs)
        motor = MotorNoiseSpec(1.2, MotorCombination.QUADRATURE)
        mean, sd = closed_form(1.5, 0.2, DEFAULT_STIMULI, motor)
        b, c = normalized_errors(mean, sd, DEFAULT_STIMULI, motor)
        assert s["regression_index"] == pytest.approx(regression_index(mean, DEFAULT_STIMULI),
                                                      abs=0.02)
        assert s["bias"] == pytest.approx(b, abs=0.01)
        assert s["cv"] == pytest.approx(c, abs=0.01)

    def test_empty_rejected(self):
        with pytest.raises(DegenerateDataError):
            summarize_cohort(_trials())

    _CONSTANT = ([10.0] * 3, None)
    _OVERFLOW = ([6.0, 6.0, 10.0, 10.0, 14.0, 14.0], [1e308] * 6)  # debiased to -inf

    @pytest.mark.parametrize("replace, error, message, warned", [
        ({"p02_b": _CONSTANT}, DegenerateDataError, "all stimulus values identical",
         [[6.0], [6.0, 14.0]]),
        ({"p02_b": _OVERFLOW}, ValueError, "response must be finite, got -inf",
         [[6.0], [6.0, 14.0]]),
        # the first failing session decides, whichever its failure
        ({"p01_b": _CONSTANT, "p02_a": _OVERFLOW}, DegenerateDataError,
         "all stimulus values identical", [[6.0]]),
        ({"p01_b": _OVERFLOW, "p02_a": _CONSTANT}, ValueError,
         "response must be finite, got -inf", [[6.0]]),
        # within one session a non-finite response comes before a constant stimulus
        ({"p02_b": ([10.0] * 3, [1e308] * 3)}, ValueError,
         "response must be finite, got -inf", [[6.0], [6.0, 14.0]]),
    ])
    def test_failing_session_stops_the_cohort(self, replace, error, message, warned):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError) as failure:
                summarize_cohort(_degenerate_cohort(replace))
        assert type(failure.value) is error
        assert str(failure.value) == message
        # the singleton warnings of the sessions before the failing one, in order
        assert [str(w.message) for w in caught if w.category is UserWarning] == [
            f"stimulus groups with a single trial (cv set to 0): {nominals}"
            for nominals in warned
        ]

    def test_condition_emptied_by_the_screen_is_named(self):
        # p99 alone ran "rare", and its scattered responses make it the outlier
        kept = _cohort(12, master_seed=1)
        kept = kept[kept.condition == "individual"]
        outlier = [("p99", cond, i, x, x, x + (5.0 if i % 2 else -5.0))
                   for cond in ("individual", "rare")
                   for i, x in enumerate(np.repeat([6.0, 10.0, 14.0], 2))]
        trials = Trials.concatenate([kept, Trials(*zip(*outlier))])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            summary = summarize_cohort(trials)
        assert [(str(w.message), w.filename) for w in caught] == [
            ("outlier screening at k = 2.5 keeps no session of condition(s) rare; "
             "their statistics are nan", __file__)]
        assert list(summary.excluded) == ["p99"]
        assert summary.condition_stats["rare"]["rmse"].n == 0
        report = render_report(summary)
        assert report.startswith("# cohort summary\n\n## exclusions\np99: session_rmse ")
        assert "\ncondition rare: no session kept\n\n## condition statistics\n" in report


def _degenerate_cohort(replace=None):
    """Sessions p01-p03 x conditions a, b, rows in shuffled file order.

    p01/a has a single-trial stimulus group at 6 cm, p02/a two (6 and
    14 cm) and p03/a one (14 cm).  ``replace`` maps a session, such as
    ``"p02_b"``, to its nominal lengths and responses (None for the
    default responses).
    """
    nominals = {
        "p01_a": [6.0, 10.0, 10.0, 14.0, 14.0],
        "p01_b": [6.0, 6.0, 10.0, 10.0, 14.0, 14.0],
        "p02_a": [6.0, 10.0, 10.0, 14.0],
        "p02_b": [6.0, 6.0, 10.0, 10.0, 14.0, 14.0],
        "p03_a": [6.0, 6.0, 10.0, 10.0, 14.0],
        "p03_b": [6.0, 6.0, 10.0, 10.0, 14.0, 14.0],
    }
    rows = []
    for name, nominal in nominals.items():
        nominal, response = (replace or {}).get(name, (nominal, None))
        if response is None:
            response = [0.8 * x + 2.0 + 0.1 * i for i, x in enumerate(nominal)]
        pid, cond = name.split("_")
        rows += [_rec(pid, cond, i, x, r) for i, (x, r) in enumerate(zip(nominal, response))]
    trials = _trials(*rows)
    return trials[np.random.default_rng(3).permutation(len(trials))]


def _by_session(trials, *keys):
    """``trials`` with each session's rows together, in table order within
    the session, and the sessions ordered by ``keys`` (column names, the
    last primary)."""
    return trials[np.lexsort([getattr(trials, key) for key in keys])]


def _summarized(path, k, streamed):
    """What summarize_file, or summarize_cohort of ingest, makes of a file:
    the pickled summary or the error, and every warning with its category,
    message, file and line.  Both run on one line, so that a warning of
    either points at the same line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = pickle.dumps(summarize_file(path, k) if streamed else summarize_cohort(ingest(path), k))
        except Exception as exc:  # compared between the two, not handled
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message), w.filename, w.lineno) for w in caught]


def _streams(path) -> bool:
    """Whether summarize_file reduces the file a block at a time, without
    falling back to summarize_cohort of ingest."""
    with open(path, newline="", encoding="utf-8-sig") as fh, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # compared by _summarized
        return analysis._file_sessions(fh) is not None


def _ragged(seed):
    """The first three participants of a ragged cohort, rows shuffled."""
    trials = _ragged_cohort(seed)
    return trials[np.isin(trials.participant_id, ["p00", "p01", "p02"])]


def _widening():
    """Sessions whose participant ids and conditions grow longer down the
    file, so a later block parses them at a wider width."""
    trials = _by_session(_degenerate_cohort(), "participant_id", "condition")
    longer = {"p01": "p", "p02": "p02", "p03": "p03-long", "a": "a", "b": "b-longer"}
    return Trials(*(np.array([longer[x] for x in ids.tolist()])
                    for ids in trials.columns[:2]), *trials.columns[2:])


_C = TestCohortSummary
# trial tables written as contract files: (table, whether it streams when
# a block holds only part of it)
_FILE_TABLES = {
    "sessions of equal length": (lambda: _cohort(3, master_seed=2), True),
    "ragged sessions": (lambda: _by_session(_ragged(1), "condition", "participant_id"), True),
    "ragged sessions by condition": (
        lambda: _by_session(_ragged(2), "participant_id", "condition"), True),
    "singleton groups": (lambda: _by_session(_degenerate_cohort(), "condition",
                                             "participant_id"), True),
    "interleaved sessions": (lambda: _ragged(1), False),
    "ids that widen in later blocks": (lambda: _widening(), True),
    **{f"degenerate {sorted(replace)}": (
        lambda replace=replace: _by_session(_degenerate_cohort(replace), "condition",
                                            "participant_id"), True)
       for replace in ({"p02_b": _C._CONSTANT}, {"p02_b": _C._OVERFLOW},
                       {"p01_b": _C._CONSTANT, "p02_a": _C._OVERFLOW},
                       {"p01_b": _C._OVERFLOW, "p02_a": _C._CONSTANT},
                       {"p01_a": _C._CONSTANT}, {"p03_b": _C._CONSTANT})},
}


class TestSummarizeFile:
    """summarize_file against summarize_cohort of ingest, its oracle."""

    @staticmethod
    def _assert_same(path, k=2.5):
        assert _summarized(path, k, True) == _summarized(path, k, False)

    @pytest.mark.parametrize("name", list(_FILE_TABLES))
    @pytest.mark.parametrize("rows", [1, 2, 3, 5, 13, 2**13])
    def test_tables_match_the_oracle(self, tmp_path, monkeypatch, name, rows):
        table, streams = _FILE_TABLES[name]
        trials = table()
        # a small table is read a line at a time, so that a block can end
        # after any row; a larger one in larger reads and blocks
        chunk = 1 if len(trials) < 1000 else 2**12
        if chunk > 1 and rows < 2**13:
            rows *= 200
        monkeypatch.setattr(analysis, "_SESSION_ROWS", rows)
        monkeypatch.setattr(analysis, "_SCAN_CHUNK", chunk)
        path = tmp_path / "trials.csv"
        write_trial_csv(trials, path)
        assert _streams(path) is (streams or rows >= len(trials))
        self._assert_same(path)

    @pytest.mark.parametrize("rows", range(1, 12))
    def test_a_session_cut_by_every_block_boundary(self, tmp_path, monkeypatch, rows):
        # one line read at a time, so a block boundary falls after every row
        # for some block size, inside a session or at its end
        monkeypatch.setattr(analysis, "_SESSION_ROWS", rows)
        monkeypatch.setattr(analysis, "_SCAN_CHUNK", 1)
        path = tmp_path / "trials.csv"
        write_trial_csv(_by_session(_degenerate_cohort(), "condition", "participant_id"), path)
        assert _streams(path)
        self._assert_same(path)

    @pytest.mark.parametrize("k", [0.0, 0.5, math.inf, -1.0, math.nan])
    def test_k_checked_as_the_oracle_checks_it(self, tmp_path, k):
        path = tmp_path / "trials.csv"
        write_trial_csv(_cohort(3, master_seed=2), path)
        self._assert_same(path, k)
        path.write_bytes(_text(_CONTRACT, _ROW, "p01,social,4,6,6,oops"))
        self._assert_same(path, k)  # the file's error comes first

    _SESSIONS = [f"p{p},{c},{i},{x},{x},{x + 0.1 * i}" for p in (1, 2) for c in ("a", "b")
                 for i, x in enumerate((6, 6, 10, 10, 14, 14))]
    _FILES = {
        "duplicate key in a later block": (_text(_CONTRACT, *_SESSIONS, "p2,b,3,6,6,6"), False),
        # streams when one block holds the whole file
        "first session repeated in a later block": (
            _text(_CONTRACT, *_SESSIONS, "p1,a,9,6,6,6"), None),
        "byte-order mark": (b"\xef\xbb\xbf" + _text(_CONTRACT, *_SESSIONS), True),
        "CRLF": (_text(_CONTRACT, *_SESSIONS, end="\r\n"), False),
        "bad last row": (_text(_CONTRACT, *_SESSIONS, "p2,b,9,6,6,oops"), False),
        "negative last response": (_text(_CONTRACT, *_SESSIONS, "p2,b,9,6,6,-1"), False),
        "short last row": (_text(_CONTRACT, *_SESSIONS, "p2,b,9,6,6"), False),
        "non-ASCII in a later block": (_text(_CONTRACT, *_SESSIONS, "pé,b,9,6,6,6"),
                                       False),
        "invalid UTF-8 in a later block": (_text(_CONTRACT, *_SESSIONS) + b"p\xff,b,9,6,6,6\n",
                                           False),
        "comma in a quoted condition in a later block": (
            _text(_CONTRACT, *_SESSIONS, 'p2,"b,c",9,6,6,6'), False),
        "header only": (_text(_CONTRACT), False),
        "empty file": (b"", False),
        "no actual column": (_text(
            "participant_id,condition,trial_index,nominal_length_cm,response_cm",
            *(",".join(row.split(",")[:4] + row.split(",")[5:]) for row in _SESSIONS)),
            False),
    }

    @pytest.mark.parametrize("name", list(_FILES))
    @pytest.mark.parametrize("rows", [1, 7, 2**13])
    def test_files_match_the_oracle(self, tmp_path, monkeypatch, name, rows):
        data, streams = self._FILES[name]
        monkeypatch.setattr(analysis, "_SESSION_ROWS", rows)
        monkeypatch.setattr(analysis, "_SCAN_CHUNK", 40)
        path = tmp_path / "trials.csv"
        path.write_bytes(data)
        assert _streams(path) is (rows > len(self._SESSIONS) if streams is None else streams)
        self._assert_same(path)

    def test_streams_as_the_oracle_reads_them(self, tmp_path):
        path = tmp_path / "trials.csv"
        write_trial_csv(_by_session(_degenerate_cohort(), "condition", "participant_id"), path)
        text = path.read_text()
        for source in (lambda: io.StringIO(text), lambda: _OnceOnly(text),
                       lambda: text.splitlines(keepends=True)):
            assert _summarized(source(), 2.5, True) == _summarized(source(), 2.5, False)
        # a stream is read from where it stands
        stream = io.StringIO("ignored\n" + text)
        stream.readline()
        oracle = io.StringIO(text)
        assert _summarized(stream, 2.5, True) == _summarized(oracle, 2.5, False)


class _OnceOnly(io.StringIO):
    def seekable(self):
        return False


class TestOutputs:
    def test_report_and_csvs_deterministic(self, tmp_path):
        summary = summarize_cohort(_cohort(5, master_seed=7))
        report = render_report(summary)
        assert report == render_report(summary)
        assert "## condition statistics" in report
        assert "individual.regression_index" in report

        p_csv = tmp_path / "per_participant.csv"
        c_csv = tmp_path / "conditions.csv"
        write_participant_csv(summary, p_csv)
        write_condition_csv(summary, c_csv)
        p_lines = p_csv.read_text().splitlines()
        assert p_lines[0].startswith("participant_id,condition,regression_index")
        assert len(p_lines) == 1 + 5 * 3
        c_lines = c_csv.read_text().splitlines()
        assert len(c_lines) == 4
        assert c_lines[0].split(",")[:4] == ["condition", "n", "ri_mean", "ri_sd"]
        assert b"\r" not in p_csv.read_bytes()

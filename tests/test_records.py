"""The Trials table and the trial CSV format."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenrepro import records, trialtext
from lenrepro.model import NoiseModel
from lenrepro.records import TrialRow, Trials, write_csv, write_trial_csv
from lenrepro.simulate import (DemonstratorNoise, ObserverParams, ScheduleConfig, cohort_blocks,
                               simulate_cohort)


def _table(**columns):
    base = dict(participant_id=["p01", "p01"], condition=["a", "a"],
                trial_index=[3, 4], nominal_length=[6.0, 14.0],
                actual_length=[6.0, 13.9], response=[7.25, 12.5])
    return Trials(**{**base, **columns})


class TestTrials:
    @pytest.mark.parametrize("column, values, message", [
        ("response", [7.25, float("nan")], "response must be finite, got nan"),
        ("response", [float("-inf"), 1.0], "response must be finite, got -inf"),
        ("actual_length", [6.0, 0.0], "actual_length must be > 0, got 0.0"),
        ("actual_length", [-1.0, 6.0], "actual_length must be > 0, got -1.0"),
        ("nominal_length", [6.0], "equal length"),
    ])
    def test_columns_checked(self, column, values, message):
        with pytest.raises(ValueError, match=message):
            _table(**{column: values})

    def test_rows_and_columns(self):
        trials = _table()
        assert len(trials) == 2
        first = next(iter(trials))
        assert first == TrialRow("p01", "a", 3, 6.0, 6.0, 7.25)
        assert type(first.trial_index) is int and type(first.response) is float
        with pytest.raises(AttributeError):
            first.response = 0.0
        with pytest.raises(ValueError, match="read-only"):
            trials.response[0] = 0.0
        wide = _table(participant_id=np.array(["p01", "p01"], dtype="U10"))
        assert wide.participant_id.dtype == np.dtype("U3") and wide == trials

    def test_equality_selection_and_concatenation(self):
        trials = _table()
        assert trials == _table()
        assert trials != _table(response=[7.25, 12.6])
        assert trials[np.array([False, True])] == trials[1:]
        assert Trials.concatenate([trials[:1], trials[1:]]) == trials
        assert [r.trial_index for r in trials[::-1]] == [4, 3]

    @pytest.mark.parametrize("index", [0, np.int64(1), np.array(0)])
    def test_scalar_index_rejected(self, index):
        with pytest.raises(TypeError, match="^select Trials rows with an index array, "
                           "a boolean mask or a slice, not "):
            _table()[index]

    def test_caller_arrays_are_not_frozen_or_aliased(self):
        response = np.array([7.25, 12.5])
        ids = np.array(["p01", "p01"])
        base = np.array([6.0, 13.9])
        view = base[:]
        view.flags.writeable = False  # read-only, but base can still write it
        buffer = bytearray(np.array([6.0, 14.0]).tobytes())
        nominal = np.frombuffer(buffer)
        nominal.flags.writeable = False  # read-only, but the buffer is not
        trials = _table(response=response, participant_id=ids, actual_length=view,
                        nominal_length=nominal)
        for given, column in ((response, trials.response), (ids, trials.participant_id),
                              (view, trials.actual_length), (nominal, trials.nominal_length)):
            assert not np.shares_memory(given, column) and not column.flags.writeable
        assert response.flags.writeable and ids.flags.writeable
        response[0], base[0], buffer[:8] = 0.0, 1.0, bytes(8)
        assert trials == _table()

    def test_read_only_columns_are_adopted(self):
        columns = dict(participant_id=np.array(["p01", "p01"]), condition=np.array(["a", "a"]),
                       trial_index=np.array([3, 4]), nominal_length=np.array([6.0, 14.0]),
                       actual_length=np.array([6.0, 13.9]), response=np.array([7.25, 12.5]))
        for column in columns.values():
            column.flags.writeable = False
        trials = Trials(**columns)
        assert all(getattr(trials, name) is column for name, column in columns.items())
        assert trials == _table()
        # a contiguous slice is a view of the table; a strided one, a
        # wider string column or another dtype is copied to the table's form
        assert np.shares_memory(trials[1:].response, trials.response)
        assert trials[::-1].response.flags.c_contiguous
        wide = columns["participant_id"].astype("U8")
        wide.flags.writeable = False
        assert Trials(**{**columns, "participant_id": wide}).participant_id.dtype == "U3"
        small = columns["trial_index"].astype(np.int32)
        small.flags.writeable = False
        assert Trials(**{**columns, "trial_index": small}).trial_index.dtype == np.int64

    def test_row_selection_copies_each_column_once(self):
        conditions = np.repeat(["individual", "mechanical", "social"], 66)
        trials = Trials(np.repeat([f"p{i:03d}" for i in range(100)], 198),
                        np.tile(conditions, 100), np.tile(np.arange(198), 100),
                        *np.full((3, 19_800), 10.0))
        mask = trials.condition == "social"
        trials[np.flatnonzero(mask)[:10]]  # first-call costs are not the selection's
        tracemalloc.start()
        try:
            social = trials[mask]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(social) == 6_600
        assert peak <= 1.75 * sum(c.nbytes for c in social.columns)
        response = np.array([7.25, 12.5])
        selected = _table(response=response)[np.array([True, True])]
        assert not np.shares_memory(selected.response, response)
        assert response.flags.writeable

    def test_csv_bytes(self, tmp_path):
        path = tmp_path / "trials.csv"
        write_trial_csv(_table(), path)
        assert path.read_bytes() == (
            b"participant_id,condition,trial_index,nominal_length_cm,"
            b"actual_length_cm,response_cm\n"
            b"p01,a,3,6.000000,6.000000,7.250000\n"
            b"p01,a,4,14.000000,13.900000,12.500000\n"
        )

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    def test_csv_bytes_in_chunks(self, tmp_path, monkeypatch, chunk):
        trials = Trials.concatenate([_table(trial_index=[2 * i, 2 * i + 1]) for i in range(3)])
        whole, chunked = tmp_path / "whole.csv", tmp_path / "chunked.csv"
        write_trial_csv(trials, whole)

        def rows():  # a generator, so the writer cannot take its length
            yield from ((f"s{i}", i, i / 3, -i / 7) for i in range(5))

        write_csv(tmp_path / "rows_whole.csv", "s,i,x,y", "%s,%d,%.6f,%.6f", rows())
        monkeypatch.setattr(records, "_BLOCK_ROWS", chunk)
        write_trial_csv(trials, chunked)
        assert chunked.read_bytes() == whole.read_bytes()
        assert whole.read_bytes().count(b"\n") == len(trials) + 1
        write_csv(tmp_path / "rows.csv", "s,i,x,y", "%s,%d,%.6f,%.6f", rows())
        assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "rows_whole.csv").read_bytes()
        assert (tmp_path / "rows.csv").read_bytes().splitlines()[1:3] == [
            b"s0,0,0.000000,0.000000", b"s1,1,0.333333,-0.142857"]
        write_csv(tmp_path / "empty.csv", "s,i,x,y", "%s,%d,%.6f,%.6f", iter(()))
        assert (tmp_path / "empty.csv").read_bytes() == b"s,i,x,y\n"

    def test_csv_floats_as_str_format(self, tmp_path):
        """%.6f writes what "{:.6f}".format writes, for every number type the
        tables hold, nan and infinities included."""
        values = [1 / 3, -0.0, float("nan"), float("inf"), -2.5e-7, np.float64(2 / 3), 7,
                  np.int64(-4)]
        write_csv(tmp_path / "x.csv", "x", "%.6f", ((v,) for v in values))
        assert (tmp_path / "x.csv").read_text().splitlines()[1:] == list(
            map("{:.6f}".format, values))

    def test_failed_rows_leave_no_file(self, tmp_path, monkeypatch):
        def rows():
            yield from ((i, i / 3) for i in range(3))
            raise RuntimeError("fourth row")

        monkeypatch.setattr(records, "_BLOCK_ROWS", 2)  # a block is written before the failure
        path = tmp_path / "t.csv"
        with pytest.raises(RuntimeError, match="fourth row"):
            write_csv(path, "i,x", "%d,%.6f", rows())
        assert not path.exists()
        with pytest.raises(TypeError):  # a row that fails to format
            write_csv(path, "i,x", "%d,%.6f", [(1, 0.5), (2, 0.5), ("3", 0.5)])
        assert not path.exists()



def _percent_text(trials):
    """The trial CSV rows as ``%`` writes them, one row at a time."""
    return "".join("%s,%s,%d,%.6f,%.6f,%.6f\n" % row for row in trials).encode("utf-8")


_HEADER = (",".join(records.TRIAL_CSV_HEADER) + "\n").encode()
# exact ties of %.6f and their neighbours, signed zeros, values that round
# to a signed zero, and values at and past the exact integers of a float
_EDGES = [0.0078125, 0.0234375, 5e-7, 2.5e-6, 0.1234565, 0.0, -0.0, -1e-9, -5e-7,
          4.9999999e-7, 0.9999995, 1e9, 2.0 ** 53, 2.0 ** 53 / 1e6, 1e15, 1e300]
_EDGES += [math.nextafter(x, d) for x in _EDGES for d in (-math.inf, math.inf)]
_IDS = st.text(st.sampled_from("p0a_,\x00é€\U0001f600"), max_size=5)
_INDEX = st.one_of(st.integers(-2 ** 63, 2 ** 63 - 1), st.integers(0, 200))


def _floats(keep=lambda x: True, **kwargs):
    return st.one_of(st.sampled_from([x for x in _EDGES if keep(x)]),
                     st.floats(**kwargs), st.floats(0.001, 1e4).filter(keep))


class TestTrialText:
    """The numpy text of the trial CSV equals ``%`` for every value a table
    can hold, and across the writer's block boundaries."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), block=st.sampled_from([1, 2, 5]), extra=st.sampled_from([-1, 0, 1]))
    def test_matches_percent_format(self, tmp_path_factory, data, block, extra):
        n = max(1, block + extra)  # a block less one row, a block, and one more

        def column(values):
            return data.draw(st.lists(values, min_size=n, max_size=n))

        trials = Trials(column(_IDS), column(_IDS), column(_INDEX),
                        column(_floats()),  # NaN and infinite nominals too
                        column(_floats(lambda x: x > 0, min_value=0.0, exclude_min=True)),
                        column(_floats(allow_nan=False, allow_infinity=False)))
        path = tmp_path_factory.mktemp("text") / "t.csv"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(records, "_BLOCK_ROWS", block)
            write_trial_csv(trials, path)
        assert path.read_bytes() == _HEADER + _percent_text(trials)

    def test_cells_outside_the_exact_domain(self):
        values = [0.0078125, -0.0078125, 2.0 ** 53, float("nan"), float("-inf"), -1e-9, -0.0]
        n = len(values)
        trials = Trials(["p1", "é", "a\x00b", "p1", "ab\x00", "\x00", "€"], ["c"] * n,
                        [-1, 2 ** 63 - 1, -2 ** 63, 0, 9, 10, 5], values, [1.0] * n,
                        [0.5] * n)
        assert trialtext.rows_text(trials.columns) == _percent_text(trials)
        assert b"a\x00b," in _percent_text(trials)
        assert b",0.007812," in _percent_text(trials)  # the tie rounds to even

    def test_tables_in_turn(self, tmp_path):
        trials = Trials.concatenate([_table(trial_index=[2 * i, 2 * i + 1]) for i in range(3)])
        whole, parts = tmp_path / "whole.csv", tmp_path / "parts.csv"
        write_trial_csv(trials, whole)
        write_trial_csv(iter([trials[:1], trials[1:4], trials[4:4], trials[4:]]), parts)
        assert parts.read_bytes() == whole.read_bytes() == _HEADER + _percent_text(trials)
        write_trial_csv(iter(()), parts)
        assert parts.read_bytes() == _HEADER

    def test_simulated_cohort_takes_the_numpy_path(self, tmp_path, monkeypatch):
        """No block of a simulated cohort holds a cell outside the exact
        domain, so none is formatted by ``%``."""
        params = {c: ObserverParams(NoiseModel.weber(0.15), 10.0, 1.5, 1.2)
                  for c in ("individual", "mechanical", "social")}
        args = (20, params, ScheduleConfig(), DemonstratorNoise(0.2), 3)

        def refuse(line, rows):
            raise AssertionError("a block was formatted by %")

        monkeypatch.setattr(trialtext, "_rows_text", refuse)
        path = tmp_path / "t.csv"
        write_trial_csv(cohort_blocks(*args), path)
        assert path.read_bytes() == _HEADER + _percent_text(simulate_cohort(*args))

    def test_failed_table_leaves_no_file(self, tmp_path):
        def tables():
            yield _table()
            raise RuntimeError("second table")

        path = tmp_path / "t.csv"
        with pytest.raises(RuntimeError, match="second table"):
            write_trial_csv(tables(), path)
        assert not path.exists()

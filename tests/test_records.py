"""The Trials table and the trial CSV format."""
import numpy as np
import pytest

from lenrepro import records
from lenrepro.records import TrialRow, Trials, write_csv, write_trial_csv


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
        monkeypatch.setattr(records, "_CHUNK_ROWS", chunk)
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

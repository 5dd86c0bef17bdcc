"""Self-test of the benchmark at tiny sizes.

Checks that the emitted metric names and units are the ones in
BENCHMARK.json, that every traced span closes inside its parent with a
nonnegative self time, and that a failing command counts as a failed
operation.  Run from the repository root:

    PYTHONPATH=src python -m pytest perfbench -q
"""
import dataclasses

import pytest

import run

TINY = run.Scale(cohort_participants=3, fit_participants=3,
                 sigma_p_grid=(0.1, 1.1, 0.5), wf_grid=(0.0, 0.6, 0.1),
                 ri_grid=(0.0, 0.9, 0.3), sigma_ps=(0.5, 1.5))


def spec_units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in run.spec()[kind]}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    work = tmp_path_factory.mktemp("perfbench")
    return {w: run.run_workload(w, 5, 1, True, TINY, work) for w in run.WORKLOADS}


def test_end_to_end_metrics_match_spec(tmp_path):
    record = run.run_workload("curves", 5, 1, False, TINY, tmp_path)
    line = run.result_line(record)
    units = spec_units("end_to_end")
    assert set(line["metrics"]) == set(units) <= set(run.E2E_UNITS)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    for name, metric in line["metrics"].items():
        assert metric["unit"] == units[name] == run.E2E_UNITS[name]
        assert metric["value"] > 0
    assert set(record["metrics"]) == set(run.E2E_UNITS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_per_layer_metrics_match_spec(traced, workload):
    record = traced[workload]
    units = spec_units("per_layer")
    assert set(record["metrics"]) == set(units)
    assert all(units.values())
    assert run.result_line(record)["correct"], record["checks"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_spans_close_inside_parent(traced, workload):
    import replay

    spans = traced[workload]["spans"]
    by_id = {s["id"]: s for s in spans}
    assert len(spans) > 1
    for s in spans:
        assert s["workload"] == workload and s["run_id"]
        assert s["start"] <= s["end"]
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
    assert min(replay.self_times(spans).values()) >= 0


def test_fit_values_are_recorded(traced):
    values = traced["fit"]["fit_values"]
    assert set(values) == {"finite", "asymptotic"}
    for fit in values.values():
        assert fit["sigma_p"] > 0 and len(fit["wf"]) == len(TINY.conditions)


def test_second_seed_moves_cohort_digests_not_metric_names(traced, tmp_path):
    other = run.run_workload("cohort", 6, 1, True, TINY, tmp_path)
    first = traced["cohort"]
    assert set(other["metrics"]) == set(first["metrics"])
    assert other["digests"]["iteration/trials.csv"] != first["digests"]["iteration/trials.csv"]


def test_failing_command_raises_error_rate(tmp_path):
    broken = dataclasses.replace(TINY, cohort_participants=0)
    record = run.run_workload("cohort", 5, 1, False, broken, tmp_path)
    assert record["error_rate"] > 0
    assert any(c["rc"] != 0 for c in record["commands"])
    assert not run.result_line(record)["correct"]

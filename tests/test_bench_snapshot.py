"""scripts/bench_snapshot.py: the order of its runs and the files it writes,
with perfbench's runs stubbed out."""
import importlib.util
import json
import types
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_snapshot.py"


@pytest.fixture
def snap(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location("bench_snapshot", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    calls = []

    def fake_run(root, workload, seed, trace):
        calls.append((root.name, workload, seed, trace))
        return {"seed": seed, "seconds": 36, "attempted": 1, "failed": 0, "checks": [],
                "metrics": {"wall_s": float(len(calls))},
                "summary": {"wall_s": {"n": 1}},
                "commands": [{"name": "fit_finite", "rc": 0, "main_s": 0.1,
                              "maxrss_kb": 1024}]}

    monkeypatch.setattr(module, "run", fake_run)
    for name in ("a", "b"):
        results = tmp_path / name / ".perfbench_work" / "results"
        results.mkdir(parents=True)
        (results / "cohort-seed1-trace0.json").write_text(json.dumps({"env": {"seed": 1}}))
    monkeypatch.chdir(tmp_path)
    return module, calls, tmp_path


def test_runs_alternate_between_checkouts(snap):
    module, calls, tmp_path = snap
    assert module.main(["--number", "11", "--root", str(tmp_path / "a"),
                        "--number", "12", "--root", str(tmp_path / "b")]) == 0
    steps = [(s, 0) for s in module.SEEDS] + [(module.SEEDS[0], 1)]
    expected = []
    for workload in module.WORKLOADS:
        for k, (seed, trace) in enumerate(steps):
            order = ("a", "b") if k % 2 == 0 else ("b", "a")
            expected += [(root, workload, seed, trace) for root in order]
    assert calls == expected
    for number, root in ((11, "a"), (12, "b")):
        bench = json.loads((tmp_path / f"BENCH_{number}.json").read_text())
        assert bench["number"] == number
        # each file holds its own checkout's runs: the n-th call reads n
        fit = bench["workloads"]["fit"]["end_to_end"]["wall_s"]["per_seed"]
        first = calls.index((root, "fit", 1, 0)) + 1
        assert fit["1"] == first
        assert bench["workloads"]["fit"]["per_layer"]["wall_s"] == \
            calls.index((root, "fit", 1, 1)) + 1


def test_one_checkout_runs_as_before(snap):
    module, calls, tmp_path = snap
    assert module.main(["--number", "9", "--root", str(tmp_path / "a")]) == 0
    assert calls == [("a", w, s, t) for w in module.WORKLOADS
                     for s, t in [(s, 0) for s in module.SEEDS] + [(module.SEEDS[0], 1)]]
    assert sorted(p.name for p in tmp_path.glob("BENCH_*.json")) == ["BENCH_9.json"]


@pytest.mark.parametrize("argv", [
    ["--number", "1", "--number", "2"],
    ["--number", "1", "--root", "a", "--number", "1", "--root", "b"],
    ["--number", "1", "--root", "a", "--number", "2", "--root", "a"],
])
def test_unpaired_or_repeated_arguments_rejected(snap, argv):
    module, calls, _ = snap
    with pytest.raises(SystemExit):
        module.main(argv)
    assert calls == []


def test_line_counts_of_src_and_tests(snap):
    module, _, tmp_path = snap
    root = tmp_path / "a"
    for name, text in (("src/lenrepro/model.py", "a\nb\n"), ("src/lenrepro/notes.txt", "x\n"),
                       ("tests/test_model.py", "x\n"), ("tests/test_cli.py", "")):
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    assert module.main(["--number", "9", "--root", str(root)]) == 0
    bench = json.loads((tmp_path / "BENCH_9.json").read_text())
    assert bench["src_lines"] == {"model.py": 2, "total": 2}
    assert bench["tests_lines"] == {"test_cli.py": 0, "test_model.py": 1, "total": 1}


@pytest.mark.parametrize("flag", [0, 1])
def test_bytecode_flag_recorded(snap, monkeypatch, flag):
    # PYTHONDONTWRITEBYTECODE makes every CLI process compile lenrepro again
    module, _, tmp_path = snap
    flags = types.SimpleNamespace(dont_write_bytecode=flag)
    monkeypatch.setattr(module, "sys", types.SimpleNamespace(flags=flags))
    assert module.main(["--number", "9", "--root", str(tmp_path / "a")]) == 0
    env = json.loads((tmp_path / "BENCH_9.json").read_text())["env"]
    assert env["dont_write_bytecode"] is bool(flag)

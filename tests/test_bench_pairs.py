"""scripts/bench_pairs.py: the order of its runs and its verdicts, with
perfbench's runs stubbed out."""
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def pairs(monkeypatch, tmp_path):
    module = _load()
    calls = []

    def fake_run(root, workload, seed, seconds):
        calls.append((root.name, workload, seed, seconds))
        # the change is 0.1 s faster, and every run 0.01 s slower than the
        # one before it, so a drift of the machine shows in the spread
        wall = 1.0 + 0.01 * len(calls) - (0.1 if root.name == "change" else 0.0)
        return {"wall_s": wall, "peak_rss_mb": 40.0 + (0.1 if root.name == "change" else 0.0)}

    monkeypatch.setattr(module, "run", fake_run)
    for name in ("parent", "change"):
        (tmp_path / name).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "wall_s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.05}]}))
    return module, calls, tmp_path


def test_runs_alternate_and_verdicts(pairs, capsys):
    module, calls, tmp_path = pairs
    assert module.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                        "--workload", "cohort", "--pairs", "4", "--first-seed", "11",
                        "--seconds", "8"]) == 0
    assert calls == [("parent", "cohort", 11, 8.0), ("change", "cohort", 11, 8.0),
                     ("change", "cohort", 12, 8.0), ("parent", "cohort", 12, 8.0),
                     ("parent", "cohort", 13, 8.0), ("change", "cohort", 13, 8.0),
                     ("change", "cohort", 14, 8.0), ("parent", "cohort", 14, 8.0)]
    lines = capsys.readouterr().out.splitlines()
    summary = json.loads(lines[-1])["metrics"]
    wall, peak = summary["wall_s"], summary["peak_rss_mb"]
    assert wall["values"]["parent"] == pytest.approx([1.01, 1.04, 1.05, 1.08])
    assert wall["values"]["change"] == pytest.approx([0.92, 0.93, 0.96, 0.97])
    assert (wall["wins"], wall["losses"], wall["pairs"]) == (4, 0, 4)
    assert wall["parent"]["median"] == pytest.approx(1.045)
    assert wall["gain"] == pytest.approx(0.1) and wall["gain_claimable"]
    assert wall["worse_than_bound"] is False
    assert (peak["wins"], peak["losses"]) == (0, 4)
    assert not peak["gain_claimable"] and peak["worse_than_bound"] is True
    assert lines[0].startswith("cohort wall_s: parent 1.0450") and "claimable" in lines[0]


def test_gain_needs_nine_tenths_and_more_than_the_spread(pairs):
    module, _, _ = pairs
    # nine of ten won by a margin wider than the parent's spread
    won = [(1.0 + 0.01 * k, 0.8) for k in range(9)] + [(1.0, 1.1)]
    assert module.compare(won)["gain_claimable"]
    # eight of ten, or ties, fall short
    assert not module.compare(won[:8] + [(1.0, 1.0), (1.0, 1.1)])["gain_claimable"]
    # every pair won, but by less than the parent's interquartile range
    narrow = [(1.0 + 0.1 * k, 0.99 + 0.1 * k) for k in range(10)]
    assert not module.compare(narrow)["gain_claimable"]
    # when higher is better, the same pairs with the sides swapped are won
    swapped = module.compare([(c, p) for p, c in won], better="higher")
    assert (swapped["wins"], swapped["losses"]) == (9, 1) and swapped["gain_claimable"]


@pytest.mark.parametrize("argv", [
    ["--pairs", "1"],
    ["--change", "parent"],
])
def test_bad_arguments_rejected(pairs, argv):
    module, calls, tmp_path = pairs
    base = {"--parent": str(tmp_path / "parent"), "--change": str(tmp_path / "change"),
            "--workload": "cohort"}
    for flag, value in zip(argv[::2], argv[1::2]):
        base[flag] = str(tmp_path / value) if flag == "--change" else value
    with pytest.raises(SystemExit):
        module.main([x for kv in base.items() for x in kv])
    assert calls == []


def test_control_runs_the_parent_against_a_copy_of_itself(pairs, monkeypatch, capsys):
    module, calls, tmp_path = pairs
    parent = tmp_path / "parent"
    (parent / "code.py").write_text("pass\n")
    (parent / ".perfbench_work").mkdir()
    (tmp_path / "paren0").mkdir()  # taken, so the copy takes the next free name
    fake, copies = module.run, []

    def run(root, *args):
        if root != parent:
            copies.append((root, (root / "code.py").read_text(),
                           (root / ".perfbench_work").exists()))
        return fake(root, *args)

    monkeypatch.setattr(module, "run", run)
    assert module.main(["--parent", str(parent), "--control", "--workload", "cohort",
                        "--pairs", "2"]) == 0
    copy = tmp_path / "paren1"
    assert [c[0] for c in calls] == ["parent", "paren1", "paren1", "parent"]
    assert copies == [(copy, "pass\n", False)] * 2
    assert len(str(copy)) == len(str(parent)) and not copy.exists()
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert summary["control"] is True
    assert summary["metrics"]["wall_s"]["values"]["parent"] == pytest.approx([1.01, 1.04])


def test_one_of_change_and_control(pairs):
    module, calls, tmp_path = pairs
    base = ["--parent", str(tmp_path / "parent"), "--workload", "cohort"]
    for extra in (["--control", "--change", str(tmp_path / "change")], []):
        with pytest.raises(SystemExit):
            module.main(base + extra)
    assert calls == []


def test_run_reports_each_commands_median_peak_and_main_time(monkeypatch, tmp_path):
    root = tmp_path / "parent"
    record = {"metrics": {"wall_s": 1.0, "peak_rss_mb": 40.0}, "commands": [
        {"name": "warmup", "main_s": 0.001, "maxrss_kb": 20 * 1024},
        {"name": "simulate", "main_s": 0.2, "maxrss_kb": 37 * 1024},
        {"name": "analyze", "main_s": 0.1, "maxrss_kb": 33 * 1024},
        {"name": "simulate", "main_s": 0.4, "maxrss_kb": 38 * 1024},
        {"name": "analyze", "main_s": 0.3, "maxrss_kb": 32 * 1024},
        {"name": "analyze", "main_s": 0.2, "maxrss_kb": 34 * 1024},
        {"name": "broken", "rc": 1},  # the harness never reported
    ]}

    def fake_subprocess_run(argv, cwd, check, stdout):
        assert argv[1:] == ["perfbench/run.py", "--workload", "cohort", "--seed", "3",
                            "--trace", "0"] and cwd == root
        out = cwd / ".perfbench_work" / "results" / "cohort-seed3-trace0.json"
        out.parent.mkdir(parents=True)
        out.write_text(json.dumps(record))

    module = _load()
    monkeypatch.setattr(module.subprocess, "run", fake_subprocess_run)
    metrics = module.run(root, "cohort", 3, None)
    assert metrics == pytest.approx({
        "wall_s": 1.0, "peak_rss_mb": 40.0,
        "warmup.maxrss_mb": 20.0, "warmup.main_s": 0.001,
        "simulate.maxrss_mb": 37.5, "simulate.main_s": 0.3,
        "analyze.maxrss_mb": 33.0, "analyze.main_s": 0.2,
    })


def test_per_command_rows_have_no_bound(pairs, monkeypatch, capsys):
    module, _, tmp_path = pairs
    fake = module.run

    def run(root, *args):
        metrics = fake(root, *args)
        return {**metrics, "analyze.maxrss_mb": 33.0 if root.name == "change" else 39.8}

    monkeypatch.setattr(module, "run", run)
    assert module.main(["--parent", str(tmp_path / "parent"), "--change",
                        str(tmp_path / "change"), "--workload", "cohort", "--pairs", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    analyze = json.loads(lines[-1])["metrics"]["analyze.maxrss_mb"]
    assert analyze["gain"] == pytest.approx(6.8) and analyze["worse_than_bound"] is None
    assert any(line.startswith("cohort analyze.maxrss_mb: parent 39.8000") and "bound" not in line
               for line in lines)

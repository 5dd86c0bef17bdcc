"""scripts/bench_pairs.py: the order of its runs, its verdicts and the
BENCH files it writes, with perfbench's runs stubbed out."""
import importlib.util
import json
import types
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

    def fake_run(root, workload, seed, seconds, trace):
        calls.append((root.name, workload, seed, seconds, trace))
        # the change is 0.1 s faster, and every run 0.01 s slower than the
        # one before it, so a drift of the machine shows in the spread
        wall = 1.0 + 0.01 * len(calls) - (0.1 if root.name == "change" else 0.0)
        metrics = {"wall_s": wall, "peak_rss_mb": 40.0 + (0.1 if root.name == "change" else 0.0)}
        return {"seed": seed, "seconds": 36.0, "attempted": 2, "failed": 0, "checks": [],
                "env": {"seed": seed, "git_commit": root.name}, "metrics": metrics,
                "summary": {name: {"n": 3} for name in metrics},
                "commands": [{"name": "fit_finite", "rc": 0, "main_s": 0.1, "maxrss_kb": 1024}]}

    monkeypatch.setattr(module, "run", fake_run)
    for name in ("parent", "change"):
        (tmp_path / name).mkdir()
    monkeypatch.chdir(tmp_path)  # where the BENCH files go
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "wall_s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.05}]}))
    return module, calls, tmp_path


def test_runs_alternate_and_verdicts(pairs, capsys):
    module, calls, tmp_path = pairs
    assert module.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                        "--workload", "cohort", "--pairs", "4", "--first-seed", "11",
                        "--seconds", "8"]) == 0
    assert calls == [("parent", "cohort", 11, 8.0, 0), ("change", "cohort", 11, 8.0, 0),
                     ("change", "cohort", 12, 8.0, 0), ("parent", "cohort", 12, 8.0, 0),
                     ("parent", "cohort", 13, 8.0, 0), ("change", "cohort", 13, 8.0, 0),
                     ("change", "cohort", 14, 8.0, 0), ("parent", "cohort", 14, 8.0, 0)]
    lines = capsys.readouterr().out.splitlines()
    summary = json.loads(lines[-1])["metrics"]
    wall, peak = summary["wall_s"], summary["peak_rss_mb"]
    assert wall["values"]["parent"] == pytest.approx([1.01, 1.04, 1.05, 1.08])
    assert wall["values"]["change"] == pytest.approx([0.92, 0.93, 0.96, 0.97])
    assert (wall["wins"], wall["losses"], wall["pairs"]) == (4, 0, 4)
    assert wall["parent"]["median"] == pytest.approx(1.045)
    assert wall["gain"] == pytest.approx(0.1) and wall["gain_claimable"]
    assert wall["worse_than_bound"] is False
    # +0.1 MiB on 40 MiB is 0.25 % of the parent's median, inside a bound of 0.05
    assert (peak["wins"], peak["losses"]) == (0, 4)
    assert not peak["gain_claimable"] and peak["worse_than_bound"] is False
    assert lines[0].startswith("cohort wall_s: parent 1.0450") and "claimable" in lines[0]


def test_bound_is_a_fraction_of_the_parents_median(pairs):
    module, _, _ = pairs
    # 0.05 of a 40 MiB median is 2 MiB; 0.25 of a 0.17 s median is 42.5 ms
    assert module.compare([(40.0, 42.5), (40.0, 42.5)], bound=0.05)["worse_than_bound"] is True
    assert module.compare([(0.17, 0.42), (0.17, 0.42)], bound=0.25)["worse_than_bound"] is True
    assert module.compare([(0.17, 0.2), (0.17, 0.2)], bound=0.25)["worse_than_bound"] is False


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
        {"name": "warmup", "rc": 0, "main_s": 0.001, "maxrss_kb": 20 * 1024},
        {"name": "simulate", "rc": 0, "main_s": 0.2, "maxrss_kb": 37 * 1024},
        {"name": "analyze", "rc": 0, "main_s": 0.1, "maxrss_kb": 33 * 1024},
        {"name": "simulate", "rc": 0, "main_s": 0.4, "maxrss_kb": 38 * 1024},
        {"name": "analyze", "rc": 0, "main_s": 0.3, "maxrss_kb": 32 * 1024},
        {"name": "analyze", "rc": 0, "main_s": 0.2, "maxrss_kb": 34 * 1024},
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
    assert module.run(root, "cohort", 3, None, 0) == record
    assert module.verdict_rows(record) == pytest.approx({
        "wall_s": 1.0, "peak_rss_mb": 40.0,
        "simulate.maxrss_mb": 37.5, "simulate.main_s": 0.3,
        "analyze.maxrss_mb": 33.0, "analyze.main_s": 0.2,
    })


def test_failed_commands_count_toward_no_median():
    # the harness prints main_s when a command exits 1 too
    record = {"metrics": {}, "commands": [
        {"name": "analyze", "rc": 0, "main_s": 0.1, "maxrss_kb": 33 * 1024},
        {"name": "analyze", "rc": 1, "main_s": 9.0, "maxrss_kb": 90 * 1024},
        {"name": "curves", "rc": 1, "main_s": 9.0, "maxrss_kb": 90 * 1024},
    ]}
    assert _load().per_command([record, record]) == {
        "analyze": {"main_s": 0.1, "maxrss_mb": 33.0, "n": 2}}


def test_per_command_rows_have_no_bound(pairs, monkeypatch, capsys):
    module, _, tmp_path = pairs
    fake = module.run

    def run(root, *args):
        record = fake(root, *args)
        kb = (33.0 if root.name == "change" else 39.8) * 1024
        record["commands"].append({"name": "analyze", "rc": 0, "main_s": 0.1, "maxrss_kb": kb})
        return record

    monkeypatch.setattr(module, "run", run)
    assert module.main(["--parent", str(tmp_path / "parent"), "--change",
                        str(tmp_path / "change"), "--workload", "cohort", "--pairs", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    analyze = json.loads(lines[-1])["metrics"]["analyze.maxrss_mb"]
    assert analyze["gain"] == pytest.approx(6.8) and analyze["worse_than_bound"] is None
    assert any(line.startswith("cohort analyze.maxrss_mb: parent 39.8000") and "bound" not in line
               for line in lines)


def test_runs_alternate_between_checkouts(pairs):
    module, calls, tmp_path = pairs
    assert module.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                        "--pairs", "3", "--number", "11", "12"]) == 0
    steps = [(1, 0), (2, 0), (3, 0), (1, 1)]  # the traced pair last, at the first seed
    expected = []
    for workload in module.WORKLOADS:
        for k, (seed, trace) in enumerate(steps):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            expected += [(root, workload, seed, None, trace) for root in order]
    assert calls == expected
    for number, root in ((11, "parent"), (12, "change")):
        bench = json.loads((tmp_path / f"BENCH_{number}.json").read_text())
        assert (bench["number"], bench["seeds"]) == (number, [1, 2, 3])
        assert bench["env"]["git_commit"] == root and "seed" not in bench["env"]
        # each file holds its own checkout's runs: the n-th call reads 1 + n / 100
        fit = bench["workloads"]["fit"]
        wall = 1.0 + 0.01 * (calls.index((root, "fit", 2, None, 0)) + 1) \
            - (0.1 if root == "change" else 0.0)
        assert fit["end_to_end"]["wall_s"]["per_seed"]["2"] == pytest.approx(wall)
        assert fit["end_to_end"]["wall_s"]["passes"] == [3, 3, 3]
        traced = 1.0 + 0.01 * (calls.index((root, "fit", 1, None, 1)) + 1) \
            - (0.1 if root == "change" else 0.0)
        assert fit["per_layer"]["wall_s"] == pytest.approx(traced)
        assert fit["commands"] == {"fit_finite": {"main_s": 0.1, "maxrss_mb": 1.0, "n": 3}}
        assert (fit["attempted"], fit["failed"], fit["failed_checks"]) == (8, 0, [])


def test_bench_files_keep_the_keys_of_earlier_ones(pairs):
    module, _, tmp_path = pairs
    assert module.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                        "--pairs", "2", "--number", "11", "12"]) == 0
    bench = json.loads((tmp_path / "BENCH_12.json").read_text())
    earlier = json.loads((SCRIPT.parent.parent / "BENCH_21.json").read_text())
    assert bench.keys() == earlier.keys()
    assert bench["workloads"].keys() == earlier["workloads"].keys()
    assert bench["workloads"]["fit"].keys() == earlier["workloads"]["fit"].keys()
    assert bench["workloads"]["fit"]["end_to_end"]["wall_s"].keys() == \
        earlier["workloads"]["fit"]["end_to_end"]["wall_s"].keys()


def test_line_counts_of_src_and_tests(pairs):
    module, _, tmp_path = pairs
    root = tmp_path / "change"
    for name, text in (("src/lenrepro/model.py", "a\nb\n"), ("src/lenrepro/notes.txt", "x\n"),
                       ("tests/test_model.py", "x\n"), ("tests/test_cli.py", "")):
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    assert module.main(["--parent", str(tmp_path / "parent"), "--change", str(root),
                        "--pairs", "2", "--number", "8", "9"]) == 0
    bench = json.loads((tmp_path / "BENCH_9.json").read_text())
    assert bench["src_lines"] == {"model.py": 2, "total": 2}
    assert bench["tests_lines"] == {"test_cli.py": 0, "test_model.py": 1, "total": 1}
    assert json.loads((tmp_path / "BENCH_8.json").read_text())["src_lines"] == {"total": 0}


@pytest.mark.parametrize("flag", [0, 1])
def test_bytecode_flag_recorded(pairs, monkeypatch, flag):
    # PYTHONDONTWRITEBYTECODE makes every CLI process compile lenrepro again
    module, _, tmp_path = pairs
    flags = types.SimpleNamespace(dont_write_bytecode=flag)
    monkeypatch.setattr(module, "sys", types.SimpleNamespace(flags=flags))
    assert module.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                        "--pairs", "2", "--number", "8", "9"]) == 0
    env = json.loads((tmp_path / "BENCH_9.json").read_text())["env"]
    assert env["dont_write_bytecode"] is bool(flag)
    assert env["uncommitted_changes"] is None  # not a git checkout


def test_uncommitted_changes(tmp_path):
    module = _load()
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t"]
    module.subprocess.run(git + ["init", "-q"], cwd=tmp_path, check=True)
    (tmp_path / "a.py").write_text("x = 1\n")
    module.subprocess.run(git + ["add", "a.py"], cwd=tmp_path, check=True)
    module.subprocess.run(git + ["commit", "-q", "-m", "a"], cwd=tmp_path, check=True)
    (tmp_path / "b.py").write_text("")  # untracked files do not count
    assert module.uncommitted_changes(tmp_path) is False
    (tmp_path / "a.py").write_text("x = 2\n")
    assert module.uncommitted_changes(tmp_path) is True


@pytest.mark.parametrize("argv", [
    ["--number", "21", "21"],
    ["--number", "21"],
    ["--number", "21", "22", "--control"],
    ["--number", "21", "22", "--workload", "cohort"],
])
def test_number_arguments_rejected(pairs, argv):
    module, calls, tmp_path = pairs
    side = [] if "--control" in argv else ["--change", str(tmp_path / "change")]
    with pytest.raises(SystemExit):
        module.main(["--parent", str(tmp_path / "parent")] + side + argv)
    assert calls == [] and not list(tmp_path.glob("BENCH_*.json"))

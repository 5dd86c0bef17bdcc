"""Command-line interface: subcommands, config precedence, exit codes."""
import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import lenrepro
from lenrepro import cli
from lenrepro.cli import main


def run_cli(argv, monkeypatch=None, env=None):
    if env:
        for k, v in env.items():
            monkeypatch.setenv(k, v)
    return main(argv)


class TestSchedule:
    def test_default_schedule_csv(self, tmp_path):
        out = tmp_path / "schedule.csv"
        assert main(["schedule", "--seed", "3", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index,nominal_length_cm,first_dot_cm,is_practice"
        assert len(lines) == 70  # header + 3 practice + 66 main
        assert sum(1 for li in lines[1:] if li.endswith(",1")) == 3

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["schedule", "--seed", "3", "--out", str(a)])
        main(["schedule", "--seed", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestSimulateAnalyze:
    def test_zero_noise_roundtrip(self, tmp_path):
        trials = tmp_path / "trials.csv"
        outdir = tmp_path / "analysis"
        rc = main([
            "simulate", "--seed", "5", "--participants", "3",
            "--conditions", "a,b", "--wf", "0", "--motor-sd", "0",
            "--out", str(trials),
        ])
        assert rc == 0
        header = trials.read_text().splitlines()[0]
        assert header == ("participant_id,condition,trial_index,"
                          "nominal_length_cm,actual_length_cm,response_cm")
        rc = main(["analyze", "--in", str(trials), "--out", str(outdir)])
        assert rc == 0
        cond = (outdir / "conditions.csv").read_text().splitlines()
        assert len(cond) == 3
        for line in cond[1:]:
            fields = line.split(",")
            assert fields[1] == "3"
            assert fields[2] == "0.000000"  # perfect observer: ri = 0
        report = (outdir / "report.txt").read_text()
        assert "## paired contrasts" in report

    def test_simulate_requires_seed(self, tmp_path, capsys):
        rc = main(["simulate", "--out", str(tmp_path / "t.csv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_nan_k_rejected(self, tmp_path, capsys):
        trials, outdir = tmp_path / "trials.csv", tmp_path / "analysis"
        assert main(["simulate", "--seed", "1", "--participants", "4",
                     "--out", str(trials)]) == 0
        assert main(["analyze", "--in", str(trials), "--k", "nan",
                     "--out", str(outdir)]) == 1
        assert capsys.readouterr().err == (
            "error: outlier SD multiplier k must not be NaN, got nan\n")
        assert not outdir.exists()

    @pytest.mark.parametrize("k", ["-1", "-10"])
    def test_negative_k_rejected(self, tmp_path, capsys, k):
        trials, outdir = tmp_path / "trials.csv", tmp_path / "analysis"
        assert main(["simulate", "--seed", "1", "--participants", "4",
                     "--out", str(trials)]) == 0
        assert main(["analyze", "--in", str(trials), "--k", k,
                     "--out", str(outdir)]) == 1
        assert capsys.readouterr().err == (
            f"error: outlier SD multiplier k must be >= 0, got {float(k)}\n")
        assert not outdir.exists()

    @pytest.mark.parametrize("conditions, message", [
        ("a,a", "duplicate condition labels in ['a', 'a']"),
        ("a,,b", "empty condition label"),
        ('"solo,social', "condition label '\"solo' holds a comma, a double quote, CR or LF, "
                         "which the trial CSV cannot hold"),
    ])
    def test_bad_condition_labels_rejected(self, tmp_path, capsys, conditions, message):
        out = tmp_path / "t.csv"
        rc = main(["simulate", "--seed", "1", "--participants", "2",
                   "--conditions", conditions, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--seed", "-1"], "master_seed must be a non-negative integer, got -1"),
        (["--motor-sd", "nan"], "motor_sd must be finite, got nan"),
        (["--prior-mean", "nan"], "prior_mean must be finite, got nan"),
        (["--prior-sd", "inf"], "prior_sd must be finite, got inf"),
        (["--demo-sd", "nan"], "demonstrator sd must be finite, got nan"),
        (["--demo-sd", "inf"], "demonstrator sd must be finite, got inf"),
        (["--wf", "inf"], "magnitude must be finite, got inf"),
        (["--sigma-l", "inf"], "magnitude must be finite, got inf"),
    ])
    def test_bad_parameters_rejected_before_output(self, tmp_path, monkeypatch, capsys,
                                                   flags, message):
        from lenrepro import simulate

        def draw(*args):
            raise AssertionError("simulated before the parameters were checked")

        monkeypatch.setattr(simulate._Cohort, "fill", draw)
        out = tmp_path / "t.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["simulate", "--seed", "1", "--participants", "2", *flags,
                       "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_failure_in_a_later_block_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        from lenrepro import simulate

        table, calls = simulate._Cohort.table, []

        def failing(self, first, stop):
            calls.append(first)
            if len(calls) == 2:
                raise RuntimeError("second block")
            return table(self, first, stop)

        monkeypatch.setattr(simulate._Cohort, "table", failing)
        out = tmp_path / "t.csv"
        assert main(["simulate", "--seed", "1", "--participants", "45",
                     "--conditions", "a,b,c", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: second block\n"
        assert calls == [0, simulate._BLOCK_ROWS // (3 * 66)] and not out.exists()


class TestFit:
    def test_fit_from_plain_summary(self, tmp_path):
        from lenrepro.fitting import FitConfig
        from lenrepro.model import DEFAULT_STIMULI, closed_form, normalized_errors
        motor = FitConfig().motor
        b, c = (float(v) for v in normalized_errors(
            *closed_form(1.5, 0.2, DEFAULT_STIMULI, motor), DEFAULT_STIMULI, motor))
        summary = tmp_path / "obs.csv"
        summary.write_text(f"condition,bias,cv\nsolo,{b!r},{c!r}\n")
        outdir = tmp_path / "fit"
        with pytest.warns(UserWarning, match="cannot identify them all"):
            rc = main(["fit", "--in", str(summary), "--out", str(outdir)])
        assert rc == 0
        report = (outdir / "fit_report.txt").read_text()
        assert "shared_sigma_p_cm: 1.500000" in report
        assert "solo: wf=0.200000" in report
        residuals = (outdir / "residuals.csv").read_text().splitlines()
        assert residuals[0] == "sigma_p,total_residual"
        assert len(residuals) == 100

    def test_summary_with_byte_order_mark(self, tmp_path):
        # "CSV UTF-8" as a spreadsheet program saves it
        from lenrepro.cli import _read_observations
        from lenrepro.fitting import ObservedErrors

        summary = tmp_path / "obs.csv"
        summary.write_bytes("\ufeffcondition,bias,cv\nsolo,0.1,0.2\n".encode("utf-8"))
        assert _read_observations(summary) == {"solo": ObservedErrors(bias=0.1, cv=0.2, ri=None)}

    def test_fit_requires_input(self, capsys):
        assert main(["fit"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("cond,bias\na,1\n", "missing column condition"),
        # an `analyze`-style file needs every *_mean column
        ("condition,bias_mean,cv_mean\na,1,2\n", "missing column ri_mean"),
        ("condition,bias,cv\na,0.1,0.2\nb,x,0.1\n",
         "row 2: non-numeric cell in bias (could not convert string to float: 'x')"),
        ("condition,bias_mean,cv_mean,ri_mean\na,0.1,0.2,\n",
         "row 1: non-numeric cell in ri_mean (could not convert string to float: '')"),
        ("condition,bias,cv\na,0.1,0.1\na,0.5,0.2\n", "row 2: duplicate condition a"),
    ])
    def test_summary_errors_name_column_and_row(self, tmp_path, capsys, text, message):
        summary = tmp_path / "obs.csv"
        summary.write_text(text)
        assert main(["fit", "--in", str(summary), "--out", str(tmp_path / "fit")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


def _fitted(report: Path):
    """Shared sigma_p and per-condition wf from a fit_report.txt."""
    sigma_p, wf = None, {}
    for line in report.read_text().splitlines():
        if line.startswith("shared_sigma_p_cm: "):
            sigma_p = float(line.split(": ")[1])
        elif " wf=" in line:
            label, rest = line.split(": ", 1)
            wf[label] = float(rest.split()[0].removeprefix("wf="))
    return sigma_p, wf


class TestReadmeRecovery:
    """The README commands, which simulate wf 0.15 and sigma_p 1.5 with
    1.2 cm motor noise added in quadrature."""

    @pytest.fixture(scope="class")
    def conditions_csv(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("readme")
        assert main(["simulate", "--seed", "11", "--participants", "25",
                     "--conditions", "individual,mechanical,social",
                     "--out", str(d / "trials.csv")]) == 0
        assert main(["analyze", "--in", str(d / "trials.csv"),
                     "--out", str(d / "analysis_out")]) == 0
        return d / "analysis_out" / "conditions.csv"

    def _fit(self, conditions_csv, out, *flags):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["fit", "--in", str(conditions_csv),
                       "--trials-per-stimulus", "6", *flags, "--out", str(out)])
        assert rc == 0
        edge = [str(w.message) for w in caught if "edge of its grid" in str(w.message)]
        return (*_fitted(out / "fit_report.txt"), edge)

    def test_quadrature_fit_recovers_simulated_parameters(self, conditions_csv, tmp_path):
        sigma_p, wf, edge = self._fit(conditions_csv, tmp_path / "fit_out",
                                      "--motor-combination", "quadrature")
        assert sigma_p == pytest.approx(1.5, abs=1e-9)
        assert sorted(wf) == ["individual", "mechanical", "social"]
        for value in wf.values():
            assert value == pytest.approx(0.15, abs=0.01)
        assert edge == []

    def test_default_linear_cv_fit_warns_on_grid_edge(self, conditions_csv, tmp_path):
        sigma_p, _, edge = self._fit(conditions_csv, tmp_path / "fit_out")
        assert sigma_p == pytest.approx(0.1, abs=1e-9)
        assert edge == ["fitted sigma_p = 0.100000 lies on the lower edge of "
                        "its grid [0.100000, 5.000000]",
                        "fitted equal-wf sigma_p = 0.100000 lies on the lower "
                        "edge of its grid [0.100000, 5.000000]"]


class TestCurves:
    def test_single_point_endpoint(self, tmp_path):
        outdir = tmp_path / "curves"
        rc = main([
            "curves", "--sigma-p", "1.5", "--wf-max", "0",
            "--ri-max", "0", "--out", str(outdir),
        ])
        assert rc == 0
        err = (outdir / "error_curves.csv").read_text().splitlines()
        assert err == ["sigma_p,wf,bias,cv",
                       "1.500000,0.000000,0.000000,0.120000"]
        ri = (outdir / "ri_curves.csv").read_text().splitlines()
        assert ri == ["sigma_p,wf,ri", "1.500000,0.000000,0.000000"]
        surf = (outdir / "rmse_surface.csv").read_text().splitlines()
        assert surf == ["wf,ri,normalized_rmse", "0.000000,0.000000,1.000000"]

    def test_default_curve_set(self, tmp_path):
        outdir = tmp_path / "curves"
        assert main(["curves", "--out", str(outdir)]) == 0
        err = (outdir / "error_curves.csv").read_text().splitlines()
        assert len(err) == 1 + 4 * 121  # 4 prior widths x inclusive wf grid
        surf = (outdir / "rmse_surface.csv").read_text().splitlines()
        # undefined cells (wf = 0 with ri > 0) are left empty
        assert any(line.endswith(",") for line in surf[1:])


    @pytest.mark.parametrize("flags, message", [
        (["--sigma-p", "1,-1"], "sd must be >= 0, got -1.0"),
        (["--ri-max", "1.0"], "ri_grid values must lie in [0, 1)"),
        (["--stim-count", "1"], "degenerate regressor: all x values identical"),
    ])
    def test_failure_leaves_no_csv(self, tmp_path, capsys, flags, message):
        outdir = tmp_path / "curves"
        assert main(["curves", *flags, "--out", str(outdir)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.rglob("*.csv"))


class TestNonFiniteGrid:
    @pytest.mark.parametrize("argv, triple", [
        (["curves", "--wf-step", "nan"], "(0.0, 0.6, nan)"),
        (["curves", "--wf-max", "inf"], "(0.0, inf, 0.005)"),
        (["fit", "--in", "obs.csv", "--sigma-p-step", "nan"], "(0.1, 5.0, nan)"),
        (["fit", "--in", "obs.csv", "--wf-max", "inf"], "(0.0, inf, 0.005)"),
    ])
    def test_names_the_grid(self, tmp_path, monkeypatch, capsys, argv, triple):
        (tmp_path / "obs.csv").write_text("condition,bias,cv\na,0.1,0.2\nb,0.12,0.18\n")
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--out", "out"]) == 1
        assert capsys.readouterr().err == (
            f"error: grid bounds and step must be finite, got {triple}\n")


class TestConfigPrecedence:
    def test_flag_beats_env_beats_file(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"reps": 2, "practice": 0, "seed": 1}))
        monkeypatch.setenv("LENREPRO_REPS", "3")

        out = tmp_path / "s.csv"
        main(["schedule", "--config", str(cfg), "--out", str(out)])
        assert len(out.read_text().splitlines()) == 1 + 11 * 3  # env wins file

        main(["schedule", "--config", str(cfg), "--reps", "4", "--out", str(out)])
        assert len(out.read_text().splitlines()) == 1 + 11 * 4  # flag wins env

        monkeypatch.delenv("LENREPRO_REPS")
        main(["schedule", "--config", str(cfg), "--out", str(out)])
        assert len(out.read_text().splitlines()) == 1 + 11 * 2  # file wins default

    def test_dump_config_round_trip(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        dump = tmp_path / "effective.json"
        main(["schedule", "--seed", "9", "--reps", "2", "--out", str(out1),
              "--dump-config", str(dump)])
        effective = json.loads(dump.read_text())
        assert effective["reps"] == 2 and effective["seed"] == 9
        # rerunning from the dumped config reproduces the output exactly
        dump2 = dict(effective)
        dump2.pop("out")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dump2))
        main(["schedule", "--config", str(cfg), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_simulate_dump_config_round_trip(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 4, "participants": 2, "conditions": "solo,social",
            "social.sigma_l": -1.0, "social.wf": 0.1, "social.prior_sd": 2.0,
            "other.wf": 0.2,
        }))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        dump = tmp_path / "effective.json"
        assert main(["simulate", "--config", str(cfg), "--sigma-l", "0.5",
                     "--out", str(out1), "--dump-config", str(dump)]) == 0
        effective = json.loads(dump.read_text())
        # the per-condition keys of the conditions run, and wf although
        # the base observer has constant noise
        assert {k: v for k, v in effective.items() if "." in k} == {
            "social.sigma_l": -1.0, "social.wf": 0.1, "social.prior_sd": 2.0}
        assert effective["wf"] == 0.15
        effective.pop("out")
        cfg.write_text(json.dumps(effective))
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_condition_weber_noise_uses_resolved_wf(self, tmp_path):
        """A condition's sigma_l < 0 switches it to Weber noise at the wf
        that flag, env and file resolve, not at the built-in 0.15."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"social.sigma_l": -1}))
        base = ["simulate", "--seed", "4", "--participants", "2",
                "--conditions", "social", "--wf", "0.3"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main([*base, "--sigma-l", "1", "--config", str(cfg), "--out", str(a)]) == 0
        assert main([*base, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_per_condition_config_keys(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 4, "participants": 2, "conditions": "solo,social",
            "wf": 0.3, "social.wf": 0.1, "motor_sd": 0.0,
        }))
        trials = tmp_path / "t.csv"
        outdir = tmp_path / "an"
        main(["simulate", "--config", str(cfg), "--out", str(trials)])
        main(["analyze", "--in", str(trials), "--out", str(outdir), "--k", "inf"])
        rows = {}
        for line in (outdir / "conditions.csv").read_text().splitlines()[1:]:
            fields = line.split(",")
            rows[fields[0]] = float(fields[2])
        assert rows["social"] < rows["solo"]


class TestConfigErrors:
    """Bad config input fails at the door with one line naming the key and
    its source."""

    @pytest.mark.parametrize("argv, config, env, message", [
        (["schedule"], [1, 2], {}, "--config {cfg}: expected a JSON object, got list"),
        (["schedule"], {"rep": 2}, {}, "config key rep in {cfg}: no command takes it"),
        (["schedule"], {"social.wff": 0.1}, {},
         "config key social.wff in {cfg}: no command takes it"),
        (["schedule"], {}, {"LENREPRO_REPS": "abc"},
         "LENREPRO_REPS: expected int, got 'abc'"),
        (["schedule"], {"reps": 2.5}, {}, "config key reps in {cfg}: expected int, got 2.5"),
        (["schedule"], {"seed": True}, {}, "config key seed in {cfg}: expected int, got True"),
        (["curves"], {"sigma_p": [0.5, 1.5]}, {},
         "config key sigma_p in {cfg}: expected number_list, got [0.5, 1.5]"),
        (["curves"], {"sigma_p": "1.5,x"}, {},
         "config key sigma_p in {cfg}: expected number_list, got '1.5,x'"),
        (["simulate", "--seed", "1"], {"conditions": ["a", "b"]}, {},
         "config key conditions in {cfg}: expected str, got ['a', 'b']"),
        (["simulate", "--seed", "1", "--conditions", "social"], {"social.wf": "high"}, {},
         "config key social.wf in {cfg}: expected float, got 'high'"),
        (["fit", "--in", "obs.csv"], {"objective": "rmse"}, {},
         "config key objective in {cfg}: expected one of biascv, ri, got 'rmse'"),
        (["fit", "--in", "obs.csv"], {}, {"LENREPRO_MOTOR_COMBINATION": "sum"},
         "LENREPRO_MOTOR_COMBINATION: expected one of linear_cv, quadrature, got 'sum'"),
    ], ids=["not-an-object", "unknown-key", "unknown-condition-key", "env-not-int",
            "float-for-int", "bool-for-int", "list-for-numbers", "bad-numbers",
            "list-for-str", "condition-key-not-float", "bad-choice", "env-bad-choice"])
    def test_bad_config_is_one_named_error(self, tmp_path, monkeypatch, capsys,
                                           argv, config, env, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        out = tmp_path / "out"
        assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message.format(cfg=cfg)}\n"
        assert not out.exists()

    def test_keys_of_other_commands_are_allowed(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 3, "k": 3.0, "objective": "ri",
                                   "social.wf": 0.1, "sigma_p": "1.5"}))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["schedule", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["schedule", "--seed", "3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


def _subparsers():
    parser = cli.build_parser()
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _rows():
    return [pytest.param(command, opt, id=f"{command}-{opt.key}")
            for opt in cli.OPTIONS for command in opt.commands.split()]


def _three_values(opt):
    """Values for the config file, the environment and the flag, each
    different from the next source down."""
    if isinstance(opt.type, tuple):
        other = next(c for c in opt.type if c != opt.default)
        return other, opt.default, other
    if opt.type is int:
        return tuple((opt.default or 0) + i for i in (1, 2, 3))
    if opt.type is float:
        return tuple(opt.default + i for i in (0.25, 0.5, 0.75))
    return "1", "2", "3"


class TestOptionTable:
    # each subcommand's flags at the start of the option table, less the
    # --seed that analyze, fit and curves took and never read
    FLAGS = {
        "schedule": "--first-dot-max --first-dot-min --min-length --num-lengths "
                    "--out --practice --reps --seed --step",
        "simulate": "--conditions --demo-sd --first-dot-max --first-dot-min "
                    "--min-length --motor-sd --num-lengths --out --participants "
                    "--practice --prior-mean --prior-sd --reps --seed --sigma-l "
                    "--step --wf",
        "analyze": "--in --k --out",
        "fit": "--in --motor-combination --motor-sd --objective --out "
               "--sigma-p-max --sigma-p-min --sigma-p-step --stim-count --stim-max "
               "--stim-min --trials-per-stimulus --wf-max --wf-min --wf-step",
        "curves": "--motor-combination --motor-sd --out --ri-max --ri-min --ri-step "
                  "--sigma-p --stim-count --stim-max --stim-min --wf-max --wf-min "
                  "--wf-step",
    }

    def test_flag_sets_are_pinned(self):
        subparsers = _subparsers()
        assert sorted(subparsers) == sorted(self.FLAGS)
        common = {"-h", "--help", "--config", "--dump-config"}
        for command, flags in self.FLAGS.items():
            got = {o for a in subparsers[command]._actions for o in a.option_strings}
            assert got == common | set(flags.split()), command

    @pytest.mark.parametrize("command, opt", _rows())
    def test_flag_beats_env_beats_file_beats_default(self, tmp_path, monkeypatch,
                                                     command, opt):
        for name in list(os.environ):
            if name.startswith(cli.ENV_PREFIX):
                monkeypatch.delenv(name)
        required = [a for o in cli.OPTIONS
                    if command in o.commands.split() and o.default is None
                    and o.key != opt.key
                    for a in (cli._flag(o.key), "1")]
        dump, cfg = tmp_path / "dump.json", tmp_path / "cfg.json"

        def resolved(*flags):
            argv = [command, *required, "--dump-config", str(dump), *flags]
            cli._resolve(cli.build_parser().parse_args(argv))
            return json.loads(dump.read_text())[opt.key]

        if opt.default is None:
            with pytest.raises(ValueError, match=f"^{command} requires "):
                resolved()
        else:
            assert resolved() == opt.default
        from_file, from_env, from_flag = _three_values(opt)
        cfg.write_text(json.dumps({opt.key: from_file}))
        assert resolved("--config", str(cfg)) == from_file
        monkeypatch.setenv(cli.ENV_PREFIX + opt.key.upper(), str(from_env))
        assert resolved("--config", str(cfg)) == from_env
        flag = f"{cli._flag(opt.key)}={from_flag}"
        assert resolved("--config", str(cfg), flag) == from_flag

        action = next(a for a in _subparsers()[command]._actions if a.dest == opt.key)
        shown = "required" if opt.default is None else f"default: {opt.default}"
        assert shown in action.help


class TestPipelineDeterminism:
    def test_full_pipeline_byte_identical(self, tmp_path):
        outputs = []
        for tag in ("r1", "r2"):
            trials = tmp_path / f"trials_{tag}.csv"
            adir = tmp_path / f"analysis_{tag}"
            fdir = tmp_path / f"fit_{tag}"
            main(["simulate", "--seed", "11", "--participants", "6",
                  "--conditions", "individual,social", "--wf", "0.25",
                  "--out", str(trials)])
            main(["analyze", "--in", str(trials), "--out", str(adir)])
            main(["fit", "--in", str(adir / "conditions.csv"),
                  "--trials-per-stimulus", "6", "--out", str(fdir)])
            outputs.append((
                trials.read_bytes(),
                (adir / "report.txt").read_bytes(),
                (adir / "per_participant.csv").read_bytes(),
                (fdir / "fit_report.txt").read_bytes(),
            ))
        assert outputs[0] == outputs[1]

    # every file a small run of each command writes, as sha256; recorded from
    # the writers that built their CSV lines by hand, so any rewrite of the
    # CSV output has to keep these bytes
    PINNED = {
        "analysis/conditions.csv": "8f71ac02ba49aaa951680478cb9f5d00fea37d5672a194691e89c4a22a3e105c",
        "analysis/per_participant.csv": "c702d8441a78ef1c4987ee743dd64df6ce8e8d02c47c05d77d61dc78ec8178f9",
        "analysis/report.txt": "4969507bc47c5d44d284c1f2b431570da86eceedfdc309e2ab1b7b52f869d77a",
        "curves/error_curves.csv": "58af36d678af862e1de6ef3b4dbc1bfdabb6b53bc46f5a4c3145dd07faa422f7",
        "curves/ri_curves.csv": "a2c307f65b646e7f39fe8fbfcfb1b8373d1bdf1c073321cb9340e67525fcae08",
        "curves/rmse_surface.csv": "f17f17da0dce9ce876b1f752b75a42420a3e1a0d3cb62993aff56599bbe03576",
        "fit/fit_report.txt": "1abbe832ca2e4513572557d67fbab238d57bc9a53e7f771fe15151db46482e8e",
        "fit/residuals.csv": "877ba64cc8fa4f61575735d3852d7072b51d9edf3db25c1a05907ffceefe1c9e",
        "fit_ri/fit_report.txt": "36af30249d4f060a1da03c9db9eaa863ed4cd4a45770f1262b5b1cc030ab92b1",
        "fit_ri/residuals.csv": "03755392bec8521ed63f6ba444c2a2c86db90a0fae76a9183c5e55288eba208e",
        "schedule.csv": "483a563b1664dc82877fbe2425abd9eefecca3f03130c6456d2732ff2d64f111",
        "trials.csv": "efebe2798f8ba2419c4bdd94a1c09b51c389484dab1b807bfba34faf61962f7f",
    }

    def test_every_output_matches_pinned_digest(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for argv in (
            ["schedule", "--seed", "5", "--out", "schedule.csv"],
            ["simulate", "--seed", "11", "--participants", "6", "--conditions",
             "individual,social", "--wf", "0.25", "--out", "trials.csv"],
            # k = 1 excludes two participants, so the excluded column holds a 1
            ["analyze", "--in", "trials.csv", "--k", "1", "--out", "analysis"],
            ["fit", "--in", "analysis/conditions.csv", "--trials-per-stimulus", "6",
             "--out", "fit"],
            # the default wf grid: 121 rows, more than one block of rmse_surface
            ["curves", "--ri-step", "0.1", "--out", "curves"],
        ):
            assert main(argv) == 0, argv
        with pytest.warns(UserWarning, match="the 'ri' objective fits 2 observations"):
            assert main(["fit", "--in", "analysis/conditions.csv", "--objective", "ri",
                         "--motor-combination", "quadrature", "--out", "fit_ri"]) == 0
        digests = {
            path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in tmp_path.rglob("*") if path.is_file()
        }
        assert digests == self.PINNED
        # the surface has undefined cells, written empty
        assert b",\n" in (tmp_path / "curves/rmse_surface.csv").read_bytes()


def _src_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    src_root = str(Path(lenrepro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_root, env.get("PYTHONPATH")]))
    return env


class TestWarningLocation:
    """A command's warning names the line of the CLI that called into the
    library, when the CLI runs through ``main`` and as ``python -m``."""

    @pytest.mark.parametrize("launch", [
        ["-c", "import sys; from lenrepro.cli import main; sys.exit(main(sys.argv[1:]))"],
        ["-m", "lenrepro.cli"],
    ], ids=["main", "python -m"])
    @pytest.mark.parametrize("argv", [
        ["simulate", "--seed", "1", "--wf", "0.7", "--out", "trials.csv"],
        ["curves", "--wf-max", "0.65", "--out", "curves"],
    ], ids=["simulate", "curves"])
    def test_command_line_warning_points_at_the_cli(self, tmp_path, launch, argv):
        proc = subprocess.run([sys.executable, *launch, *argv], capture_output=True,
                              text=True, cwd=tmp_path, env=_src_env())
        assert proc.returncode == 0, proc.stderr
        lines = [line for line in proc.stderr.splitlines() if "Warning:" in line]
        assert lines and all(re.match(r".*[/\\]cli\.py:\d+: UserWarning: Weber fraction 0\.",
                                      line) for line in lines), proc.stderr
        assert "<string>" not in proc.stderr and "model.py" not in proc.stderr


class TestCommandImports:
    def test_import_leaves_json_unloaded(self):
        """Only --config and --dump-config read or write JSON, so importing
        the CLI does not import json."""
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, lenrepro.cli; print('json' in sys.modules)"],
            capture_output=True, text=True, env=_src_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    @pytest.mark.parametrize("argv", [
        ["schedule", "--seed", "3"],
        ["simulate", "--seed", "3"],
        ["curves", "--sigma-p", "1.5", "--wf-max", "0", "--ri-max", "0"],
    ])
    def test_scipy_and_analysis_not_loaded(self, tmp_path, argv):
        """Commands that need no statistics load neither scipy nor the
        analysis and fitting modules."""
        argv = argv + ["--out", str(tmp_path / "out")]
        code = (
            "import sys\n"
            "from lenrepro.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "print([m for m in ('scipy', 'lenrepro.stats', 'lenrepro.analysis',"
            " 'lenrepro.fitting') if m in sys.modules])\n"
        )
        src_root = str(Path(lenrepro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src_root, env.get("PYTHONPATH")])
        )
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.fixture(scope="class")
    def pipeline_inputs(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("imports")
        assert main(["simulate", "--seed", "3", "--participants", "3",
                     "--conditions", "individual,social",
                     "--out", str(d / "trials.csv")]) == 0
        assert main(["analyze", "--in", str(d / "trials.csv"),
                     "--out", str(d / "analysis_out")]) == 0
        return d

    @pytest.mark.parametrize("argv", [
        ["analyze", "--in", "trials.csv"],
        ["fit", "--in", "analysis_out/conditions.csv", "--trials-per-stimulus", "6"],
        ["fit", "--in", "analysis_out/conditions.csv", "--objective", "ri",
         "--motor-combination", "quadrature"],
    ])
    def test_statistics_commands_do_not_load_scipy(self, pipeline_inputs, tmp_path, argv):
        code = (
            "import sys\n"
            "from lenrepro.cli import main\n"
            f"assert main({argv + ['--out', str(tmp_path / 'out')]!r}) == 0\n"
            "print('scipy' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], cwd=pipeline_inputs,
                              capture_output=True, text=True, env=_src_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    @pytest.mark.parametrize("argv", [
        ["analyze", "--in", "trials.csv"],
        ["fit", "--in", "analysis_out/conditions.csv", "--trials-per-stimulus", "6"],
        ["curves", "--sigma-p", "1.5", "--wf-max", "0", "--ri-max", "0"],
    ])
    def test_only_schedule_and_simulate_load_the_simulator(self, pipeline_inputs,
                                                           tmp_path, argv):
        """``lenrepro`` resolves the simulator's classes on first access,
        so a command that does not simulate never imports it."""
        code = (
            "import sys\n"
            "from lenrepro.cli import main\n"
            f"assert main({argv + ['--out', str(tmp_path / 'out')]!r}) == 0\n"
            "print('lenrepro.simulate' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], cwd=pipeline_inputs,
                              capture_output=True, text=True, env=_src_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_analyze_does_not_load_numpy_ma(self, pipeline_inputs, tmp_path):
        """Grouping sorts and compares rows itself; ``np.unique`` and
        ``np.union1d`` would import ``numpy.ma`` on their first call."""
        code = (
            "import sys\n"
            "from lenrepro.cli import main\n"
            f"assert main(['analyze', '--in', 'trials.csv', '--out', {str(tmp_path)!r}]) == 0\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], cwd=pipeline_inputs,
                              capture_output=True, text=True, env=_src_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_readme_pipeline_runs_without_scipy(self, tmp_path):
        """The README commands, with every import of scipy failing."""
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from lenrepro.cli import main\n"
            "for argv in [\n"
            "    ['schedule', '--seed', '3', '--out', 'schedule.csv'],\n"
            "    ['simulate', '--seed', '11', '--participants', '25',\n"
            "     '--conditions', 'individual,mechanical,social', '--out', 'trials.csv'],\n"
            "    ['analyze', '--in', 'trials.csv', '--out', 'analysis_out'],\n"
            "    ['fit', '--in', 'analysis_out/conditions.csv',\n"
            "     '--trials-per-stimulus', '6', '--out', 'fit_out'],\n"
            "    ['curves', '--sigma-p', '0.5,1.5,2.5,3.5', '--out', 'curves_out'],\n"
            "]:\n"
            "    assert main(argv) == 0, argv\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                              capture_output=True, text=True, env=_src_env())
        assert proc.returncode == 0, proc.stderr
        for out in ("schedule.csv", "trials.csv", "analysis_out/report.txt",
                    "fit_out/fit_report.txt", "curves_out/rmse_surface.csv"):
            assert (tmp_path / out).stat().st_size > 0


class TestExitCodes:
    def test_usage_error_is_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lenrepro.cli", "frobnicate"],
            capture_output=True,
        )
        assert proc.returncode == 2

    def test_missing_subcommand_is_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lenrepro.cli"], capture_output=True
        )
        assert proc.returncode == 2

    def test_runtime_error_is_1_with_single_line(self, capsys):
        rc = main(["analyze", "--in", "/nonexistent/trials.csv"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.strip().count("\n") == 0

    def test_entry_point_installed(self, tmp_path):
        """The ``lenrepro`` command declared in pyproject.toml runs the CLI.

        Checks that ``[project.scripts]`` declares ``lenrepro``, that its
        ``module:function`` target resolves to the CLI's ``main`` in the
        package under test, and that ``lenrepro --help``, run by name from
        ``PATH``, exits 0 and lists the ``schedule`` subcommand. Building the
        wheel and writing the launcher are left to pip and setuptools: the
        test writes the launcher pip writes for a console script, under
        ``tmp_path`` only, so the suite needs no prior install and leaves
        nothing in the checkout.
        """
        tomllib = pytest.importorskip("tomllib")

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert "lenrepro" in scripts
        module, _, func = scripts["lenrepro"].partition(":")

        bindir = tmp_path / "bin"
        bindir.mkdir()
        launcher = bindir / "lenrepro"
        launcher.write_text(
            f"#!{sys.executable}\n"
            "# -*- coding: utf-8 -*-\n"
            "import re\n"
            "import sys\n"
            f"from {module} import {func}\n"
            "if __name__ == '__main__':\n"
            "    sys.argv[0] = re.sub("
            "r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])\n"
            f"    sys.exit({func}())\n"
        )
        launcher.chmod(0o755)

        src_root = str(Path(lenrepro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PATH"] = os.pathsep.join(
            filter(None, [str(bindir), env.get("PATH")])
        )
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src_root, env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            ["lenrepro", "--help"], capture_output=True, env=env
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert b"schedule" in proc.stdout

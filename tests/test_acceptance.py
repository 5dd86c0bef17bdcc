"""End-to-end acceptance checks for the full toolkit.

Each test prints one pass line naming its criterion; run with -s or -v to
see them.  Tolerances for the stochastic checks were validated beforehand
by repeating each oracle pipeline over 20 independent master seeds.
"""
import math
import time

import numpy as np
import pytest

from lenrepro.analysis import summarize_cohort
from lenrepro.cli import main as cli_main
from lenrepro.fitting import FitConfig, ObservedErrors, fit_shared_prior
from lenrepro.model import (
    DEFAULT_STIMULI,
    GaussianBelief,
    MotorCombination,
    MotorNoiseSpec,
    NO_MOTOR_NOISE,
    NoiseModel,
    closed_form,
    error_curve,
    fuse_gaussians,
    regression_index,
    ri_curve,
    rmse_surface,
    wf_from_ri,
)
from lenrepro.records import Trials
from lenrepro.simulate import (
    ObserverParams,
    ScheduleConfig,
    generate_schedule,
    simulate_cohort,
    simulate_observer,
)
from lenrepro.stats import paired_t


def _report(name):
    print(f"PASS: {name}")


def test_criterion_1_fusion_monte_carlo_oracle():
    """Fused-estimate mean over 1e6 noisy measurements hits the closed form."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    s, sigma_l, mu_p, sigma_p = 6.0, 1.0, 10.0, 2.0
    m = rng.normal(s, sigma_l, 1_000_000)
    w = sigma_p**2 / (sigma_p**2 + sigma_l**2)
    fused = w * m + (1 - w) * mu_p
    closed = fuse_gaussians(GaussianBelief(s, sigma_l), GaussianBelief(mu_p, sigma_p))
    assert closed.mean == pytest.approx(6.8, abs=1e-12)
    assert abs(float(fused.mean()) - 6.8) < 0.01
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report("criterion 1: Monte-Carlo fusion mean within 0.01 of 6.8 "
            f"({elapsed:.2f} s)")


def test_criterion_2_constant_noise_regression_index():
    """Simulated constant-noise observer recovers RI = sigma_L^2/(sigma_L^2+sigma_P^2)."""
    sched = generate_schedule(ScheduleConfig(reps=600, seed=3))
    obs = ObserverParams(NoiseModel.constant(1.0), 10.0, 2.0)
    recs = simulate_observer(sched, obs, seed=7)
    assert len(recs) == 11 * 600
    ri = summarize_cohort(recs).sessions.regression_index[0]
    assert ri == pytest.approx(0.2, abs=0.01)
    _report(f"criterion 2: fitted RI {ri:.5f} within 0.01 of 0.2")


def test_criterion_3_error_decomposition_hand_oracle():
    """Responses {9, 10, 11} at stimulus 10 and {19, 20, 21} at 20: the
    session's mean stimulus is 15, so bias 0 and cv = rmse = sqrt(2/3)/15."""
    stimuli = [10.0] * 3 + [20.0] * 3
    recs = Trials(["p01"] * 6, ["a"] * 6, range(6), stimuli, stimuli,
                  [9.0, 10.0, 11.0, 19.0, 20.0, 21.0])
    s = summarize_cohort(recs).sessions
    expected_cv = math.sqrt(2.0 / 3.0) / 15.0
    assert s.bias[0] == pytest.approx(0.0, abs=1e-6)
    assert s.cv[0] == pytest.approx(expected_cv, abs=1e-6)
    assert s.rmse[0] == pytest.approx(expected_cv, abs=1e-6)
    assert s.cv[0] == pytest.approx(0.05443, abs=1e-5)
    _report("criterion 3: hand-computed bias/cv/rmse reproduced to 1e-6")


def test_criterion_4_round_trip_parameter_recovery():
    """Simulate -> analyze -> fit recovers (sigma_P, WF) within tolerance."""
    t0 = time.perf_counter()
    truth_sigma_p, truth_wf = 1.5, 0.15
    params = {
        "individual": ObserverParams(
            NoiseModel.weber(truth_wf), 10.0, truth_sigma_p, motor_sd=1.2
        )
    }
    recs = simulate_cohort(25, params, master_seed=11)
    summary = summarize_cohort(recs, k=math.inf)
    stats = summary.condition_stats["individual"]
    observed = {
        "individual": ObservedErrors(
            bias=stats["bias"].mean, cv=stats["cv"].mean,
            ri=stats["regression_index"].mean,
        )
    }
    cfg = FitConfig(
        motor=MotorNoiseSpec(1.2, MotorCombination.QUADRATURE),
        trials_per_stimulus=6,
    )
    # one condition: two observations for two parameters
    with pytest.warns(UserWarning, match="cannot identify them all"):
        res = fit_shared_prior(observed, DEFAULT_STIMULI, cfg)
    elapsed = time.perf_counter() - t0
    assert abs(res.shared_sigma_p - truth_sigma_p) <= 0.3
    assert abs(res.per_condition_wf["individual"] - truth_wf) <= 0.03
    assert elapsed < 60.0
    _report("criterion 4: recovered sigma_P "
            f"{res.shared_sigma_p:.2f} (truth 1.5) and WF "
            f"{res.per_condition_wf['individual']:.3f} (truth 0.15) "
            f"in {elapsed:.1f} s")


def test_criterion_5_error_curve_motor_only_endpoint():
    """Zero sensory noise with 1.2 cm motor noise gives exactly (0, 0.12)."""
    pts = error_curve(
        1.5, [0.0], DEFAULT_STIMULI, MotorNoiseSpec(1.2, MotorCombination.LINEAR_CV)
    )
    wf, bias, cv = pts[0]
    assert (wf, bias, cv) == (0.0, 0.0, 0.12)
    _report("criterion 5: WF=0 endpoint is exactly (bias, cv) = (0, 0.12)")


def test_criterion_6_ri_curve_structure_and_inversion():
    """Strictly increasing RI curve; group-mean indices round-trip to 1e-9."""
    wf_grid = np.round(np.arange(0.0, 0.6001, 0.005), 12)
    ris = [ri for _, ri in ri_curve(1.5, wf_grid)]
    assert all(b > a for a, b in zip(ris, ris[1:]))

    targets = {"individual": 0.446, "mechanical": 0.292, "social": 0.234}
    recovered = {}
    for label, target in targets.items():
        wf = wf_from_ri(target, 1.5)
        back = regression_index(closed_form(1.5, wf, DEFAULT_STIMULI)[0], DEFAULT_STIMULI)
        assert abs(back - target) < 1e-9
        recovered[label] = wf
    assert recovered["social"] < recovered["mechanical"] < recovered["individual"]
    _report("criterion 6: RI curve strictly increasing; group means "
            "round-trip to 1e-9 with social < mechanical < individual WFs")


def test_criterion_7_rmse_surface_structure():
    """Row minima normalize to 1; max sits at low WF and high RI; WF=0.3
    row has an interior minimum."""
    wf = np.round(np.arange(0.05, 0.6001, 0.05), 12)
    ri = np.round(np.arange(0.0, 0.9501, 0.05), 12)
    S = rmse_surface(wf, ri, motor=NO_MOTOR_NOISE)
    for i in range(S.shape[0]):
        assert np.nanmin(S[i]) == pytest.approx(1.0, abs=1e-12)
    i_max, j_max = np.unravel_index(np.nanargmax(S), S.shape)
    assert i_max == 0 and j_max == len(ri) - 1
    row = S[list(wf).index(0.3)]
    jm = int(np.nanargmin(row))
    assert 0 < jm < len(ri) - 1
    assert row[jm - 1] > row[jm] < row[jm + 1]
    # the undefined WF=0 column: only RI=0 is reachable
    S0 = rmse_surface([0.0], ri, motor=NO_MOTOR_NOISE)
    assert S0[0, 0] == pytest.approx(1.0)
    assert np.all(np.isnan(S0[0, 1:]))
    _report("criterion 7: normalized minima = 1, max at lowest-WF/highest-RI "
            f"corner, interior minimum at RI = {ri[jm]:.2f} for WF = 0.3")


def test_criterion_8_null_cohort_false_positive_rate():
    """Identical conditions: paired-t p < 0.05 in 2-8% of 200 reruns."""
    same = ObserverParams(NoiseModel.weber(0.15), 10.0, 1.5, motor_sd=1.2)
    params = {"a": same, "b": same}
    significant = 0
    for run in range(200):
        recs = simulate_cohort(12, params, master_seed=10_000 + run)
        sessions = summarize_cohort(recs, k=math.inf).sessions
        # rows in (participant, condition) order: each participant's a, then b
        a, b = sessions.regression_index.reshape(-1, 2).T
        assert sessions.condition.tolist() == ["a", "b"] * 12
        _, _, p = paired_t(a, b)
        significant += p < 0.05
    assert 4 <= significant <= 16  # 2-8% of 200
    _report(f"criterion 8: {significant}/200 null reruns significant "
            f"({significant / 2:.1f}%, nominal 5%)")


def test_criterion_9_pipeline_determinism(tmp_path):
    """schedule -> simulate -> analyze -> fit is byte-identical on rerun."""
    outputs = []
    for tag in ("r1", "r2"):
        sched = tmp_path / f"schedule_{tag}.csv"
        trials = tmp_path / f"trials_{tag}.csv"
        adir = tmp_path / f"analysis_{tag}"
        fdir = tmp_path / f"fit_{tag}"
        assert cli_main(["schedule", "--seed", "3", "--out", str(sched)]) == 0
        assert cli_main([
            "simulate", "--seed", "11", "--participants", "5",
            "--conditions", "individual,social", "--out", str(trials),
        ]) == 0
        assert cli_main(["analyze", "--in", str(trials), "--out", str(adir)]) == 0
        # five participants fit best at the lowest sigma_p of the grid
        with pytest.warns(UserWarning, match="sigma_p = 0.100000 lies on the lower edge"):
            assert cli_main([
                "fit", "--in", str(adir / "conditions.csv"),
                "--trials-per-stimulus", "6", "--out", str(fdir),
            ]) == 0
        outputs.append((
            sched.read_bytes(),
            trials.read_bytes(),
            (adir / "report.txt").read_bytes(),
            (adir / "per_participant.csv").read_bytes(),
            (adir / "conditions.csv").read_bytes(),
            (fdir / "fit_report.txt").read_bytes(),
            (fdir / "residuals.csv").read_bytes(),
        ))
    assert outputs[0] == outputs[1]
    _report("criterion 9: full pipeline byte-identical across reruns")

"""Closed-form observer: fusion, predictions, inversions, surfaces."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenrepro import model
from lenrepro.model import (
    DEFAULT_STIMULI,
    BracketError,
    DegenerateFusionError,
    GaussianBelief,
    MotorCombination,
    MotorNoiseSpec,
    NO_MOTOR_NOISE,
    NoiseMode,
    NoiseModel,
    StimulusSet,
    closed_form,
    error_curve,
    fuse_gaussians,
    fusion_weight,
    normalized_errors,
    regression_index,
    ri_curve,
    rmse_surface,
    sigma_l_at,
    sigma_p_from_ri,
    wf_from_ri,
)

finite_means = st.floats(-50, 50)
pos_sds = st.floats(0.01, 20)


def _index(sigma_p, wf, stimuli=DEFAULT_STIMULI):
    """The regression index of the observer with its prior on the mean
    stimulus, as the curves compute it."""
    return float(regression_index(closed_form(sigma_p, wf, stimuli)[0], stimuli))


def _errors(mean, sd, stimuli=DEFAULT_STIMULI, motor=NO_MOTOR_NOISE):
    """(bias, cv, rmse) of per-stimulus means and sds, rmse as the pipeline
    and the surface take it."""
    bias, cv = normalized_errors(mean, sd, stimuli, motor)
    return float(bias), float(cv), math.hypot(bias, cv)


def _constant(sd_cm, sigma_p, stimuli=DEFAULT_STIMULI, motor=NO_MOTOR_NOISE):
    """closed_form's per-stimulus means and sds under constant noise."""
    return model._closed_form(sigma_p, sd_cm, stimuli, motor, None, NoiseMode.CONSTANT)


class TestFuseGaussians:
    def test_equal_widths_midpoint(self):
        post = fuse_gaussians(GaussianBelief(6, 2), GaussianBelief(10, 2))
        assert post.mean == pytest.approx(8.0)
        assert post.sd == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_zero_noise_likelihood_dominates(self):
        post = fuse_gaussians(GaussianBelief(6, 0), GaussianBelief(10, 2))
        assert (post.mean, post.sd) == (6.0, 0.0)

    def test_closed_form_weight(self):
        # w = 4/5 for sds (1, 2)
        post = fuse_gaussians(GaussianBelief(6, 1), GaussianBelief(10, 2))
        assert post.mean == pytest.approx(6.8, abs=1e-12)
        assert post.sd == pytest.approx(math.sqrt(0.8), abs=1e-12)

    def test_monte_carlo_mean(self):
        # averaging fused means over noisy measurements converges to the
        # closed-form fusion of the noiseless stimulus
        rng = np.random.default_rng(123)
        m = rng.normal(6.0, 1.0, 100_000)
        fused = np.array(
            [fuse_gaussians(GaussianBelief(x, 1.0), GaussianBelief(10, 2)).mean
             for x in m[:5000]]
        )
        # vectorized equivalent for the full sample
        w = 4.0 / 5.0
        full = w * m + (1 - w) * 10.0
        se = full.std() / math.sqrt(full.size)
        assert abs(full.mean() - 6.8) < 4 * se
        assert np.allclose(fused, full[:5000])

    def test_degenerate_pair_raises(self):
        with pytest.raises(DegenerateFusionError):
            fuse_gaussians(GaussianBelief(6, 0), GaussianBelief(10, 0))
        same = fuse_gaussians(GaussianBelief(6, 0), GaussianBelief(6, 0))
        assert (same.mean, same.sd) == (6.0, 0.0)

    def test_negative_sd_rejected(self):
        with pytest.raises(ValueError):
            GaussianBelief(6, -1)
        with pytest.raises(ValueError):
            GaussianBelief(float("nan"), 1)

    @given(ma=finite_means, sa=pos_sds, mb=finite_means, sb=pos_sds)
    def test_symmetry_and_shrinkage(self, ma, sa, mb, sb):
        p1 = fuse_gaussians(GaussianBelief(ma, sa), GaussianBelief(mb, sb))
        p2 = fuse_gaussians(GaussianBelief(mb, sb), GaussianBelief(ma, sa))
        assert p1.mean == pytest.approx(p2.mean, rel=1e-12, abs=1e-12)
        assert p1.sd == pytest.approx(p2.sd, rel=1e-12)
        assert p1.sd <= min(sa, sb) + 1e-12
        assert min(ma, mb) - 1e-9 <= p1.mean <= max(ma, mb) + 1e-9


class TestSigmaL:
    def test_weber_scales_with_stimulus(self):
        assert sigma_l_at(NoiseModel.weber(0.2), 10) == pytest.approx(2.0)
        assert sigma_l_at(NoiseModel.weber(0.0), 14) == 0.0

    def test_constant_ignores_stimulus(self):
        assert sigma_l_at(NoiseModel.constant(1.5), 6) == 1.5

    def test_nonpositive_stimulus_rejected(self):
        with pytest.raises(ValueError):
            sigma_l_at(NoiseModel.weber(0.2), 0.0)

    def test_large_weber_fraction_warns(self):
        with pytest.warns(UserWarning):
            NoiseModel.weber(0.7)

    def test_negative_magnitude_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel.constant(-1)

    def test_arrays_broadcast(self):
        s = np.array([6.0, 10.0, 14.0])
        assert np.array_equal(sigma_l_at(NoiseModel.weber(0.2), s), 0.2 * s)
        assert np.array_equal(sigma_l_at(NoiseModel.constant(1.5), s), [1.5] * 3)
        with pytest.raises(ValueError, match="stimulus must be > 0"):
            sigma_l_at(NoiseModel.weber(0.2), np.array([6.0, 0.0]))


class TestFusionWeight:
    def test_arrays_match_scalar_formula(self):
        sl = np.array([[0.0], [0.5], [2.0]])
        sp = np.array([0.0, 1.5, 3.0])
        w = fusion_weight(sl, sp)
        assert w.shape == (3, 3)
        # a noiseless likelihood wins, even against a delta prior
        assert np.array_equal(w[0], [1.0, 1.0, 1.0])
        assert np.array_equal(w[1:, 0], [0.0, 0.0])
        for i in (1, 2):
            for j in (1, 2):
                a, b = float(sl[i, 0]), float(sp[j])
                assert w[i, j] == b**2 / (b**2 + a**2)

    def test_bit_identical_to_scalar_formula(self):
        rng = np.random.default_rng(7)
        sl = rng.uniform(0.01, 20.0, 20_000)
        sp = rng.uniform(0.01, 20.0, 20_000)
        ref = [b**2 / (b**2 + a**2) for a, b in zip(sl.tolist(), sp.tolist())]
        assert np.array_equal(fusion_weight(sl, sp), ref)


class TestPredictPerStimulus:
    """closed_form's per-stimulus means and sds."""

    def test_weber_hand_value(self):
        mean, _ = closed_form(1.5, 0.2, DEFAULT_STIMULI)
        assert DEFAULT_STIMULI.lengths[0] == 6.0
        # w = 2.25 / (2.25 + 1.44)
        assert mean[0] == pytest.approx(2.25 / 3.69 * 6 + 1.44 / 3.69 * 10, abs=1e-12)
        assert mean[0] == pytest.approx(7.561, abs=1e-3)

    def test_perfect_sensing(self):
        mean, sd = closed_form(1.5, 0.0, DEFAULT_STIMULI)
        assert (DEFAULT_STIMULI.lengths[-1], mean[-1], sd[-1]) == (14.0, 14.0, 0.0)

    def test_constant_noise_at_prior_mean(self):
        mean, sd = _constant(1.0, 2.0)
        assert DEFAULT_STIMULI.lengths[5] == 10.0
        assert mean[5] == pytest.approx(10.0)
        assert sd[5] == pytest.approx(0.8)

    def test_quadrature_motor_noise_in_sd(self):
        motor = MotorNoiseSpec(1.2, MotorCombination.QUADRATURE)
        _, sd = _constant(1.0, 2.0, motor=motor)
        assert sd[5] == pytest.approx(math.hypot(0.8, 1.2))

    @pytest.mark.parametrize("wf", [0.05, 0.15, 0.3, 0.6])
    @pytest.mark.parametrize("sp", [0.5, 1.5, 3.5])
    def test_mean_between_stimulus_and_prior(self, wf, sp):
        prior_mean = DEFAULT_STIMULI.mean_stimulus
        mean, _ = closed_form(sp, wf, DEFAULT_STIMULI)
        for s, m in zip(DEFAULT_STIMULI.lengths, mean.tolist()):
            lo, hi = min(s, prior_mean), max(s, prior_mean)
            assert lo - 1e-12 <= m <= hi + 1e-12


def _oracle_ols_slope(x, y):
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    return float(np.cov(x, y, bias=True)[0, 1] / np.var(x))


class TestRegressionIndex:
    def test_constant_noise_closed_form(self):
        ri = model._ri(2.0, 1.0, DEFAULT_STIMULI, mode=NoiseMode.CONSTANT)
        assert ri == pytest.approx(1.0 / 5.0, abs=1e-12)

    def test_zero_noise(self):
        assert _index(1.5, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_weber_matches_ols_oracle(self):
        ri = _index(1.5, 0.2)
        # independent recomputation of the predicted means + OLS
        s = np.array(DEFAULT_STIMULI.lengths)
        w = 1.5**2 / (1.5**2 + (0.2 * s) ** 2)
        means = w * s + (1 - w) * 10.0
        assert 0 < ri < 1
        assert ri == pytest.approx(1.0 - _oracle_ols_slope(s, means), abs=1e-12)

    def test_degenerate_stimuli(self):
        with pytest.raises(ValueError):
            _index(1.5, 0.1, StimulusSet((10.0, 10.0)))


class TestPredictErrors:
    def test_motor_only_endpoint(self):
        motor = MotorNoiseSpec(1.2, MotorCombination.LINEAR_CV)
        bias, cv, rmse = _errors(*closed_form(1.5, 0.0, DEFAULT_STIMULI, motor), motor=motor)
        assert (bias, cv, rmse) == (0.0, 0.12, 0.12)

    def test_all_zero(self):
        bias, cv, rmse = _errors(*closed_form(1.5, 0.0, DEFAULT_STIMULI))
        assert (bias, cv, rmse) == (0.0, 0.0, 0.0)

    def test_singleton_stimulus_at_prior_mean(self):
        single = StimulusSet((10.0,))
        bias, cv, rmse = _errors(*_constant(1.0, 2.0, single), single)
        assert bias == pytest.approx(0.0, abs=1e-15)
        assert cv == pytest.approx(0.08, abs=1e-12)
        assert rmse == pytest.approx(0.08, abs=1e-12)

    @pytest.mark.parametrize("wf,sp,motor_sd,comb", [
        (0.1, 0.5, 0.0, MotorCombination.QUADRATURE),
        (0.3, 1.5, 1.2, MotorCombination.QUADRATURE),
        (0.6, 3.5, 1.2, MotorCombination.LINEAR_CV),
        (0.45, 2.5, 0.7, MotorCombination.LINEAR_CV),
    ])
    def test_pythagoras(self, wf, sp, motor_sd, comb):
        motor = MotorNoiseSpec(motor_sd, comb)
        bias, cv, rmse = _errors(*closed_form(sp, wf, DEFAULT_STIMULI, motor), motor=motor)
        assert rmse**2 == pytest.approx(bias**2 + cv**2, abs=1e-12)


class TestCurves:
    def test_single_point_endpoint(self):
        pts = error_curve(1.5, [0.0], DEFAULT_STIMULI, MotorNoiseSpec(1.2))
        assert pts == [(0.0, 0.0, 0.12)]

    def test_bias_strictly_increasing_in_wf(self):
        wf = np.arange(0.0, 0.605, 0.01)
        pts = error_curve(1.5, wf, DEFAULT_STIMULI, NO_MOTOR_NOISE)
        biases = [b for _, b, _ in pts]
        assert all(b2 > b1 for b1, b2 in zip(biases, biases[1:]))

    def test_cv_rises_then_falls(self):
        # response sd w*sigma_l peaks at sigma_l = sigma_p, so the cv
        # coordinate is not monotone over the full sweep
        wf = np.arange(0.0, 0.605, 0.005)
        cvs = [c for _, _, c in error_curve(1.5, wf, DEFAULT_STIMULI, NO_MOTOR_NOISE)]
        peak = int(np.argmax(cvs))
        assert 0 < peak < len(cvs) - 1
        assert all(c2 > c1 for c1, c2 in zip(cvs[:peak], cvs[1:peak + 1]))
        assert cvs[-1] < cvs[peak]

    def test_stronger_prior_pulls_harder(self):
        b_strong = error_curve(0.5, [0.3], DEFAULT_STIMULI, NO_MOTOR_NOISE)[0][1]
        b_weak = error_curve(3.5, [0.3], DEFAULT_STIMULI, NO_MOTOR_NOISE)[0][1]
        assert b_strong > b_weak

    def test_four_distinct_curves(self):
        wf = [0.1, 0.2, 0.3]
        curves = [tuple(error_curve(sp, wf)) for sp in (0.5, 1.5, 2.5, 3.5)]
        assert len(set(curves)) == 4

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            error_curve(1.5, [])


class TestRiCurve:
    def test_zero_wf(self):
        assert ri_curve(2.0, [0.0])[0][1] == pytest.approx(0.0, abs=1e-15)

    def test_equal_variances(self):
        ri = model._ri(2.0, 2.0, DEFAULT_STIMULI, mode=NoiseMode.CONSTANT)
        assert ri == pytest.approx(0.5, abs=1e-12)

    def test_strictly_increasing(self):
        wf = np.arange(0.0, 0.605, 0.005)
        ris = [r for _, r in ri_curve(1.5, wf)]
        assert all(r2 > r1 for r1, r2 in zip(ris, ris[1:]))
        assert all(0 <= r < 1 for r in ris)

    def test_decreasing_in_prior_width(self):
        ris = [ri_curve(sp, [0.3])[0][1] for sp in (0.5, 1.5, 2.5, 3.5)]
        assert all(r2 < r1 for r1, r2 in zip(ris, ris[1:]))


class TestWfFromRi:
    def test_zero_target(self):
        assert wf_from_ri(0.0, 1.5) == 0.0

    @pytest.mark.parametrize("target", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    def test_round_trip(self, target):
        assert abs(_index(1.5, wf_from_ri(target, 1.5)) - target) < 1e-9

    def test_ordering_matches_targets(self):
        wf_soc = wf_from_ri(0.234, 1.5)
        wf_mech = wf_from_ri(0.292, 1.5)
        wf_ind = wf_from_ri(0.446, 1.5)
        assert wf_soc < wf_mech < wf_ind

    def test_unreachable_target_is_bracket_error(self):
        # at lengths of 1e-12 cm even the largest ratio keeps the index at 0.65
        with pytest.raises(BracketError, match=r"^target 0.9 unreachable: "
                           r"achievable range is \[0, 0\.650000000000\) on the bracket$"):
            wf_from_ri(0.9, 1.5, StimulusSet((1e-12, 2e-12)))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            wf_from_ri(-0.1, 1.5)
        with pytest.raises(ValueError):
            wf_from_ri(1.0, 1.5)
        with pytest.raises(ValueError):
            wf_from_ri(0.3, 0.0)


class TestSigmaPFromRi:
    """sigma_p_from_ri and wf_from_ri share one inversion of r = wf / sigma_p."""

    @pytest.mark.parametrize("target", [0.1, 0.3, 0.5, 0.9])
    def test_constant_noise_closed_form(self, target):
        # under constant noise the index is sigma_l^2 / (sigma_l^2 + sigma_p^2)
        sp = sigma_p_from_ri(target, NoiseModel.constant(2.0))
        assert sp == pytest.approx(2.0 * math.sqrt((1 - target) / target), rel=1e-12)

    @pytest.mark.parametrize("prior_mean", [3.0, 25.0])
    @pytest.mark.parametrize("target", [0.1, 0.3, 0.5, 0.9])
    def test_round_trip_off_centre_prior(self, prior_mean, target):
        noise = NoiseModel.weber(0.2)
        sp = sigma_p_from_ri(target, noise, prior_mean=prior_mean)
        assert abs(model._ri(sp, 0.2, DEFAULT_STIMULI, prior_mean) - target) < 1e-9

    def test_zero_target_reachable_above_the_stimuli(self):
        # a prior mean above every stimulus takes the index below 0 for wide
        # priors, so 0 is reached at a finite width
        noise = NoiseModel.weber(0.2)
        sp = sigma_p_from_ri(0.0, noise, prior_mean=25.0)
        assert sp == pytest.approx(1.2909718, rel=1e-7)
        assert abs(model._ri(sp, 0.2, DEFAULT_STIMULI, 25.0)) < 1e-9

    def test_target_missed_off_centre_names_the_bracket_ends(self):
        # a prior mean below the stimuli lifts the index above 1 between the
        # bracket ends (1.018 near sigma_p 0.69), where the bisection, which
        # takes the index to fall with sigma_p, does not look
        peak = model._ri(np.geomspace(1e-3, 1e3, 2001), 0.2, DEFAULT_STIMULI, 3.0).max()
        assert peak == pytest.approx(1.018, abs=5e-4)
        with pytest.raises(BracketError, match=(
                r"^target 1.005 not found on the bracket: the index is 1\.000000090269 at "
                r"sigma_p 0\.001 and 0\.000010055603 at sigma_p 1000; for a prior mean off "
                r"the stimuli's mean it need not be monotone in sigma_p$")):
            sigma_p_from_ri(1.005, NoiseModel.weber(0.2), prior_mean=3.0)

    @pytest.mark.parametrize("sigma_p", [0.3, 1.5, 50.0])
    @pytest.mark.parametrize("target", [0.1, 0.5, 0.9])
    def test_wf_and_sigma_p_share_one_ratio(self, sigma_p, target):
        wf = 0.2
        assert wf_from_ri(target, sigma_p) / sigma_p == pytest.approx(
            wf / sigma_p_from_ri(target, NoiseModel.weber(wf)), rel=1e-12)


class TestRmseSurface:
    def test_zero_wf_column(self):
        S = rmse_surface([0.0], [0.0, 0.3, 0.6])
        assert S[0, 0] == pytest.approx(1.0)
        assert np.isnan(S[0, 1]) and np.isnan(S[0, 2])

    def test_every_defined_row_attains_one(self):
        wf = np.round(np.arange(0.05, 0.61, 0.05), 10)
        ri = np.arange(0.0, 0.96, 0.05)
        S = rmse_surface(wf, ri)
        for i in range(S.shape[0]):
            assert np.nanmin(S[i]) == pytest.approx(1.0)
            defined = S[i][~np.isnan(S[i])]
            assert np.all(defined >= 1.0 - 1e-12)

    def test_max_in_low_wf_high_ri_corner_without_motor(self):
        wf = np.round(np.arange(0.05, 0.61, 0.05), 10)
        ri = np.arange(0.0, 0.96, 0.05)
        S = rmse_surface(wf, ri, motor=NO_MOTOR_NOISE)
        i, j = np.unravel_index(np.nanargmax(S), S.shape)
        assert i == 0          # lowest nonzero weber fraction
        assert j == len(ri) - 1  # highest regression index

    def test_interior_minimum_at_wf_03(self):
        ri = np.arange(0.0, 0.96, 0.05)
        S = rmse_surface([0.3], ri, motor=NO_MOTOR_NOISE)
        row = S[0]
        jm = int(np.nanargmin(row))
        assert 1 < jm < len(ri) - 1
        assert row[jm + 1] > row[jm] and row[jm - 1] > row[jm]

    def test_zero_minimum_and_undefined_rows(self):
        # no noise at all: the zero-rmse cell is 1; a row with no reachable
        # cell stays NaN
        S = rmse_surface([0.0, 0.0], [0.0, 0.3], motor=NO_MOTOR_NOISE)
        assert np.array_equal(S, [[1.0, np.nan], [1.0, np.nan]], equal_nan=True)
        S = rmse_surface([0.0, 0.2], [0.5, 0.99], motor=NO_MOTOR_NOISE)
        assert np.isnan(S[0]).all() and S[1, 0] == 1.0

    def test_unreachable_ri_is_bracket_error(self):
        with pytest.raises(BracketError):
            sigma_p_from_ri(0.0, NoiseModel.weber(0.3))

    def test_invalid_ri_grid(self):
        with pytest.raises(ValueError):
            rmse_surface([0.1], [1.0])


class TestBroadcastChecks:
    """Grids are checked as the per-point GaussianBelief/NoiseModel were."""

    @pytest.mark.parametrize("call", [
        lambda: error_curve(1.5, [0.1, -0.05]),
        lambda: ri_curve(1.5, [0.1, -0.05]),
        lambda: rmse_surface([0.1, -0.05], [0.2]),
    ])
    def test_negative_wf_raises(self, call):
        with pytest.raises(ValueError, match="magnitude must be >= 0, got -0.05"):
            call()

    @pytest.mark.parametrize("call", [
        lambda: NoiseModel.weber(math.inf),
        lambda: NoiseModel.constant(math.inf),
        lambda: error_curve(1.5, [0.1, math.inf]),
    ])
    def test_infinite_magnitude_raises(self, call):
        with pytest.raises(ValueError, match="^magnitude must be finite, got inf$"):
            call()

    @pytest.mark.parametrize("curve", [error_curve, ri_curve])
    def test_negative_sigma_p_raises(self, curve):
        with pytest.raises(ValueError, match="sd must be >= 0, got -1.5"):
            curve(-1.5, [0.1])

    @pytest.mark.parametrize("bracket, got", [
        ((-1, 10), "-1"), ((float("nan"), 10), "nan"), ((1e-3, -5), "-5"),
    ])
    def test_bad_sigma_p_bracket_raises(self, bracket, got):
        with pytest.raises(ValueError, match=f"sd must be >= 0, got {got}$"):
            sigma_p_from_ri(0.3, NoiseModel.weber(0.2), bracket=bracket)

    @pytest.mark.parametrize("call", [
        lambda: error_curve(1.5, [0.5, 0.65]),
        lambda: ri_curve(1.5, [0.5, 0.65]),
        lambda: rmse_surface([0.5, 0.65], [0.2]),
    ])
    def test_large_wf_warns(self, call):
        with pytest.warns(UserWarning, match="Weber fraction 0.65"):
            call()


def test_rmse_surface_matches_per_cell_inversion(monkeypatch):
    # the CLI's default surface grid, cell by cell through the scalar API
    wf_grid = np.round(0.005 * np.arange(121), 12)
    ri_grid = np.round(0.05 * np.arange(19), 12)
    motor = MotorNoiseSpec(1.2)
    ref = np.full((wf_grid.size, ri_grid.size), np.nan)
    for i, wf in enumerate(wf_grid):
        noise = NoiseModel.weber(float(wf))
        for j, ri in enumerate(ri_grid):
            if wf == 0:
                sp = 1.0 if ri == 0 else None
            else:
                try:
                    sp = sigma_p_from_ri(float(ri), noise)
                except BracketError:
                    sp = None
            if sp is not None:
                ref[i, j] = _errors(*closed_form(sp, float(wf), DEFAULT_STIMULI, motor),
                                    motor=motor)[2]
        ref[i] /= np.nanmin(ref[i])
    S = rmse_surface(wf_grid, ri_grid, DEFAULT_STIMULI, motor)
    assert np.array_equal(S, ref, equal_nan=True)
    assert np.count_nonzero(~np.isnan(S)) > S.size // 2
    # any block of wf rows gives the same bits
    for rows in (1, 7, wf_grid.size):
        monkeypatch.setattr(model, "_SURFACE_ROWS", rows)
        assert np.array_equal(rmse_surface(wf_grid, ri_grid, DEFAULT_STIMULI, motor),
                              ref, equal_nan=True)


def test_rmse_surface_inverts_each_ri_once(monkeypatch):
    # each ri is inverted for its ratio once, so the number of regression-index
    # kernel calls does not grow with the wf grid
    calls = []
    kernel = model._ri
    monkeypatch.setattr(model, "_ri", lambda *a, **k: calls.append(1) or kernel(*a, **k))
    counts = []
    for n in (1, 121):
        calls.clear()
        rmse_surface(np.round(0.005 * np.arange(n), 12), np.round(0.05 * np.arange(19), 12))
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0

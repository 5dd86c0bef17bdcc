"""Grid fit of the shared prior width and per-condition Weber fractions."""
import contextlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import mpmath
from scipy.special import gammaln, ndtr

from lenrepro import fitting
from lenrepro.fitting import (
    FitConfig,
    Objective,
    ObservedErrors,
    _fit_with_goodness,
    _folded_mean,
    _model_block,
    _sd_deflation,
    fit_shared_prior,
    goodness_of_fit,
    grid_values,
    render_fit_report,
)
from lenrepro.model import (
    DEFAULT_STIMULI,
    MotorCombination,
    MotorNoiseSpec,
    NO_MOTOR_NOISE,
    closed_form,
    normalized_errors,
    regression_index,
)

DEFAULT_MOTOR = MotorNoiseSpec(1.2, MotorCombination.LINEAR_CV)


class TestGridValues:
    def test_inclusive_endpoints(self):
        g = grid_values(0.1, 5.0, 0.05)
        assert g[0] == 0.1
        assert g[-1] == 5.0
        assert g.size == 99

    def test_no_float_spill(self):
        g = grid_values(0.0, 0.6, 0.005)
        assert g[-1] == 0.6
        assert g.size == 121
        assert np.all(np.diff(g) > 0)

    def test_bad_step(self):
        with pytest.raises(ValueError):
            grid_values(0.0, 1.0, 0.0)


def _forward(sigma_p, wf, motor=DEFAULT_MOTOR):
    mean, sd = closed_form(sigma_p, wf, DEFAULT_STIMULI, motor)
    b, c = normalized_errors(mean, sd, DEFAULT_STIMULI, motor)
    ri = regression_index(mean, DEFAULT_STIMULI)
    return ObservedErrors(bias=float(b), cv=float(c), ri=float(ri))


def _finite(sigma_p, wf, motor, n):
    """Expected (bias, cv) at n trials per stimulus: the finite-sample
    model on a 1 x 1 grid."""
    cfg = FitConfig(motor=motor, trials_per_stimulus=n)
    bias, cv = _model_block(np.array([sigma_p]), np.array([wf]), DEFAULT_STIMULI, cfg,
                            Objective.BIAS_CV)
    return bias[0, 0].item(), cv[0, 0].item()


class TestSelfConsistency:
    def test_exact_recovery_on_grid(self):
        truth = {"individual": 0.3, "mechanical": 0.18, "social": 0.14}
        observed = {k: _forward(1.5, wf) for k, wf in truth.items()}
        res = fit_shared_prior(observed, DEFAULT_STIMULI)
        assert res.shared_sigma_p == pytest.approx(1.5, abs=1e-12)
        for k, wf in truth.items():
            assert res.per_condition_wf[k] == pytest.approx(wf, abs=1e-12)
        assert res.residual < 1e-20

    def test_ri_objective_matches_targets(self):
        # ri alone cannot pin down the prior width (each width has a weber
        # fraction reproducing any attainable ri), so assert only that the
        # fitted parameters reproduce the observed indices
        truth = {"a": 0.25, "b": 0.1}
        observed = {k: _forward(2.0, wf) for k, wf in truth.items()}
        cfg = FitConfig(objective=Objective.RI)
        with pytest.warns(UserWarning, match="cannot identify them all"):
            res = fit_shared_prior(observed, DEFAULT_STIMULI, cfg)
        for k in truth:
            ri_fit = _forward(res.shared_sigma_p, res.per_condition_wf[k]).ri
            assert ri_fit == pytest.approx(observed[k].ri, abs=1e-3)
        assert res.residual < 1e-6

    def test_ri_zero_ties_break_to_smallest_sigma_p(self):
        # ri = 0 is matched exactly by wf = 0 at every prior width, so the
        # tie must resolve to the first (smallest) grid value
        observed = {"a": ObservedErrors(ri=0.0)}
        cfg = FitConfig(objective=Objective.RI)
        # both picks lie on the lower edge of their grids
        with pytest.warns(UserWarning, match="cannot identify them all|lower edge"):
            res = fit_shared_prior(observed, DEFAULT_STIMULI, cfg)
        assert res.shared_sigma_p == pytest.approx(0.1, abs=1e-12)
        assert res.per_condition_wf["a"] == 0.0

    def test_deterministic(self):
        observed = {"a": _forward(1.5, 0.2), "b": _forward(1.5, 0.35)}
        r1 = fit_shared_prior(observed, DEFAULT_STIMULI)
        r2 = fit_shared_prior(observed, DEFAULT_STIMULI)
        assert r1 == r2

    def test_grid_refinement_never_hurts(self):
        observed = {"a": _forward(1.62, 0.213)}  # off-grid truth
        coarse = FitConfig(sigma_p_grid=(0.1, 5.0, 0.1), wf_grid=(0.0, 0.6, 0.02))
        fine = FitConfig(sigma_p_grid=(0.1, 5.0, 0.02), wf_grid=(0.0, 0.6, 0.004))
        with pytest.warns(UserWarning, match="cannot identify them all"):
            rc = fit_shared_prior(observed, DEFAULT_STIMULI, coarse)
            rf = fit_shared_prior(observed, DEFAULT_STIMULI, fine)
        assert rf.residual <= rc.residual + 1e-15

    def test_landscape_covers_grid_and_contains_minimum(self):
        observed = {"a": _forward(1.5, 0.2)}
        with pytest.warns(UserWarning, match="cannot identify them all"):
            res = fit_shared_prior(observed, DEFAULT_STIMULI)
        sps = [sp for sp, _ in res.residual_landscape]
        assert len(sps) == 99
        totals = dict(res.residual_landscape)
        assert totals[res.shared_sigma_p] == pytest.approx(res.residual, abs=1e-15)
        assert min(totals.values()) == pytest.approx(res.residual, abs=1e-15)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_shared_prior({}, DEFAULT_STIMULI)
        with pytest.raises(ValueError):
            fit_shared_prior(
                {"a": ObservedErrors(bias=float("nan"), cv=0.1)}, DEFAULT_STIMULI
            )
        with pytest.raises(ValueError, match="BIAS_CV"), pytest.warns(UserWarning, match="cannot identify them all"):
            fit_shared_prior({"a": ObservedErrors(ri=0.2)}, DEFAULT_STIMULI)


class TestExpectedPipelineErrors:
    def test_converges_to_asymptotic_values(self):
        asymptotic = _forward(1.5, 0.15)
        b_n, c_n = _finite(1.5, 0.15, DEFAULT_MOTOR, 100_000)
        assert b_n == pytest.approx(asymptotic.bias, abs=1e-2)
        assert c_n == pytest.approx(asymptotic.cv, abs=1e-4)

    def test_small_n_shrinks_cv_and_inflates_bias(self):
        asymptotic = _forward(1.5, 0.15)
        b6, c6 = _finite(1.5, 0.15, DEFAULT_MOTOR, 6)
        assert b6 > asymptotic.bias
        assert c6 < asymptotic.cv

    def test_matches_monte_carlo_estimators(self):
        # simulate many 6-trial groups and average the empirical estimators
        rng = np.random.default_rng(12)
        motor = MotorNoiseSpec(1.2, MotorCombination.QUADRATURE)
        per = list(zip(DEFAULT_STIMULI.lengths,
                       *(v.tolist() for v in closed_form(1.5, 0.15, DEFAULT_STIMULI, motor))))
        s_bar = DEFAULT_STIMULI.mean_stimulus
        n_mc = 40_000
        biases = np.zeros(n_mc)
        cvs = np.zeros(n_mc)
        for s, mean, sd in per:
            x = rng.normal(mean, sd, (n_mc, 6))
            biases += np.abs(x.mean(axis=1) - s) / s_bar
            cvs += x.std(axis=1, ddof=0) / s_bar
        biases /= len(per)
        cvs /= len(per)
        b6, c6 = _finite(1.5, 0.15, motor, 6)
        assert biases.mean() == pytest.approx(b6, abs=3 * biases.std() / math.sqrt(n_mc))
        assert cvs.mean() == pytest.approx(c6, abs=3 * cvs.std() / math.sqrt(n_mc))

    def test_needs_two_trials(self):
        with pytest.raises(ValueError, match="^trials_per_stimulus must be >= 2$"):
            _finite(1.5, 0.1, DEFAULT_MOTOR, 1)

    @pytest.mark.parametrize("n", [1, 0, -1])
    def test_fewer_than_two_trials_refused_by_the_config(self, n):
        # before any observation is checked or any grid is built, so no
        # fit can warn first, whichever objective it would run
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for objective in Objective:
                with pytest.raises(ValueError, match="^trials_per_stimulus must be >= 2$"):
                    FitConfig(objective=objective, trials_per_stimulus=n)
        assert caught == []


class TestSpecialFunctions:
    """The closed forms behind the finite-sample table, against high-precision
    and scipy references."""

    NS = range(2, 2001)

    def test_sd_deflation_against_oracle(self):
        with mpmath.workdps(40):
            want = [float(mpmath.sqrt(mpmath.mpf(2) / n) * mpmath.gamma(mpmath.mpf(n) / 2)
                          / mpmath.gamma(mpmath.mpf(n - 1) / 2)) for n in self.NS]
        got = [_sd_deflation(n) for n in self.NS]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    def test_sd_deflation_against_gammaln_formula(self):
        # The formula is within 1e-14 of the exact value only while its two
        # lgamma values are small. Near n = 2000 each is about 5,900, with
        # ulp 9.1e-13, and the formula is off by up to 1.9e-12.
        want = [math.sqrt(2.0 / n) * math.exp(gammaln(n / 2) - gammaln((n - 1) / 2))
                for n in self.NS]
        got = [_sd_deflation(n) for n in self.NS]
        small = self.NS.index(50) + 1
        np.testing.assert_allclose(got[:small], want[:small], rtol=1e-14, atol=0)
        np.testing.assert_allclose(got, want, rtol=4e-12, atol=0)

    def test_folded_mean_against_ndtr_formula(self):
        rng = np.random.default_rng(7)
        b = np.concatenate([rng.normal(0.0, 3.0, 4000), rng.normal(0.0, 1e-4, 1000),
                            [0.0, 0.0, 1.5, -1.5]])
        s = np.concatenate([rng.uniform(0.0, 2.0, 5000), [0.0, 1.0, 0.0, 0.0]])
        s[:500] = 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            folded = s * math.sqrt(2.0 / math.pi) * np.exp(-b * b / (2 * s * s)) + b * (
                1.0 - 2.0 * ndtr(-b / s))
        want = np.where(s == 0, np.abs(b), folded)
        np.testing.assert_allclose(_folded_mean(b, s), want, rtol=1e-14, atol=0)
        got = _folded_mean(b.reshape(4, -1, 3), s.reshape(4, -1, 3))
        np.testing.assert_array_equal(got.ravel(), _folded_mean(b, s))


class TestGoodness:
    def test_perfect_fit_zero_residuals(self):
        observed = {"a": _forward(1.5, 0.2)}
        with pytest.warns(UserWarning, match="cannot identify them all"):
            res = fit_shared_prior(observed, DEFAULT_STIMULI)
        g = goodness_of_fit(res, observed, DEFAULT_STIMULI)
        assert g.total_residual < 1e-20
        # a single condition makes the constrained fit equivalent
        assert g.equal_wf_residual < 1e-20
        assert g.equal_wf == pytest.approx(0.2, abs=1e-12)

    def test_constrained_never_beats_unconstrained(self):
        observed = {"a": _forward(1.5, 0.1), "b": _forward(1.5, 0.4)}
        res = fit_shared_prior(observed, DEFAULT_STIMULI)
        g = goodness_of_fit(res, observed, DEFAULT_STIMULI)
        assert g.equal_wf_residual >= res.residual
        assert g.equal_wf_residual > 1e-6  # genuinely different conditions

    def test_label_permutation_invariance(self):
        obs1 = {"a": _forward(1.5, 0.1), "b": _forward(1.5, 0.4)}
        obs2 = {"b": obs1["b"], "a": obs1["a"]}
        r1 = fit_shared_prior(obs1, DEFAULT_STIMULI)
        r2 = fit_shared_prior(obs2, DEFAULT_STIMULI)
        assert r1.shared_sigma_p == r2.shared_sigma_p
        assert dict(r1.per_condition_wf) == dict(r2.per_condition_wf)
        assert r1.residual == pytest.approx(r2.residual, abs=1e-18)

    def test_label_mismatch_rejected(self):
        observed = {"a": _forward(1.5, 0.2)}
        with pytest.warns(UserWarning, match="cannot identify them all"):
            res = fit_shared_prior(observed, DEFAULT_STIMULI)
        with pytest.raises(ValueError, match="mismatch"):
            goodness_of_fit(res, {"z": observed["a"]}, DEFAULT_STIMULI)


class TestReport:
    def test_report_contains_parameters(self):
        observed = {"social": _forward(1.5, 0.14), "individual": _forward(1.5, 0.3)}
        res = fit_shared_prior(observed, DEFAULT_STIMULI)
        g = goodness_of_fit(res, observed, DEFAULT_STIMULI)
        text = render_fit_report(res, g)
        assert "shared_sigma_p_cm: 1.500000" in text
        assert "social: wf=0.140000" in text
        assert "individual: wf=0.300000" in text
        assert "## equal-wf constrained fit" in text
        assert text == render_fit_report(res, g)


class TestMotorFreeRecovery:
    def test_recovery_without_motor_noise(self):
        cfg = FitConfig(motor=NO_MOTOR_NOISE)
        observed = {"a": _forward(2.5, 0.25, NO_MOTOR_NOISE)}
        with pytest.warns(UserWarning, match="cannot identify them all"):
            res = fit_shared_prior(observed, DEFAULT_STIMULI, cfg)
        assert res.shared_sigma_p == pytest.approx(2.5, abs=1e-12)
        assert res.per_condition_wf["a"] == pytest.approx(0.25, abs=1e-12)


class TestReportedPredictions:
    def test_finite_sample_predictions_are_the_fitted_values(self):
        # off-grid observations, so every residual is nonzero
        observed = {
            "individual": ObservedErrors(bias=0.110696, cv=0.204131),
            "social": ObservedErrors(bias=0.071402, cv=0.187350),
        }
        cfg = FitConfig(trials_per_stimulus=6)
        res = fit_shared_prior(observed, DEFAULT_STIMULI, cfg)
        for label, obs in observed.items():
            b, c, _ = res.per_condition_predicted[label]
            assert res.per_condition_residual[label] > 1e-8
            assert (b - obs.bias) ** 2 + (c - obs.cv) ** 2 == pytest.approx(
                res.per_condition_residual[label], rel=1e-12, abs=1e-18
            )


def _reference_cell(sigma_p, wf, motor, n=None, stimuli=DEFAULT_STIMULI):
    """(bias, cv, ri) of one grid cell from the scalar closed form."""
    s_bar = stimuli.mean_stimulus
    quadrature = motor.combination is MotorCombination.QUADRATURE
    means, sds, folded = [], [], []
    for s in stimuli.lengths:
        sigma_l = wf * s
        if sigma_l == 0:
            w = 1.0
        elif sigma_p == 0:
            w = 0.0
        else:
            w = sigma_p**2 / (sigma_p**2 + sigma_l**2)
        mean = w * s + (1.0 - w) * s_bar
        full_sd = math.sqrt((w * sigma_l) ** 2 + motor.sd_cm**2)
        sd = full_sd if quadrature else w * sigma_l
        means.append(mean)
        sds.append(sd)
        if n is not None:
            b, f = mean - s, full_sd / math.sqrt(n)
            folded.append(
                abs(b) if f == 0 else
                f * math.sqrt(2.0 / math.pi) * math.exp(-b * b / (2 * f * f))
                + b * (1.0 - 2.0 * ndtr(-b / f))
            )
    if n is None:
        bias = np.mean(np.abs(np.array(means) - stimuli.lengths)) / s_bar
        cv = np.mean(sds) / s_bar
    else:
        deflation = math.sqrt(2.0 / n) * math.exp(
            math.lgamma(n / 2) - math.lgamma((n - 1) / 2)
        )
        bias = np.mean(folded) / s_bar
        cv = np.mean(sds) * deflation / s_bar
    if not quadrature:
        cv += motor.sd_cm / s_bar
    x = np.array(stimuli.lengths)
    y = np.array(means)
    xc = x - x.mean()
    ri = 1.0 - np.dot(xc, y - y.mean()) / np.dot(xc, xc)
    return bias, cv, ri


class TestKernelEquivalence:
    """The broadcast model block against the scalar closed form, cell by cell."""

    OBSERVED = {
        "individual": ObservedErrors(bias=0.110696, cv=0.204131, ri=0.41),
        "mechanical": ObservedErrors(bias=0.093377, cv=0.193514, ri=0.33),
        "social": ObservedErrors(bias=0.071402, cv=0.187350, ri=0.27),
    }

    @pytest.mark.parametrize("n", [None, 6])
    @pytest.mark.parametrize("comb", list(MotorCombination))
    def test_default_grid_matches_scalar_reference(self, comb, n):
        cfg = FitConfig(motor=MotorNoiseSpec(1.2, comb), trials_per_stimulus=n)
        sigma_ps = grid_values(*cfg.sigma_p_grid)
        wfs = grid_values(*cfg.wf_grid)
        bias, cv, ri = _model_block(sigma_ps, wfs, DEFAULT_STIMULI, cfg)
        assert bias.shape == cv.shape == ri.shape == (99, 121)
        # an objective's block holds its own columns, with the same bits
        for objective, want in [(Objective.BIAS_CV, (bias, cv)), (Objective.RI, (ri,))]:
            got = _model_block(sigma_ps, wfs, DEFAULT_STIMULI, cfg, objective)
            assert len(got) == len(want)
            assert all(map(np.array_equal, got, want))
        ref = np.array([
            [_reference_cell(float(sp), float(wf), cfg.motor, n) for wf in wfs]
            for sp in sigma_ps
        ])
        # np.exp and math.exp may differ in the last bit of the folded mean
        np.testing.assert_allclose(bias, ref[..., 0], rtol=0, atol=1e-15)
        np.testing.assert_allclose(cv, ref[..., 1], rtol=0, atol=1e-15)
        np.testing.assert_array_equal(ri, ref[..., 2])

        for objective in Objective:
            cfg_o = FitConfig(motor=cfg.motor, trials_per_stimulus=n,
                              objective=objective)
            # three ri observations for four parameters
            with (pytest.warns(UserWarning, match="cannot identify them all") if objective is Objective.RI
                  else contextlib.nullcontext()):
                res = fit_shared_prior(self.OBSERVED, DEFAULT_STIMULI, cfg_o)
            good = goodness_of_fit(res, self.OBSERVED, DEFAULT_STIMULI, cfg_o)
            key = [0, 1] if objective is Objective.BIAS_CV else [2]
            obs = {
                label: np.array([(o.bias, o.cv, o.ri)[j] for j in key])
                for label, o in self.OBSERVED.items()
            }
            # scalar scan: first minimum wins, so ties go to the smaller wf
            # and then to the smaller sigma_p
            best, best_eq = None, None
            for i, sp in enumerate(sigma_ps):
                total, picks = 0.0, {}
                eq = np.zeros(wfs.size)
                for label, o in obs.items():
                    r = ((ref[i][:, key] - o) ** 2).sum(axis=1)
                    picks[label] = int(np.argmin(r))
                    total += float(r[picks[label]])
                    eq += r
                if best is None or total < best[0]:
                    best = (total, float(sp), picks)
                k = int(np.argmin(eq))
                if best_eq is None or eq[k] < best_eq[0]:
                    best_eq = (eq[k], float(sp), float(wfs[k]))
            assert res.shared_sigma_p == best[1]
            assert res.per_condition_wf == {
                label: float(wfs[k]) for label, k in best[2].items()
            }
            assert (good.equal_wf_sigma_p, good.equal_wf) == best_eq[1:]


class TestGridChecks:
    """Grids are checked as the per-point GaussianBelief/NoiseModel were."""

    @pytest.mark.parametrize("grid,match", [
        ({"sigma_p_grid": (-0.1, 1.0, 0.05)}, "sd must be >= 0"),
        ({"wf_grid": (-0.01, 0.3, 0.005)}, "magnitude must be >= 0"),
    ])
    @pytest.mark.parametrize("n", [None, 6])
    def test_negative_grid_values_raise(self, grid, match, n):
        observed = {"a": _forward(1.5, 0.2)}
        cfg = FitConfig(trials_per_stimulus=n, **grid)
        with pytest.raises(ValueError, match=match), pytest.warns(UserWarning, match="cannot identify them all"):
            fit_shared_prior(observed, DEFAULT_STIMULI, cfg)
        with pytest.warns(UserWarning, match="cannot identify them all"):
            res = fit_shared_prior(observed, DEFAULT_STIMULI, FitConfig())
        with pytest.raises(ValueError, match=match):
            goodness_of_fit(res, observed, DEFAULT_STIMULI, cfg)

    def test_large_weber_fraction_warns(self):
        cfg = FitConfig(wf_grid=(0.0, 0.65, 0.005))
        with pytest.warns(UserWarning, match="cannot identify them all"), pytest.warns(UserWarning, match="Weber fraction 0.605"):
            fit_shared_prior({"a": _forward(1.5, 0.2)}, DEFAULT_STIMULI, cfg)

    def test_large_weber_fraction_warns_once(self):
        # once for the whole grid, not once per block of sigma_p rows
        cfg = FitConfig(wf_grid=(0.0, 0.65, 0.005))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit_shared_prior({"a": _forward(1.5, 0.2)}, DEFAULT_STIMULI, cfg)
        assert [str(w.message) for w in caught if "Weber fraction" in str(w.message)] \
            == ["Weber fraction 0.605 is outside the usual [0, 0.6] sweep range"]


class TestGridEdgeWarning:
    def _fit(self, observed, **grids):
        import warnings

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = fit_shared_prior(observed, DEFAULT_STIMULI, FitConfig(**grids))
        return res, [str(w.message) for w in caught if "edge" in str(w.message)]

    def test_interior_fit_is_silent(self):
        observed = {"a": _forward(1.5, 0.3), "b": _forward(1.5, 0.14)}
        res, edge = self._fit(observed)
        assert res.shared_sigma_p == pytest.approx(1.5, abs=1e-12)
        assert edge == []

    def test_sigma_p_on_upper_edge(self):
        res, edge = self._fit({"a": _forward(1.5, 0.2)},
                              sigma_p_grid=(0.5, 1.0, 0.05))
        assert res.shared_sigma_p == pytest.approx(1.0)
        assert edge == ["fitted sigma_p = 1.000000 lies on the upper edge of "
                        "its grid [0.500000, 1.000000]"]

    def test_wf_on_lower_edge_names_condition(self):
        observed = {"a": _forward(1.5, 0.3), "b": _forward(1.5, 0.05)}
        res, edge = self._fit(observed, wf_grid=(0.1, 0.6, 0.005))
        assert res.per_condition_wf["b"] == pytest.approx(0.1)
        assert res.per_condition_wf["a"] != pytest.approx(0.1)
        assert any(m.startswith("fitted wf of condition 'b' = 0.100000 lies on "
                                "the lower edge of its grid [0.100000, 0.600000]")
                   for m in edge)
        assert not any("'a'" in m for m in edge)

    def test_single_value_grid_is_silent(self):
        res, edge = self._fit({"a": _forward(1.5, 0.2)},
                              sigma_p_grid=(1.5, 1.5, 0.05))
        assert res.shared_sigma_p == pytest.approx(1.5)
        assert edge == []

    def _fit_both(self, observed, **grids):
        import warnings

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res, g = _fit_with_goodness(observed, DEFAULT_STIMULI, FitConfig(**grids))
        return res, g, [str(w.message) for w in caught if "edge" in str(w.message)]

    def test_equal_wf_sigma_p_on_lower_edge(self):
        observed = {"a": _forward(1.5, 0.3), "b": _forward(1.5, 0.05)}
        res, g, edge = self._fit_both(observed, sigma_p_grid=(1.2, 2.0, 0.05))
        assert res.shared_sigma_p == pytest.approx(1.5, abs=1e-12)
        assert g.equal_wf_sigma_p == pytest.approx(1.2)
        assert edge == ["fitted equal-wf sigma_p = 1.200000 lies on the lower edge "
                        "of its grid [1.200000, 2.000000]"]

    def test_equal_wf_on_lower_edge_follows_free_fit_warnings(self):
        res, g, edge = self._fit_both({"a": _forward(1.5, 0.2)},
                                      wf_grid=(0.2, 0.6, 0.005))
        assert g.equal_wf == pytest.approx(0.2)
        assert edge == [
            "fitted wf of condition 'a' = 0.200000 lies on the lower edge of its "
            "grid [0.200000, 0.600000]",
            "fitted equal wf = 0.200000 lies on the lower edge of its grid "
            "[0.200000, 0.600000]",
        ]


class TestOneTable:
    """`_fit_with_goodness` scans the grid once for both fits and returns
    what `fit_shared_prior` and then `goodness_of_fit` return."""

    @pytest.mark.parametrize("objective", list(Objective))
    @pytest.mark.parametrize("comb", list(MotorCombination))
    @pytest.mark.parametrize("n", [None, 6])
    def test_matches_public_pair(self, objective, comb, n):
        import warnings

        cfg = FitConfig(motor=MotorNoiseSpec(1.2, comb), objective=objective,
                        trials_per_stimulus=n)
        observed = {
            "individual": ObservedErrors(bias=0.110696, cv=0.204131, ri=0.31),
            "mechanical": ObservedErrors(bias=0.09, cv=0.17, ri=0.22),
            "social": ObservedErrors(bias=0.071402, cv=0.187350, ri=0.18),
        }
        with warnings.catch_warnings(record=True) as pair:
            warnings.simplefilter("always")
            res = fit_shared_prior(observed, DEFAULT_STIMULI, cfg)
            g = goodness_of_fit(res, observed, DEFAULT_STIMULI, cfg)
        with warnings.catch_warnings(record=True) as one:
            warnings.simplefilter("always")
            assert _fit_with_goodness(observed, DEFAULT_STIMULI, cfg) == (res, g)
        assert [str(w.message) for w in one] == [str(w.message) for w in pair]


def _fit_recorded(observed, cfg):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = _fit_with_goodness(observed, DEFAULT_STIMULI, cfg)
    return out, [str(w.message) for w in caught]


class TestBlockedTable:
    """The fit scans `_TABLE_ROWS` sigma_p rows at a time; model blocks of
    any size give the same bits, and any block size the same fits and the
    same warnings."""

    OBSERVED = TestKernelEquivalence.OBSERVED

    @pytest.mark.parametrize("sigma_p_grid", [FitConfig.sigma_p_grid, (1.5, 1.5, 0.05)])
    @pytest.mark.parametrize("comb", list(MotorCombination))
    @pytest.mark.parametrize("n", [None, 6])
    def test_any_block_size_gives_the_same_bits(self, monkeypatch, sigma_p_grid,
                                                comb, n):
        cfgs = [FitConfig(sigma_p_grid=sigma_p_grid, motor=MotorNoiseSpec(1.2, comb),
                          objective=objective, trials_per_stimulus=n)
                for objective in Objective]
        sigma_ps = grid_values(*sigma_p_grid)
        wfs = grid_values(*cfgs[0].wf_grid)
        table = _model_block(sigma_ps, wfs, DEFAULT_STIMULI, cfgs[0])
        fits = [_fit_recorded(self.OBSERVED, cfg) for cfg in cfgs]
        # 99 rows is not a multiple of 7 or of the default 4: a short last block
        for rows in (1, 7, 99):
            monkeypatch.setattr(fitting, "_TABLE_ROWS", rows)
            blocked = [np.concatenate(column) for column in zip(*(
                _model_block(sigma_ps[i:i + rows], wfs, DEFAULT_STIMULI, cfgs[0])
                for i in range(0, sigma_ps.size, rows)))]
            assert all(np.array_equal(a, b) for a, b in zip(blocked, table))
            assert [a.shape for a in blocked] == [(sigma_ps.size, wfs.size)] * 3
            assert [_fit_recorded(self.OBSERVED, cfg) for cfg in cfgs] == fits

    @pytest.mark.parametrize("rows", [1, 4, 7, 99])
    @pytest.mark.parametrize("nan_cells", [[], [(40, 30), (13, 90), (13, 100)]])
    def test_scan_reduces_as_argmin_over_the_whole_grid(self, monkeypatch, rows,
                                                        nan_cells):
        # NaN cells, marked on the whole grid by index, must win in both fits
        # and the first must win, as np.argmin over the whole grid picks it
        cfg = FitConfig(trials_per_stimulus=6)
        sigma_ps = grid_values(*cfg.sigma_p_grid)
        wfs = grid_values(*cfg.wf_grid)
        nan_at = np.zeros((sigma_ps.size, wfs.size), bool)
        for cell in nan_cells:
            nan_at[cell] = True
        model_block = fitting._model_block

        def with_nans(block_sigma_ps, *args):
            rows_at = np.searchsorted(sigma_ps, block_sigma_ps)
            return tuple(np.where(nan_at[rows_at], np.nan, column)
                         for column in model_block(block_sigma_ps, *args))

        monkeypatch.setattr(fitting, "_model_block", with_nans)
        monkeypatch.setattr(fitting, "_TABLE_ROWS", rows)
        residuals = [fitting._condition_residuals(obs, with_nans(sigma_ps, wfs,
                                                                 DEFAULT_STIMULI, cfg,
                                                                 cfg.objective),
                                                  cfg.objective)
                     for obs in self.OBSERVED.values()]
        _, _, best, (i, k, residual) = fitting._scan(self.OBSERVED, DEFAULT_STIMULI, cfg)
        total = sum(residuals)
        assert (i, k) == np.unravel_index(np.argmin(total), total.shape)
        assert np.array_equal(residual, total[i, k], equal_nan=True)
        for (picks, r_min), r in zip(best.values(), residuals):
            assert np.array_equal(picks, np.argmin(r, axis=1))
            assert np.array_equal(r_min, np.min(r, axis=1), equal_nan=True)

    def _peak(self, cfg):
        tracemalloc.start()
        try:
            _fit_recorded(self.OBSERVED, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_does_not_grow_with_the_sigma_p_grid(self, monkeypatch):
        cfg = FitConfig(trials_per_stimulus=6)
        blocked = self._peak(cfg)
        monkeypatch.setattr(fitting, "_TABLE_ROWS", grid_values(*cfg.sigma_p_grid).size)
        assert blocked <= self._peak(cfg) / 4

    def test_finite_sample_fit_holds_no_table(self):
        # one 4-row block and its reductions peak near 420 KB; the whole
        # (sigma_p, wf) table with its residual grids takes 1,290 KB
        assert self._peak(FitConfig(trials_per_stimulus=6)) <= 600_000


class TestIdentifiabilityWarning:
    """A fit warns when its objective has no more observations than free
    parameters: one shared sigma_p and a wf per condition."""

    @staticmethod
    def _messages(observed, objective):
        cfg = FitConfig(objective=objective)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit_shared_prior(observed, DEFAULT_STIMULI, cfg)
        return [str(w.message) for w in caught if "identify" in str(w.message)]

    def test_ri_objective_always_warns(self):
        observed = {"a": _forward(1.5, 0.3), "b": _forward(1.5, 0.14),
                    "c": _forward(1.5, 0.2)}
        assert self._messages(observed, Objective.RI) == [
            "the 'ri' objective fits 3 observations with 4 free parameters (a shared "
            "sigma_p and one wf per condition), so the data cannot identify them all"
        ]
        assert self._messages({"a": _forward(1.5, 0.3)}, Objective.RI) == [
            "the 'ri' objective fits 1 observation with 2 free parameters (a shared "
            "sigma_p and one wf per condition), so the data cannot identify them all"
        ]

    def test_bias_cv_objective_warns_only_for_one_condition(self):
        one = {"a": _forward(1.5, 0.3)}
        assert self._messages(one, Objective.BIAS_CV) == [
            "the 'biascv' objective fits 2 observations with 2 free parameters (a "
            "shared sigma_p and one wf per condition), so the data cannot identify "
            "them all"
        ]
        two = {"a": _forward(1.5, 0.3), "b": _forward(1.5, 0.14)}
        assert self._messages(two, Objective.BIAS_CV) == []

    def test_fit_with_goodness_warns_once(self):
        cfg = FitConfig(objective=Objective.RI)
        _, messages = _fit_recorded({"a": _forward(1.5, 0.3)}, cfg)
        assert sum("cannot identify" in m for m in messages) == 1

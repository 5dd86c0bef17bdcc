"""t statistics and effect sizes, pinned against a high-precision oracle."""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lenrepro.stats import (
    DegenerateTestError,
    _two_sided_p,
    cohens_d_one_sample,
    cohens_d_paired,
    one_sample_t,
    paired_t,
)


def _oracle_p(t, df):
    """Two-sided p via the regularized incomplete beta, 50-digit precision."""
    with mpmath.workdps(50):
        x = mpmath.mpf(df) / (df + mpmath.mpf(t) ** 2)
        return float(mpmath.betainc(
            mpmath.mpf(df) / 2, mpmath.mpf(1) / 2, 0, x, regularized=True
        ))


class TestOneSampleT:
    def test_hand_case(self):
        # mean 2, sd 1, n 3: t = 2 / (1/sqrt(3)) = 2*sqrt(3)
        t, df, p = one_sample_t([1.0, 2.0, 3.0], 0.0)
        assert t == pytest.approx(2 * math.sqrt(3), abs=1e-12)
        assert df == 2
        assert p == pytest.approx(_oracle_p(t, df), abs=1e-12)

    def test_zero_effect(self):
        t, df, p = one_sample_t([9.0, 10.0, 11.0], 10.0)
        assert t == pytest.approx(0.0, abs=1e-15)
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_sign_symmetry(self):
        t1, _, p1 = one_sample_t([1.0, 2.0, 3.0], 0.0)
        t2, _, p2 = one_sample_t([-1.0, -2.0, -3.0], 0.0)
        assert t2 == pytest.approx(-t1, abs=1e-12)
        assert p2 == pytest.approx(p1, abs=1e-12)

    @pytest.mark.parametrize("seed,n,mu0", [(0, 5, 0.0), (1, 12, 0.3), (2, 30, -1.0)])
    def test_against_incomplete_beta_oracle(self, seed, n, mu0):
        rng = np.random.default_rng(seed)
        x = rng.normal(0.2, 1.0, n)
        t, df, p = one_sample_t(x, mu0)
        assert p == pytest.approx(_oracle_p(t, df), abs=1e-4)

    def test_dense_grid_against_oracle(self):
        """Abs error <= 1e-13 everywhere, and rel error <= 1e-10 wherever
        p >= 1e-300, so the far tail keeps its relative precision."""
        worst_abs = worst_rel = 0.0
        for df in [*range(1, 60), 99, 199, 399, 1199]:
            for t in np.concatenate([[0.0], np.geomspace(1e-3, 50.0, 64)]):
                want = _oracle_p(t, df)
                got = _two_sided_p(t, df)
                assert _two_sided_p(-t, df) == got
                worst_abs = max(worst_abs, abs(got - want))
                if want >= 1e-300:
                    worst_rel = max(worst_rel, abs(got - want) / want)
        assert worst_abs <= 1e-13
        assert worst_rel <= 1e-10

    def test_non_finite_t(self):
        assert _two_sided_p(math.inf, 5) == 0.0
        assert _two_sided_p(-math.inf, 5) == 0.0
        assert math.isnan(_two_sided_p(math.nan, 5))

    def test_degenerate_and_short_inputs(self):
        with pytest.raises(DegenerateTestError):
            one_sample_t([5.0, 5.0, 5.0], 0.0)
        with pytest.raises(ValueError):
            one_sample_t([5.0], 0.0)


class TestPairedT:
    def test_matches_one_sample_on_differences(self):
        a = [0.45, 0.52, 0.38, 0.60]
        b = [0.30, 0.29, 0.35, 0.31]
        assert paired_t(a, b) == one_sample_t(np.subtract(a, b), 0.0)

    def test_antisymmetric(self):
        a = [1.0, 2.0, 4.0]
        b = [0.5, 2.5, 3.0]
        t_ab, _, p_ab = paired_t(a, b)
        t_ba, _, p_ba = paired_t(b, a)
        assert t_ba == pytest.approx(-t_ab, abs=1e-12)
        assert p_ba == pytest.approx(p_ab, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            paired_t([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_identical_pairs_degenerate(self):
        with pytest.raises(DegenerateTestError):
            paired_t([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])


class TestCohensD:
    def test_hand_case(self):
        assert cohens_d_one_sample([1.0, 2.0, 3.0], 0.0) == pytest.approx(2.0)

    def test_d_equals_t_over_sqrt_n(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0.5, 1.0, 25)
        t, _, _ = one_sample_t(x, 0.0)
        d = cohens_d_one_sample(x, 0.0)
        assert d == pytest.approx(t / math.sqrt(25), abs=1e-12)

    def test_paired_variant(self):
        a = [2.0, 3.0, 4.0]
        b = [1.0, 1.0, 1.0]
        assert cohens_d_paired(a, b) == cohens_d_one_sample([1.0, 2.0, 3.0], 0.0)
        with pytest.raises(ValueError):
            cohens_d_paired([1.0], [1.0, 2.0])

    @given(st.lists(st.floats(-10, 10), min_size=3, max_size=20),
           st.floats(-5, 5))
    def test_scale_invariance(self, xs, mu0):
        x = np.array(xs)
        if x.std(ddof=1) < 1e-6:
            return
        d1 = cohens_d_one_sample(x, mu0)
        d2 = cohens_d_one_sample(3.0 * x, 3.0 * mu0)
        assert d1 == pytest.approx(d2, rel=1e-6, abs=1e-9)

"""Closed-form Bayesian observer for length reproduction.

Perception of each stimulus is a precision-weighted fusion of a Gaussian
sensory likelihood (sd scales with the stimulus under Weber noise) and a
Gaussian prior over the session's stimulus range.  Everything here is a
deterministic closed form or a deterministic numeric inversion of one;
the stochastic trial-level counterpart lives in :mod:`lenrepro.simulate`.
"""
from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np


class DegenerateFusionError(ValueError):
    """Both inputs are delta functions at different locations."""


class BracketError(ValueError):
    """Inversion target not found on the bracket."""


def _check_nonnegative(name: str, values) -> None:
    """Reject negative or NaN entries, naming the first one."""
    v = np.asarray(values)
    bad = v[~(v >= 0)]
    if bad.size:
        raise ValueError(f"{name} must be >= 0, got {bad[0].item()}")


@dataclass(frozen=True)
class GaussianBelief:
    """A 1-D Gaussian over length (cm); sd == 0 denotes a delta function."""

    mean: float
    sd: float

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean}")
        _check_nonnegative("sd", self.sd)


class NoiseMode(Enum):
    WEBER = "weber"
    CONSTANT = "constant"


# Weber fractions above this are allowed but unusual for length perception;
# we warn instead of rejecting.
WEBER_SWEEP_MAX = 0.6


def _warn(message: str) -> None:
    """Issue a UserWarning at the nearest caller outside the library: the
    first frame whose module is not ``lenrepro.<name>``, or is the CLI.  A
    module name also covers the ``__init__`` that ``dataclass`` generates."""
    frame, level = sys._getframe(1), 2
    while (frame.f_back and frame.f_globals.get("__name__", "").startswith("lenrepro.")
           and frame.f_globals["__name__"] != "lenrepro.cli"):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


def _check_noise(mode: NoiseMode, magnitude) -> None:
    """Reject negative noise magnitudes; warn on unusual Weber fractions."""
    _check_nonnegative("magnitude", magnitude)
    if np.isinf(magnitude).any():  # an infinite sd would simulate only NaNs
        raise ValueError("magnitude must be finite, got inf")
    high = np.asarray(magnitude)[np.asarray(magnitude) > WEBER_SWEEP_MAX]
    if mode is NoiseMode.WEBER and high.size:
        _warn(f"Weber fraction {high[0].item()} is outside the usual "
              f"[0, {WEBER_SWEEP_MAX}] sweep range")


@dataclass(frozen=True)
class NoiseModel:
    """Sensory noise: sd = magnitude * stimulus (Weber) or magnitude cm."""

    mode: NoiseMode
    magnitude: float

    def __post_init__(self):
        _check_noise(self.mode, self.magnitude)

    @classmethod
    def weber(cls, fraction: float) -> "NoiseModel":
        return cls(NoiseMode.WEBER, fraction)

    @classmethod
    def constant(cls, sd_cm: float) -> "NoiseModel":
        return cls(NoiseMode.CONSTANT, sd_cm)


@dataclass(frozen=True)
class StimulusSet:
    """Ordered stimulus lengths (cm) plus their arithmetic mean."""

    lengths: tuple

    def __post_init__(self):
        # A singleton set supports the error predictions; regression-index
        # operations additionally require >= 2 distinct lengths.
        if len(self.lengths) < 1:
            raise ValueError("need at least 1 stimulus length")
        if any(s <= 0 for s in self.lengths):
            raise ValueError("stimulus lengths must be > 0")
        object.__setattr__(self, "lengths", tuple(float(s) for s in self.lengths))

    @property
    def mean_stimulus(self) -> float:
        # fsum keeps symmetric sets exact (the default set averages to 10.0).
        return math.fsum(self.lengths) / len(self.lengths)

    @classmethod
    def linspace(cls, lo: float, hi: float, n: int) -> "StimulusSet":
        return cls(tuple(np.linspace(lo, hi, n)))


#: 11 lengths from 6 cm to 14 cm in 0.8 cm steps, mean 10 cm.
DEFAULT_STIMULI = StimulusSet.linspace(6.0, 14.0, 11)


class MotorCombination(Enum):
    """How the non-sensory motor constant enters the predicted variability.

    QUADRATURE folds it into each per-stimulus response sd (independent
    noises add in variance; matches the generative simulator exactly).
    LINEAR_CV keeps per-stimulus sds sensory-only and adds sd/mean-stimulus
    to the session CV after averaging.
    """

    QUADRATURE = "quadrature"
    LINEAR_CV = "linear_cv"


@dataclass(frozen=True)
class MotorNoiseSpec:
    sd_cm: float
    combination: MotorCombination = MotorCombination.LINEAR_CV

    def __post_init__(self):
        if not (self.sd_cm >= 0):
            raise ValueError(f"sd_cm must be >= 0, got {self.sd_cm}")


NO_MOTOR_NOISE = MotorNoiseSpec(0.0, MotorCombination.QUADRATURE)


def fuse_gaussians(a: GaussianBelief, b: GaussianBelief) -> GaussianBelief:
    """Product of two Gaussians, renormalized (precision-weighted fusion).

    mean = (sb^2*ma + sa^2*mb)/(sa^2+sb^2), var = sa^2*sb^2/(sa^2+sb^2).
    A zero-sd input dominates; two zero-sd inputs at different means are
    contradictory and raise :class:`DegenerateFusionError`.
    """
    if a.sd == 0 and b.sd == 0:
        if a.mean == b.mean:
            return GaussianBelief(a.mean, 0.0)
        raise DegenerateFusionError(
            f"cannot fuse two delta functions at {a.mean} and {b.mean}"
        )
    if a.sd == 0:
        return GaussianBelief(a.mean, 0.0)
    if b.sd == 0:
        return GaussianBelief(b.mean, 0.0)
    va, vb = a.sd**2, b.sd**2
    mean = (vb * a.mean + va * b.mean) / (va + vb)
    sd = math.sqrt(va * vb / (va + vb))
    return GaussianBelief(mean, sd)


def _sensory_sd(mode: NoiseMode, magnitude, s):
    # Weber noise scales with the stimulus; constant noise does not.
    return magnitude * (s if mode is NoiseMode.WEBER else np.ones_like(s))


def sigma_l_at(noise: NoiseModel, stimulus):
    """Sensory sd (cm) at each stimulus length (array)."""
    s = np.asarray(stimulus, dtype=float)
    if np.any(s <= 0):
        raise ValueError(f"stimulus must be > 0, got {s[s <= 0][0]}")
    return _sensory_sd(noise.mode, noise.magnitude, s)


def fusion_weight(sigma_l, sigma_p):
    """Weight on the sensory measurement; the prior gets 1 - weight.

    Broadcasts over arrays.  A noiseless likelihood dominates regardless of
    the prior width.
    """
    # float_power squares through C pow, as Python's ** does on floats, so
    # the weights equal the scalar formula bit for bit; x * x rounds
    # differently for ~0.1 % of inputs.
    vl = np.float_power(sigma_l, 2)
    vp = np.float_power(sigma_p, 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = vp / (vp + vl)
    return np.where(sigma_l == 0, 1.0, np.where(sigma_p == 0, 0.0, w))


def _closed_form(sigma_p, wf, stimuli, motor, prior_mean, mode):
    # closed_form without the argument checks, for any prior mean and noise mode
    s = np.asarray(stimuli.lengths)
    sig_l = _sensory_sd(mode, np.asarray(wf, dtype=float)[..., None], s)
    w = fusion_weight(sig_l, np.asarray(sigma_p, dtype=float)[..., None])
    m0 = stimuli.mean_stimulus if prior_mean is None else prior_mean
    mean = w * s + (1.0 - w) * m0
    sd = w * sig_l
    if motor.combination is MotorCombination.QUADRATURE:
        sd = np.sqrt(sd**2 + motor.sd_cm**2)
    return mean, sd


def closed_form(sigma_p, wf, stimuli: StimulusSet,
                motor: MotorNoiseSpec = NO_MOTOR_NOISE):
    """The observer over arrays of prior widths (cm) and Weber fractions.

    They broadcast to a grid shape G; the prior sits on the mean stimulus.
    Returns the per-stimulus mean response w*s + (1-w)*prior_mean (w at the
    true stimulus s) and response sd, each of shape G + (n_stimuli,); the sd
    holds the motor constant under QUADRATURE only.  The grid is checked as
    each GaussianBelief and NoiseModel in it would be."""
    _check_nonnegative("sd", sigma_p)
    _check_noise(NoiseMode.WEBER, wf)
    return _closed_form(sigma_p, wf, stimuli, motor, None, NoiseMode.WEBER)


def normalized_errors(mean, sd, stimuli: StimulusSet, motor: MotorNoiseSpec):
    """Normalized (bias, cv) averaged over the stimulus set, from
    per-stimulus means and sds on the last axis, as returned by
    :func:`closed_form`; the results drop that axis.

    bias = mean |mean - s| / mean stimulus; cv = mean sd / mean stimulus.
    Under LINEAR_CV the motor term sd/mean-stimulus is added to the cv
    after averaging; under QUADRATURE it is already inside each sd.
    """
    s_bar = stimuli.mean_stimulus
    bias = np.mean(np.abs(mean - np.asarray(stimuli.lengths)), axis=-1) / s_bar
    cv = np.mean(sd, axis=-1) / s_bar
    if motor.combination is MotorCombination.LINEAR_CV:
        cv = cv + motor.sd_cm / s_bar
    return bias, cv


def regression_index(mean, stimuli: StimulusSet):
    """1 minus the OLS slope of predicted mean responses on the stimuli,
    the estimator of the empirical pipeline.

    ``mean`` holds per-stimulus means on its last axis, as returned by
    :func:`closed_form`; the result drops that axis.  Under constant noise
    the means are exactly linear in the stimulus and the index reduces to
    sigma_l^2 / (sigma_l^2 + sigma_p^2).
    """
    s = np.asarray(stimuli.lengths)
    xc = s - s.mean()
    denom = float(np.dot(xc, xc))
    if denom == 0:
        raise ValueError("degenerate regressor: all x values identical")
    # vecdot sums each row exactly as np.dot does; @ and einsum do not.
    return 1.0 - np.vecdot(xc, mean - mean.mean(axis=-1, keepdims=True)) / denom


def _ri(sigma_p, wf, stimuli, prior_mean=None, mode=NoiseMode.WEBER):
    mean = _closed_form(sigma_p, wf, stimuli, NO_MOTOR_NOISE, prior_mean, mode)[0]
    return regression_index(mean, stimuli)


def grid_values(lo: float, hi: float, step: float) -> np.ndarray:
    """Inclusive arithmetic grid, robust to floating-point step error."""
    if not np.isfinite([lo, hi, step]).all():
        raise ValueError(f"grid bounds and step must be finite, got ({lo}, {hi}, {step})")
    if step <= 0:
        raise ValueError("grid step must be > 0")
    n = int(math.floor((hi - lo) / step + 0.5)) + 1
    if n < 1:
        raise ValueError(f"empty grid ({lo}, {hi}, {step})")
    # round so accumulated step error cannot spill past hi (0.05*12 > 0.6)
    return np.round(lo + step * np.arange(n), 12)


def error_curve(
    prior_sd: float,
    wf_grid: Sequence[float],
    stimuli: StimulusSet = DEFAULT_STIMULI,
    motor: MotorNoiseSpec = MotorNoiseSpec(1.2),
):
    """(wf, bias, cv) along a Weber-fraction sweep at fixed prior width."""
    if len(wf_grid) == 0:
        raise ValueError("wf_grid must be nonempty")
    wf = np.asarray(wf_grid, dtype=float)
    bias, cv = normalized_errors(*closed_form(prior_sd, wf, stimuli, motor),
                                 stimuli, motor)
    return list(zip(wf.tolist(), bias.tolist(), cv.tolist()))


def ri_curve(
    prior_sd: float,
    wf_grid: Sequence[float],
    stimuli: StimulusSet = DEFAULT_STIMULI,
):
    """(wf, regression index) along a Weber-fraction sweep."""
    if len(wf_grid) == 0:
        raise ValueError("wf_grid must be nonempty")
    wf = np.asarray(wf_grid, dtype=float)
    mean = closed_form(prior_sd, wf, stimuli)[0]
    return list(zip(wf.tolist(), regression_index(mean, stimuli).tolist()))


def _bisect(root_above, lo, hi):
    """Elementwise bisection at geometric midpoints; ``root_above(x)`` says
    where each root lies.  Each element stops once hi - lo <= 1e-15 * hi, or
    after 200 steps, while the others go on.  Returns the final midpoints."""
    active = True
    for _ in range(200):
        m = np.sqrt(lo * hi)
        up = root_above(m)
        lo = np.where(active & up, m, lo)
        hi = np.where(active & ~up, m, hi)
        active = active & ~(hi - lo <= 1e-15 * hi)
        if not np.any(active):
            break
    return np.sqrt(lo * hi)


# Ratios r = magnitude / sigma_p that _ratio_for_ri searches: wf / sigma_p
# (1/cm) under Weber noise, sigma_l / sigma_p under constant noise.
_RATIO_BRACKET = (1e-12, 1e12)


def _ratio_for_ri(target_ri, stimuli, prior_mean, mode):
    """The ratio r = magnitude / sigma_p at which the index reaches each
    target.  The fusion weight is 1 / (1 + r^2 s^2) under Weber noise and
    1 / (1 + r^2) under constant noise, so the index depends on r alone, for
    any prior mean; it is evaluated at sigma_p = 1 and magnitude = r."""
    mean = stimuli.mean_stimulus if prior_mean is None else prior_mean
    GaussianBelief(mean, 1.0)  # rejects what the probe's prior would reject
    return _bisect(lambda r: _ri(1.0, r, stimuli, mean, mode) < target_ri,
                   *_RATIO_BRACKET)


def wf_from_ri(
    target_ri: float,
    prior_sd: float,
    stimuli: StimulusSet = DEFAULT_STIMULI,
) -> float:
    """Invert the regression index for the Weber fraction at fixed prior
    width: ``prior_sd`` times the target's ratio r = wf / sigma_p.  The
    index rises with r from 0 towards 1; the returned wf round-trips through
    :func:`regression_index` to within 1e-9."""
    if not (0 <= target_ri < 1):
        raise ValueError(f"target_ri must be in [0, 1), got {target_ri}")
    if not (prior_sd > 0):
        raise ValueError(f"prior_sd must be > 0, got {prior_sd}")
    if target_ri == 0:
        return 0.0
    ri_max = _ri(1.0, _RATIO_BRACKET[1], stimuli)
    if ri_max < target_ri:
        raise BracketError(f"target {target_ri} unreachable: achievable range is "
                           f"[0, {ri_max:.12f}) on the bracket")
    return prior_sd * float(_ratio_for_ri(target_ri, stimuli, None, NoiseMode.WEBER))


# Prior widths (cm) that sigma_p_from_ri and rmse_surface accept.
SIGMA_P_BRACKET = (1e-3, 1e3)
# wf rows that rmse_surface evaluates at a time
_SURFACE_ROWS = 32


def _sigma_p_for_ri(r, magnitude, bracket):
    """Elementwise :func:`sigma_p_from_ri` from the target's ratio ``r``:
    magnitude / r, NaN where that lies off ``bracket``."""
    lo, hi = bracket
    sp = magnitude / r
    return np.where((lo <= sp) & (sp <= hi), sp, np.nan)


def sigma_p_from_ri(
    target_ri: float,
    noise: NoiseModel,
    stimuli: StimulusSet = DEFAULT_STIMULI,
    prior_mean: float | None = None,
    bracket=SIGMA_P_BRACKET,
) -> float:
    """Invert the regression index for the prior width at fixed noise: the
    noise magnitude over the target's ratio r = magnitude / sigma_p, if that
    width lies on ``bracket`` (cm).  For a prior mean off the stimuli's mean
    the index need not be monotone in sigma_p, and a target reached only
    between the bracket ends may not be found."""
    for b in bracket:
        _check_nonnegative("sd", b)
    r = _ratio_for_ri(target_ri, stimuli, prior_mean, noise.mode)
    sp = _sigma_p_for_ri(r, noise.magnitude, bracket)
    if np.isnan(sp):
        ri_lo, ri_hi = (_ri(b, noise.magnitude, stimuli, prior_mean, noise.mode)
                        for b in bracket)
        raise BracketError(
            f"target {target_ri} not found on the bracket: the index is {ri_lo:.12f} "
            f"at sigma_p {bracket[0]:g} and {ri_hi:.12f} at sigma_p {bracket[1]:g}; "
            "for a prior mean off the stimuli's mean it need not be monotone in sigma_p")
    return float(sp)


def rmse_surface(
    wf_grid: Sequence[float],
    ri_grid: Sequence[float],
    stimuli: StimulusSet = DEFAULT_STIMULI,
    motor: MotorNoiseSpec = MotorNoiseSpec(1.2),
    prior_mean: float | None = None,
) -> np.ndarray:
    """Normalized RMSE over a (wf, ri) grid; shape (len(wf), len(ri)).

    Each ri is inverted once for its ratio r = wf / sigma_p; each cell takes
    the prior width wf / r, as :func:`sigma_p_from_ri` does, and its
    normalized rmse, and each wf-slice is divided by its own minimum, so
    every defined cell is >= 1 and each slice attains 1.  Cells whose width
    lies off ``SIGMA_P_BRACKET`` (e.g. ri > 0 with wf = 0) are NaN.
    """
    if len(wf_grid) == 0 or len(ri_grid) == 0:
        raise ValueError("grids must be nonempty")
    if any(not (0 <= r < 1) for r in ri_grid):
        raise ValueError("ri_grid values must lie in [0, 1)")
    _check_noise(NoiseMode.WEBER, wf_grid)
    wf = np.asarray(wf_grid, dtype=float)[:, None]
    ri = np.asarray(ri_grid, dtype=float)
    r = _ratio_for_ri(ri, stimuli, prior_mean, NoiseMode.WEBER)
    # Each wf row is normalized on its own, so blocks of rows give the same
    # bits, and they bound the forward kernel's temporaries: 32 rows of the
    # default grid are 53 KB an array, where all 121 are 200 KB.
    rows = _SURFACE_ROWS
    return np.concatenate([_surface_rows(wf[i:i + rows], ri, r, stimuli, motor, prior_mean)
                           for i in range(0, len(wf), rows)])


def _surface_rows(wf, ri, r, stimuli, motor, prior_mean):
    """:func:`rmse_surface` of a column of wf values, from each ri's ratio r."""
    sp = _sigma_p_for_ri(r, wf, SIGMA_P_BRACKET)
    # Prior width is unidentified at wf=0, where only ri=0 is reachable;
    # rmse is motor-only there and independent of it.
    sp = np.where(wf == 0, np.where(ri == 0, 1.0, np.nan), sp)
    defined = ~np.isnan(sp)
    mean, sd = _closed_form(
        sp[defined], np.broadcast_to(wf, sp.shape)[defined], stimuli, motor,
        prior_mean, NoiseMode.WEBER,
    )
    bias, cv = normalized_errors(mean, sd, stimuli, motor)
    out = np.full(sp.shape, np.nan)
    # math.hypot, as the pipeline's rmse; np.hypot rounds differently for
    # ~0.6 % of inputs.
    out[defined] = [math.hypot(b, c) for b, c in zip(bias.tolist(), cv.tolist())]
    lo = np.fmin.reduce(out, axis=1, keepdims=True)  # NaN only for all-NaN rows
    with np.errstate(divide="ignore", invalid="ignore"):
        # a zero-minimum slice (no noise at all) still attains 1
        zero_lo = np.where(out == lo, 1.0, np.where(np.isnan(out), np.nan, np.inf))
        return np.where(lo > 0, out / lo, zero_lo)

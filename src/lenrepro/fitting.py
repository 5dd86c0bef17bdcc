"""Grid-search recovery of a shared prior width and per-condition Weber
fractions from observed (bias, cv) pairs or regression indices.

The search is an exhaustive least-squares scan: for each candidate prior
width, each condition picks the Weber fraction minimizing its own squared
residual; the prior width minimizing the summed residual wins, ties going
to the smaller width.  Fully deterministic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

import numpy as np

from .model import (
    MotorCombination,
    MotorNoiseSpec,
    NoiseMode,
    StimulusSet,
    _check_noise,
    _check_nonnegative,
    _closed_form,
    _warn,
    grid_values,
    normalized_errors,
    regression_index,
)
from .stats import _gamma_ratio


class Objective(Enum):
    BIAS_CV = "biascv"
    RI = "ri"


@dataclass(frozen=True)
class FitConfig:
    """Grid ranges are (min, max, step) inclusive.

    ``trials_per_stimulus``, when set, switches the model table from the
    asymptotic closed forms to the expected value of the empirical
    estimators at that group size (folded-normal mean for the per-stimulus
    bias, small-sample-deflated population sd for the CV).  Use it when the
    observations come from few repetitions per stimulus; with 6 reps the
    raw estimators are biased enough to derail the fit.  Either table is
    built in blocks of sigma_p rows, so a longer sigma_p grid costs time,
    not peak memory.
    """

    sigma_p_grid: tuple = (0.1, 5.0, 0.05)
    wf_grid: tuple = (0.0, 0.6, 0.005)
    motor: MotorNoiseSpec = MotorNoiseSpec(1.2, MotorCombination.LINEAR_CV)
    objective: Objective = Objective.BIAS_CV
    trials_per_stimulus: int | None = None


@dataclass(frozen=True)
class ObservedErrors:
    """Observed per-condition summaries; leave unused fields as None."""

    bias: float | None = None
    cv: float | None = None
    ri: float | None = None


@dataclass(frozen=True)
class FitResult:
    shared_sigma_p: float
    per_condition_wf: Mapping
    residual: float
    per_condition_residual: Mapping
    per_condition_predicted: Mapping  # label -> (bias, cv, ri)
    residual_landscape: tuple         # of (sigma_p, total_residual)


@dataclass(frozen=True)
class GoodnessReport:
    per_condition_residual: Mapping
    total_residual: float
    equal_wf_sigma_p: float
    equal_wf: float
    equal_wf_residual: float


def _erf(z):
    """math.erf elementwise (numpy has no erf)."""
    z = np.asarray(z, dtype=float)
    return np.fromiter(map(math.erf, z.ravel().tolist()), float, z.size).reshape(z.shape)


def _sd_deflation(n: int) -> float:
    """E[population sd] / true sd for n normal samples."""
    return math.sqrt(2.0 / n) * _gamma_ratio(n)


def _folded_mean(b, s):
    """E|X| for X ~ N(b, s), elementwise: what |group mean - stimulus| estimates.

    Its second term is b (1 - 2 Phi(-b/s)) = b erf(b / (s sqrt 2)).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        folded = s * math.sqrt(2.0 / math.pi) * np.exp(-b * b / (2 * s * s)) \
            + b * _erf(b / (s * math.sqrt(2.0)))
    return np.where(s == 0, np.abs(b), folded)


def _finite_sample_errors(mean, sd, stimuli: StimulusSet, motor: MotorNoiseSpec,
                          n: int):
    """Expected (bias, cv) of the empirical estimators at ``n`` trials per
    stimulus, from per-stimulus means and sds on the last axis, which the
    results drop.

    The per-stimulus bias estimator is the absolute value of a noisy group
    mean, so its expectation is a folded-normal mean; the CV estimator is a
    population sd, deflated by the normal small-sample factor.  The folding
    sd always carries the full response variability (sensory + motor in
    quadrature) because motor noise is in the responses regardless of how
    the CV combination is configured.
    """
    if n < 2:
        raise ValueError("trials_per_stimulus must be >= 2")
    s = np.asarray(stimuli.lengths)
    s_bar = stimuli.mean_stimulus
    linear = motor.combination is MotorCombination.LINEAR_CV
    full_sd = np.sqrt(sd**2 + motor.sd_cm**2) if linear else sd
    bias = np.mean(_folded_mean(mean - s, full_sd / math.sqrt(n)), axis=-1) / s_bar
    cv = np.mean(sd, axis=-1) * _sd_deflation(n) / s_bar
    return bias, (cv + motor.sd_cm / s_bar if linear else cv)


# sigma_p rows that _model_table evaluates at a time
_TABLE_ROWS = 8


def _model_table(sigma_ps: np.ndarray, wfs: np.ndarray, stimuli: StimulusSet,
                 cfg: FitConfig):
    """Model (bias, cv, ri) on the whole grid, each of shape (sigma_p, wf).

    The grids are checked once, as ``model.closed_form`` checks them.  Each
    cell is elementwise work plus reductions over the stimuli, so blocks of
    ``_TABLE_ROWS`` sigma_p rows give the same bits, and the peak no longer
    grows with the sigma_p grid."""
    _check_nonnegative("sd", sigma_ps)
    _check_noise(NoiseMode.WEBER, wfs)
    n, blocks = cfg.trials_per_stimulus, []
    for i in range(0, sigma_ps.size, _TABLE_ROWS):
        mean, sd = _closed_form(sigma_ps[i:i + _TABLE_ROWS, None], wfs, stimuli,
                                cfg.motor, None, NoiseMode.WEBER)
        bias, cv = (normalized_errors(mean, sd, stimuli, cfg.motor) if n is None
                    else _finite_sample_errors(mean, sd, stimuli, cfg.motor, n))
        blocks.append((bias, cv, regression_index(mean, stimuli)))
    return tuple(np.concatenate(column) for column in zip(*blocks))


def _condition_residuals(observed: ObservedErrors, bias, cv, ri,
                         objective: Objective) -> np.ndarray:
    if objective is Objective.BIAS_CV:
        if observed.bias is None or observed.cv is None:
            raise ValueError("BIAS_CV objective needs observed bias and cv")
        return (bias - observed.bias) ** 2 + (cv - observed.cv) ** 2
    if observed.ri is None:
        raise ValueError("RI objective needs an observed regression index")
    return (ri - observed.ri) ** 2


def _warn_on_grid_edge(name: str, grid: np.ndarray, k: int) -> None:
    """Warn when the fitted value ``grid[k]`` is the first or last value of
    a grid with more than one value: the best fit may lie beyond it."""
    if grid.size > 1 and k in (0, grid.size - 1):
        edge = "lower" if k == 0 else "upper"
        _warn(f"fitted {name} = {grid[k]:.6f} lies on the {edge} edge of its grid "
              f"[{grid[0]:.6f}, {grid[-1]:.6f}]")


def _grid_residuals(observed: Mapping[str, ObservedErrors], stimuli: StimulusSet,
                    cfg: FitConfig):
    """The sigma_p and wf grids, the model (bias, cv, ri) table on them, and
    each condition's squared residual on the table, in observation order."""
    sigma_ps = grid_values(*cfg.sigma_p_grid)
    wfs = grid_values(*cfg.wf_grid)
    table = _model_table(sigma_ps, wfs, stimuli, cfg)
    residuals = {label: _condition_residuals(obs, *table, cfg.objective)
                 for label, obs in observed.items()}
    return sigma_ps, wfs, table, residuals


def _check_observed(observed: Mapping[str, ObservedErrors],
                    objective: Objective) -> None:
    """Reject empty or non-finite observations; warn when the objective has
    no more observations than free parameters, as ``ri`` always has."""
    if not observed:
        raise ValueError("need at least one condition")
    for label, obs in observed.items():
        for v in (obs.bias, obs.cv, obs.ri):
            if v is not None and not math.isfinite(v):
                raise ValueError(f"non-finite observation for condition {label}")
    n_obs = (2 if objective is Objective.BIAS_CV else 1) * len(observed)
    n_free = len(observed) + 1
    if n_obs <= n_free:
        _warn(f"the {objective.value!r} objective fits {n_obs} "
              f"observation{'s' if n_obs > 1 else ''} with "
              f"{n_free} free parameters (a shared sigma_p and one wf per "
              "condition), so the data cannot identify them all")


def _free_fit(sigma_ps, wfs, table, residuals) -> FitResult:
    # Each condition picks its best wf at every sigma_p; argmin breaks ties
    # to the smaller wf, and then to the smaller sigma_p.
    rows = np.arange(sigma_ps.size)
    total = np.zeros(sigma_ps.size)
    best = {}
    for label, r in residuals.items():
        k = np.argmin(r, axis=1)
        best[label] = (k, r[rows, k])
        total += best[label][1]
    i = int(np.argmin(total))
    picks = {label: int(k[i]) for label, (k, _) in best.items()}
    _warn_on_grid_edge("sigma_p", sigma_ps, i)
    for label, k in picks.items():
        _warn_on_grid_edge(f"wf of condition {label!r}", wfs, k)
    bias, cv, ri = table
    return FitResult(
        shared_sigma_p=float(sigma_ps[i]),
        per_condition_wf={label: float(wfs[k]) for label, k in picks.items()},
        residual=float(total[i]),
        per_condition_residual={label: float(r[i]) for label, (_, r) in best.items()},
        # the fitted cell's own values, finite-sample ones included
        per_condition_predicted={
            label: (float(bias[i, k]), float(cv[i, k]), float(ri[i, k]))
            for label, k in picks.items()
        },
        residual_landscape=tuple(zip(sigma_ps.tolist(), total.tolist())),
    )


def _equal_wf_fit(result: FitResult, sigma_ps, wfs, residuals) -> GoodnessReport:
    total = sum(residuals.values())
    # row-major argmin: ties go to the smaller sigma_p, then the smaller wf
    i, k = np.unravel_index(np.argmin(total), total.shape)
    _warn_on_grid_edge("equal-wf sigma_p", sigma_ps, i)
    _warn_on_grid_edge("equal wf", wfs, k)
    return GoodnessReport(
        per_condition_residual=dict(result.per_condition_residual),
        total_residual=result.residual,
        equal_wf_sigma_p=float(sigma_ps[i]),
        equal_wf=float(wfs[k]),
        equal_wf_residual=float(total[i, k]),
    )


def fit_shared_prior(
    observed: Mapping[str, ObservedErrors],
    stimuli: StimulusSet,
    cfg: FitConfig = FitConfig(),
) -> FitResult:
    """Exhaustive grid fit of one shared prior width + per-condition WFs.

    Warns when the fitted sigma_p or a condition's wf lies on the first or
    last value of its grid, and when the objective has no more observations
    than free parameters.
    """
    _check_observed(observed, cfg.objective)
    return _free_fit(*_grid_residuals(observed, stimuli, cfg))


def goodness_of_fit(
    result: FitResult,
    observed: Mapping[str, ObservedErrors],
    stimuli: StimulusSet,
    cfg: FitConfig = FitConfig(),
) -> GoodnessReport:
    """Per-condition residuals plus the constrained equal-WF comparison.

    The constrained fit forces a single Weber fraction across conditions;
    its residual can never beat the unconstrained fit (nested models).
    Warns when its sigma_p or wf lies on the first or last value of a grid.
    """
    if set(observed) != set(result.per_condition_wf):
        raise ValueError(
            f"condition labels mismatch: {sorted(observed)} vs "
            f"{sorted(result.per_condition_wf)}"
        )
    sigma_ps, wfs, _, residuals = _grid_residuals(observed, stimuli, cfg)
    return _equal_wf_fit(result, sigma_ps, wfs, residuals)


def _fit_with_goodness(
    observed: Mapping[str, ObservedErrors],
    stimuli: StimulusSet,
    cfg: FitConfig = FitConfig(),
) -> tuple[FitResult, GoodnessReport]:
    """:func:`fit_shared_prior` and then :func:`goodness_of_fit`, with the
    same results and warnings, from one model table."""
    _check_observed(observed, cfg.objective)
    sigma_ps, wfs, table, residuals = _grid_residuals(observed, stimuli, cfg)
    result = _free_fit(sigma_ps, wfs, table, residuals)
    return result, _equal_wf_fit(result, sigma_ps, wfs, residuals)


def render_fit_report(result: FitResult, goodness: GoodnessReport) -> str:
    f = "{:.6f}".format
    lines = ["# shared-prior fit", ""]
    lines.append(f"shared_sigma_p_cm: {f(result.shared_sigma_p)}")
    lines.append(f"total_residual: {f(result.residual)}")
    for label in sorted(result.per_condition_wf):
        b, c, ri = result.per_condition_predicted[label]
        lines.append(
            f"{label}: wf={f(result.per_condition_wf[label])} "
            f"residual={f(result.per_condition_residual[label])} "
            f"pred_bias={f(b)} pred_cv={f(c)} pred_ri={f(ri)}"
        )
    lines += ["", "## equal-wf constrained fit",
              f"sigma_p_cm: {f(goodness.equal_wf_sigma_p)}",
              f"wf: {f(goodness.equal_wf)}",
              f"residual: {f(goodness.equal_wf_residual)}", ""]
    return "\n".join(lines)

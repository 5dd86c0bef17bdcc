"""Seeded trial-schedule generation and synthetic observer simulation.

Randomness contract: all sampling uses numpy's PCG64 generator; per
(participant, condition) substreams are derived with SeedSequence from
(master_seed, participant_index, condition_index), so cohort output is
independent of evaluation order.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .model import NoiseModel, fusion_weight, sigma_l_at
from .records import Trials


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ScheduleConfig:
    """Session layout: 11 lengths 6..14 cm, 6 reps, 3 practice trials."""

    num_lengths: int = 11
    min_length: float = 6.0
    step: float = 0.8
    reps: int = 6
    practice: int = 3
    first_dot_range: tuple = (0.5, 3.5)
    seed: int = 0

    def __post_init__(self):
        if self.num_lengths < 2:
            raise ConfigError("num_lengths must be >= 2")
        if self.reps < 1:
            raise ConfigError("reps must be >= 1")
        if self.step <= 0:
            raise ConfigError("step must be > 0")
        if self.practice < 0:
            raise ConfigError("practice must be >= 0")
        lo, hi = self.first_dot_range
        if not (lo <= hi):
            raise ConfigError("first_dot_range must be (lo, hi) with lo <= hi")
        if self.min_length <= 0:
            raise ConfigError("min_length must be > 0")

    @property
    def lengths(self) -> tuple:
        return tuple(
            self.min_length + self.step * k for k in range(self.num_lengths)
        )

    @property
    def mean_length(self) -> float:
        return self.min_length + self.step * (self.num_lengths - 1) / 2


class Trial(NamedTuple):
    """One scheduled trial."""

    index: int
    nominal_length: float
    first_dot_offset: float
    is_practice: bool


@dataclass(frozen=True)
class ObserverParams:
    """Generative observer: sensory noise, session prior, motor noise."""

    noise: NoiseModel
    prior_mean: float
    prior_sd: float
    motor_sd: float = 0.0
    response_floor: float = 0.0

    def __post_init__(self):
        if self.noise.magnitude > 0 and not (self.prior_sd > 0):
            raise ConfigError("prior_sd must be > 0 when sensory noise is nonzero")
        if self.prior_sd < 0 or self.motor_sd < 0:
            raise ConfigError("prior_sd and motor_sd must be >= 0")


@dataclass(frozen=True)
class DemonstratorNoise:
    """Gaussian imprecision of the presented stimulus around its nominal."""

    sd: float = 0.0

    def __post_init__(self):
        if self.sd < 0:
            raise ConfigError("demonstrator sd must be >= 0")


def _schedule_columns(cfg: ScheduleConfig) -> tuple:
    """The seeded schedule as columns: index, nominal length, first-dot
    offset and practice flag."""
    rng = np.random.default_rng(cfg.seed)
    lengths = cfg.lengths
    main = np.repeat(lengths, cfg.reps)
    rng.shuffle(main)
    practice = rng.choice(lengths, size=cfg.practice, replace=True)
    lo, hi = cfg.first_dot_range
    n_total = cfg.practice + main.size
    offsets = rng.uniform(lo, hi, size=n_total)
    index = np.arange(n_total)
    return index, np.concatenate([practice, main]), offsets, index < cfg.practice


def generate_schedule(cfg: ScheduleConfig) -> list:
    """Seeded schedule: practice trials first, then a uniform shuffle of
    each length repeated ``reps`` times; first-dot offsets uniform in range.
    """
    return list(map(Trial, *(column.tolist() for column in _schedule_columns(cfg))))


def _observe(index, nominal, is_practice, obs: ObserverParams,
             demo: DemonstratorNoise, seed) -> tuple:
    """Index, nominal, actual and response columns of the main trials of a
    schedule given as columns."""
    rng = np.random.default_rng(seed)
    main = ~is_practice
    nominal = nominal[main]
    n = nominal.size
    actual = nominal + rng.normal(0.0, 1.0, n) * demo.sd
    actual = np.maximum(actual, 1e-9)
    sig_l = sigma_l_at(obs.noise, actual)
    m = actual + rng.normal(0.0, 1.0, n) * sig_l
    w = fusion_weight(sig_l, obs.prior_sd)
    estimate = w * m + (1.0 - w) * obs.prior_mean
    response = estimate + rng.normal(0.0, 1.0, n) * obs.motor_sd
    response = np.maximum(response, obs.response_floor)
    return index[main], nominal, actual, response


def simulate_observer(
    schedule: Sequence[Trial],
    obs: ObserverParams,
    demo: DemonstratorNoise = DemonstratorNoise(),
    seed=0,
    participant_id: str = "p01",
    condition: str = "individual",
) -> Trials:
    """Simulate one session; practice trials are skipped.

    Per trial: actual = nominal + demo noise; a noisy measurement of the
    actual length is fused with the prior (weight evaluated at the actual
    length); motor noise is added to the fused estimate and the response
    is clamped at the floor.
    """
    index, nominal, _, is_practice = list(zip(*schedule)) or [()] * 4
    columns = _observe(
        np.array(index, dtype=np.int64), np.array(nominal),
        np.array(is_practice, dtype=bool), obs, demo, seed,
    )
    n = columns[0].size
    return Trials(np.full(n, participant_id), np.full(n, condition), *columns)


def _session_seed(master_seed: int, p_idx: int, c_idx: int, stream: int) -> int:
    ss = np.random.SeedSequence([master_seed, p_idx, c_idx, stream])
    return int(ss.generate_state(1)[0])


def simulate_cohort(
    n_participants: int,
    condition_params: Mapping[str, ObserverParams],
    cfg: ScheduleConfig = ScheduleConfig(),
    demo: DemonstratorNoise = DemonstratorNoise(),
    master_seed: int = 0,
    workers: int = 1,
) -> Trials:
    """Simulate a cohort, one session per (participant, condition).

    ``condition_params`` maps condition label -> ObserverParams; condition
    index follows insertion order.  Accepts a sequence of (label, params)
    pairs too, in which case duplicate labels are rejected.  An empty label
    is rejected either way.  ``workers`` is ignored: sessions are bound by
    the interpreter lock, so they run serially.
    """
    if n_participants < 1:
        raise ConfigError("n_participants must be >= 1")
    if not isinstance(condition_params, Mapping):
        pairs = list(condition_params)
        labels = [label for label, _ in pairs]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"duplicate condition labels in {labels}")
        condition_params = dict(pairs)
    if not condition_params:
        raise ConfigError("need at least one condition")
    if "" in condition_params:
        raise ConfigError("empty condition label")

    # every session has the same main trials, so each fills the next n rows
    # of one table, which is checked once and adopts the columns it is given
    n, n_conditions = cfg.num_lengths * cfg.reps, len(condition_params)
    size = n_participants * n_conditions * n
    columns = (np.empty(size, np.int64), np.empty(size), np.empty(size), np.empty(size))
    for p_idx in range(n_participants):
        for c_idx, params in enumerate(condition_params.values()):
            index, nominal, _, is_practice = _schedule_columns(dataclasses.replace(
                cfg, seed=_session_seed(master_seed, p_idx, c_idx, 0)
            ))
            observed = _observe(index, nominal, is_practice, params, demo,
                                seed=_session_seed(master_seed, p_idx, c_idx, 1))
            start = (p_idx * n_conditions + c_idx) * n
            for column, values in zip(columns, observed):
                column[start:start + n] = values
    width = max(2, len(str(n_participants)))
    pids = np.array([f"p{p + 1:0{width}d}" for p in range(n_participants)])
    labels = np.array(list(condition_params))
    columns = (np.repeat(pids, n_conditions * n),
               np.repeat(np.tile(labels, n_participants), n), *columns)
    for column in columns:
        column.flags.writeable = False  # so the table adopts it
    return Trials(*columns)

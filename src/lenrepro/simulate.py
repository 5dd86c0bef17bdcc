"""Seeded trial-schedule generation and synthetic observer simulation.

Randomness contract: all sampling uses numpy's PCG64 generator; per
(participant, condition) substreams are derived with SeedSequence from
(master_seed, participant_index, condition_index), so cohort output is
independent of evaluation order.
"""
from __future__ import annotations

import itertools
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


def _observe(nominal, actual, sensory, response, obs: ObserverParams,
             demo: DemonstratorNoise) -> None:
    """The observer arithmetic, in place over arrays of one shape: the
    standard normal draws held in ``actual``, ``sensory`` and ``response``
    become the presented length, the measurement and the response."""
    actual *= demo.sd
    actual += nominal
    np.maximum(actual, 1e-9, out=actual)
    sig_l = sigma_l_at(obs.noise, actual)
    sensory *= sig_l
    sensory += actual
    w = fusion_weight(sig_l, obs.prior_sd)
    estimate = w * sensory + (1.0 - w) * obs.prior_mean
    response *= obs.motor_sd
    response += estimate
    np.maximum(response, obs.response_floor, out=response)


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
    main = ~np.array(is_practice, dtype=bool)
    nominal = np.array(nominal)[main]
    n, rng = nominal.size, np.random.default_rng(seed)
    actual, sensory, response = (rng.standard_normal(n) for _ in range(3))
    _observe(nominal, actual, sensory, response, obs, demo)
    return Trials(np.full(n, participant_id), np.full(n, condition),
                  np.array(index, dtype=np.int64)[main], nominal, actual, response)


_BLOCK_ROWS = 1 << 12  # rows of the table whose sensory draws are held at a time


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
    is rejected either way.  ``workers`` is ignored.

    Substream contract: session (p, c) draws from two generators, seeded
    by ``_session_seed(master_seed, p, c, 0)`` for its schedule and
    ``(..., 1)`` for its observer, so every session equals
    :func:`simulate_observer` of :func:`generate_schedule` under those
    seeds, bit for bit and in any order.  The schedule generator's first
    draw shuffles the main trials; its later draws pick the practice
    lengths and the first-dot offsets, which the table does not hold, so
    they are not made.  The observer generator draws the demonstrator,
    sensory and motor noise, one standard normal per main trial each.
    The arithmetic then runs once per condition over a block of
    participants.
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
    index, nominal, actual, response = (np.empty(size, np.int64), np.empty(size),
                                        np.empty(size), np.empty(size))
    index.reshape(-1, n)[:] = np.arange(cfg.practice, cfg.practice + n)
    lengths = np.repeat(cfg.lengths, cfg.reps)
    shape = (n_participants, n_conditions, n)
    nominals, actuals, responses = (c.reshape(shape) for c in (nominal, actual, response))
    block = max(1, _BLOCK_ROWS // (n_conditions * n))  # participants at a time
    sensory = np.empty((block, n_conditions, n))
    for first in range(0, n_participants, block):
        rows = slice(first, min(first + block, n_participants))
        for p_idx, c_idx in itertools.product(range(rows.start, rows.stop),
                                              range(n_conditions)):
            nominals[p_idx, c_idx] = lengths
            np.random.default_rng(_session_seed(master_seed, p_idx, c_idx, 0)).shuffle(
                nominals[p_idx, c_idx])
            rng = np.random.default_rng(_session_seed(master_seed, p_idx, c_idx, 1))
            for out in (actuals[p_idx, c_idx], sensory[p_idx - first, c_idx],
                        responses[p_idx, c_idx]):
                rng.standard_normal(out=out)
        for c_idx, params in enumerate(condition_params.values()):
            _observe(nominals[rows, c_idx], actuals[rows, c_idx],
                     sensory[:rows.stop - first, c_idx], responses[rows, c_idx], params, demo)
    width = max(2, len(str(n_participants)))
    pids = np.array([f"p{p + 1:0{width}d}" for p in range(n_participants)])
    labels = np.array(list(condition_params))
    columns = (np.repeat(pids, n_conditions * n),
               np.repeat(np.tile(labels, n_participants), n),
               index, nominal, actual, response)
    for column in columns:
        column.flags.writeable = False  # so the table adopts it
    return Trials(*columns)

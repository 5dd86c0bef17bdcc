"""Seeded trial-schedule generation and synthetic observer simulation.

Randomness contract: all sampling uses numpy's PCG64 generator; per
(participant, condition) substreams are derived with SeedSequence from
(master_seed, participant_index, condition_index), so cohort output is
independent of evaluation order.  A cohort derives the generator states of
a chunk of 64 participants' sessions in numpy's seeding arithmetic over
arrays, each equal to the state of ``default_rng(_session_seed(...))``,
simulates about 1,024 rows at a time, and ``lenrepro simulate`` streams the
cohort to its file block by block.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .model import NoiseMode, NoiseModel, fusion_weight
from .records import _BLOCK_ROWS, _UNWRITABLE, Trials


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
        for name in ("prior_mean", "prior_sd", "motor_sd", "response_floor"):
            _check_finite(name, getattr(self, name))
        if self.noise.magnitude > 0 and not (self.prior_sd > 0):
            raise ConfigError("prior_sd must be > 0 when sensory noise is nonzero")
        if self.prior_sd < 0 or self.motor_sd < 0:
            raise ConfigError("prior_sd and motor_sd must be >= 0")


@dataclass(frozen=True)
class DemonstratorNoise:
    """Gaussian imprecision of the presented stimulus around its nominal."""

    sd: float = 0.0

    def __post_init__(self):
        _check_finite("demonstrator sd", self.sd)
        if self.sd < 0:
            raise ConfigError("demonstrator sd must be >= 0")


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")


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


def _observers(params: Sequence[ObserverParams]) -> tuple:
    """The parameters of observers as (observers, 1) columns, in the order
    :func:`_observe` takes them, so that they broadcast over the trials of
    each observer's session: whether the sensory noise is Weber, its
    magnitude, the prior mean and sd, the motor sd and the response floor."""
    rows = [(o.noise.mode is NoiseMode.WEBER, o.noise.magnitude, o.prior_mean, o.prior_sd,
             o.motor_sd, o.response_floor) for o in params]
    weber, *values = zip(*rows)
    return (np.array(weber)[:, None], *(np.array(v, float)[:, None] for v in values))


def _observe(nominal, actual, sensory, response, observers: tuple,
             demo: DemonstratorNoise) -> None:
    """The observer arithmetic, in place over arrays of one shape whose
    next-to-last axis runs over the ``observers`` (see :func:`_observers`):
    the standard normal draws held in ``actual``, ``sensory`` and
    ``response`` become the presented length, the measurement and the
    response.  Each element takes the operations that its observer's
    scalar parameters would give it."""
    weber, magnitude, prior_mean, prior_sd, motor_sd, floor = observers
    actual *= demo.sd
    actual += nominal
    np.maximum(actual, 1e-9, out=actual)
    sig_l = np.where(weber, actual, 1.0) * magnitude  # model.sigma_l_at, per observer
    sensory *= sig_l
    sensory += actual
    w = fusion_weight(sig_l, prior_sd)
    estimate = w * sensory + (1.0 - w) * prior_mean
    response *= motor_sd
    response += estimate
    np.maximum(response, floor, out=response)


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
    n = nominal.size
    draws = np.random.default_rng(seed).standard_normal((3, 1, n))
    _observe(nominal, *draws, _observers([obs]), demo)
    return Trials(np.full(n, participant_id), np.full(n, condition),
                  np.array(index, dtype=np.int64)[main], nominal, draws[0, 0], draws[2, 0])


_SEED_CHUNK = 64  # participants whose generator states are hashed at a time


def _session_seed(master_seed: int, p_idx: int, c_idx: int, stream: int) -> int:
    ss = np.random.SeedSequence([master_seed, p_idx, c_idx, stream])
    return int(ss.generate_state(1)[0])


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and PCG64's
# multiplier; NEP 19 pins the stream a given seed yields
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(n: int) -> list:
    """The 32-bit words of a nonnegative int, low first, as SeedSequence
    splits an int of entropy."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _seed_sequence(entropy: list, n_words: int) -> list:
    """``SeedSequence(entropy).generate_state(n_words)`` for many seeds at
    once: each entry of ``entropy`` is a uint32 array with one lane per
    seed, and so is each returned word."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ value >> np.uint32(16)

    def mix(x, y):
        result = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return result ^ result >> np.uint32(16)

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(4)]
    for i_src, i_dst in itertools.permutations(range(4), 2):
        pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[4:]:
        for i_dst in range(4):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    hash_const, state = _INIT_B, []
    for i in range(n_words):
        value = pool[i % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state.append(value ^ value >> np.uint32(16))
    return state


def _pcg64_states(seeds: np.ndarray) -> Iterator[tuple]:
    """The (state, inc) pair that ``PCG64(seed)``, and so
    ``default_rng(seed)``, starts from, for each uint32 seed in turn: the
    seed's SeedSequence gives a 128-bit initial state and sequence, and
    PCG64's ``srandom`` steps them in."""
    words = np.array(_seed_sequence([seeds], 8), np.uint64)
    halves = words[0::2] | words[1::2] << np.uint64(32)  # state and inc, high half first
    for start in range(0, seeds.size, 64):  # as Python ints 64 seeds at a time
        for s_hi, s_lo, i_hi, i_lo in zip(*halves[:, start:start + 64].tolist()):
            inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
            yield ((((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc) & _MASK128, inc)


class _Cohort:
    """A validated cohort, simulated a block of participants at a time."""

    def __init__(self, n_participants, condition_params, cfg, demo, master_seed):
        if n_participants < 1:
            raise ConfigError("n_participants must be >= 1")
        if n_participants > 1 << 32:  # a participant index is one seed word
            raise ConfigError("n_participants must be <= 2**32")
        if not isinstance(master_seed, (int, np.integer)) or master_seed < 0:
            raise ConfigError(f"master_seed must be a non-negative integer, got {master_seed!r}")
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
        for label in condition_params:
            if not _UNWRITABLE.isdisjoint(label):
                raise ConfigError(f"condition label {label!r} holds a comma, a double quote, "
                                  "CR or LF, which the trial CSV cannot hold")
        self.n, self.demo = n_participants, demo
        self.observers = _observers(list(condition_params.values()))
        self.labels = np.array(list(condition_params))
        self.lengths = np.repeat(cfg.lengths, cfg.reps)  # the main trials, unshuffled
        self.trial_index = np.arange(cfg.practice, cfg.practice + self.lengths.size)
        self.block = max(1, _BLOCK_ROWS // (len(self.labels) * self.lengths.size))
        self.master_words = _words(int(master_seed))
        self.width = max(2, len(str(n_participants)))
        self.rng = np.random.Generator(np.random.PCG64(0))  # set to each session's state
        self.states = self._states()

    def _states(self) -> Iterator[tuple]:
        """The PCG64 (state, inc) pairs of every session's two generators,
        in (participant, condition, stream) order.  Both passes of the
        seeding arithmetic run over ``_SEED_CHUNK`` participants at a time,
        when their first state is taken."""
        for first in range(0, self.n, _SEED_CHUNK):
            lanes = np.indices((min(_SEED_CHUNK, self.n - first), len(self.labels), 2),
                               np.uint32).reshape(3, -1)
            lanes[0] += np.uint32(first)
            entropy = [np.full(lanes.shape[1], w, np.uint32) for w in self.master_words]
            yield from _pcg64_states(_seed_sequence(entropy + list(lanes), 1)[0])

    def fill(self, nominal, actual, response, draws) -> None:
        """Simulate the next participants into the (participants,
        conditions, trials) arrays given, through ``draws``, scratch of
        shape (participants, conditions, 3, trials)."""
        n_block, n_conditions = nominal.shape[:2]
        state = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
        bit_generator, shuffle, normal = (self.rng.bit_generator, self.rng.shuffle,
                                          self.rng.standard_normal)
        for p, c in itertools.product(range(n_block), range(n_conditions)):
            nominal[p, c] = self.lengths
            state["state"]["state"], state["state"]["inc"] = next(self.states)
            bit_generator.state = state
            shuffle(nominal[p, c])
            state["state"]["state"], state["state"]["inc"] = next(self.states)
            bit_generator.state = state
            normal(out=draws[p, c])  # the demonstrator, sensory and motor noise
        _observe(nominal, *draws.transpose(2, 0, 1, 3), self.observers, self.demo)
        actual[:], response[:] = draws[:, :, 0], draws[:, :, 2]

    def ids(self, first: int, stop: int) -> tuple:
        """The participant and condition columns of participants
        ``first .. stop - 1``."""
        pids = np.array([f"p{p + 1:0{self.width}d}" for p in range(first, stop)])
        rows = len(self.labels) * self.lengths.size
        return (np.repeat(pids, rows),
                np.repeat(np.tile(self.labels, stop - first), self.lengths.size))

    def table(self, first: int, stop: int) -> Trials:
        """The table of participants ``first .. stop - 1``, simulated a
        block at a time into columns that the table adopts.  Tables are
        taken in the order of the participants, from the first, since the
        sessions take their generator states in that order."""
        # every session has the same main trials, so each fills the next n
        # rows of one table, which is checked once and adopts its columns
        shape = (stop - first, len(self.labels), self.lengths.size)
        size = math.prod(shape)
        index, nominal, actual, response = (np.empty(size, np.int64), np.empty(size),
                                            np.empty(size), np.empty(size))
        index.reshape(-1, shape[2])[:] = self.trial_index
        columns = [c.reshape(shape) for c in (nominal, actual, response)]
        draws = np.empty((min(self.block, shape[0]), shape[1], 3, shape[2]))
        for start in range(0, shape[0], self.block):
            rows = [c[start:start + self.block] for c in columns]
            self.fill(*rows, draws[:len(rows[0])])
        columns = (*self.ids(first, stop), index, nominal, actual, response)
        for column in columns:
            column.flags.writeable = False  # so the table adopts it
        return Trials(*columns)


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
    is rejected either way, and so is a label holding a comma, a double
    quote, CR or LF, which the trial CSV cannot hold, and a master seed that
    is not a non-negative integer.  ``workers`` is ignored.

    Substream contract: session (p, c) draws from two generators, seeded
    by ``_session_seed(master_seed, p, c, 0)`` for its schedule and
    ``(..., 1)`` for its observer, so every session equals
    :func:`simulate_observer` of :func:`generate_schedule` under those
    seeds, bit for bit and in any order.  The schedule generator's first
    draw shuffles the main trials; its later draws pick the practice
    lengths and the first-dot offsets, which the table does not hold, so
    they are not made.  The observer generator draws the demonstrator,
    sensory and motor noise, one standard normal per main trial each.

    The sessions run a block of participants at a time, as many as fill
    1,024 rows (one at least: 5 for three conditions of 66 trials).  numpy's
    seeding arithmetic runs over arrays, both of its passes once per chunk
    of 64 participants, when the chunk's first session is simulated; it
    gives each generator state equal to that of
    ``default_rng(_session_seed(...))``.  One reused generator is set to
    each state in turn, and a session's three noise draws are one call.
    The observer arithmetic runs once per block, each condition's
    parameters broadcast over its sessions.  :func:`cohort_blocks` yields
    the same rows block by block.
    """
    return _Cohort(n_participants, condition_params, cfg, demo, master_seed).table(
        0, n_participants)


def cohort_blocks(
    n_participants: int,
    condition_params: Mapping[str, ObserverParams],
    cfg: ScheduleConfig = ScheduleConfig(),
    demo: DemonstratorNoise = DemonstratorNoise(),
    master_seed: int = 0,
) -> Iterator[Trials]:
    """The rows of :func:`simulate_cohort`, as one table per block of
    participants, made as they are taken, so the whole table is never held.
    The arguments are checked before this returns."""
    cohort = _Cohort(n_participants, condition_params, cfg, demo, master_seed)
    return (cohort.table(first, min(first + cohort.block, n_participants))
            for first in range(0, n_participants, cohort.block))

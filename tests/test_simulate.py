"""Schedule generation and synthetic observer sessions."""
import dataclasses
import itertools
import math
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import lenrepro
from lenrepro import simulate
from lenrepro.model import NoiseModel
from lenrepro.simulate import (
    ConfigError,
    DemonstratorNoise,
    ObserverParams,
    ScheduleConfig,
    Trial,
    generate_schedule,
    simulate_cohort,
    simulate_observer,
)
from lenrepro.records import Trials
from lenrepro.simulate import _session_seed


class TestScheduleConfig:
    def test_default_lengths(self):
        cfg = ScheduleConfig()
        assert len(cfg.lengths) == 11
        assert cfg.lengths[0] == 6.0
        assert cfg.lengths[-1] == pytest.approx(14.0)
        assert cfg.mean_length == pytest.approx(10.0)

    @pytest.mark.parametrize("kwargs", [
        {"num_lengths": 1},
        {"reps": 0},
        {"step": 0.0},
        {"practice": -1},
        {"first_dot_range": (3.5, 0.5)},
        {"min_length": 0.0},
    ])
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ConfigError):
            ScheduleConfig(**kwargs)


class TestGenerateSchedule:
    def test_counts_and_balance(self):
        trials = generate_schedule(ScheduleConfig(seed=42))
        assert len(trials) == 69
        practice = [t for t in trials if t.is_practice]
        main = [t for t in trials if not t.is_practice]
        assert len(practice) == 3
        assert len(main) == 66
        counts = Counter(t.nominal_length for t in main)
        assert len(counts) == 11
        assert set(counts.values()) == {6}

    def test_practice_first_and_indices_sequential(self):
        trials = generate_schedule(ScheduleConfig(seed=0))
        assert [t.index for t in trials] == list(range(69))
        assert all(t.is_practice for t in trials[:3])
        assert not any(t.is_practice for t in trials[3:])

    def test_offsets_within_range(self):
        cfg = ScheduleConfig(seed=5, first_dot_range=(0.5, 3.5))
        for t in generate_schedule(cfg):
            assert 0.5 <= t.first_dot_offset <= 3.5

    def test_deterministic_and_seed_sensitive(self):
        a = generate_schedule(ScheduleConfig(seed=7))
        b = generate_schedule(ScheduleConfig(seed=7))
        c = generate_schedule(ScheduleConfig(seed=8))
        assert a == b
        assert a != c

    def test_shuffle_actually_mixes(self):
        main = [t.nominal_length for t in generate_schedule(ScheduleConfig(seed=1))
                if not t.is_practice]
        blocked = list(np.repeat(ScheduleConfig().lengths, 6))
        assert main != blocked


def _flat_schedule(nominal: float, n: int) -> list:
    return [Trial(i, nominal, 1.0, False) for i in range(n)]


class TestSimulateObserver:
    def test_zero_noise_identity(self):
        sched = generate_schedule(ScheduleConfig(seed=3))
        obs = ObserverParams(NoiseModel.weber(0.0), 10.0, 1.5)
        recs = simulate_observer(sched, obs, seed=11)
        assert len(recs) == 66
        for r in recs:
            assert r.response == r.nominal_length
            assert r.actual_length == r.nominal_length

    def test_practice_trials_excluded(self):
        sched = generate_schedule(ScheduleConfig(seed=3))
        obs = ObserverParams(NoiseModel.weber(0.0), 10.0, 1.5)
        recs = simulate_observer(sched, obs, seed=11)
        assert min(r.trial_index for r in recs) == 3

    def test_mean_response_matches_fusion(self):
        # constant noise 1, prior (10, 2) at stimulus 6: fused mean 6.8
        sched = _flat_schedule(6.0, 100_000)
        obs = ObserverParams(NoiseModel.constant(1.0), 10.0, 2.0)
        recs = simulate_observer(sched, obs, seed=99)
        mean = float(np.mean([r.response for r in recs]))
        assert abs(mean - 6.8) < 0.02

    def test_response_sd_matches_quadrature(self):
        # weber 0.15, prior sd 1.5, motor 1.2 at s=10:
        # w = 2.25/4.5 = 0.5, sd = sqrt((0.5*1.5)^2 + 1.2^2) = sqrt(2.0025)
        sched = _flat_schedule(10.0, 100_000)
        obs = ObserverParams(NoiseModel.weber(0.15), 10.0, 1.5, motor_sd=1.2)
        recs = simulate_observer(sched, obs, seed=17)
        sd = float(np.std([r.response for r in recs]))
        assert abs(sd - math.sqrt(2.0025)) < 0.02

    def test_demonstrator_noise_moves_actuals(self):
        sched = _flat_schedule(10.0, 10_000)
        obs = ObserverParams(NoiseModel.weber(0.0), 10.0, 1.5)
        recs = simulate_observer(sched, obs, DemonstratorNoise(0.3), seed=4)
        actuals = np.array([r.actual_length for r in recs])
        assert abs(actuals.std() - 0.3) < 0.01
        assert abs(actuals.mean() - 10.0) < 0.02
        # perfect observer reproduces the actual, not the nominal
        assert all(r.response == r.actual_length for r in recs)

    def test_response_floor(self):
        sched = _flat_schedule(6.0, 5000)
        obs = ObserverParams(NoiseModel.weber(0.3), 10.0, 1.5,
                             motor_sd=6.0, response_floor=0.0)
        recs = simulate_observer(sched, obs, seed=21)
        assert min(r.response for r in recs) >= 0.0

    def test_invalid_observer_params(self):
        with pytest.raises(ConfigError):
            ObserverParams(NoiseModel.weber(0.2), 10.0, 0.0)
        with pytest.raises(ConfigError):
            ObserverParams(NoiseModel.weber(0.1), 10.0, 1.5, motor_sd=-1)
        with pytest.raises(ConfigError):
            DemonstratorNoise(-0.1)

    @pytest.mark.parametrize("field", ["prior_mean", "prior_sd", "motor_sd", "response_floor"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_named(self, field, value):
        given = dict(noise=NoiseModel.weber(0.1), prior_mean=10.0, prior_sd=1.5)
        with pytest.raises(ConfigError, match=f"^{field} must be finite, got {value}$"):
            ObserverParams(**{**given, field: value})
        with pytest.raises(ConfigError, match=f"^demonstrator sd must be finite, got {value}$"):
            DemonstratorNoise(value)


class TestSimulateCohort:
    PARAMS = {
        "individual": ObserverParams(NoiseModel.weber(0.3), 10.0, 1.5, 1.2),
        "mechanical": ObserverParams(NoiseModel.weber(0.18), 10.0, 1.5, 1.2),
        "social": ObserverParams(NoiseModel.weber(0.14), 10.0, 1.5, 1.2),
    }

    def test_shape_and_ids(self):
        recs = simulate_cohort(25, self.PARAMS, master_seed=1)
        assert len(recs) == 25 * 3 * 66
        pids = sorted({r.participant_id for r in recs})
        assert len(pids) == 25
        assert pids[0] == "p01" and pids[-1] == "p25"
        per_session = Counter((r.participant_id, r.condition) for r in recs)
        assert set(per_session.values()) == {66}

    # constant and Weber noise, a prior mean, prior sd and motor sd of its
    # own per condition, and a response floor that clamps
    MIXED = [
        ("mechanical", ObserverParams(NoiseModel.weber(0.18), 10.0, 1.5, 1.2)),
        ("a", ObserverParams(NoiseModel.constant(1.1), 7.0, 0.6, 0.4, response_floor=7.5)),
        ("social", ObserverParams(NoiseModel.weber(0.3), 12.5, 3.0, 2.0, response_floor=2.0)),
    ]

    def test_matches_per_session_reference(self, monkeypatch):
        # 101 participants fill no whole number of blocks, whether a block
        # holds 1, 5 or 16 (one condition) participants, 56 or all of them,
        # nor of seed chunks of 2, 7 or 64 participants; the chunk edges fall
        # inside blocks and the block edges inside chunks
        cfg = ScheduleConfig(num_lengths=3, reps=2)
        blocks, chunks = [1, 100, simulate._BLOCK_ROWS], [1, 2, 7, simulate._SEED_CHUNK]
        for params, demo_sd in itertools.product([self.MIXED, self.MIXED[1:2]], [0.0, 0.2]):
            demo = DemonstratorNoise(demo_sd)
            sessions = Trials.concatenate([
                simulate_observer(
                    generate_schedule(dataclasses.replace(cfg, seed=_session_seed(7, p, c, 0))),
                    obs, demo, seed=_session_seed(7, p, c, 1),
                    participant_id=f"p{p + 1:03d}", condition=label)
                for p in range(101) for c, (label, obs) in enumerate(params)
            ])
            for block_rows, chunk in itertools.product(blocks, chunks):
                monkeypatch.setattr(simulate, "_BLOCK_ROWS", block_rows)
                monkeypatch.setattr(simulate, "_SEED_CHUNK", chunk)
                recs = simulate_cohort(101, params, cfg, demo, master_seed=7)
                assert recs == sessions
                assert [c.dtype.str for c in recs.columns[:2]] == (
                    ["<U4", "<U10"] if len(params) == 3 else ["<U4", "<U1"])
                assert not any(c.flags.writeable for c in recs.columns)
                floor = recs.response[recs.condition == "a"] == 7.5
                assert 0 < floor.sum() < floor.size  # the floor clamps some responses
                assert (recs.actual_length != recs.nominal_length).any() == (demo_sd > 0)

    @pytest.mark.parametrize("master_seed", [3, 2 ** 64 + 5])
    def test_large_master_seeds_match_reference(self, master_seed):
        # a master seed of two or more words runs SeedSequence's extra mixing
        cfg = ScheduleConfig(num_lengths=3, reps=2)
        sessions = [
            simulate_observer(
                generate_schedule(dataclasses.replace(cfg, seed=_session_seed(master_seed, p, c, 0))),
                obs, seed=_session_seed(master_seed, p, c, 1),
                participant_id=f"p{p + 1:02d}", condition=label)
            for p in range(3) for c, (label, obs) in enumerate(self.MIXED)
        ]
        assert simulate_cohort(3, self.MIXED, cfg, master_seed=master_seed) == \
            Trials.concatenate(sessions)

    def test_blocks_concatenate_to_the_cohort(self, monkeypatch):
        cfg = ScheduleConfig(num_lengths=3, reps=2)
        cohort = simulate_cohort(41, self.MIXED, cfg, DemonstratorNoise(0.3), master_seed=5)
        monkeypatch.setattr(simulate, "_BLOCK_ROWS", 300)  # 16 participants of 3 x 6 trials
        for chunk in [1, 2, 7, simulate._SEED_CHUNK]:
            monkeypatch.setattr(simulate, "_SEED_CHUNK", chunk)
            blocks = list(simulate.cohort_blocks(41, self.MIXED, cfg, DemonstratorNoise(0.3), 5))
            assert [len(b) for b in blocks] == [16 * 18, 16 * 18, 9 * 18]
            assert Trials.concatenate(blocks) == cohort

    @pytest.mark.parametrize("n, params, master_seed, message", [
        (0, PARAMS, 0, "n_participants must be >= 1"),
        (2, {}, 0, "need at least one condition"),
        (2, PARAMS, -1, "master_seed must be a non-negative integer, got -1"),
        (2, PARAMS, 1.5, "master_seed must be a non-negative integer, got 1.5"),
        (2, PARAMS, "3", "master_seed must be a non-negative integer, got '3'"),
    ])
    def test_arguments_checked_before_any_draw(self, monkeypatch, n, params, master_seed,
                                               message):
        monkeypatch.setattr(simulate, "_seed_sequence", None)  # a draw would fail otherwise
        for simulate_ in (simulate_cohort, simulate.cohort_blocks):
            with pytest.raises(ConfigError, match=f"^{message}$"):
                simulate_(n, params, master_seed=master_seed)

    @pytest.mark.parametrize("label", ["a,b", 'a"b', "a\rb", "a\nb"])
    def test_labels_no_csv_can_hold_rejected(self, monkeypatch, label):
        monkeypatch.setattr(simulate, "_seed_sequence", None)  # a draw would fail otherwise
        message = (f"condition label {label!r} holds a comma, a double quote, CR or LF, "
                   "which the trial CSV cannot hold")
        params = {"solo": self.PARAMS["social"], label: self.PARAMS["social"]}
        for simulate_, given in itertools.product((simulate_cohort, simulate.cohort_blocks),
                                                  (params, list(params.items()))):
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                simulate_(2, given)

    def test_peak_memory_is_about_one_table(self):
        simulate_cohort(1, self.PARAMS)  # first-call imports are not the table's
        tracemalloc.start()
        try:
            recs = simulate_cohort(100, self.PARAMS, master_seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 1.06 measured; a column that the table copies adds 0.09
        assert peak <= 1.08 * sum(c.nbytes for c in recs.columns)

    def test_streamed_write_holds_about_one_block(self, tmp_path):
        from lenrepro import records

        path = tmp_path / "trials.csv"
        records.write_trial_csv(simulate.cohort_blocks(1, self.PARAMS), path)  # first-call imports
        tracemalloc.start()
        try:
            records.write_trial_csv(simulate.cohort_blocks(400, self.PARAMS, master_seed=1), path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.read_bytes().count(b"\n") == 1 + 400 * 3 * 66
        # 79,200 rows, held a block of 1,024 at a time: per row of a block,
        # about 250 B for its text and 88 B for its table, and the seed
        # chunk's states; 440 B measured
        assert peak <= 512 * 1024

    def test_sessions_use_distinct_streams(self):
        recs = simulate_cohort(2, self.PARAMS, master_seed=0)
        by_session = {}
        for r in recs:
            by_session.setdefault((r.participant_id, r.condition), []).append(r.response)
        responses = [tuple(v) for v in by_session.values()]
        assert len(set(responses)) == len(responses)

    def test_master_seed_changes_output(self):
        a = simulate_cohort(2, self.PARAMS, master_seed=0)
        b = simulate_cohort(2, self.PARAMS, master_seed=1)
        assert a != b

    def test_pairs_accepted_duplicates_rejected(self):
        pairs = list(self.PARAMS.items())
        recs = simulate_cohort(2, pairs, master_seed=9)
        assert recs == simulate_cohort(2, dict(pairs), master_seed=9)
        with pytest.raises(ConfigError):
            simulate_cohort(2, pairs + pairs[:1], master_seed=9)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ConfigError):
            simulate_cohort(0, self.PARAMS)
        with pytest.raises(ConfigError):
            simulate_cohort(2, {})
        for params in ({"": self.PARAMS["social"]}, [("", self.PARAMS["social"])]):
            with pytest.raises(ConfigError, match="empty condition label"):
                simulate_cohort(2, params)


@pytest.mark.parametrize("master_seed", [0, 1, 7, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 5,
                                         2 ** 64 + 5, 2 ** 70 + 3])
def test_session_states_equal_numpy_seeding(master_seed):
    """The array port of SeedSequence gives ``_session_seed`` for every
    lane, and the PCG64 state of each seed is the one numpy seeds."""
    lanes = np.indices((3, 2, 2), np.uint32).reshape(3, -1)
    lanes[0] += np.uint32(398)
    entropy = [np.full(lanes.shape[1], w, np.uint32) for w in simulate._words(master_seed)]
    seeds = simulate._seed_sequence(entropy + list(lanes), 1)[0]
    assert seeds.tolist() == [_session_seed(master_seed, *lane) for lane in lanes.T.tolist()]
    for seed, (state, inc) in zip(seeds.tolist(), simulate._pcg64_states(seeds)):
        assert np.random.PCG64(seed).state == {"bit_generator": "PCG64", "has_uint32": 0,
                                               "uinteger": 0,
                                               "state": {"state": state, "inc": inc}}


def test_package_resolves_the_simulator_names_on_access():
    assert lenrepro.ObserverParams is ObserverParams
    assert lenrepro.ScheduleConfig is ScheduleConfig
    assert lenrepro.DemonstratorNoise is DemonstratorNoise
    assert all(hasattr(lenrepro, name) for name in lenrepro.__all__)
    with pytest.raises(AttributeError, match="has no attribute 'simulate_cohort'"):
        lenrepro.simulate_cohort

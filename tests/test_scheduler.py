import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

import oracles
from beamcanyon.dataset import build_episode_record
from beamcanyon.mimo import ArraySpec
from beamcanyon.raytrace import TraceConfig
from beamcanyon.scenario import EpisodeParams, generate_episode, make_canyon_scenario
from beamcanyon.scheduler import (
    AllocationPlan,
    QLearningConfig,
    RewardTable,
    SchedulerParams,
    build_reward_table,
    dp_optimal,
    env_reset,
    env_step,
    episode_reward,
    greedy_agent,
    normalize_powers,
    round_robin_agent,
    tabular_q_agent,
)

ARRAY = ArraySpec(4, 4)


def _table(zbar: np.ndarray) -> RewardTable:
    return RewardTable(normalized=zbar, raw_db=zbar * 10.0 - 100.0)


# six-scene fixture used for the hand-traced outage sequences
FIXTURE = _table(
    np.array(
        [
            [[0.30, 0.80], [0.20, 0.10]],
            [[0.50, 0.40], [1.00, 0.00]],
            [[0.60, 0.90], [0.70, 0.10]],
            [[0.25, 0.35], [0.45, 0.55]],
            [[0.15, 0.65], [0.05, 0.95]],
            [[0.75, 0.85], [0.20, 0.40]],
        ]
    )
)

PARAMS = SchedulerParams(outage_after=3, outage_penalty=-3.0, num_receivers=2)


def _rollout(receivers, pairs, table, params):
    state = env_reset(table, params)
    rewards = []
    for action in zip(receivers, pairs):
        state, r = env_step(state, table, params, action)
        rewards.append(r)
    return rewards


def _brute_force_best(table, params):
    best_pair = table.normalized.argmax(axis=2)
    best = -math.inf
    for seq in itertools.product(range(params.num_receivers), repeat=table.n_scenes):
        pairs = tuple(int(best_pair[s, r]) for s, r in enumerate(seq))
        plan = AllocationPlan(tuple(seq), pairs, 0.0)
        best = max(best, episode_reward(plan, table, params))
    return best


class TestNormalizePowers:
    def test_two_point(self):
        out = normalize_powers(np.array([[-80.0, -90.0]]))
        assert out.tolist() == [[1.0, 0.0]]

    def test_floor_clamps_deep_fades(self):
        out = normalize_powers(np.array([[0.0, -300.0]]), floor_offset_db=200.0)
        assert out.tolist() == [[1.0, 0.0]]
        # the faded entry sits below the floored minimum, hence exactly 0
        mid = normalize_powers(np.array([[0.0, -100.0, -300.0]]), floor_offset_db=200.0)
        assert mid.tolist() == [[1.0, 0.5, 0.0]]

    def test_all_equal_maps_to_one(self):
        out = normalize_powers(np.array([[-50.0, -50.0], [-50.0, -50.0]]))
        assert (out == 1.0).all()

    def test_minus_inf_entries_clamp_to_zero(self):
        out = normalize_powers(np.array([[-80.0, -np.inf]]), floor_offset_db=200.0)
        assert out[0, 0] == 1.0
        assert out[0, 1] == 0.0

    def test_all_dead_rejected(self):
        with pytest.raises(ValueError):
            normalize_powers(np.array([[-np.inf, -np.inf]]))

    def test_range_bounds(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            raw = rng.uniform(-120, -60, size=(3, 5))
            out = normalize_powers(raw)
            assert out.min() == 0.0
            assert out.max() == 1.0


class TestEnvironment:
    def test_hand_traced_sequence(self):
        # derived by hand from the starvation rules before implementation:
        # serving 0,0,0 starves receiver 1 at the third scene
        rewards = _rollout([0, 0, 0, 1, 0, 0], [1, 0, 1, 0, 1, 1], FIXTURE, PARAMS)
        assert rewards == [0.80, 0.50, -3.0, 0.45, 0.65, 0.85]

    def test_outage_persists_until_served(self):
        rewards = _rollout([0, 0, 0, 0, 0, 1], [1, 0, 1, 1, 1, 0], FIXTURE, PARAMS)
        assert rewards == [0.80, 0.50, -3.0, -3.0, -3.0, 0.20]

    def test_alternating_receivers_never_starve(self):
        rewards = _rollout([0, 1, 0, 1, 0, 1], [0, 0, 0, 0, 0, 0], FIXTURE, PARAMS)
        assert all(r >= 0.0 for r in rewards)

    def test_rewards_bounded(self):
        rng = np.random.default_rng(32)
        table = _table(rng.random((8, 2, 3)))
        for seq in itertools.product(range(2), repeat=4):
            rewards = _rollout(list(seq) * 2, [0] * 8, table, PARAMS)
            assert all(PARAMS.outage_penalty <= r <= 1.0 for r in rewards)

    def test_step_past_end_rejected(self):
        state = env_reset(FIXTURE, PARAMS)
        for s in range(6):
            state, _ = env_step(state, FIXTURE, PARAMS, (s % 2, 0))
        with pytest.raises(ValueError):
            env_step(state, FIXTURE, PARAMS, (0, 0))

    def test_action_out_of_range_rejected(self):
        state = env_reset(FIXTURE, PARAMS)
        with pytest.raises(ValueError):
            env_step(state, FIXTURE, PARAMS, (2, 0))
        with pytest.raises(ValueError):
            env_step(state, FIXTURE, PARAMS, (0, 2))

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            SchedulerParams(outage_after=0)
        with pytest.raises(ValueError):
            SchedulerParams(outage_penalty=1.0)
        with pytest.raises(ValueError):
            SchedulerParams(num_receivers=0)


class TestEpisodeReward:
    def test_mean_of_hand_trace(self):
        plan = AllocationPlan((0, 0, 0, 1, 0, 0), (1, 0, 1, 0, 1, 1), 0.0)
        expected = sum([0.80, 0.50, -3.0, 0.45, 0.65, 0.85]) / 6
        assert episode_reward(plan, FIXTURE, PARAMS) == expected

    def test_all_outage_episode(self):
        # two receivers, always serving 0: scenes beyond the threshold all pay the penalty
        zbar = np.ones((5, 2, 1))
        table = _table(zbar)
        plan = AllocationPlan((0,) * 5, (0,) * 5, 0.0)
        params = SchedulerParams(outage_after=1, num_receivers=2)
        assert episode_reward(plan, table, params) == pytest.approx(-3.0)

    def test_single_scene(self):
        table = _table(np.array([[[0.4], [0.7]]]))
        plan = AllocationPlan((1,), (0,), 0.0)
        assert episode_reward(plan, table, PARAMS) == 0.7

    def test_length_mismatch_rejected(self):
        plan = AllocationPlan((0,), (0,), 0.0)
        with pytest.raises(ValueError):
            episode_reward(plan, FIXTURE, PARAMS)


class TestDpOptimal:
    def test_matches_exhaustive_enumeration(self):
        # oracle: enumerate all receiver sequences on small random tables
        rng = np.random.default_rng(33)
        for trial in range(50):
            n_scenes = int(rng.integers(3, 7))
            table = _table(rng.random((n_scenes, 2, 3)))
            plan = dp_optimal(table, PARAMS)
            assert plan.mean_reward == _brute_force_best(table, PARAMS)

    def test_dominant_receiver_served_every_scene(self):
        zbar = np.zeros((6, 2, 2))
        zbar[:, 0, :] = 0.9
        zbar[:, 1, :] = 0.1
        table = _table(zbar)
        plan = dp_optimal(table, SchedulerParams(outage_after=None, num_receivers=2))
        assert plan.receivers == (0,) * 6

    def test_dominates_all_agents(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            table = _table(rng.random((10, 2, 4)))
            dp = dp_optimal(table, PARAMS)
            for agent in (greedy_agent, round_robin_agent):
                assert dp.mean_reward >= agent(table, PARAMS).mean_reward
            q_plan = tabular_q_agent(table, PARAMS, QLearningConfig(training_episodes=200, seed=1))
            assert dp.mean_reward >= q_plan.mean_reward

    def test_outage_monotonicity(self):
        # loosening the outage threshold never hurts the optimum
        rng = np.random.default_rng(35)
        for _ in range(10):
            table = _table(rng.random((8, 2, 3)))
            values = [
                dp_optimal(table, SchedulerParams(outage_after=n, num_receivers=2)).mean_reward
                for n in (2, 3, 4)
            ]
            values.append(
                dp_optimal(table, SchedulerParams(outage_after=None, num_receivers=2)).mean_reward
            )
            assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_state_space_guard(self):
        # both users of the state space refuse it before enumerating 101**4 states
        table = _table(np.random.default_rng(0).random((2, 4, 2)))
        params = SchedulerParams(outage_after=100, num_receivers=4)
        for agent in (dp_optimal, tabular_q_agent):
            with pytest.raises(ValueError, match="state"):
                agent(table, params)


class TestAgents:
    def test_greedy_serves_unique_maximum(self):
        zbar = np.zeros((4, 2, 2))
        zbar[:, 1, 1] = 1.0
        table = _table(zbar)
        plan = greedy_agent(table, PARAMS)
        assert plan.receivers == (1, 1, 1, 1)
        assert plan.pair_indices == (1, 1, 1, 1)

    def test_greedy_with_no_outage_reaches_one(self):
        rng = np.random.default_rng(36)
        raw = rng.uniform(-120, -60, size=(6, 2, 4))
        zbar = np.stack([normalize_powers(raw[s]) for s in range(6)])
        table = RewardTable(normalized=zbar, raw_db=raw)
        plan = greedy_agent(table, SchedulerParams(outage_after=None, num_receivers=2))
        assert plan.mean_reward == 1.0

    def test_round_robin_cycles_and_avoids_outage(self):
        plan = round_robin_agent(FIXTURE, PARAMS)
        assert plan.receivers == (0, 1, 0, 1, 0, 1)
        rewards = _rollout(plan.receivers, plan.pair_indices, FIXTURE, PARAMS)
        assert all(r >= 0 for r in rewards)

    def test_tabular_q_close_to_dp_on_stationary_table(self):
        rng = np.random.default_rng(37)
        table = _table(rng.random((20, 2, 3)))
        dp = dp_optimal(table, PARAMS)
        q_plan = tabular_q_agent(
            table,
            PARAMS,
            QLearningConfig(training_episodes=3000, learning_rate=0.15, seed=2),
        )
        assert dp.mean_reward - q_plan.mean_reward <= 0.05

    def test_tabular_q_deterministic_given_seed(self):
        rng = np.random.default_rng(38)
        table = _table(rng.random((8, 2, 2)))
        hyper = QLearningConfig(training_episodes=100, seed=9)
        assert tabular_q_agent(table, PARAMS, hyper) == tabular_q_agent(table, PARAMS, hyper)


class TestTabularQMatchesOracle:
    """tabular_q_agent plans exactly as the numpy version it replaced."""

    @pytest.mark.parametrize("outage_after", [None, 1, 3])
    @pytest.mark.parametrize("num_receivers", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_equal_plans(self, seed, num_receivers, outage_after):
        rng = np.random.default_rng(100 + seed)
        # values on a coarse grid, so that argmax ties are common
        table = _table(rng.integers(0, 3, size=(12, num_receivers, 3)) / 2.0)
        params = SchedulerParams(outage_after=outage_after, num_receivers=num_receivers)
        for hyper in (
            QLearningConfig(training_episodes=1, seed=seed),
            QLearningConfig(training_episodes=150, learning_rate=0.3, discount=0.9, seed=seed),
        ):
            expected = oracles.tabular_q_agent(table, params, hyper)
            assert tabular_q_agent(table, params, hyper) == expected


@pytest.fixture(scope="module")
def record():
    sc = make_canyon_scenario()
    episode = generate_episode(sc, EpisodeParams(scenes_per_episode=4, receiver_count=4, seed=77))
    return build_episode_record(sc, episode, TraceConfig())


class TestBuildRewardTable:
    def test_shape_and_normalization(self, record):
        params = SchedulerParams(num_receivers=2)
        table = build_reward_table(record, ARRAY, ARRAY, params)
        assert table.normalized.shape == (4, 2, 256)
        for s in range(table.n_scenes):
            assert table.normalized[s].max() == 1.0
            assert table.normalized[s].min() >= 0.0

    def test_too_many_receivers_rejected(self, record):
        with pytest.raises(ValueError):
            build_reward_table(record, ARRAY, ARRAY, SchedulerParams(num_receivers=10))

    def test_scene_without_any_path_scores_zero(self, record):
        # no scheduled receiver has a path in scene 1: its rewards are all 0
        dead = replace(
            record.scenes[1], pairs=tuple(replace(p, rays=()) for p in record.scenes[1].pairs)
        )
        blanked = replace(record, scenes=(record.scenes[0], dead) + record.scenes[2:])
        params = SchedulerParams(outage_after=3, outage_penalty=-3.0, num_receivers=2)
        table = build_reward_table(blanked, ARRAY, ARRAY, params)
        full = build_reward_table(record, ARRAY, ARRAY, params)
        assert np.isneginf(table.raw_db[1]).all()
        assert (table.normalized[1] == 0.0).all()
        kept = [0, 2, 3]
        assert np.array_equal(table.normalized[kept], full.normalized[kept])
        # serving the dead scene earns 0; the outage rules are unchanged
        assert _rollout([0, 1, 0, 1], [0] * 4, table, params)[1] == 0.0
        assert _rollout([0, 0, 0, 1], [0] * 4, table, params)[2] == -3.0
        assert episode_reward(dp_optimal(table, params), table, params) >= episode_reward(
            greedy_agent(table, params), table, params
        )

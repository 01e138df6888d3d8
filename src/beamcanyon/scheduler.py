"""Multi-user time-slot scheduling over per-scene beam-sweep powers.

Per scene, the sweep output magnitudes of every (receiver, beam pair) are
normalized into [0, 1]. An agent serves one receiver per scene; a receiver
left unserved for ``outage_after`` consecutive scenes puts the whole scene
into outage and the reward is replaced by the (negative) outage penalty.
A dynamic-programming allocator over the capped starvation counters gives
the exact optimum to benchmark agents against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .dataset import EpisodeRecord
from .mimo import ArraySpec, sweep_rays
from .rules import check, setting

MAX_DP_STATES = 1_000_000


@dataclass(frozen=True)
class SchedulerParams:
    outage_after: int | None = setting(3, "integer or None", ">= 1")  # None disables outages entirely
    outage_penalty: float = setting(-3.0, "number", "<= 0")
    num_receivers: int = setting(2, "integer", ">= 1")
    floor_offset_db: float = setting(200.0, "number", "> 0")

    def __post_init__(self) -> None:
        check(self, "scheduler")


@dataclass(frozen=True)
class RewardTable:
    normalized: np.ndarray  # (scenes, receivers, pairs), entries in [0, 1]

    @property
    def n_scenes(self) -> int:
        return self.normalized.shape[0]

    @property
    def n_pairs(self) -> int:
        return self.normalized.shape[2]


@dataclass(frozen=True)
class SchedulerState:
    scene_index: int
    starve: tuple[int, ...]  # consecutive unserved scenes per receiver, capped


@dataclass(frozen=True)
class AllocationPlan:
    receivers: tuple[int, ...]
    pair_indices: tuple[int, ...]
    mean_reward: float


@dataclass(frozen=True)
class QLearningConfig:
    training_episodes: int = setting(1000, "integer", ">= 1")
    learning_rate: float = setting(0.2, "number", "> 0", "<= 1")
    discount: float = setting(1.0, "number", ">= 0", "<= 1")
    epsilon_start: float = setting(1.0, "number", ">= 0", "<= 1")
    epsilon_end: float = setting(0.05, "number", ">= 0", "<= 1")
    seed: int = setting(0, "integer")

    def __post_init__(self) -> None:
        check(self, "qlearn")


def normalize_powers(
    raw_scene_db: np.ndarray, floor_offset_db: float = SchedulerParams.floor_offset_db
) -> np.ndarray:
    """Affine map of one scene's dB powers onto [0, 1].

    The scene minimum is floored at (max - floor_offset_db); entries below
    the floor clamp to 0. If every entry is equal, the denominator falls back
    to the floor span so everything maps to 1.
    """
    z = np.asarray(raw_scene_db, dtype=float)
    finite = np.isfinite(z)
    if not finite.any():
        raise ValueError("all beam powers are zero: nothing to normalize")
    z_max = float(z[finite].max())
    z_min = max(float(z.min()), z_max - floor_offset_db)
    if z_min == z_max:
        z_min = z_max - floor_offset_db
    out = (z - z_min) / (z_max - z_min)
    return np.clip(out, 0.0, 1.0)


def build_reward_table(
    record: EpisodeRecord,
    tx_spec: ArraySpec,
    rx_spec: ArraySpec,
    params: SchedulerParams,
) -> RewardTable:
    """Sweep the stored rays of the first ``num_receivers`` receivers per scene.

    A scene where none of those receivers has a path has no power to
    normalize; its rewards are all 0.
    """
    available = sorted(record.receiver_vehicles)
    if params.num_receivers > len(available):
        raise ValueError(
            f"scheduler needs {params.num_receivers} receivers, episode has {len(available)}"
        )
    n_pairs = tx_spec.size * rx_spec.size
    raw = np.full((len(record.scenes), params.num_receivers, n_pairs), -np.inf)
    swept = [
        (s, pair.rx_id - 1, pair.rays)
        for s, scene_rec in enumerate(record.scenes)
        for pair in scene_rec.pairs
        if pair.rx_id <= params.num_receivers and pair.rays
    ]
    if swept:
        scenes, receivers, ray_lists = zip(*swept)
        outputs = np.concatenate([r.outputs for r in sweep_rays(ray_lists, tx_spec, rx_spec)])
        with np.errstate(divide="ignore"):
            raw[scenes, receivers] = 20.0 * np.log10(np.abs(outputs))
    normalized = np.zeros_like(raw)
    for s in range(raw.shape[0]):
        if np.isfinite(raw[s]).any():
            normalized[s] = normalize_powers(raw[s], params.floor_offset_db)
    return RewardTable(normalized=normalized)


def _starve_cap(params: SchedulerParams) -> int:
    return params.outage_after if params.outage_after is not None else 1


def _advance(starve: tuple[int, ...], action: int, cap: int) -> tuple[int, ...]:
    return tuple(0 if i == action else min(c + 1, cap) for i, c in enumerate(starve))


def env_reset(table: RewardTable, params: SchedulerParams) -> SchedulerState:
    return SchedulerState(scene_index=0, starve=(0,) * params.num_receivers)


def env_step(
    state: SchedulerState,
    table: RewardTable,
    params: SchedulerParams,
    action: tuple[int, int],
) -> tuple[SchedulerState, float]:
    """Serve one receiver with one beam pair; return the new state and reward."""
    s = state.scene_index
    if s >= table.n_scenes:
        raise ValueError("episode already finished")
    receiver, pair = action
    if not 0 <= receiver < params.num_receivers:
        raise ValueError(f"receiver {receiver} out of range")
    if not 0 <= pair < table.n_pairs:
        raise ValueError(f"beam pair {pair} out of range")
    starve = _advance(state.starve, receiver, _starve_cap(params))
    outage = params.outage_after is not None and max(starve) >= params.outage_after
    reward = params.outage_penalty if outage else float(table.normalized[s, receiver, pair])
    return SchedulerState(scene_index=s + 1, starve=starve), reward


def _replay(
    receivers: tuple[int, ...],
    pairs: tuple[int, ...],
    table: RewardTable,
    params: SchedulerParams,
) -> float:
    state = env_reset(table, params)
    total = 0.0
    for receiver, pair in zip(receivers, pairs):
        state, reward = env_step(state, table, params, (receiver, pair))
        total += reward
    return total / table.n_scenes


def _best_beams(table: RewardTable) -> tuple[np.ndarray, np.ndarray]:
    """Per (scene, receiver): value and index of the strongest beam pair."""
    return table.normalized.max(axis=2), table.normalized.argmax(axis=2)


def _make_plan(
    receivers: list[int], table: RewardTable, params: SchedulerParams
) -> AllocationPlan:
    _, best_pair = _best_beams(table)
    pairs = tuple(int(best_pair[s, r]) for s, r in enumerate(receivers))
    receivers_t = tuple(int(r) for r in receivers)
    return AllocationPlan(receivers_t, pairs, _replay(receivers_t, pairs, table, params))


def greedy_agent(table: RewardTable, params: SchedulerParams) -> AllocationPlan:
    """Serve the receiver with the strongest available beam, ignoring outages."""
    best_val, _ = _best_beams(table)
    receivers = [int(np.argmax(best_val[s])) for s in range(table.n_scenes)]
    return _make_plan(receivers, table, params)


def round_robin_agent(table: RewardTable, params: SchedulerParams) -> AllocationPlan:
    receivers = [s % params.num_receivers for s in range(table.n_scenes)]
    return _make_plan(receivers, table, params)


def _state_machinery(params: SchedulerParams) -> tuple[np.ndarray, np.ndarray, int]:
    """The scheduling MDP over capped starve vectors: transitions, outages, start state.

    ``transitions[i, a]`` is the state reached from state i by serving
    receiver a, and ``outage[i, a]`` says whether that step is an outage.
    Refuses, before enumerating, a state space larger than MAX_DP_STATES.
    """
    cap = _starve_cap(params)
    n_rec = params.num_receivers
    n_states = (cap + 1) ** n_rec
    if n_states > MAX_DP_STATES:
        raise ValueError(
            f"{n_states} scheduler states exceed the guard of {MAX_DP_STATES}; "
            "reduce num_receivers or outage_after"
        )
    # state i is its starve vector read as mixed-radix digits in base cap + 1,
    # receiver 0 most significant: the order of itertools.product
    digits = np.indices((cap + 1,) * n_rec).reshape(n_rec, n_states).T.copy()
    place = (cap + 1) ** np.arange(n_rec - 1, -1, -1)
    aged = np.minimum(digits + 1, cap)  # every receiver unserved for one more scene
    # serving receiver a resets its digit to 0
    transitions = (aged @ place)[:, None] - aged * place
    # an outage when a receiver other than the served one reaches the threshold;
    # without outages the threshold is cap + 1, which no counter reaches
    threshold = cap + 1 if params.outage_after is None else params.outage_after
    starved = aged >= threshold
    outage = starved.sum(axis=1, keepdims=True) - starved > 0
    return transitions, outage, 0


def _step_rewards(best_val_of_scene: np.ndarray, outage: np.ndarray, params: SchedulerParams) -> np.ndarray:
    """Per (state, receiver) reward in one scene: the outage penalty, else the strongest beam value."""
    return np.where(outage, params.outage_penalty, best_val_of_scene)


def dp_optimal(table: RewardTable, params: SchedulerParams) -> AllocationPlan:
    """Exact maximizer of the mean episode reward over receiver sequences.

    The beam pair per scene is fixed to the strongest pair of the served
    receiver (lossless: the pair affects the reward only through its power
    and never the starvation state). Backward induction runs over all states
    of one scene at a time; value ties break toward the smaller receiver
    index, scene by scene.
    """
    if params.outage_after is None:
        return greedy_agent(table, params)  # no constraint: per-scene maximum is optimal
    transitions, outage, si = _state_machinery(params)
    best_val, _ = _best_beams(table)
    value = np.zeros(transitions.shape[0])
    choice = np.empty((table.n_scenes, transitions.shape[0]), dtype=np.int64)
    for s in range(table.n_scenes - 1, -1, -1):
        q = _step_rewards(best_val[s], outage, params) + value[transitions]
        choice[s] = q.argmax(axis=1)  # first maximum: ties go to the smaller receiver
        value = q.max(axis=1)

    receivers = []
    for s in range(table.n_scenes):
        receivers.append(int(choice[s, si]))
        si = int(transitions[si, receivers[-1]])
    return _make_plan(receivers, table, params)


class _PCG64Draws:
    """The ``random()`` and ``integers(n)`` draws of ``np.random.default_rng(seed)``.

    Decodes PCG64 raw outputs, read in chunks, as numpy does: ``integers``
    takes the low half of a fresh raw and keeps the high half for its next
    call, across any ``random()`` calls between. Valid for 1 <= n <= 2**32.
    """

    def __init__(self, seed: int, chunk: int = 4096) -> None:
        bitgen = np.random.default_rng(seed).bit_generator
        chunks = iter(lambda: bitgen.random_raw(chunk).tolist(), None)
        self._raws = itertools.chain.from_iterable(chunks)
        self._half: int | None = None  # high half of the last raw split for integers

    def random(self) -> float:
        return (next(self._raws) >> 11) * 2.0**-53

    def integers(self, n: int) -> int:
        if n == 1:
            return 0
        threshold = (2**32 - n) % n  # reject the low products that bias the result
        while True:
            if self._half is None:
                raw = next(self._raws)
                self._half = raw >> 32
                m = (raw & 0xFFFFFFFF) * n
            else:
                m = self._half * n
                self._half = None
            if m & 0xFFFFFFFF >= threshold:
                return m >> 32


def tabular_q_agent(
    table: RewardTable,
    params: SchedulerParams,
    hyper: QLearningConfig = QLearningConfig(),
) -> AllocationPlan:
    """Finite-horizon tabular Q-learning over (scene, starve vector) states.

    Trains on the episode's own reward table (the environment is fully
    known), then rolls out the greedy policy. Deterministic for a given
    ``hyper.seed``. Q, the transitions and the rewards are nested lists of
    Python floats: the loop does one scalar update per step, which plain
    Python does faster than numpy scalar indexing.

    The exploration draws are ``np.random.default_rng(hyper.seed)``'s own,
    decoded from PCG64 raw outputs by ``_PCG64Draws`` with numpy's integer
    arithmetic: a shift and an exact power-of-two scale for ``random()``,
    Lemire's rejection on 32-bit halves for ``integers``. So the plan is the
    same to the bit, and a draw costs a fraction of a numpy scalar call.
    """
    transitions, outage, start = _state_machinery(params)
    best_val, _ = _best_beams(table)
    n_scenes = table.n_scenes
    n_rec = params.num_receivers
    n_states = transitions.shape[0]

    nxt_of = transitions.tolist()
    reward = [_step_rewards(row, outage, params).tolist() for row in best_val]
    rng = _PCG64Draws(hyper.seed)
    q = [[[0.0] * n_rec for _ in range(n_states)] for _ in range(n_scenes + 1)]
    rate, discount = hyper.learning_rate, hyper.discount
    for episode in range(hyper.training_episodes):
        if hyper.training_episodes > 1:
            frac = episode / (hyper.training_episodes - 1)
        else:
            frac = 1.0
        epsilon = hyper.epsilon_start + frac * (hyper.epsilon_end - hyper.epsilon_start)
        si = start
        for s in range(n_scenes):
            row = q[s][si]
            if rng.random() < epsilon:
                a = rng.integers(n_rec)
            else:
                a = row.index(max(row))  # first maximum, as np.argmax
            nxt = nxt_of[si][a]
            target = reward[s][si][a] + discount * max(q[s + 1][nxt])
            row[a] += rate * (target - row[a])
            si = nxt

    receivers = []
    si = start
    for s in range(n_scenes):
        row = q[s][si]
        a = row.index(max(row))
        receivers.append(a)
        si = nxt_of[si][a]
    return _make_plan(receivers, table, params)

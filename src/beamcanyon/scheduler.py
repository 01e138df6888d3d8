"""Multi-user time-slot scheduling over per-scene beam-sweep powers.

Per scene, the sweep output magnitudes of every (receiver, beam pair) are
normalized into [0, 1]. An agent serves one receiver per scene; a receiver
left unserved for ``outage_after`` consecutive scenes puts the whole scene
into outage and the reward is replaced by the (negative) outage penalty.
A dynamic-programming allocator over the capped starvation counters gives
the exact optimum to benchmark agents against.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .dataset import EpisodeColumns
from .mimo import ArraySpec, sweep_rays
from .rules import check, setting

MAX_SCHEDULER_STATES = 200_000


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
    record: EpisodeColumns,
    tx_spec: ArraySpec,
    rx_spec: ArraySpec,
    params: SchedulerParams,
) -> RewardTable:
    """Sweep the stored rays of the first ``num_receivers`` receivers per scene.

    A scene where none of those receivers has a path has no power to
    normalize; its rewards are all 0.
    """
    available = len(record.receiver_vehicles)
    if params.num_receivers > available:
        raise ValueError(
            f"scheduler needs {params.num_receivers} receivers, episode has {available}"
        )
    n_pairs = tx_spec.size * rx_spec.size
    raw = np.full((record.n_scenes, params.num_receivers, n_pairs), -np.inf)
    scene = np.repeat(np.arange(record.n_scenes), record.pair_counts)
    swept = (record.rx_id <= params.num_receivers) & (record.rays.counts > 0)
    if swept.any():
        outputs = np.concatenate([r.outputs for r in sweep_rays(record.rays.take(swept), tx_spec, rx_spec)])
        with np.errstate(divide="ignore"):
            raw[scene[swept], record.rx_id[swept] - 1] = 20.0 * np.log10(np.abs(outputs))
    normalized = np.zeros_like(raw)
    for s in range(raw.shape[0]):
        if np.isfinite(raw[s]).any():
            normalized[s] = normalize_powers(raw[s], params.floor_offset_db)
    return RewardTable(normalized=normalized)


def _step(
    starve: tuple[int, ...], action: int, params: SchedulerParams
) -> tuple[tuple[int, ...], bool]:
    """The scheduling MDP's one step rule: serve receiver ``action`` for one scene.

    Its starve counter resets to 0 and every other counter ages by one, capped.
    The step is an outage when a counter reaches ``outage_after``.
    """
    cap = params.outage_after if params.outage_after is not None else 1
    aged = [c + 1 if c < cap else cap for c in starve]
    aged[action] = 0
    starve = tuple(aged)
    return starve, params.outage_after is not None and max(starve) >= params.outage_after


def _best_beams(table: RewardTable) -> tuple[np.ndarray, np.ndarray]:
    """Per (scene, receiver): value and index of the strongest beam pair."""
    return table.normalized.max(axis=2), table.normalized.argmax(axis=2)


def _make_plan(
    receivers: list[int], table: RewardTable, params: SchedulerParams
) -> AllocationPlan:
    """Serve each receiver on its strongest beam pair; score the plan on its own starve vectors."""
    _, best_pair = _best_beams(table)
    receivers_t = tuple(int(r) for r in receivers)
    pairs = tuple(int(best_pair[s, r]) for s, r in enumerate(receivers_t))
    starve = (0,) * params.num_receivers
    total = 0.0
    for s, (r, pair) in enumerate(zip(receivers_t, pairs)):
        starve, outage = _step(starve, r, params)
        total += params.outage_penalty if outage else float(table.normalized[s, r, pair])
    return AllocationPlan(receivers_t, pairs, total / table.n_scenes)


def greedy_agent(table: RewardTable, params: SchedulerParams) -> AllocationPlan:
    """Serve the receiver with the strongest available beam, ignoring outages."""
    best_val, _ = _best_beams(table)
    receivers = [int(np.argmax(best_val[s])) for s in range(table.n_scenes)]
    return _make_plan(receivers, table, params)


def round_robin_agent(table: RewardTable, params: SchedulerParams) -> AllocationPlan:
    receivers = [s % params.num_receivers for s in range(table.n_scenes)]
    return _make_plan(receivers, table, params)


@functools.lru_cache(maxsize=1)  # schedule plans every episode under one params
def _state_machinery(params: SchedulerParams) -> tuple[np.ndarray, np.ndarray]:
    """The scheduling MDP over the starve vectors reachable from the start: transitions, outages.

    ``transitions[i, a]`` is the state reached from state i by serving
    receiver a, and ``outage[i, a]`` says whether that step is an outage.
    State 0 is the start, ``(0,) * num_receivers``; the others are numbered
    breadth first. Refuses a state space larger than MAX_SCHEDULER_STATES as
    soon as the walk finds one state more. The tables are read-only: the
    last params' pair is kept and shared by every later call with them.
    """
    n_rec = params.num_receivers
    states = [(0,) * n_rec]
    index = {states[0]: 0}
    transitions, outage = [], []
    for starve in states:  # the list grows as the walk finds new states
        for a in range(n_rec):
            nxt, out = _step(starve, a, params)
            if nxt not in index:
                if len(states) == MAX_SCHEDULER_STATES:
                    raise ValueError(
                        f"more than {MAX_SCHEDULER_STATES} reachable scheduler states exceed the guard; "
                        "reduce num_receivers or outage_after"
                    )
                index[nxt] = len(states)
                states.append(nxt)
            transitions.append(index[nxt])
            outage.append(out)
    tables = np.array(transitions).reshape(-1, n_rec), np.array(outage).reshape(-1, n_rec)
    for t in tables:
        t.flags.writeable = False
    return tables


def dp_optimal(table: RewardTable, params: SchedulerParams) -> AllocationPlan:
    """Exact maximizer of the mean episode reward over receiver sequences.

    The beam pair per scene is fixed to the strongest pair of the served
    receiver (lossless: the pair affects the reward only through its power
    and never the starvation state). Backward induction runs over all reachable
    states of one scene at a time; value ties break toward the smaller receiver
    index, scene by scene.
    """
    if params.outage_after is None:
        return greedy_agent(table, params)  # no constraint: per-scene maximum is optimal
    transitions, outage = _state_machinery(params)
    best_val, _ = _best_beams(table)
    value = np.zeros(transitions.shape[0])
    choice = np.empty((table.n_scenes, transitions.shape[0]), dtype=np.int64)
    for s in range(table.n_scenes - 1, -1, -1):
        # per (state, receiver) reward: the outage penalty, else the strongest beam value
        q = np.where(outage, params.outage_penalty, best_val[s]) + value[transitions]
        choice[s] = q.argmax(axis=1)  # first maximum: ties go to the smaller receiver
        value = q.max(axis=1)

    receivers = []
    si = 0
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
    ``hyper.seed``. Q is one dict per scene, from state index to a list of
    Python floats made on the state's first visit (an unvisited state reads
    as zeros), so it grows with the states that training visits. The loop
    does one scalar update per step, which plain Python does faster than
    numpy scalar indexing.

    The exploration draws are ``np.random.default_rng(hyper.seed)``'s own,
    decoded from PCG64 raw outputs by ``_PCG64Draws`` with numpy's integer
    arithmetic: a shift and an exact power-of-two scale for ``random()``,
    Lemire's rejection on 32-bit halves for ``integers``. So the plan is the
    same to the bit, and a draw costs a fraction of a numpy scalar call.
    """
    transitions, outage = _state_machinery(params)
    best_val, _ = _best_beams(table)
    n_scenes = table.n_scenes
    n_rec = params.num_receivers

    nxt_of, outage_of, best_of = transitions.tolist(), outage.tolist(), best_val.tolist()
    penalty = params.outage_penalty
    rng = _PCG64Draws(hyper.seed)
    q: list[dict[int, list[float]]] = [{} for _ in range(n_scenes + 1)]
    zeros = [0.0] * n_rec
    rate, discount = hyper.learning_rate, hyper.discount
    for episode in range(hyper.training_episodes):
        if hyper.training_episodes > 1:
            frac = episode / (hyper.training_episodes - 1)
        else:
            frac = 1.0
        epsilon = hyper.epsilon_start + frac * (hyper.epsilon_end - hyper.epsilon_start)
        si = 0
        for s in range(n_scenes):
            row = q[s].get(si)
            if row is None:
                row = q[s][si] = [0.0] * n_rec
            if rng.random() < epsilon:
                a = rng.integers(n_rec)
            else:
                a = row.index(max(row))  # first maximum, as np.argmax
            nxt = nxt_of[si][a]
            reward = penalty if outage_of[si][a] else best_of[s][a]
            target = reward + discount * max(q[s + 1].get(nxt, zeros))
            row[a] += rate * (target - row[a])
            si = nxt

    receivers = []
    si = 0
    for s in range(n_scenes):
        row = q[s].get(si, zeros)
        a = row.index(max(row))
        receivers.append(a)
        si = nxt_of[si][a]
    return _make_plan(receivers, table, params)

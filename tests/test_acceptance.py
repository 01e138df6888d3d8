"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. The desk-scale dataset (20 episodes x 10 scenes) is built
once through the CLI and shared by the dataset-level criteria.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

import oracles
from oracles import env_reset, env_step, episode_reward, segment_intersects_box
from beamcanyon.cli import main
from beamcanyon.classify import evaluate, knn_classifier, majority_classifier
from beamcanyon.dataset import (
    encode_record,
    extract_examples,
    read_episodes,
    split_episodes,
    write_episodes,
)
from beamcanyon.features import GridSpec, encode_scenes, receiver_view
from beamcanyon.mimo import ArraySpec, compose_channel, dft_codebook, sweep
from beamcanyon.raytrace import (
    SPEED_OF_LIGHT,
    TraceConfig,
    trace_scenes,
)
from beamcanyon.scenario import (
    Box,
    DEFAULT_VEHICLE_TYPES,
    EpisodeParams,
    Scene,
    Vec3,
    Vehicle,
    make_canyon_scenario,
    sample_vehicle_type,
)
from beamcanyon.scheduler import (
    AllocationPlan,
    QLearningConfig,
    RewardTable,
    SchedulerParams,
    build_reward_table,
    dp_optimal,
    greedy_agent,
    normalize_powers,
    round_robin_agent,
    tabular_q_agent,
)

ARRAY = ArraySpec(4, 4)
DESK_SEED = 20260808


def _report(criterion: int, started: float, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:2d}: PASS ({time.monotonic() - started:5.1f}s) {detail}")


@pytest.fixture(scope="session")
def desk_dataset(tmp_path_factory):
    """20 episodes x 10 scenes generated through the CLI, plus parsed records."""
    out = tmp_path_factory.mktemp("desk")
    rc = main(
        [
            "--seed",
            str(DESK_SEED),
            "--out",
            str(out),
            "generate",
            "--episodes",
            "20",
            "--scenes",
            "10",
        ]
    )
    assert rc == 0
    path = out / "episodes.jsonl"
    return out, path, read_episodes(path)


def test_criterion_01_structural_constants():
    started = time.monotonic()
    scenario = make_canyon_scenario()
    grid = GridSpec.from_area(scenario.v2i_area)
    assert (grid.rows, grid.cols) == (23, 250)
    params = EpisodeParams()
    assert params.sample_period == 0.1
    assert params.scenes_per_episode == 50
    assert params.receiver_count == 10
    assert TraceConfig().max_rays == 25
    assert ARRAY.size == 16
    codebook = dft_codebook(ARRAY)
    assert codebook.shape == (16, 16)
    assert codebook.shape[1] * codebook.shape[1] == 256
    _report(1, started, "grid 23x250, T=0.1s, 50 scenes, 10 receivers, 25 rays, 256 pairs")


def test_criterion_02_codebook_unitarity():
    started = time.monotonic()
    for nx, ny in ((2, 2), (4, 4), (8, 8)):
        cb = dft_codebook(ArraySpec(nx, ny))
        n = nx * ny
        assert np.abs(cb.conj().T @ cb - np.eye(n)).max() < 1e-12
    _report(2, started, "C^H C = I within 1e-12 for 2x2, 4x4, 8x8")


def test_criterion_03_channel_sweep_consistency():
    started = time.monotonic()
    rng = np.random.default_rng(311)
    codebook = dft_codebook(ARRAY)

    def grid_angles(px, py):
        u = -2.0 * px / ARRAY.nx
        v = -2.0 * py / ARRAY.ny
        if u <= -1.0:
            u += 2.0
        if v <= -1.0:
            v += 2.0
        if u * u + v * v > 1.0:
            return None
        return math.atan2(v, u), math.asin(math.sqrt(u * u + v * v))

    from beamcanyon.raytrace import Ray

    checked = 0
    while checked < 200:
        px, py, qx, qy = (int(rng.integers(4)) for _ in range(4))
        dep = grid_angles(px, py)
        arr = grid_angles(qx, qy)
        if dep is None or arr is None:
            continue
        ray = Ray(
            gain=complex(rng.normal(), rng.normal()),
            delay=1e-8,
            dep_azimuth=dep[0],
            dep_elevation=dep[1],
            arr_azimuth=arr[0],
            arr_elevation=arr[1],
            interactions="LOS",
        )
        h = compose_channel([[ray]], ARRAY, ARRAY)[0]
        result = sweep(h, codebook, codebook)
        assert divmod(int(result.best_index), codebook.shape[1]) == (px * ARRAY.ny + py, qx * ARRAY.ny + qy)
        checked += 1

    h = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    base = sweep(h, codebook, codebook).best_index
    for _ in range(100):
        scale = float(rng.uniform(1e-3, 1e3))
        assert sweep(scale * h, codebook, codebook).best_index == base
    _report(3, started, "200 on-grid rays hit their beam; argmax scale-invariant x100")


def test_criterion_04_ray_tracer_geometry():
    started = time.monotonic()
    scenario = make_canyon_scenario()
    tx = scenario.rsu_position.to_array()
    cfg = TraceConfig(max_reflections=1)
    rng = np.random.default_rng(412)
    reflectors = (
        ("R", np.array([1.0, 0.0, 0.0]), 1, 0.0),   # south wall y=0 (normal axis y)
        ("R", np.array([0.0, 1.0, 0.0]), 1, 23.0),  # north wall y=23
        ("RG", np.array([0.0, 0.0, 1.0]), 2, 0.0),  # ground z=0
    )
    checked = 0
    while checked < 1000:
        lane_y = float(rng.choice([6.25, 9.75, 13.25, 16.75]))
        rx = Vehicle(
            id=0,
            type=DEFAULT_VEHICLE_TYPES[int(rng.integers(3))],
            position=Vec3(float(rng.uniform(20, 310)), lane_y, 0.0),
            heading=0.0,
            speed=0.0,
            receiver_index=1,
        )
        roof = np.array([rx.position.x, rx.position.y, rx.type.height])
        token, _, axis, offset = reflectors[int(rng.integers(3))]
        mirrored = tx.copy()
        mirrored[axis] = 2 * offset - mirrored[axis]
        denom = mirrored[axis] - roof[axis]
        if denom == 0.0:
            continue
        t = (offset - roof[axis]) / denom
        if not 0.0 < t < 1.0:
            continue
        bounce = roof + t * (mirrored - roof)
        expected_length = float(np.linalg.norm(mirrored - roof))

        (record,) = trace_scenes(scenario, (Scene(0.0, (rx,)),), cfg)[0]
        token_rays = [r for r in record.rays if r.interactions == token]
        matching = [
            r for r in token_rays if abs(r.delay * SPEED_OF_LIGHT - expected_length) < 1e-9
        ]
        assert matching, f"missing {token} bounce of length {expected_length}"
        ray = matching[0]
        # path length: delay * c against the mirror-point oracle
        assert abs(ray.delay * SPEED_OF_LIGHT - expected_length) < 1e-9
        # specular law at the oracle bounce point
        d_in = (bounce - tx) / np.linalg.norm(bounce - tx)
        d_out = (roof - bounce) / np.linalg.norm(roof - bounce)
        normal = np.zeros(3)
        normal[axis] = 1.0
        reflected = d_in - 2 * float(d_in @ normal) * normal
        # atan2 of cross/dot resolves tiny angles that acos cannot
        angle_error = math.atan2(
            float(np.linalg.norm(np.cross(reflected, d_out))), float(reflected @ d_out)
        )
        assert angle_error < 1e-9
        # reported angles match the oracle geometry
        dep = (bounce - tx) / np.linalg.norm(bounce - tx)
        assert abs(math.atan2(dep[1], dep[0]) - ray.dep_azimuth) < 1e-9
        assert abs(math.acos(dep[2]) - ray.dep_elevation) < 1e-9
        checked += 1

    # blockage test against the dense-sampling oracle
    ts = (np.arange(10_000) + 0.5) / 10_000
    for _ in range(1000):
        lo = rng.uniform(-5, 4, size=3)
        hi = lo + rng.uniform(0.5, 3.0, size=3)
        box = Box(Vec3(*lo), Vec3(*hi))
        p0 = rng.uniform(-6, 6, size=3)
        p1 = rng.uniform(-6, 6, size=3)
        points = p0[None, :] + ts[:, None] * (p1 - p0)[None, :]
        inside = bool(np.all((points > lo) & (points < hi), axis=1).any())
        assert segment_intersects_box(Vec3(*p0), Vec3(*p1), box) == inside
    _report(4, started, "1000 one-bounce configs within 1e-9; 1000 blockage pairs agree")


def test_criterion_05_scheduler_exactness():
    started = time.monotonic()
    params = SchedulerParams(outage_after=3, outage_penalty=-3.0, num_receivers=2)
    rng = np.random.default_rng(55)
    for _ in range(50):
        n_scenes = int(rng.integers(3, 7))
        zbar = rng.random((n_scenes, 2, 3))
        table = RewardTable(normalized=zbar)
        best_pair = zbar.argmax(axis=2)
        brute = max(
            episode_reward(
                AllocationPlan(
                    seq, tuple(int(best_pair[s, r]) for s, r in enumerate(seq)), 0.0
                ),
                table,
                params,
            )
            for seq in itertools.product(range(2), repeat=n_scenes)
        )
        assert dp_optimal(table, params).mean_reward == brute
    _report(5, started, "DP equals exhaustive enumeration on 50 random tables")


def test_criterion_06_greedy_reward_identity(desk_dataset):
    started = time.monotonic()
    _, _, records = desk_dataset
    params = SchedulerParams(outage_after=None, num_receivers=2)
    assert len(records) == 20
    for record in records:
        table = build_reward_table(record, ARRAY, ARRAY, params)
        plan = greedy_agent(table, params)
        assert abs(plan.mean_reward - 1.0) <= 1e-12
    _report(6, started, "greedy with no outage earns mean reward 1.0 on all 20 episodes")


def test_criterion_07_outage_semantics():
    started = time.monotonic()
    # fixture and expected rewards hand-traced from the starvation rules
    zbar = np.array(
        [
            [[0.30, 0.80], [0.20, 0.10]],
            [[0.50, 0.40], [1.00, 0.00]],
            [[0.60, 0.90], [0.70, 0.10]],
            [[0.25, 0.35], [0.45, 0.55]],
            [[0.15, 0.65], [0.05, 0.95]],
            [[0.75, 0.85], [0.20, 0.40]],
        ]
    )
    table = RewardTable(normalized=zbar)
    params = SchedulerParams(outage_after=3, outage_penalty=-3.0, num_receivers=2)
    state = env_reset(table, params)
    rewards = []
    for action in zip((0, 0, 0, 1, 0, 0), (1, 0, 1, 0, 1, 1)):
        state, reward = env_step(state, table, params, action)
        rewards.append(reward)
    assert rewards == [0.80, 0.50, -3.0, 0.45, 0.65, 0.85]
    plan = AllocationPlan((0, 0, 0, 1, 0, 0), (1, 0, 1, 0, 1, 1), 0.0)
    assert episode_reward(plan, table, params) == sum(rewards) / 6
    _report(7, started, "6-scene hand-traced outage fixture reproduced exactly")


def test_criterion_08_dataset_hygiene(desk_dataset, tmp_path):
    started = time.monotonic()
    out, path, records = desk_dataset

    split = split_episodes([r.episode_id for r in records], 0.3, seed=8)
    train_ids = set(split.train_episode_ids)
    test_ids = set(split.test_episode_ids)
    assert train_ids.isdisjoint(test_ids)
    assert train_ids | test_ids == {r.episode_id for r in records}

    objects = oracles.read_episodes(path)
    copy_path = tmp_path / "copy.jsonl"
    write_episodes(map(encode_record, objects), copy_path, len(objects))
    assert copy_path.read_bytes() == path.read_bytes()
    for columns, record in zip(read_episodes(copy_path), objects, strict=True):
        oracles.assert_columns_equal(columns, oracles.columns_of(record))

    grid = GridSpec.from_area(records[0].v2i_area)
    by_id = {r.episode_id: r for r in records}
    train_records = [by_id[i] for i in split.train_episode_ids]
    test_records = [by_id[i] for i in split.test_episode_ids]
    train, test, keys = extract_examples(train_records, test_records, grid, ARRAY, ARRAY)
    classes = {key: i + 1 for i, key in enumerate(keys.tolist())}
    codebook = dft_codebook(ARRAY)
    pairs = {
        (r.episode_id, s, p.rx_id): p
        for r in objects
        for s, scene_rec in enumerate(r.scenes)
        for p in scene_rec.pairs
    }
    for examples in (train, test):
        for episode, scene, receiver, label in zip(
            examples.episode, examples.scene, examples.receiver, examples.label
        ):
            pair = pairs[(episode, scene, receiver)]
            reswept = sweep(compose_channel([pair.rays], ARRAY, ARRAY), codebook, codebook).best_index[0]
            assert classes.get(reswept, 0) == label
    _report(
        8,
        started,
        f"round trip byte-exact; {len(train)}+{len(test)} labels re-sweep consistent",
    )


def test_criterion_09_mixture_statistics():
    started = time.monotonic()
    rng = np.random.default_rng(99)
    n = 10_000
    counts = {"car": 0, "truck": 0, "bus": 0}
    for _ in range(n):
        counts[sample_vehicle_type(float(rng.random())).kind.value] += 1
    assert abs(counts["car"] / n - 0.7) <= 0.02
    assert abs(counts["truck"] / n - 0.1) <= 0.02
    assert abs(counts["bus"] / n - 0.2) <= 0.02
    _report(9, started, f"10^4 draws: {counts}")


def test_criterion_10_end_to_end_desk_run(desk_dataset):
    started = time.monotonic()
    out, path, records = desk_dataset

    rc = main(
        ["--seed", str(DESK_SEED), "--out", str(out), "export", str(path), "--test-fraction", "0.3"]
    )
    assert rc == 0
    assert (out / "train.csv").exists() and (out / "test.csv").exists()

    rc = main(["--seed", str(DESK_SEED), "--out", str(out), "classify", str(path)])
    assert rc == 0

    rc = main(
        [
            "--seed",
            str(DESK_SEED),
            "--out",
            str(out),
            "schedule",
            str(path),
            "--agents",
            "greedy,round_robin,tabular_q,dp",
            "--n-rec",
            "2",
        ]
    )
    assert rc == 0
    report = json.loads((out / "schedule_report.json").read_text())
    assert len(report["episodes"]) == 20
    for ep in report["episodes"]:
        dp_reward = ep["agents"]["dp"]["mean_reward"]
        for agent in ("greedy", "round_robin", "tabular_q"):
            assert dp_reward >= ep["agents"][agent]["mean_reward"]

    # k-NN beats the majority floor on a LOS-dominant synthetic fixture:
    # two receiver placements, each with its own beam label
    rng = np.random.default_rng(1010)
    grid = GridSpec(origin=(0.0, 0.0), rows=23, cols=250)

    def fixture_example(label):
        col = 30 if label == 1 else 220
        scene = Scene(
            0.0,
            (
                Vehicle(
                    0,
                    DEFAULT_VEHICLE_TYPES[0],
                    Vec3(col + float(rng.uniform(-5, 5)), 10.0 + float(rng.uniform(-2, 2)), 0.0),
                    0.0,
                    0.0,
                    receiver_index=1,
                ),
            ),
        )
        return receiver_view(encode_scenes([scene], grid)[0], 1).reshape(-1)

    labels = np.array([1, 2] * 30)
    feats = np.stack([fixture_example(int(lab)) for lab in labels]).astype(float)
    train_x, train_y = feats[:40], labels[:40]
    test_x, test_y = feats[40:], labels[40:]
    nlos = np.zeros(len(test_y), dtype=bool)  # LOS-dominant: all flagged LOS
    knn_acc = evaluate(knn_classifier(train_x, train_y, k=3), test_x, test_y, nlos)["accuracy_all"]
    maj_acc = evaluate(majority_classifier(train_x, train_y), test_x, test_y, nlos)["accuracy_all"]
    assert knn_acc > maj_acc
    _report(
        10,
        started,
        f"pipeline complete; DP dominates on 20/20 episodes; knn {knn_acc:.2f} > majority {maj_acc:.2f}",
    )


def test_criteria_within_time_budgets(desk_dataset):
    # the dataset fixture plus every criterion above must fit a desk-scale
    # budget; wall-clock is asserted coarsely here to catch regressions
    started = time.monotonic()
    _, _, records = desk_dataset
    assert len(records) == 20
    assert time.monotonic() - started < 60.0

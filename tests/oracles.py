"""Reference implementations of the rewritten production paths.

These are the per-pair channel composition and beam sweep, the cell-by-cell
CSV writer, the traffic model that rebuilt a frozen scene on every step, the
per-pair tracer that enumerated and tested one candidate path at a time, and
the numpy tabular Q-learning agent, exactly as they were before the
rewrites. The production code must reproduce them bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Sequence

import numpy as np

from beamcanyon.dataset import CSV_FIXED_COLUMNS, Example
from beamcanyon.mimo import ArraySpec
from beamcanyon.raytrace import (
    _FACE_TOL,
    SPEED_OF_LIGHT,
    PairRecord,
    Ray,
    ReflectorPlane,
    TraceConfig,
    _azimuth_elevation,
    _mirror,
    _wall_planes,
    free_space_gain,
)
from beamcanyon.scheduler import (
    AllocationPlan,
    QLearningConfig,
    RewardTable,
    SchedulerParams,
    _best_beams,
    _make_plan,
    _state_machinery,
)
from beamcanyon.scenario import (
    MIN_GAP_M,
    SPAWN_HEADWAY_S,
    WARMUP_S,
    Box,
    Episode,
    EpisodeParams,
    Lane,
    Scenario,
    Scene,
    Vec3,
    Vehicle,
    _draw_speed,
    sample_vehicle_type,
    vehicle_bounding_box,
)


def upa_steering(azimuth: float, elevation: float, spec: ArraySpec) -> np.ndarray:
    u = math.sin(elevation) * math.cos(azimuth)
    v = math.sin(elevation) * math.sin(azimuth)
    m = np.arange(spec.nx)[:, None]
    n = np.arange(spec.ny)[None, :]
    phase = 2.0 * math.pi * spec.spacing_wavelengths * (m * u + n * v)
    return (np.exp(1j * phase) / math.sqrt(spec.size)).reshape(-1)


def compose_channel(rays: Sequence[Ray], tx_spec: ArraySpec, rx_spec: ArraySpec) -> np.ndarray:
    """One channel, shape (Nr, Nt), summing its rays in list order."""
    if not rays:
        raise ValueError("cannot compose a channel from an empty ray list")
    h = np.zeros((rx_spec.size, tx_spec.size), dtype=complex)
    for ray in rays:
        a_rx = upa_steering(ray.arr_azimuth, ray.arr_elevation, rx_spec)
        a_tx = upa_steering(ray.dep_azimuth, ray.dep_elevation, tx_spec)
        h += ray.gain * np.outer(a_rx, a_tx.conj())
    return math.sqrt(tx_spec.size * rx_spec.size) * h


def sweep(h: np.ndarray, tx_codebook: np.ndarray, rx_codebook: np.ndarray) -> tuple[np.ndarray, int]:
    """(outputs indexed transmit_beam * n_rx_beams + receive_beam, best index)."""
    per_pair = rx_codebook.conj().T @ h @ tx_codebook
    outputs = per_pair.T.reshape(-1)
    return outputs, int(np.argmax(np.abs(outputs)))


def export_csv(examples: Sequence[Example], path) -> None:
    """Write each cell with str(int(c)), one example per line."""
    if not examples:
        raise ValueError("no examples to export")
    n_cells = examples[0].features.size
    header = [f"g{i}" for i in range(n_cells)] + list(CSV_FIXED_COLUMNS)
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        for ex in examples:
            if ex.features.size != n_cells:
                raise ValueError("examples have inconsistent grid sizes")
            fields = [str(int(c)) for c in ex.features.reshape(-1)]
            fields.append(str(ex.label))
            fields.append(ex.los.value)
            fields.append(str(ex.episode_id))
            fields.append(str(ex.scene_index))
            fields.extend(repr(float(a)) for a in ex.target_angles)
            f.write(",".join(fields) + "\n")


def _lane_index(scenario: Scenario, vehicle: Vehicle) -> int:
    best = 0
    best_d = math.inf
    px, py = vehicle.position.x, vehicle.position.y
    for i, lane in enumerate(scenario.lanes):
        dx, dy = lane.direction
        rx, ry = px - lane.start.x, py - lane.start.y
        along = rx * dx + ry * dy
        perp = math.hypot(rx - along * dx, ry - along * dy)
        if perp < best_d:
            best_d = perp
            best = i
    return best


def _progress(lane: Lane, vehicle: Vehicle) -> float:
    dx, dy = lane.direction
    return vehicle.position.x * dx + vehicle.position.y * dy


def _place(lane: Lane, progress: float, z: float) -> Vec3:
    dx, dy = lane.direction
    s0 = lane.start.x * dx + lane.start.y * dy
    return Vec3(lane.start.x + (progress - s0) * dx, lane.start.y + (progress - s0) * dy, z)


def step_traffic(
    scene: Scene,
    scenario: Scenario,
    dt: float,
    rng: np.random.Generator,
    *,
    avg_speed: float = 8.2,
    min_gap: float = MIN_GAP_M,
) -> Scene:
    """Advance every vehicle along its lane by one time step, finding its lane by search."""
    if dt <= 0:
        raise ValueError("dt must be positive")

    by_lane: dict[int, list[Vehicle]] = {i: [] for i in range(len(scenario.lanes))}
    for v in scene.vehicles:
        by_lane[_lane_index(scenario, v)].append(v)

    moved: list[Vehicle] = []
    for li, lane in enumerate(scenario.lanes):
        dx, dy = lane.direction
        s0 = lane.start.x * dx + lane.start.y * dy
        s1 = lane.end.x * dx + lane.end.y * dy
        group = sorted(by_lane[li], key=lambda v: -_progress(lane, v))
        prev_rear = math.inf
        recycled_this_step = False
        for idx, v in enumerate(group):
            prog = _progress(lane, v)
            half = v.type.length / 2.0
            new = min(prog + v.speed * dt, prev_rear - min_gap - half)
            new = max(new, prog)  # gap rule never pushes a vehicle backwards
            if new + half > s1:
                others = group[:idx] + group[idx + 1 :]
                rear_min = min(
                    (_progress(lane, o) - o.type.length / 2.0 for o in others),
                    default=math.inf,
                )
                if not recycled_this_step:
                    if v.receiver_index is None:
                        new_type = sample_vehicle_type(float(rng.random()))
                        new_speed = _draw_speed(rng, avg_speed)
                    else:
                        new_type, new_speed = v.type, v.speed
                    entry = s0 + new_type.length / 2.0
                    if entry + new_type.length / 2.0 <= rear_min - min_gap:
                        moved.append(
                            replace(
                                v,
                                type=new_type,
                                speed=new_speed,
                                position=_place(lane, entry, v.position.z),
                            )
                        )
                        recycled_this_step = True
                        continue
                # entrance blocked (or one recycle already done): hold at the end
                new = min(new, s1 - half)
            moved.append(replace(v, position=_place(lane, new, v.position.z)))
            prev_rear = new - half

    moved.sort(key=lambda v: v.id)
    return Scene(scene.time + dt, tuple(moved))


def _spawn(
    scene: Scene,
    scenario: Scenario,
    dt: float,
    rng: np.random.Generator,
    avg_speed: float,
    next_id: int,
    min_gap: float = MIN_GAP_M,
) -> tuple[Scene, int]:
    vehicles = list(scene.vehicles)
    for li, lane in enumerate(scenario.lanes):
        if rng.random() >= dt / SPAWN_HEADWAY_S:
            continue
        vtype = sample_vehicle_type(float(rng.random()))
        dx, dy = lane.direction
        s0 = lane.start.x * dx + lane.start.y * dy
        rear_min = min(
            (
                _progress(lane, v) - v.type.length / 2.0
                for v in vehicles
                if _lane_index(scenario, v) == li
            ),
            default=math.inf,
        )
        if s0 + vtype.length > rear_min - min_gap:
            continue  # entrance occupied, drop this attempt
        vehicles.append(
            Vehicle(
                id=next_id,
                type=vtype,
                position=_place(lane, s0 + vtype.length / 2.0, scenario.ground_z),
                heading=math.atan2(dy, dx),
                speed=_draw_speed(rng, avg_speed),
            )
        )
        next_id += 1
    vehicles.sort(key=lambda v: v.id)
    return Scene(scene.time, tuple(vehicles)), next_id


def _tag_receivers(scene: Scene, scenario: Scenario, count: int) -> Scene:
    if len(scene.vehicles) < count:
        raise ValueError(
            f"only {len(scene.vehicles)} vehicles spawned, cannot tag {count} receivers"
        )
    rsu = scenario.rsu_position

    def dist2(v: Vehicle) -> float:
        return (v.position.x - rsu.x) ** 2 + (v.position.y - rsu.y) ** 2

    inside = [v for v in scene.vehicles if scenario.v2i_area.contains(v.position.x, v.position.y)]
    inside_ids = {v.id for v in inside}
    outside = [v for v in scene.vehicles if v.id not in inside_ids]
    ranked = sorted(inside, key=lambda v: (dist2(v), v.id)) + sorted(
        outside, key=lambda v: (dist2(v), v.id)
    )
    mapping = {v.id: i + 1 for i, v in enumerate(ranked[:count])}
    return Scene(
        scene.time,
        tuple(replace(v, receiver_index=mapping.get(v.id)) for v in scene.vehicles),
    )


def generate_episode(
    scenario: Scenario, params: EpisodeParams, episode_id: int = 0
) -> Episode:
    """Warm up traffic, tag the receivers nearest the RSU, and sample the scenes."""
    if params.sample_period <= 0:
        raise ValueError("sample_period must be positive")
    if params.scenes_per_episode < 1 or params.receiver_count < 1:
        raise ValueError("scenes_per_episode and receiver_count must be at least 1")

    rng = np.random.default_rng(params.seed)
    dt = params.sample_period
    scene = Scene(0.0, ())
    next_id = 0
    for _ in range(int(round(WARMUP_S / dt))):
        scene = step_traffic(scene, scenario, dt, rng, avg_speed=params.avg_speed)
        scene, next_id = _spawn(scene, scenario, dt, rng, params.avg_speed, next_id)

    scene = _tag_receivers(scene, scenario, params.receiver_count)

    scenes: list[Scene] = []
    for k in range(params.scenes_per_episode):
        if k > 0:
            scene = step_traffic(scene, scenario, dt, rng, avg_speed=params.avg_speed)
        scenes.append(replace(scene, time=WARMUP_S + k * dt))
    return Episode(episode_id, WARMUP_S, params, tuple(scenes))


def _segments_hit_boxes(p0: np.ndarray, p1: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Strict-interior slab test of one segment against n boxes (lo/hi: (n, 3))."""
    d = p1 - p0
    n = lo.shape[0]
    enter = np.zeros(n)
    leave = np.ones(n)
    ok = np.ones(n, dtype=bool)
    for ax in range(3):
        if d[ax] == 0.0:
            ok &= (p0[ax] > lo[:, ax]) & (p0[ax] < hi[:, ax])
        else:
            t1 = (lo[:, ax] - p0[ax]) / d[ax]
            t2 = (hi[:, ax] - p0[ax]) / d[ax]
            enter = np.maximum(enter, np.minimum(t1, t2))
            leave = np.minimum(leave, np.maximum(t1, t2))
    return ok & (leave > enter)


def specular_paths(
    tx: np.ndarray,
    rx: np.ndarray,
    planes: tuple[ReflectorPlane, ...],
    max_reflections: int,
) -> list[tuple[np.ndarray, tuple[ReflectorPlane, ...]]]:
    """Enumerate geometrically valid mirror paths from tx to rx.

    Returns (points, bounce_planes) per candidate, where points has shape
    (bounces + 2, 3) including both endpoints. The direct path comes first.
    Candidates whose bounce points fall outside a reflecting segment
    (intersection parameter not strictly inside) are dropped; blockage and
    reflector-extent checks are the caller's job.
    """
    candidates: list[tuple[np.ndarray, tuple[ReflectorPlane, ...]]] = [
        (np.stack([tx, rx]), ())
    ]
    sequences: list[tuple[ReflectorPlane, ...]] = [()]
    for _ in range(max_reflections):
        # extend by one bounce, never repeating the plane just left
        sequences = [
            seq + (p,) for seq in sequences for p in planes if not seq or seq[-1] != p
        ]
        for seq in sequences:
            points = _bounce_points(tx, rx, seq)
            if points is not None:
                candidates.append((points, seq))
    return candidates


def _bounce_points(
    tx: np.ndarray, rx: np.ndarray, seq: tuple[ReflectorPlane, ...]
) -> np.ndarray | None:
    images = [tx]
    for plane in seq:
        images.append(_mirror(images[-1], plane))
    points = [rx]
    current = rx
    for j in range(len(seq), 0, -1):
        target = images[j]
        plane = seq[j - 1]
        denom = target[plane.axis] - current[plane.axis]
        if denom == 0.0:
            return None
        t = (plane.offset - current[plane.axis]) / denom
        if not 0.0 < t < 1.0:
            return None
        current = current + t * (target - current)
        points.append(current)
    points.append(tx)
    return np.stack(points[::-1])


def _on_wall_face(point: np.ndarray, plane: ReflectorPlane, buildings: tuple[Box, ...]) -> bool:
    for box in buildings:
        if abs(box.min.y - plane.offset) > _FACE_TOL and abs(box.max.y - plane.offset) > _FACE_TOL:
            continue
        if (
            box.min.x - _FACE_TOL <= point[0] <= box.max.x + _FACE_TOL
            and box.min.z - _FACE_TOL <= point[2] <= box.max.z + _FACE_TOL
        ):
            return True
    return False


def trace_paths(scenario: Scenario, scene: Scene, rx: Vehicle, cfg: TraceConfig) -> PairRecord:
    """Synthesize the multipath set from the RSU to a receiving vehicle's roof.

    Every sub-segment of a candidate path must clear all building boxes and
    all vehicle boxes except the receiver's own; full blockage yields a
    record with an empty ray tuple rather than an error.
    """
    if rx.receiver_index is None:
        raise ValueError("rx vehicle carries no receiver_index")

    tx = scenario.rsu_position.to_array()
    rx_point = np.array(
        [rx.position.x, rx.position.y, scenario.ground_z + rx.type.height], dtype=float
    )

    planes = tuple(_wall_planes(scenario) + [ReflectorPlane(2, scenario.ground_z, "ground")])

    blockers = list(scenario.buildings) + [
        vehicle_bounding_box(v, scenario.ground_z)
        for v in scene.vehicles
        if v.id != rx.id
    ]
    lo = np.array([[b.min.x, b.min.y, b.min.z] for b in blockers])
    hi = np.array([[b.max.x, b.max.y, b.max.z] for b in blockers])

    rays: list[Ray] = []
    for points, seq in specular_paths(tx, rx_point, planes, cfg.max_reflections):
        valid = True
        for plane, bounce in zip(seq, points[1:-1]):
            if plane.kind == "wall":
                valid = _on_wall_face(bounce, plane, scenario.buildings)
            else:
                valid = scenario.rt_area.contains(float(bounce[0]), float(bounce[1]))
            if not valid:
                break
        if not valid:
            continue
        if any(
            bool(_segments_hit_boxes(points[i], points[i + 1], lo, hi).any())
            for i in range(len(points) - 1)
        ):
            continue

        lengths = np.linalg.norm(np.diff(points, axis=0), axis=1)
        total = float(lengths.sum())
        gain = free_space_gain(total, cfg.wavelength)
        for plane in seq:
            gain *= cfg.wall_reflection if plane.kind == "wall" else cfg.ground_reflection
        dep_az, dep_el = _azimuth_elevation(points[1] - points[0])
        arr_az, arr_el = _azimuth_elevation(points[-2] - points[-1])
        interactions = (
            "LOS"
            if not seq
            else "-".join("R" if p.kind == "wall" else "RG" for p in seq)
        )
        rays.append(
            Ray(
                gain=gain,
                delay=total / SPEED_OF_LIGHT,
                dep_azimuth=dep_az,
                dep_elevation=dep_el,
                arr_azimuth=arr_az,
                arr_elevation=arr_el,
                interactions=interactions,
            )
        )

    rays.sort(key=lambda r: (-abs(r.gain), r.delay))
    rays = rays[: cfg.max_rays]

    if rays:
        powers = np.array([abs(r.gain) ** 2 for r in rays])
        delays = np.array([r.delay for r in rays])
        mean_toa = float((powers * delays).sum() / powers.sum())
        p_rx = cfg.tx_power_dbm + 10.0 * math.log10(float(powers.sum()))
    else:
        mean_toa = None
        p_rx = None
    return PairRecord(
        tx_id=0,
        rx_id=rx.receiver_index,
        rays=tuple(rays),
        mean_toa=mean_toa,
        p_tx_dbm=cfg.tx_power_dbm,
        p_rx_dbm=p_rx,
    )


def tabular_q_agent(
    table: RewardTable,
    params: SchedulerParams,
    hyper: QLearningConfig = QLearningConfig(),
) -> AllocationPlan:
    """Finite-horizon tabular Q-learning over (scene, starve vector) states.

    Trains on the episode's own reward table (the environment is fully
    known), then rolls out the greedy policy. Deterministic for a given
    ``hyper.seed``.
    """
    _, index, transitions, outage = _state_machinery(params)
    best_val, _ = _best_beams(table)
    n_scenes = table.n_scenes
    n_rec = params.num_receivers
    n_states = transitions.shape[0]

    rng = np.random.default_rng(hyper.seed)
    q = np.zeros((n_scenes + 1, n_states, n_rec))
    start = index[(0,) * n_rec]
    for episode in range(hyper.training_episodes):
        if hyper.training_episodes > 1:
            frac = episode / (hyper.training_episodes - 1)
        else:
            frac = 1.0
        epsilon = hyper.epsilon_start + frac * (hyper.epsilon_end - hyper.epsilon_start)
        si = start
        for s in range(n_scenes):
            if rng.random() < epsilon:
                a = int(rng.integers(n_rec))
            else:
                a = int(np.argmax(q[s, si]))
            r = params.outage_penalty if outage[si, a] else best_val[s, a]
            nxt = int(transitions[si, a])
            target = r + hyper.discount * float(q[s + 1, nxt].max())
            q[s, si, a] += hyper.learning_rate * (target - q[s, si, a])
            si = nxt

    receivers = []
    si = start
    for s in range(n_scenes):
        a = int(np.argmax(q[s, si]))
        receivers.append(a)
        si = int(transitions[si, a])
    return _make_plan(receivers, table, params)

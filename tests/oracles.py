"""Reference implementations of the rewritten production paths.

These are the per-pair channel composition and beam sweep, the cell-by-cell
CSV writer, and the traffic model that rebuilt a frozen scene on every step,
exactly as they were before the rewrites. The production code must reproduce
them bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Sequence

import numpy as np

from beamcanyon.dataset import CSV_FIXED_COLUMNS, Example
from beamcanyon.mimo import ArraySpec
from beamcanyon.raytrace import Ray
from beamcanyon.scenario import (
    MIN_GAP_M,
    SPAWN_HEADWAY_S,
    WARMUP_S,
    Episode,
    EpisodeParams,
    Lane,
    Scenario,
    Scene,
    Vec3,
    Vehicle,
    _draw_speed,
    sample_vehicle_type,
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

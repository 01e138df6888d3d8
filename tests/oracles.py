"""Reference implementations of the rewritten production paths.

These are the one-vehicle bounding box, the per-pair channel composition and
beam sweep, the scene-by-scene occupancy-grid rasterizer, the cell-by-cell CSV writer, the example extraction
that kept one feature grid per example and fitted a label map on one side of a split to
apply on the other, with the table-driven CSV writer over it, the
table-driven writer over one grid per scene that encoded every cell of every row, the traffic model that rebuilt a frozen scene on every step, the
per-pair tracer that enumerated and tested one candidate path at a time and
finished each ray with its own norm, the
dynamic-programming optimum that scanned states and receivers one at a time
over state tables enumerated in Python loops, the array-built tables over every
capped starve vector, the scalar scheduling environment that replayed plans,
the numpy tabular Q-learning agent, the float64 feature matrix, the kNN prediction that sorted every
float64 distance row, the chunk kNN vote that partitioned each float32
distance row at its k-th value and filled the ties from a cumulative count,
the chunk kNN vote that took each row's k smallest composite keys over every
train row at once, and the episode-file codec that spelled out every key of
each record type in one writer and one reader helper per type, with the writer
that took the whole list of records before writing any, the object reader that
checked every rule of the format but one (``read_episodes``) and built a frozen
record per episode, vehicle, pair and ray, and the read stages' object forms
over it: the batched channel composition over lists of Ray objects, the
strongest-ray and LOS tests of one pair, the example extraction into an
``Examples`` table and the reward table, exactly as they were before the
rewrites. The production code must reproduce them bit for bit.

Helpers that only tests call live here too: the one-segment box test over
the tracer's slab test, the mean reward of a plan replayed through the
scalar scheduling environment, and the conversions between an object record
and its columns (``columns_of``, ``record_of``, ``assert_columns_equal``).
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, fields, replace
from operator import itemgetter
from pathlib import Path
from typing import Hashable, Iterable, Sequence

import numpy as np

from beamcanyon.classify import KnnModel
from beamcanyon.dataset import (
    CSV_FIXED_COLUMNS,
    FORMAT_NAME,
    PAIR_KEYS,
    PARAMS_KEYS,
    RAY_KEYS,
    VEHICLE_KEYS,
    VEHICLE_TYPE_KEYS,
    FORMAT_VERSION,
    DatasetFormatError,
    EpisodeColumns,
    EpisodeRecord,
    Examples,
    open_atomic,
)
from beamcanyon.features import HEIGHT_CODES, OVERLAP_FRACTION, GridSpec, SceneVehicles, receiver_view
from beamcanyon.mimo import ArraySpec, Rays, dft_codebook, sweep_rays
from beamcanyon.mimo import upa_steering as upa_steering_batch
from beamcanyon.raytrace import (
    _FACE_TOL,
    SPEED_OF_LIGHT,
    LosStatus,
    PairRecord,
    Ray,
    ReflectorPlane,
    TraceConfig,
    _mirror,
    _slab_hits,
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
    greedy_agent,
    normalize_powers,
)
from beamcanyon.scenario import (
    MIN_GAP_M,
    SPAWN_HEADWAY_S,
    WARMUP_S,
    Box,
    EpisodeParams,
    Lane,
    Rect,
    Scenario,
    Scene,
    Vec3,
    Vehicle,
    VehicleKind,
    VehicleType,
    _draw_speed,
    sample_vehicle_type,
)


def vehicle_bounding_box(vehicle: Vehicle, ground_z: float) -> Box:
    """Axis-aligned box around the (possibly rotated) footprint, extruded upward."""
    half_l = vehicle.type.length / 2.0
    half_w = vehicle.type.width / 2.0
    c = abs(math.cos(vehicle.heading))
    s = abs(math.sin(vehicle.heading))
    hx = c * half_l + s * half_w
    hy = s * half_l + c * half_w
    p = vehicle.position
    return Box(
        Vec3(p.x - hx, p.y - hy, ground_z),
        Vec3(p.x + hx, p.y + hy, ground_z + vehicle.type.height),
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


def compose_ray_lists(ray_lists: Sequence[Sequence[Ray]], tx_spec: ArraySpec, rx_spec: ArraySpec) -> np.ndarray:
    """Channels of K lists of Ray objects, stacked (K, Nr, Nt), summed ray slot by ray slot across the batch."""
    if any(not rays for rays in ray_lists):
        raise ValueError("cannot compose a channel from an empty ray list")
    h = np.zeros((len(ray_lists), rx_spec.size, tx_spec.size), dtype=complex)
    for slot in range(max(map(len, ray_lists), default=0)):
        owners = [k for k, rays in enumerate(ray_lists) if len(rays) > slot]
        rays = [ray_lists[k][slot] for k in owners]
        a_rx = upa_steering_batch([r.arr_azimuth for r in rays], [r.arr_elevation for r in rays], rx_spec)
        a_tx = upa_steering_batch([r.dep_azimuth for r in rays], [r.dep_elevation for r in rays], tx_spec)
        gains = np.array([r.gain for r in rays], dtype=complex)[:, None, None]
        terms = a_rx[:, :, None] * a_tx.conj()[:, None, :]
        h[owners] += np.multiply(gains, terms, out=terms)
    return np.multiply(math.sqrt(tx_spec.size * rx_spec.size), h, out=h)


def strongest_ray_angles(rays: Sequence[Ray]) -> tuple[float, float, float, float]:
    """Angles of the highest-amplitude ray; amplitude ties go to the earliest arrival."""
    if not rays:
        raise ValueError("empty ray list")
    best = min(rays, key=lambda r: (-abs(r.gain), r.delay))
    return (best.dep_azimuth, best.dep_elevation, best.arr_azimuth, best.arr_elevation)


def classify_los(record: PairRecord) -> LosStatus:
    """LOS if any ray is the direct path, NoPath if the pair has no rays at all."""
    if not record.rays:
        return LosStatus.NO_PATH
    if any(r.interactions == "LOS" for r in record.rays):
        return LosStatus.LOS
    return LosStatus.NLOS


def _encode_each(scenes: Sequence[Scene], grid: GridSpec) -> np.ndarray:
    grids = np.zeros((len(scenes), grid.rows, grid.cols), dtype=np.int16)
    for k, scene in enumerate(scenes):
        grids[k] = encode_scene(scene, grid)
    return grids


def extract_example_table(
    train_records: Iterable[EpisodeRecord],
    test_records: Iterable[EpisodeRecord],
    grid: GridSpec,
    tx_spec: ArraySpec,
    rx_spec: ArraySpec,
) -> tuple[Examples, Examples, np.ndarray]:
    """``extract_examples`` on object records: each pair's channel composed and swept alone,
    each scene rasterized alone, the strongest ray and the LOS flag taken per pair."""
    sides = [[(rec.episode_id, i, s) for rec in records for i, s in enumerate(rec.scenes)]
             for records in (train_records, test_records)]
    kept = [[(k, pair) for k, (_, _, scene_rec) in enumerate(scenes) for pair in scene_rec.pairs if pair.rays]
            for scenes in sides]
    tx_codebook, rx_codebook = dft_codebook(tx_spec), dft_codebook(rx_spec)
    raw = np.array([sweep(compose_channel(p.rays, tx_spec, rx_spec), tx_codebook, rx_codebook)[1]
                    for side in kept for _, p in side], dtype=np.int64)
    keys = np.array(sorted(set(raw[: len(kept[0])].tolist())), dtype=np.int64)
    index = {key: i + 1 for i, key in enumerate(keys.tolist())}
    labels = np.array([index.get(key, 0) for key in raw.tolist()], dtype=np.int64)
    train, test = (
        Examples(
            grids=_encode_each([scene_rec for _, _, scene_rec in scenes], grid),
            grid_row=np.array([k for k, _ in side], dtype=np.intp),
            receiver=np.array([p.rx_id for _, p in side], dtype=np.int64),
            label=label,
            los=np.array([classify_los(p).value for _, p in side], dtype=str),
            episode=np.array([scenes[k][0] for k, _ in side], dtype=np.int64),
            scene=np.array([scenes[k][1] for k, _ in side], dtype=np.int64),
            angles=np.array([strongest_ray_angles(p.rays) for _, p in side], dtype=np.float64).reshape(-1, 4),
        )
        for scenes, side, label in zip(sides, kept, np.split(labels, [len(kept[0])]))
    )
    return train, test, keys


def build_reward_table(
    record: EpisodeRecord, tx_spec: ArraySpec, rx_spec: ArraySpec, params: SchedulerParams
) -> RewardTable:
    """``build_reward_table`` on an object record, each pair's channel composed and swept alone."""
    if params.num_receivers > len(record.receiver_vehicles):
        raise ValueError(
            f"scheduler needs {params.num_receivers} receivers, episode has {len(record.receiver_vehicles)}"
        )
    tx_codebook, rx_codebook = dft_codebook(tx_spec), dft_codebook(rx_spec)
    raw = np.full((len(record.scenes), params.num_receivers, tx_spec.size * rx_spec.size), -np.inf)
    for s, scene_rec in enumerate(record.scenes):
        for pair in scene_rec.pairs:
            if pair.rx_id <= params.num_receivers and pair.rays:
                outputs, _ = sweep(compose_channel(pair.rays, tx_spec, rx_spec), tx_codebook, rx_codebook)
                with np.errstate(divide="ignore"):
                    raw[s, pair.rx_id - 1] = 20.0 * np.log10(np.abs(outputs))
    normalized = np.zeros_like(raw)
    for s in range(raw.shape[0]):
        if np.isfinite(raw[s]).any():
            normalized[s] = normalize_powers(raw[s], params.floor_offset_db)
    return RewardTable(normalized=normalized)


def _cell_range(lo: float, hi: float, origin: float, cell: float, count: int) -> range:
    first = int(np.floor((lo - origin) / cell))
    last = int(np.floor((hi - origin) / cell))
    return range(max(0, first), min(count - 1, last) + 1)


def encode_scene(scene: Scene, grid: GridSpec) -> np.ndarray:
    """Rasterize vehicle footprints into the occupancy matrix.

    Cell conflicts: a receiver index always wins over a blocker code; between
    blockers the more negative (taller) code wins; between receivers the
    smaller index wins.
    """
    out = np.zeros((grid.rows, grid.cols), dtype=np.int16)
    ox, oy = grid.origin
    threshold = OVERLAP_FRACTION * grid.cell * grid.cell
    for vehicle in scene.vehicles:
        box = vehicle_bounding_box(vehicle, 0.0)
        value = (
            vehicle.receiver_index
            if vehicle.receiver_index is not None
            else HEIGHT_CODES[vehicle.type.kind]
        )
        for i in _cell_range(box.min.y, box.max.y, oy, grid.cell, grid.rows):
            overlap_y = min(box.max.y, oy + (i + 1) * grid.cell) - max(box.min.y, oy + i * grid.cell)
            for j in _cell_range(box.min.x, box.max.x, ox, grid.cell, grid.cols):
                overlap_x = min(box.max.x, ox + (j + 1) * grid.cell) - max(
                    box.min.x, ox + j * grid.cell
                )
                if overlap_x * overlap_y < threshold:
                    continue
                current = out[i, j]
                if value > 0:
                    if current <= 0 or value < current:
                        out[i, j] = value
                elif current <= 0 and value < current:
                    out[i, j] = value
    return out


@dataclass(frozen=True)
class Example:
    episode_id: int
    scene_index: int
    receiver_index: int
    features: np.ndarray
    label: int
    los: LosStatus
    in_service_area: bool
    target_angles: tuple[float, float, float, float]


def encode_for_receiver(grid_values: np.ndarray, receiver_index: int) -> np.ndarray:
    """Per-receiver view: the target becomes +1, all other receivers -1."""
    if receiver_index < 1:
        raise ValueError("receiver_index must be positive")
    if not np.any(grid_values == receiver_index):
        raise ValueError(f"receiver {receiver_index} does not appear in the grid")
    out = grid_values.copy()
    others = (out > 0) & (out != receiver_index)
    target = out == receiver_index
    out[others] = -1
    out[target] = 1
    return out


@dataclass(frozen=True)
class LabelMap:
    """Bijection between the raw keys seen at fit time and classes 1..M.

    Keys never seen while fitting map to the reserved class 0.
    """

    ordered_keys: tuple[Hashable, ...]

    def __post_init__(self) -> None:
        index = {key: i + 1 for i, key in enumerate(self.ordered_keys)}
        if len(index) != len(self.ordered_keys):
            raise ValueError("duplicate keys in label map")
        object.__setattr__(self, "_index", index)

    @property
    def num_classes(self) -> int:
        return len(self.ordered_keys)

    def apply(self, key: Hashable) -> int:
        return self._index.get(key, 0)


def compact_labels(raw_keys: Iterable[Hashable]) -> LabelMap:
    """Assign classes 1..M to the distinct keys, in canonical sorted order."""
    keys = sorted(set(raw_keys))
    if not keys:
        raise ValueError("no raw keys to compact")
    return LabelMap(tuple(keys))


def extract_examples(
    records: Iterable[EpisodeRecord],
    grid: GridSpec,
    tx_spec: ArraySpec,
    rx_spec: ArraySpec,
    mode: str = "fit",
    label_map: LabelMap | None = None,
) -> tuple[list[Example], LabelMap]:
    """One example per (scene, receiver) with a beam-sweep label.

    ``mode="fit"`` builds the label map from these records; ``mode="apply"``
    requires an already-fitted map and sends unseen beam pairs to class 0.
    Pairs with no rays are dropped. Receivers outside the service strip keep
    their label but get an all-zero feature grid and a cleared flag.
    """
    if mode not in ("fit", "apply"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "apply" and label_map is None:
        raise ValueError("apply mode requires a fitted label map")

    # sweep before encoding any grid, so that the sweep's scratch arrays are freed before the
    # grids accumulate and add nothing to peak memory
    records = [record_of(r) if isinstance(r, EpisodeColumns) else r for r in records]
    ray_lists = [
        pair.rays for rec in records for scene_rec in rec.scenes for pair in scene_rec.pairs if pair.rays
    ]
    raw_keys = [
        key for result in sweep_rays(ray_lists, tx_spec, rx_spec) for key in result.best_index.tolist()
    ]
    if mode == "fit":
        label_map = compact_labels(raw_keys)
    assert label_map is not None
    keys = iter(raw_keys)
    examples = []
    for rec in records:
        for scene_index, scene_rec in enumerate(rec.scenes):
            grid_values = encode_scene(Scene(scene_rec.time, scene_rec.vehicles), grid)
            for pair in scene_rec.pairs:
                if not pair.rays:
                    continue
                present = bool(np.any(grid_values == pair.rx_id))
                features = (
                    encode_for_receiver(grid_values, pair.rx_id)
                    if present
                    else np.zeros_like(grid_values)
                )
                examples.append(
                    Example(
                        episode_id=rec.episode_id,
                        scene_index=scene_index,
                        receiver_index=pair.rx_id,
                        features=features,
                        label=label_map.apply(next(keys)),
                        los=classify_los(pair),
                        in_service_area=present,
                        target_angles=strongest_ray_angles(pair.rays),
                    )
                )
    return examples, label_map


def export_csv(examples: Sequence[Example], path: str | os.PathLike) -> None:
    """Flattened row-major grids plus the fixed label/metadata columns, atomically.

    Each cell is written as ``int(c)``. The bytes come from a table of
    ``"<code>,"`` for every integer between the smallest and the largest
    cell, padded to one width, so a row is one table lookup with the padding
    dropped.
    """
    if not examples:
        raise ValueError("no examples to export")
    n_cells = examples[0].features.size
    if any(ex.features.size != n_cells for ex in examples):
        raise ValueError("examples have inconsistent grid sizes")
    # int() truncates toward zero, which is monotone, so the extremes convert alone
    lo = min(int(ex.features.min()) for ex in examples)
    hi = max(int(ex.features.max()) for ex in examples)
    table = np.array([f"{code}," for code in range(lo, hi + 1)], dtype=bytes)
    header = [f"g{i}" for i in range(n_cells)] + list(CSV_FIXED_COLUMNS)
    try:
        with open_atomic(path, "wb") as f:
            f.write((",".join(header) + "\n").encode())
            for ex in examples:
                cells = ex.features.reshape(-1).astype(np.intp)
                f.write(table[cells - lo].tobytes().replace(b"\0", b""))
                fixed = [str(ex.label), ex.los.value, str(ex.episode_id), str(ex.scene_index)]
                fixed.extend(repr(float(a)) for a in ex.target_angles)
                f.write((",".join(fixed) + "\n").encode())
    except OSError as e:
        raise OSError(f"failed writing {path}: {e}") from e


def export_csv_rows(examples: Examples, path: str | os.PathLike) -> None:
    """Flattened row-major per-receiver views plus the fixed label/metadata columns, atomically.

    Each row's view is built from its scene grid as the row is written, and
    each cell is written as an integer. The bytes come from a table of
    ``"<code>,"`` for every integer a view can hold, padded to one width, so a
    row is one table lookup with the padding dropped.
    """
    if not len(examples):
        raise ValueError("no examples to export")
    # a view holds its grid's codes up to 0, -1 for other receivers and +1 for the target
    lo = min(int(examples.grids.min()), -1)
    table = np.array([f"{code}," for code in range(lo, 2)], dtype=bytes)
    header = [f"g{i}" for i in range(examples.grids[0].size)] + list(CSV_FIXED_COLUMNS)
    rows = zip(
        examples.grid_row.tolist(),
        examples.receiver.tolist(),
        examples.label.tolist(),
        examples.los.tolist(),
        examples.episode.tolist(),
        examples.scene.tolist(),
        examples.angles.tolist(),
    )
    try:
        with open_atomic(path, "wb") as f:
            f.write((",".join(header) + "\n").encode())
            for grid_row, receiver, *fixed, angles in rows:
                cells = receiver_view(examples.grids[grid_row], receiver).reshape(-1).astype(np.intp)
                f.write(table[cells - lo].tobytes().replace(b"\0", b""))
                f.write((",".join([*map(str, fixed), *map(repr, angles)]) + "\n").encode())
    except OSError as e:
        raise OSError(f"failed writing {path}: {e}") from e


def export_csv_by_cell(examples: Sequence[Example], path) -> None:
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


def generate_episode(scenario: Scenario, params: EpisodeParams) -> tuple[Scene, ...]:
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
    return tuple(scenes)


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


def _azimuth_elevation(direction: np.ndarray) -> tuple[float, float]:
    norm = float(np.linalg.norm(direction))
    u = direction / norm
    azimuth = math.atan2(u[1], u[0])
    if azimuth <= -math.pi:
        azimuth += 2.0 * math.pi
    elevation = math.acos(max(-1.0, min(1.0, float(u[2]))))
    return azimuth, elevation


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


# the full-table guard: (cap + 1) ** n_rec states at most
MAX_DP_STATES = 1_000_000


@dataclass(frozen=True)
class SchedulerState:
    scene_index: int
    starve: tuple[int, ...]  # consecutive unserved scenes per receiver, capped


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
    if not 0 <= pair < table.normalized.shape[2]:
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


def _state_machinery(params: SchedulerParams):
    """Enumerate capped starve vectors with transition and outage tables.

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
    states = list(itertools.product(range(cap + 1), repeat=n_rec))
    index = {st: i for i, st in enumerate(states)}
    transitions = np.empty((n_states, n_rec), dtype=np.int64)
    outage = np.zeros((n_states, n_rec), dtype=bool)
    for si, st in enumerate(states):
        for a in range(n_rec):
            nxt = _advance(st, a, cap)
            transitions[si, a] = index[nxt]
            outage[si, a] = params.outage_after is not None and max(nxt) >= params.outage_after
    return states, index, transitions, outage


def full_state_tables(params: SchedulerParams) -> tuple[np.ndarray, np.ndarray, int]:
    """The scheduling MDP over all capped starve vectors: transitions, outages, start state.

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


def dp_optimal(table: RewardTable, params: SchedulerParams) -> AllocationPlan:
    """Exact maximizer of the mean episode reward over receiver sequences.

    The beam pair per scene is fixed to the strongest pair of the served
    receiver (lossless: the pair affects the reward only through its power
    and never the starvation state). Value ties break toward the smaller
    receiver index, scene by scene.
    """
    if params.outage_after is None:
        return greedy_agent(table, params)  # no constraint: per-scene maximum is optimal
    _, index, transitions, outage = _state_machinery(params)
    best_val, _ = _best_beams(table)
    n_scenes = table.n_scenes
    n_rec = params.num_receivers
    n_states = transitions.shape[0]

    value = np.zeros(n_states)
    choice = np.zeros((n_scenes, n_states), dtype=np.int64)
    for s in range(n_scenes - 1, -1, -1):
        new_value = np.full(n_states, -math.inf)
        for si in range(n_states):
            best_v = -math.inf
            best_a = 0
            for a in range(n_rec):
                r = params.outage_penalty if outage[si, a] else best_val[s, a]
                v = r + value[transitions[si, a]]
                if v > best_v:
                    best_v = v
                    best_a = a
            new_value[si] = best_v
            choice[s, si] = best_a
        value = new_value

    receivers = []
    si = index[(0,) * n_rec]
    for s in range(n_scenes):
        a = int(choice[s, si])
        receivers.append(a)
        si = int(transitions[si, a])
    return _make_plan(receivers, table, params)


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


def examples_to_arrays(examples: Examples) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(features, labels, nlos mask) matrices for a table of examples."""
    views = receiver_view(examples.grids[examples.grid_row], examples.receiver)
    x = views.reshape(len(examples), -1).astype(np.float64)
    return x, examples.label, examples.los == LosStatus.NLOS.value


def predict_knn(model: KnnModel, features: np.ndarray) -> np.ndarray:
    """Batch kNN prediction; accepts a single vector or an (n, d) matrix."""
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if x.shape[1] != model.features.shape[1]:
        raise ValueError(
            f"feature dimension {x.shape[1]} does not match training dimension "
            f"{model.features.shape[1]}"
        )
    d2 = (
        (x**2).sum(axis=1)[:, None]
        + (model.features**2).sum(axis=1)[None, :]
        - 2.0 * x @ model.features.T
    )
    # stable argsort: equidistant neighbours resolve to the lower train index
    nearest = np.argsort(d2, axis=1, kind="stable")[:, : model.k]
    votes = model.labels[nearest]
    return np.array([int(np.argmax(np.bincount(row))) for row in votes], dtype=np.int64)


def _vehicle_to_obj(v: Vehicle) -> dict:
    return {
        "id": v.id,
        "kind": v.type.kind.value,
        "length": v.type.length,
        "width": v.type.width,
        "height": v.type.height,
        "probability": v.type.probability,
        "position": [v.position.x, v.position.y, v.position.z],
        "heading": v.heading,
        "speed": v.speed,
        "receiver_index": v.receiver_index,
    }


def _vehicle_from_obj(o: dict) -> Vehicle:
    return Vehicle(
        id=o["id"],
        type=VehicleType(
            VehicleKind(o["kind"]), o["length"], o["width"], o["height"], o["probability"]
        ),
        position=Vec3(*o["position"]),
        heading=o["heading"],
        speed=o["speed"],
        receiver_index=o["receiver_index"],
    )


def _ray_to_obj(r: Ray) -> dict:
    return {
        "gain": [r.gain.real, r.gain.imag],
        "delay": r.delay,
        "dep_azimuth": r.dep_azimuth,
        "dep_elevation": r.dep_elevation,
        "arr_azimuth": r.arr_azimuth,
        "arr_elevation": r.arr_elevation,
        "interactions": r.interactions,
    }


def _ray_from_obj(o: dict) -> Ray:
    return Ray(
        gain=complex(o["gain"][0], o["gain"][1]),
        delay=o["delay"],
        dep_azimuth=o["dep_azimuth"],
        dep_elevation=o["dep_elevation"],
        arr_azimuth=o["arr_azimuth"],
        arr_elevation=o["arr_elevation"],
        interactions=o["interactions"],
    )


def _pair_to_obj(p: PairRecord) -> dict:
    return {
        "tx_id": p.tx_id,
        "rx_id": p.rx_id,
        "rays": [_ray_to_obj(r) for r in p.rays],
        "mean_toa": p.mean_toa,
        "p_tx_dbm": p.p_tx_dbm,
        "p_rx_dbm": p.p_rx_dbm,
    }


def _pair_from_obj(o: dict) -> PairRecord:
    return PairRecord(
        tx_id=o["tx_id"],
        rx_id=o["rx_id"],
        rays=tuple(_ray_from_obj(r) for r in o["rays"]),
        mean_toa=o["mean_toa"],
        p_tx_dbm=o["p_tx_dbm"],
        p_rx_dbm=o["p_rx_dbm"],
    )


def _rect_to_list(r: Rect) -> list[float]:
    return [r.xmin, r.ymin, r.xmax, r.ymax]


def _record_to_obj(rec: EpisodeRecord) -> dict:
    return {
        "episode_id": rec.episode_id,
        "start_time": rec.start_time,
        "params": {
            "sample_period": rec.params.sample_period,
            "scenes_per_episode": rec.params.scenes_per_episode,
            "receiver_count": rec.params.receiver_count,
            "seed": rec.params.seed,
            "avg_speed": rec.params.avg_speed,
        },
        "max_rays": rec.max_rays,
        "rt_area": _rect_to_list(rec.rt_area),
        "v2i_area": _rect_to_list(rec.v2i_area),
        "rsu_position": [rec.rsu_position.x, rec.rsu_position.y, rec.rsu_position.z],
        "receiver_vehicles": {str(k): v for k, v in sorted(rec.receiver_vehicles.items())},
        "scenes": [
            {
                "time": s.time,
                "vehicles": [_vehicle_to_obj(v) for v in s.vehicles],
                "pairs": [_pair_to_obj(p) for p in s.pairs],
            }
            for s in rec.scenes
        ],
    }


def _record_from_obj(o: dict) -> EpisodeRecord:
    if not o["scenes"]:
        raise ValueError("no scenes")
    params = o["params"]
    return EpisodeRecord(
        episode_id=o["episode_id"],
        start_time=o["start_time"],
        params=EpisodeParams(
            sample_period=params["sample_period"],
            scenes_per_episode=params["scenes_per_episode"],
            receiver_count=params["receiver_count"],
            seed=params["seed"],
            avg_speed=params["avg_speed"],
        ),
        max_rays=o["max_rays"],
        rt_area=Rect(*o["rt_area"]),
        v2i_area=Rect(*o["v2i_area"]),
        rsu_position=Vec3(*o["rsu_position"]),
        receiver_vehicles={int(k): v for k, v in o["receiver_vehicles"].items()},
        scenes=tuple(
            Scene(
                time=s["time"],
                vehicles=tuple(_vehicle_from_obj(v) for v in s["vehicles"]),
                pairs=tuple(_pair_from_obj(p) for p in s["pairs"]),
            )
            for s in o["scenes"]
        ),
    )


_ray_items, _pair_items, _vehicle_items, _type_items, _params_items = (
    itemgetter(*k) for k in (RAY_KEYS, PAIR_KEYS, VEHICLE_KEYS, VEHICLE_TYPE_KEYS, PARAMS_KEYS)
)


def _record_from_checked_obj(o: dict, vehicle_types: dict) -> EpisodeRecord:
    """Decode one episode object; ``vehicle_types`` interns the types met so far in its file."""
    if not o["scenes"]:
        raise ValueError("no scenes")
    receivers = {int(k): v for k, v in o["receiver_vehicles"].items()}
    if min(receivers, default=1) < 1:
        raise ValueError(f"receiver_vehicles holds receiver index {min(receivers)}; indices start at 1")
    params = EpisodeParams(*_params_items(o["params"]))
    if sorted(receivers) != list(range(1, params.receiver_count + 1)):
        raise ValueError(f"receiver_vehicles keys {sorted(receivers)}: not the receiver indices "
                         f"1..{params.receiver_count} of receiver_count {params.receiver_count}")
    scenes = []
    for s in o["scenes"]:
        vehicles = []
        for v in s["vehicles"]:
            key = _type_items(v)
            vtype = vehicle_types.get(key)
            if vtype is None:
                kind, *size = key
                vtype = vehicle_types[key] = VehicleType(VehicleKind(kind), *size)
            vid, heading, speed, receiver_index = _vehicle_items(v)
            vehicles.append(Vehicle(vid, vtype, Vec3(*v["position"]), heading, speed, receiver_index))
        tags = [(v.receiver_index, v.id) for v in vehicles if v.receiver_index is not None]
        if len(dict(tags)) < len(tags) or not receivers.items() >= set(tags):
            raise ValueError(f"scene {len(scenes)}: vehicle (receiver_index, id) tags {tags}: "
                             "not distinct receiver_vehicles entries")
        pairs = []
        for p in s["pairs"]:
            tx_id, rx_id, mean_toa, p_tx_dbm, p_rx_dbm = _pair_items(p)
            # unpacking the gain rejects any but exactly two parts
            rays = tuple(Ray(complex(re, im), *_ray_items(r)) for r in p["rays"] for re, im in (r["gain"],))
            pairs.append(PairRecord(tx_id, rx_id, rays, mean_toa, p_tx_dbm, p_rx_dbm))
        rx_ids = [p.rx_id for p in pairs]
        if not receivers.keys() >= set(rx_ids) or len(set(rx_ids)) < len(rx_ids):
            raise ValueError(f"scene {len(scenes)}: pair rx_ids {rx_ids}: not distinct receiver_vehicles keys")
        scenes.append(Scene(s["time"], tuple(vehicles), tuple(pairs)))
    return EpisodeRecord(
        o["episode_id"],
        o["start_time"],
        params,
        o["max_rays"],
        Rect(*o["rt_area"]),
        Rect(*o["v2i_area"]),
        Vec3(*o["rsu_position"]),
        receivers,
        tuple(scenes),
    )


def read_episodes(path: str | os.PathLike) -> list[EpisodeRecord]:
    """The object reader: one frozen record per episode, with every rule of the column reader
    but the one that each record's ``v2i_area`` be record 0's."""
    path = Path(path)
    with open(path, "r", encoding="utf-8") as f:
        first = f.readline()
        if not first:
            raise DatasetFormatError(f"{path}: empty file")
        try:
            header = json.loads(first.rstrip("\n"))
        except json.JSONDecodeError as e:
            raise DatasetFormatError(f"{path}: bad header line: {e}") from e
        if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
            raise DatasetFormatError(f"{path}: not a {FORMAT_NAME} file")
        if header.get("version") != FORMAT_VERSION:
            raise DatasetFormatError(f"{path}: unsupported version {header.get('version')}")
        expected = header.get("episode_count")
        if type(expected) is not int:  # a bool is not a count
            raise DatasetFormatError(f"{path}: header episode_count must be an integer, got {expected!r}")
        if expected < 1:
            raise DatasetFormatError(f"{path}: no episode records: header episode_count is {expected}")
        records = []
        vehicle_types: dict[tuple, VehicleType] = {}
        for i, line in enumerate(f):
            if i == expected:
                raise DatasetFormatError(f"{path}: more episode records than the {expected} the header promises")
            try:
                records.append(_record_from_checked_obj(json.loads(line.rstrip("\n")), vehicle_types))
            except (AttributeError, IndexError, KeyError, TypeError, ValueError) as e:
                raise DatasetFormatError(f"{path}: record {i}: {e}") from e
    if len(records) != expected:
        raise DatasetFormatError(
            f"{path}: truncated: header promises {expected} episode records, "
            f"found {len(records)}"
        )
    return records


def columns_of(record: EpisodeRecord) -> EpisodeColumns:
    """The columns of an object record, built from its objects, not from its line."""
    pairs = [p for s in record.scenes for p in s.pairs]
    return EpisodeColumns(
        episode_id=record.episode_id,
        params=record.params,
        v2i_area=record.v2i_area,
        receiver_vehicles=dict(record.receiver_vehicles),
        vehicles=SceneVehicles.of(record.scenes),
        pair_counts=np.array([len(s.pairs) for s in record.scenes], dtype=np.intp),
        rx_id=np.array([p.rx_id for p in pairs], dtype=np.int64),
        rays=Rays.of([p.rays for p in pairs]),
    )


KIND_OF_CODE = {code: kind for kind, code in HEIGHT_CODES.items()}


def record_of(columns: EpisodeColumns) -> EpisodeRecord:
    """An object record that holds what the columns hold. The fields that the columns drop get
    stand-ins: a receiver vehicle is a car, every ray not the direct path a wall bounce, and the
    ids, times, speeds, probabilities, z coordinates and powers are 0."""
    vehicles = iter(zip(columns.vehicles.geometry.tolist(), columns.vehicles.key.tolist()))
    gain, delay, angles, los = (a.tolist() for a in (columns.rays.gain, columns.rays.delay,
                                                     columns.rays.angles, columns.rays.los))
    rays = iter(Ray(g, d, *a, "LOS" if direct else "R") for g, d, a, direct in zip(gain, delay, angles, los))
    pairs = iter(PairRecord(0, rx_id, tuple(itertools.islice(rays, n)), 0.0, 0.0, 0.0)
                 for rx_id, n in zip(columns.rx_id.tolist(), columns.rays.counts.tolist()))
    scenes = []
    for n_vehicles, n_pairs in zip(columns.vehicles.counts.tolist(), columns.pair_counts.tolist()):
        scene_vehicles = tuple(
            Vehicle(0, VehicleType(KIND_OF_CODE.get(key, VehicleKind.CAR), length, width, height, 0.0),
                    Vec3(x, y, 0.0), heading, 0.0, key if key > 0 else None)
            for (length, width, height, x, y, heading), key in itertools.islice(vehicles, n_vehicles)
        )
        scenes.append(Scene(0.0, scene_vehicles, tuple(itertools.islice(pairs, n_pairs))))
    area = columns.v2i_area
    return EpisodeRecord(columns.episode_id, 0.0, columns.params, 0, area, area, Vec3(0.0, 0.0, 0.0),
                         dict(columns.receiver_vehicles), tuple(scenes))


def assert_columns_equal(a: EpisodeColumns, b: EpisodeColumns) -> None:
    """Every field equal, arrays bit for bit and of one dtype."""
    for name in ("episode_id", "params", "v2i_area", "receiver_vehicles"):
        assert getattr(a, name) == getattr(b, name), name
    tables = [("vehicles", SceneVehicles), ("rays", Rays)]
    pairs = [(name, getattr(a, name), getattr(b, name)) for name in ("pair_counts", "rx_id")]
    for table, cls in tables:
        pairs += [(f"{table}.{f.name}", getattr(getattr(a, table), f.name), getattr(getattr(b, table), f.name))
                  for f in fields(cls)]
    for name, x, y in pairs:
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name


def write_episodes(records: Sequence[EpisodeRecord], path: str | os.PathLike) -> None:
    """Write a whole list of records as JSON Lines, atomically."""

    def dumps(obj: dict) -> str:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    with open_atomic(path) as f:
        f.write(dumps({"format": FORMAT_NAME, "version": FORMAT_VERSION, "episode_count": len(records)}))
        f.write("\n")
        for rec in records:
            f.write(dumps(_record_to_obj(rec)))
            f.write("\n")


def segment_intersects_box(p0, p1, box: Box) -> bool:
    """True iff the open segment passes through the box interior.

    Touching a face, edge or corner does not count: only an overlap of
    positive length with the strict interior intersects.
    """
    a = p0.to_array() if isinstance(p0, Vec3) else np.asarray(p0, float)
    b = p1.to_array() if isinstance(p1, Vec3) else np.asarray(p1, float)
    lo = box.min.to_array()[None, :]
    hi = box.max.to_array()[None, :]
    return bool(_slab_hits(a[None, :], b[None, :], lo, hi)[0, 0])


def episode_reward(plan: AllocationPlan, table: RewardTable, params: SchedulerParams) -> float:
    """Mean per-scene reward of a plan under the environment semantics."""
    if len(plan.receivers) != table.n_scenes:
        raise ValueError("plan length does not match the episode")
    return _replay(plan.receivers, plan.pair_indices, table, params)


def _knn_votes(model: KnnModel, x: np.ndarray, train_norms: np.ndarray) -> np.ndarray:
    """Majority label of each row's k nearest train rows (ties: smallest label).

    Each row's exact distances to every train row become int64 keys
    d2 * n_train + train_index, and its k smallest keys are its neighbours.
    """
    n_train = len(model.labels)
    d2 = x @ model.features.T
    d2 *= -2
    d2 += (x * x).sum(axis=1)[:, None]
    d2 += train_norms
    key = d2.astype(np.int64)
    del d2
    key *= n_train
    key += np.arange(n_train)
    nearest = np.argpartition(key, model.k - 1, axis=1)[:, :model.k]
    width = model.num_classes + 1
    votes = np.arange(len(x))[:, None] * width + model.labels[nearest]
    counts = np.bincount(votes.ravel(), minlength=len(x) * width)
    return counts.reshape(len(x), width).argmax(axis=1)


def _knn_votes_tie_fill(model: KnnModel, x: np.ndarray, train_norms: np.ndarray) -> np.ndarray:
    """Majority label of each row's k nearest train rows (ties: smallest label).

    The neighbours are every train row closer than the k-th smallest
    distance, then the lowest-indexed rows at exactly that distance: the
    first k of a stable sort.
    """
    k = model.k
    d2 = x @ model.features.T
    d2 *= -2
    d2 += (x * x).sum(axis=1)[:, None]
    d2 += train_norms
    kth = np.partition(d2, k - 1, axis=1)[:, [k - 1]]
    closer = d2 < kth
    tied = d2 == kth
    del d2
    tied &= np.cumsum(tied, axis=1, dtype=np.int32) <= k - closer.sum(axis=1, keepdims=True)
    rows, cols = np.nonzero(closer | tied)
    width = model.num_classes + 1
    counts = np.bincount(rows * width + model.labels[cols], minlength=len(x) * width)
    return counts.reshape(len(x), width).argmax(axis=1)

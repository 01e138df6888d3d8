"""Episode serialization, episode-wise splits and ML example extraction.

Episodes are stored as JSON Lines: a header line followed by one
self-contained episode object per line (schema in docs/format.md). Floats
round-trip bit-exactly and field order is fixed, so identical inputs always
produce byte-identical files. There is one writer: ``episode_line``
simulates and traces one episode and turns the tracer's columns into its
line, and ``write_episodes`` writes the header and a stream of such lines,
so an episode can be encoded where it is made and dropped.

There is one reader, and it builds no object per vehicle, pair or ray.
``read_episodes`` checks each line against the format's rules and decodes
it into an ``EpisodeColumns``: a few scalars and three tables, the vehicles
(``SceneVehicles``), the pairs and the rays (``Rays``), each an array per
field in file order. Every read stage takes these as they are: ``extract_examples`` sweeps the
rays of all pairs at once and rasterizes the vehicles of all scenes at once,
and ``scheduler.build_reward_table`` sweeps an episode's rays.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import astuple, dataclass
from itertools import islice
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .features import HEIGHT_CODES, GridSpec, SceneVehicles, encode_scenes, scene_view
from .mimo import ArraySpec, Rays, strongest_ray_angles, sweep_rays
from .raytrace import LosStatus, TraceConfig, trace_scenes
from .scenario import EpisodeParams, Rect, Scenario, Vec3, VehicleKind, generate_episode

FORMAT_NAME = "beamcanyon-episodes"
FORMAT_VERSION = 1


class DatasetFormatError(ValueError):
    """Raised when an episodes file cannot be decoded."""


@dataclass(frozen=True)
class EpisodeColumns:
    """One episode as the read stages take it from a file: its scalars and three tables.

    The vehicles of scene s are the next ``vehicles.counts[s]`` rows of
    ``vehicles``, its pairs the next ``pair_counts[s]`` entries of ``rx_id``,
    and each pair's rays the next ``rays.counts`` rows of ``rays``, all in
    file order.
    """

    episode_id: int
    params: EpisodeParams
    v2i_area: Rect
    receiver_vehicles: dict[int, int]  # receiver index -> vehicle id
    vehicles: SceneVehicles
    pair_counts: np.ndarray  # pairs per scene
    rx_id: np.ndarray        # per pair
    rays: Rays               # one ray list per pair

    @property
    def n_scenes(self) -> int:
        return len(self.pair_counts)


@dataclass(frozen=True)
class Examples:
    """One row per (scene, receiver) example, over one occupancy grid per scene.

    ``grids`` is the ``encode_scenes`` stack of all scenes, in record order;
    every other field is a column with one entry per example. An example's
    features are ``receiver_view(grids[grid_row], receiver)``.
    """

    grids: np.ndarray     # (scenes, rows, cols) int16
    grid_row: np.ndarray  # index into grids
    receiver: np.ndarray
    label: np.ndarray
    los: np.ndarray       # LosStatus values, "LOS" or "NLOS"
    episode: np.ndarray
    scene: np.ndarray
    angles: np.ndarray    # (n, 4): dep_azimuth, dep_elevation, arr_azimuth, arr_elevation

    def __len__(self) -> int:
        return len(self.label)


@dataclass(frozen=True)
class Split:
    train_episode_ids: tuple[int, ...]
    test_episode_ids: tuple[int, ...]


# The JSON keys of each record type's plain fields. The reader takes a ray's delay and
# then its angles in the ``Rays.angles`` order from the first five ray keys, which
# ``episode_line`` writes from the tracer's columns under the same names. The other
# fields are converted by name: a ray's complex gain is stored as [re, im], a pair's
# rays as a list of objects, a vehicle's position as [x, y, z] and its type flat in
# the vehicle's object.
RAY_KEYS = ("delay", "dep_azimuth", "dep_elevation", "arr_azimuth", "arr_elevation", "interactions")
PAIR_KEYS = ("tx_id", "rx_id", "mean_toa", "p_tx_dbm", "p_rx_dbm")
VEHICLE_KEYS = ("id", "heading", "speed", "receiver_index")
VEHICLE_TYPE_KEYS = ("kind", "length", "width", "height", "probability")
PARAMS_KEYS = ("sample_period", "scenes_per_episode", "receiver_count", "seed", "avg_speed")

_pair_items, _vehicle_items, _type_items, _params_items = (
    itemgetter(*k) for k in (PAIR_KEYS, VEHICLE_KEYS, VEHICLE_TYPE_KEYS, PARAMS_KEYS)
)
_xyz = attrgetter("x", "y", "z")
# the reader also looks up the fields that no stage reads, so that a line without one fails
_ray_numbers = itemgetter(*RAY_KEYS[:-1])  # every ray key but "interactions"
_scene_items = itemgetter("vehicles", "pairs", "time")
_record_items = itemgetter("episode_id", "start_time", "max_rays", "rt_area", "v2i_area", "rsu_position")


def episode_line(scenario: Scenario, params: EpisodeParams, cfg: TraceConfig, episode_id: int = 0) -> str:
    """Simulate one episode from ``params`` (its seed included), trace every (scene, receiver) pair,
    and return the episode's line of the episodes file, without its newline."""
    scenes = generate_episode(scenario, params)
    pair_counts, rx_id, rays, interactions = trace_scenes(scenario, scenes, cfg)
    pairs = _pair_objects(rx_id, rays, interactions, cfg.tx_power_dbm)
    scene_objects = []
    for scene, n_pairs in zip(scenes, pair_counts.tolist()):
        vehicles = []
        for v in scene.vehicles:
            obj = vars(v.type).copy()  # the kind is a str enum, so json writes its value
            obj.update(vars(v))
            del obj["type"]
            obj["position"] = _xyz(v.position)
            vehicles.append(obj)
        scene_objects.append({"time": scene.time, "vehicles": vehicles, "pairs": list(islice(pairs, n_pairs))})
    return _dumps({
        "episode_id": episode_id,
        "start_time": scenes[0].time,
        "params": vars(params),
        "max_rays": cfg.max_rays,
        "rt_area": astuple(scenario.rt_area),
        "v2i_area": astuple(scenario.v2i_area),
        "rsu_position": astuple(scenario.rsu_position),
        "receiver_vehicles": {str(v.receiver_index): v.id for v in scenes[0].vehicles if v.receiver_index is not None},
        "scenes": scene_objects,
    })


def _pair_objects(rx_id: np.ndarray, rays: Rays, interactions: Sequence[str], tx_power_dbm: float) -> Iterator[dict]:
    """The object of each traced pair, its rays converted to Python values one pair at a time.

    A pair's ``mean_toa``, the power-weighted mean delay, and its ``p_rx_dbm`` are derived
    from its rays, and are null for a pair with none.
    """
    stops = np.cumsum(rays.counts).tolist()
    for rx, start, stop in zip(rx_id.tolist(), [0, *stops], stops):
        gains = rays.gain[start:stop].tolist()
        ray_objects = []
        for gain, delay, (dep_az, dep_el, arr_az, arr_el), kind in zip(
            gains, rays.delay[start:stop].tolist(), rays.angles[start:stop].tolist(), interactions[start:stop]
        ):
            ray_objects.append({"gain": (gain.real, gain.imag), "delay": delay, "dep_azimuth": dep_az,
                                "dep_elevation": dep_el, "arr_azimuth": arr_az, "arr_elevation": arr_el,
                                "interactions": kind})
        mean_toa = p_rx_dbm = None
        if gains:
            powers = np.array([abs(g) ** 2 for g in gains])
            mean_toa = float((powers * rays.delay[start:stop]).sum() / powers.sum())
            p_rx_dbm = tx_power_dbm + 10.0 * math.log10(float(powers.sum()))
        yield {"tx_id": 0, "rx_id": rx, "rays": ray_objects, "mean_toa": mean_toa, "p_tx_dbm": tx_power_dbm,
               "p_rx_dbm": p_rx_dbm}


def _decode_record(line: str) -> EpisodeColumns:
    """The columns of one episode line, checked against the format's rules (docs/format.md).

    Every field of the line is looked up, those that no stage reads too, so
    that a line missing one fails.
    """
    o = json.loads(line)
    if not o["scenes"]:
        raise ValueError("no scenes")
    receivers = {int(k): v for k, v in o["receiver_vehicles"].items()}
    if min(receivers, default=1) < 1:
        raise ValueError(f"receiver_vehicles holds receiver index {min(receivers)}; indices start at 1")
    params = EpisodeParams(*_params_items(o["params"]))
    if sorted(receivers) != list(range(1, params.receiver_count + 1)):
        raise ValueError(f"receiver_vehicles keys {sorted(receivers)}: not the receiver indices "
                         f"1..{params.receiver_count} of receiver_count {params.receiver_count}")
    types: dict[tuple, tuple] = {}  # a vehicle type's keys -> its height code, length, width and height
    vehicle_counts, geometry, keys = [], [], []
    pair_counts, rx_ids, ray_counts, gains, numbers, los = [], [], [], [], [], []
    for s in o["scenes"]:
        vehicles, pairs, _ = _scene_items(s)
        tags = []
        for v in vehicles:
            key = _type_items(v)
            vtype = types.get(key)
            if vtype is None:
                kind, length, width, height, _ = key
                vtype = types[key] = (HEIGHT_CODES[VehicleKind(kind)], length, width, height)
            vid, heading, _, receiver_index = _vehicle_items(v)
            x, y, _ = v["position"]
            geometry.append((*vtype[1:], x, y, heading))
            if receiver_index is None:
                keys.append(vtype[0])
            else:
                keys.append(receiver_index)
                tags.append((receiver_index, vid))
        if len(dict(tags)) < len(tags) or not receivers.items() >= set(tags):
            raise ValueError(f"scene {len(vehicle_counts)}: vehicle (receiver_index, id) tags {tags}: "
                             "not distinct receiver_vehicles entries")
        vehicle_counts.append(len(vehicles))
        ids = []
        for p in pairs:
            ids.append(_pair_items(p)[1])
            for r in p["rays"]:
                re, im = r["gain"]  # rejects any but exactly two parts
                gains.append(complex(re, im))
                numbers.append(_ray_numbers(r))
                los.append(r["interactions"] == "LOS")
            ray_counts.append(len(p["rays"]))
        if not receivers.keys() >= set(ids) or len(set(ids)) < len(ids):
            raise ValueError(f"scene {len(pair_counts)}: pair rx_ids {ids}: not distinct receiver_vehicles keys")
        pair_counts.append(len(ids))
        rx_ids.extend(ids)
    episode_id, _, _, rt_area, v2i_area, rsu_position = _record_items(o)
    Rect(*rt_area), Vec3(*rsu_position)  # their arity is checked though no stage reads them
    numbers = np.array(numbers, dtype=np.float64).reshape(-1, 5)
    return EpisodeColumns(
        episode_id=episode_id,
        params=params,
        v2i_area=Rect(*v2i_area),
        receiver_vehicles=receivers,
        vehicles=SceneVehicles(
            counts=np.array(vehicle_counts, dtype=np.intp),
            geometry=np.array(geometry, dtype=np.float64).reshape(-1, 6),
            key=np.array(keys, dtype=np.int32),
        ),
        pair_counts=np.array(pair_counts, dtype=np.intp),
        rx_id=np.array(rx_ids, dtype=np.int64),
        rays=Rays(
            gain=np.array(gains, dtype=np.complex128),
            delay=numbers[:, 0].copy(),
            angles=numbers[:, 1:].copy(),
            los=np.array(los, dtype=bool),
            counts=np.array(ray_counts, dtype=np.intp),
        ),
    )


def _dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@contextmanager
def open_atomic(path: str | os.PathLike, mode: str = "w") -> Iterator[IO]:
    """Open ``path`` for writing through a temp file renamed over it on success.

    If the body raises, the temp file is removed and ``path`` is untouched.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_episodes(lines: Iterable[str], path: str | os.PathLike, episode_count: int) -> None:
    """Write the header, then each ``episode_line`` line as it is yielded, atomically.

    Raises ``ValueError``, leaving no file, unless exactly ``episode_count`` lines come.
    """
    with open_atomic(path) as f:
        f.write(_dumps({"format": FORMAT_NAME, "version": FORMAT_VERSION, "episode_count": episode_count}))
        f.write("\n")
        written = 0
        for line in lines:
            if written == episode_count:
                raise ValueError(f"more episode records than the {episode_count} the header promises")
            f.write(line)
            f.write("\n")
            written += 1
        if written != episode_count:
            raise ValueError(f"{written} episode records, but the header promises {episode_count}")


def read_episodes(path: str | os.PathLike) -> list[EpisodeColumns]:
    """The columns of each episode line of a file, checked against its header.

    Every record must have record 0's ``v2i_area``, on which the read stages lay every grid.
    """
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
        records: list[EpisodeColumns] = []
        for i, line in enumerate(f):
            if i == expected:
                raise DatasetFormatError(f"{path}: more episode records than the {expected} the header promises")
            try:
                record = _decode_record(line.rstrip("\n"))
                if records and record.v2i_area != records[0].v2i_area:
                    raise ValueError(f"v2i_area {list(astuple(record.v2i_area))} differs from record 0's "
                                     f"{list(astuple(records[0].v2i_area))}")
                records.append(record)
            except (AttributeError, IndexError, KeyError, TypeError, ValueError) as e:
                raise DatasetFormatError(f"{path}: record {i}: {e}") from e
    if len(records) != expected:
        raise DatasetFormatError(
            f"{path}: truncated: header promises {expected} episode records, "
            f"found {len(records)}"
        )
    return records


def split_episodes(ids: Sequence[int], test_fraction: float, seed: int) -> Split:
    """Shuffle whole episodes (never scenes) into disjoint train and test sides."""
    ids = sorted(ids)
    repeated = sorted({a for a, b in zip(ids, ids[1:]) if a == b})
    if repeated:
        raise ValueError(f"episode ids must be unique; repeated: {repeated}")
    if len(ids) < 2:
        raise ValueError("need at least 2 episodes to split")
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ids))
    n_test = int(round(test_fraction * len(ids)))
    test = sorted(ids[i] for i in order[:n_test])
    train = sorted(ids[i] for i in order[n_test:])
    return Split(tuple(train), tuple(test))


def _pair_columns(records: Sequence[EpisodeColumns]) -> tuple[np.ndarray, ...]:
    """Per pair of the records, in order: its scene's row among their scenes, its rx_id, its
    episode id and its scene's index in its episode."""
    scene_counts = [r.n_scenes for r in records]
    first = np.repeat(np.cumsum(scene_counts) - scene_counts, scene_counts)
    row = np.repeat(np.arange(len(first)), np.concatenate([np.empty(0, np.intp), *(r.pair_counts for r in records)]))
    episode = np.repeat(np.array([r.episode_id for r in records], dtype=np.int64), scene_counts)
    rx_id = np.concatenate([np.empty(0, np.int64), *(r.rx_id for r in records)])
    return row, rx_id, episode[row], (np.arange(len(first)) - first)[row]


def extract_examples(
    train_records: Iterable[EpisodeColumns],
    test_records: Iterable[EpisodeColumns],
    grid: GridSpec,
    tx_spec: ArraySpec,
    rx_spec: ArraySpec,
) -> tuple[Examples, Examples, np.ndarray]:
    """One example per (scene, receiver) with a beam-sweep label, on each side of a split.

    Returns the train and test examples and ``keys``, the train side's
    distinct best beam-pair indices in ascending order. A label is its
    index's position in ``keys`` plus 1, or 0 for an index that ``keys``
    lacks. Pairs with no rays are dropped. Receivers outside the service
    strip keep their label and get an all-zero view.
    """
    sides = [list(train_records), list(test_records)]
    rays = [Rays.concat([r.rays for r in side]) for side in sides]
    kept = [r.counts > 0 for r in rays]  # the pairs with rays, one example each
    swept = [r.take(keep) for r, keep in zip(rays, kept)]
    # both sides in one sweep, before encoding any grid, so that the sweep's scratch arrays
    # are freed before the grids are written and add nothing to peak memory
    raw = np.concatenate([np.empty(0, np.int64), *(r.best_index for r in sweep_rays(Rays.concat(swept), tx_spec, rx_spec))])
    keys = np.array(sorted(set(raw[: len(swept[0])].tolist())), dtype=np.int64)
    at = np.searchsorted(keys, raw)
    # the -1 after the last key is no beam index, so an index past every key reads class 0
    labels = np.where(np.append(keys, -1)[at] == raw, at + 1, 0)
    examples = []
    # one grid stack per side, so that the train side's grids are freed with its examples
    for side, keep, side_rays, label in zip(sides, kept, swept, np.split(labels, [len(swept[0])])):
        grid_row, receiver, episode, scene = (column[keep] for column in _pair_columns(side))
        examples.append(Examples(
            grids=encode_scenes(SceneVehicles.concat([r.vehicles for r in side]), grid),
            grid_row=grid_row,
            receiver=receiver,
            label=label,
            los=np.where(side_rays.has_los(), LosStatus.LOS.value, LosStatus.NLOS.value),
            episode=episode,
            scene=scene,
            angles=strongest_ray_angles(side_rays),
        ))
    train, test = examples
    return train, test, keys


CSV_FIXED_COLUMNS = (
    "label",
    "los",
    "episode",
    "scene",
    "dep_azimuth",
    "dep_elevation",
    "arr_azimuth",
    "arr_elevation",
)


def export_csv(examples: Examples, path: str | os.PathLike) -> None:
    """Flattened row-major per-receiver views plus the fixed label/metadata columns, atomically.

    Each cell is written as an integer, from a table of ``"<code>,"`` for
    every integer a view can hold, padded to one width and looked up with the
    padding dropped. The receivers of a scene share its ``scene_view``, whose
    text and cell byte offsets are built once per run of rows on that scene.
    A row re-encodes only the cells from its target's first to its last, with
    the target's cells ``1``; a target absent from its grid (off the service
    strip) gets the all-zero row.
    """
    if not len(examples):
        raise ValueError("no examples to export")
    if examples.receiver.min() < 1:
        raise ValueError("receiver_index must be positive")
    # a view holds its grid's codes up to 0, -1 for other receivers and +1 for the target
    lo = min(int(examples.grids.min()), -1)
    table = np.array([f"{code}," for code in range(lo, 2)], dtype=bytes)
    widths = np.char.str_len(table)
    zero_row = b"0," * examples.grids[0].size
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
    scene = None
    try:
        with open_atomic(path, "wb") as f:
            f.write((",".join(header) + "\n").encode())
            for grid_row, receiver, *fixed, angles in rows:
                if grid_row != scene:
                    scene, cells = grid_row, examples.grids[grid_row].reshape(-1)
                    codes = scene_view(cells).astype(np.intp) - lo
                    text = memoryview(table[codes].tobytes().replace(b"\0", b""))
                    offsets = np.concatenate(([0], np.cumsum(widths[codes])))
                target = np.flatnonzero(cells == receiver)
                if target.size:
                    first, end = target[0], target[-1] + 1
                    span = codes[first:end].copy()
                    span[target - first] = 1 - lo
                    f.write(text[: offsets[first]])
                    f.write(table[span].tobytes().replace(b"\0", b""))
                    f.write(text[offsets[end] :])
                else:
                    f.write(zero_row)
                f.write((",".join([*map(str, fixed), *map(repr, angles)]) + "\n").encode())
    except OSError as e:
        raise OSError(f"failed writing {path}: {e}") from e

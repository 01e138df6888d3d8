"""Episode serialization, episode-wise splits and ML example extraction.

Episodes are stored as JSON Lines: a header line followed by one
self-contained episode object per line (schema in docs/format.md). Floats
round-trip bit-exactly and field order is fixed, so identical inputs always
produce byte-identical files. There is one writer: ``encode_record`` turns a
record into its line, and ``write_episodes`` writes the header and a stream
of such lines, so a record can be encoded where it is made and dropped.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import astuple, dataclass
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .features import GridSpec, encode_scenes, scene_view
from .mimo import ArraySpec, strongest_ray_angles, sweep_rays
from .raytrace import PairRecord, Ray, TraceConfig, classify_los, trace_scenes
from .scenario import (
    EpisodeParams,
    Rect,
    Scenario,
    Scene,
    Vec3,
    Vehicle,
    VehicleKind,
    VehicleType,
    generate_episode,
)

FORMAT_NAME = "beamcanyon-episodes"
FORMAT_VERSION = 1


class DatasetFormatError(ValueError):
    """Raised when an episodes file cannot be decoded."""


@dataclass(frozen=True)
class EpisodeRecord:
    episode_id: int
    start_time: float
    params: EpisodeParams
    max_rays: int
    rt_area: Rect
    v2i_area: Rect
    rsu_position: Vec3
    receiver_vehicles: dict[int, int]  # receiver index -> vehicle id
    scenes: tuple[Scene, ...]


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


def build_episode_record(
    scenario: Scenario, params: EpisodeParams, cfg: TraceConfig, episode_id: int = 0
) -> EpisodeRecord:
    """Simulate one episode from ``params`` (its seed included) and trace every (scene, receiver) pair."""
    scenes = generate_episode(scenario, params)
    receiver_vehicles = {
        v.receiver_index: v.id for v in scenes[0].vehicles if v.receiver_index is not None
    }
    return EpisodeRecord(
        episode_id=episode_id,
        start_time=scenes[0].time,
        params=params,
        max_rays=cfg.max_rays,
        rt_area=scenario.rt_area,
        v2i_area=scenario.v2i_area,
        rsu_position=scenario.rsu_position,
        receiver_vehicles=receiver_vehicles,
        scenes=tuple(
            Scene(s.time, s.vehicles, pairs)
            for s, pairs in zip(scenes, trace_scenes(scenario, scenes, cfg))
        ),
    )


# The JSON keys of each record type's plain fields, in the order of its constructor,
# so that the reader builds the record positionally. They are the fields' names, so
# the writer stores a record by copying its fields. The other fields are converted
# by name: a ray's complex gain is stored as [re, im], a pair's rays as a list of
# objects, a vehicle's position as [x, y, z] and its type flat in the vehicle's
# object.
RAY_KEYS = ("delay", "dep_azimuth", "dep_elevation", "arr_azimuth", "arr_elevation", "interactions")
PAIR_KEYS = ("tx_id", "rx_id", "mean_toa", "p_tx_dbm", "p_rx_dbm")
VEHICLE_KEYS = ("id", "heading", "speed", "receiver_index")
VEHICLE_TYPE_KEYS = ("kind", "length", "width", "height", "probability")
PARAMS_KEYS = ("sample_period", "scenes_per_episode", "receiver_count", "seed", "avg_speed")

_ray_items, _pair_items, _vehicle_items, _type_items, _params_items = (
    itemgetter(*k) for k in (RAY_KEYS, PAIR_KEYS, VEHICLE_KEYS, VEHICLE_TYPE_KEYS, PARAMS_KEYS)
)
_xyz = attrgetter("x", "y", "z")


def _record_to_obj(rec: EpisodeRecord) -> dict:
    scenes = []
    for s in rec.scenes:
        vehicles = []
        for v in s.vehicles:
            obj = vars(v.type).copy()  # the kind is a str enum, so json writes its value
            obj.update(vars(v))
            del obj["type"]
            obj["position"] = _xyz(v.position)
            vehicles.append(obj)
        pairs = []
        for p in s.pairs:
            rays = []
            for r in p.rays:
                obj = vars(r).copy()
                obj["gain"] = (r.gain.real, r.gain.imag)
                rays.append(obj)
            obj = vars(p).copy()
            obj["rays"] = rays
            pairs.append(obj)
        scenes.append({"time": s.time, "vehicles": vehicles, "pairs": pairs})
    return {
        "episode_id": rec.episode_id,
        "start_time": rec.start_time,
        "params": vars(rec.params),
        "max_rays": rec.max_rays,
        "rt_area": astuple(rec.rt_area),
        "v2i_area": astuple(rec.v2i_area),
        "rsu_position": astuple(rec.rsu_position),
        "receiver_vehicles": {str(k): v for k, v in sorted(rec.receiver_vehicles.items())},
        "scenes": scenes,
    }


def _record_from_obj(o: dict, vehicle_types: dict) -> EpisodeRecord:
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


def encode_record(rec: EpisodeRecord) -> str:
    """The record's line of the episodes file, without its newline."""
    return _dumps(_record_to_obj(rec))


def write_episodes(lines: Iterable[str], path: str | os.PathLike, episode_count: int) -> None:
    """Write the header, then each ``encode_record`` line as it is yielded, atomically.

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


def read_episodes(path: str | os.PathLike) -> list[EpisodeRecord]:
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
                records.append(_record_from_obj(json.loads(line.rstrip("\n")), vehicle_types))
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


def extract_examples(
    train_records: Iterable[EpisodeRecord],
    test_records: Iterable[EpisodeRecord],
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
    sides = [[(rec.episode_id, i, s) for rec in records for i, s in enumerate(rec.scenes)]
             for records in (train_records, test_records)]
    kept = [[(k, pair) for k, (_, _, scene_rec) in enumerate(scenes) for pair in scene_rec.pairs if pair.rays]
            for scenes in sides]
    # both sides in one sweep, before encoding any grid, so that the sweep's scratch arrays
    # are freed before the grids are written and add nothing to peak memory
    raw = np.array([
        key
        for result in sweep_rays([p.rays for side in kept for _, p in side], tx_spec, rx_spec)
        for key in result.best_index.tolist()
    ], dtype=np.int64)
    keys = np.array(sorted(set(raw[: len(kept[0])].tolist())), dtype=np.int64)
    at = np.searchsorted(keys, raw)
    # the -1 after the last key is no beam index, so an index past every key reads class 0
    labels = np.where(np.append(keys, -1)[at] == raw, at + 1, 0)
    # one grid stack per side, so that the train side's grids are freed with its examples
    train, test = (
        Examples(
            grids=encode_scenes([scene_rec for _, _, scene_rec in scenes], grid),
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

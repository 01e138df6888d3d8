"""Episode serialization, episode-wise splits and ML example extraction.

Episodes are stored as JSON Lines: a header line followed by one
self-contained episode object per line (schema in docs/format.md). Floats
round-trip bit-exactly and field order is fixed, so identical inputs always
produce byte-identical files.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .features import GridSpec, encode_for_receiver, encode_scene
from .mimo import ArraySpec, LabelMap, compact_labels, strongest_ray_angles, sweep_rays
from .raytrace import LosStatus, PairRecord, Ray, TraceConfig, classify_los, trace_scene
from .scenario import (
    Episode,
    EpisodeParams,
    Rect,
    Scenario,
    Scene,
    Vec3,
    Vehicle,
    VehicleKind,
    VehicleType,
)

FORMAT_NAME = "beamcanyon-episodes"
FORMAT_VERSION = 1


class DatasetFormatError(ValueError):
    """Raised when an episodes file cannot be decoded."""


@dataclass(frozen=True)
class SceneRecord:
    time: float
    vehicles: tuple[Vehicle, ...]
    pairs: tuple[PairRecord, ...]


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
    scenes: tuple[SceneRecord, ...]


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


@dataclass(frozen=True)
class Split:
    train_episode_ids: tuple[int, ...]
    test_episode_ids: tuple[int, ...]


def build_episode_record(
    scenario: Scenario, episode: Episode, cfg: TraceConfig
) -> EpisodeRecord:
    """Trace every (scene, receiver) pair of an episode into a storable record."""
    first = episode.scenes[0]
    receiver_vehicles = {
        v.receiver_index: v.id for v in first.vehicles if v.receiver_index is not None
    }
    scene_records = [
        SceneRecord(scene.time, scene.vehicles, trace_scene(scenario, scene, cfg))
        for scene in episode.scenes
    ]
    return EpisodeRecord(
        episode_id=episode.id,
        start_time=episode.start_time,
        params=episode.params,
        max_rays=cfg.max_rays,
        rt_area=scenario.rt_area,
        v2i_area=scenario.v2i_area,
        rsu_position=scenario.rsu_position,
        receiver_vehicles=receiver_vehicles,
        scenes=tuple(scene_records),
    )


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
            SceneRecord(
                time=s["time"],
                vehicles=tuple(_vehicle_from_obj(v) for v in s["vehicles"]),
                pairs=tuple(_pair_from_obj(p) for p in s["pairs"]),
            )
            for s in o["scenes"]
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


def write_episodes(records: Sequence[EpisodeRecord], path: str | os.PathLike) -> None:
    """Write records as JSON Lines, atomically."""
    with open_atomic(path) as f:
        f.write(_dumps({"format": FORMAT_NAME, "version": FORMAT_VERSION, "episode_count": len(records)}))
        f.write("\n")
        for rec in records:
            f.write(_dumps(_record_to_obj(rec)))
            f.write("\n")


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
        if header.get("format") != FORMAT_NAME:
            raise DatasetFormatError(f"{path}: not a {FORMAT_NAME} file")
        if header.get("version") != FORMAT_VERSION:
            raise DatasetFormatError(f"{path}: unsupported version {header.get('version')}")
        expected = header.get("episode_count")
        records = []
        for i, line in enumerate(f):
            try:
                records.append(_record_from_obj(json.loads(line.rstrip("\n"))))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
                raise DatasetFormatError(f"{path}: record {i}: {e}") from e
    if expected is not None and len(records) != expected:
        raise DatasetFormatError(
            f"{path}: truncated: header promises {expected} episode records, "
            f"found {len(records)}"
        )
    return records


def split_episodes(ids: Sequence[int], test_fraction: float, seed: int) -> Split:
    """Shuffle whole episodes (never scenes) into disjoint train and test sides."""
    ids = sorted(ids)
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
    records = list(records)
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

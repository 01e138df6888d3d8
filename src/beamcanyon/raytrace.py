"""Image-method multipath synthesis between the RSU and the receiving vehicles.

Candidate paths are the direct line of sight plus every specular bounce
sequence off the two canyon wall planes and the ground plane, up to a
configurable bounce count. Each candidate is validated for geometric
feasibility and blockage before it becomes a ray.

``trace_scenes`` traces all scenes of an episode in one array pass. The
receivers of every scene are rows of one array, so the bounce points and
the reflector checks run once for all of them. Blockage is tested scene by
scene, against the buildings and that scene's vehicles only. The kept rays
are finished per bounce sequence on arrays: path lengths, and unit
directions whose norms equal ``np.linalg.norm`` of each vector bit for bit.
The angles come from ``math.atan2`` and ``math.acos``, because numpy's
array versions can differ from them in the last bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .rules import check, setting
from .scenario import Box, Scenario, Scene, vehicle_boxes

SPEED_OF_LIGHT = 299792458.0

_FACE_TOL = 1e-9  # tolerance for "point lies on a reflector face" checks


@dataclass(frozen=True)
class Ray:
    """One propagation path: complex amplitude, delay, and its four angles.

    Azimuths lie in (-pi, pi] measured from +x; elevations in [0, pi] measured
    from the +z zenith. Departure angles point from the transmitter along the
    first segment, arrival angles point from the receiver back along the last.
    ``interactions`` is "LOS" for the direct path, otherwise hyphen-joined
    bounce tokens: "R" for a wall bounce, "RG" for a ground bounce.
    """

    gain: complex
    delay: float
    dep_azimuth: float
    dep_elevation: float
    arr_azimuth: float
    arr_elevation: float
    interactions: str


@dataclass(frozen=True)
class PairRecord:
    """All rays kept for one transmitter/receiver pair, strongest first."""

    tx_id: int
    rx_id: int
    rays: tuple[Ray, ...]
    mean_toa: float | None  # power-weighted mean delay, None when no path exists
    p_tx_dbm: float
    p_rx_dbm: float | None


@dataclass(frozen=True)
class TraceConfig:
    carrier_hz: float = setting(6.0e10, "number", "> 0")
    # each added bounce doubles the candidate sequences, and with them the time and memory
    max_reflections: int = setting(2, "integer", ">= 0", "<= 10")
    max_rays: int = setting(25, "integer", ">= 1")
    wall_reflection: complex = setting(-0.5 + 0.0j, "[re, im]", "<= 1")
    ground_reflection: complex = setting(-0.6 + 0.0j, "[re, im]", "<= 1")
    tx_power_dbm: float = setting(0.0, "number")

    def __post_init__(self) -> None:
        check(self, "trace")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz


class LosStatus(str, Enum):
    LOS = "LOS"
    NLOS = "NLOS"
    NO_PATH = "NoPath"


@dataclass(frozen=True)
class ReflectorPlane:
    """Axis-aligned reflector: the plane ``coordinate[axis] == offset``."""

    axis: int  # 0 = x, 1 = y, 2 = z
    offset: float
    kind: str  # "wall" or "ground"


def _slab_hits(p0: np.ndarray, p1: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Strict-interior slab test of s segments (p0/p1: (s, 3)) against n boxes (lo/hi: (n, 3)).

    Returns (s, n) booleans. A segment parallel to an axis must start strictly
    between that axis's two box faces; the other axes clip the segment's
    parameter interval [0, 1], which must stay non-empty.
    """
    d = p1 - p0
    shape = (p0.shape[0], lo.shape[0])
    enter = np.zeros(shape)
    leave = np.ones(shape)
    ok = np.ones(shape, dtype=bool)
    for ax in range(3):
        start = p0[:, ax, None]
        flat = (d[:, ax] == 0.0)[:, None]
        ok &= ~flat | ((start > lo[:, ax]) & (start < hi[:, ax]))
        step = np.where(flat, 1.0, d[:, ax, None])  # flat rows are masked below
        t1 = (lo[:, ax] - start) / step
        t2 = (hi[:, ax] - start) / step
        enter = np.where(flat, enter, np.maximum(enter, np.minimum(t1, t2)))
        leave = np.where(flat, leave, np.minimum(leave, np.maximum(t1, t2)))
    return ok & (leave > enter)


def free_space_gain(distance: float, wavelength: float) -> complex:
    """Friis amplitude with propagation phase: (lambda / 4 pi d) e^{-j 2 pi d / lambda}."""
    if distance <= 0:
        raise ValueError("distance must be positive")
    if wavelength <= 0:
        raise ValueError("wavelength must be positive")
    magnitude = wavelength / (4.0 * math.pi * distance)
    phase = -2.0 * math.pi * distance / wavelength
    return magnitude * complex(math.cos(phase), math.sin(phase))


def _mirror(point: np.ndarray, plane: ReflectorPlane) -> np.ndarray:
    out = point.copy()
    out[plane.axis] = 2.0 * plane.offset - out[plane.axis]
    return out


def mirror_paths(
    tx: np.ndarray,
    rx: np.ndarray,
    planes: tuple[ReflectorPlane, ...],
    max_reflections: int,
) -> list[tuple[tuple[ReflectorPlane, ...], np.ndarray, np.ndarray]]:
    """Enumerate the mirror paths from tx to each of r receivers (rx: (r, 3)).

    Returns (bounce_planes, points, valid) per bounce sequence: the direct
    path first, then sequences by bounce count, never repeating the plane
    just left. points has shape (r, bounces + 2, 3) including both
    endpoints; valid marks the receivers whose every bounce point lies
    strictly inside its reflecting segment. Blockage and reflector-extent
    checks are the caller's job.
    """
    n = rx.shape[0]
    paths = [((), np.stack([np.broadcast_to(tx, rx.shape), rx], axis=1), np.ones(n, dtype=bool))]
    sequences: list[tuple[ReflectorPlane, ...]] = [()]
    for _ in range(max_reflections):
        sequences = [
            seq + (p,) for seq in sequences for p in planes if not seq or seq[-1] != p
        ]
        for seq in sequences:
            paths.append((seq, *_unfold(tx, rx, seq)))
    return paths


def _unfold(
    tx: np.ndarray, rx: np.ndarray, seq: tuple[ReflectorPlane, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Bounce points of one sequence for every receiver, walking back from rx."""
    images = [tx]
    for plane in seq:
        images.append(_mirror(images[-1], plane))
    valid = np.ones(rx.shape[0], dtype=bool)
    points = [rx]
    current = rx
    for j in range(len(seq), 0, -1):
        target = images[j]
        plane = seq[j - 1]
        denom = target[plane.axis] - current[:, plane.axis]
        crossing = denom != 0.0
        t = np.divide(
            plane.offset - current[:, plane.axis],
            denom,
            out=np.zeros_like(denom),
            where=crossing,
        )
        valid &= crossing & (0.0 < t) & (t < 1.0)
        t[~valid] = 0.0  # invalid rows stay put, finite
        current = current + t[:, None] * (target - current)
        points.append(current)
    points.append(np.broadcast_to(tx, rx.shape))
    return np.stack(points[::-1], axis=1), valid


def _angles(ux: float, uy: float, uz: float) -> tuple[float, float]:
    """Azimuth and elevation of the unit vector (ux, uy, uz)."""
    azimuth = math.atan2(uy, ux)
    if azimuth <= -math.pi:
        azimuth += 2.0 * math.pi
    return azimuth, math.acos(max(-1.0, min(1.0, uz)))


def _unit_rows(d: np.ndarray) -> list[list[float]]:
    """The (k, 3) directions scaled to unit length, as Python floats.

    The stacked 1 x 3 by 3 x 1 products give each row's dot product exactly as
    ``np.linalg.norm`` of that row alone does; ``norm(axis=1)`` does not.
    """
    norms = np.sqrt((d[:, None, :] @ d[:, :, None]).ravel())
    return (d / norms[:, None]).tolist()


def _wall_planes(scenario: Scenario) -> list[ReflectorPlane]:
    """Inner building faces, i.e. the faces adjacent to the street."""
    center = (scenario.v2i_area.ymin + scenario.v2i_area.ymax) / 2.0
    offsets: list[float] = []
    for box in scenario.buildings:
        face = box.max.y if box.max.y <= center else box.min.y
        if not any(abs(face - o) < _FACE_TOL for o in offsets):
            offsets.append(face)
    return [ReflectorPlane(1, o, "wall") for o in sorted(offsets)]


def _wall_faces(plane: ReflectorPlane, buildings: tuple[Box, ...]) -> np.ndarray:
    """(4, n) x and z extents, widened by the tolerance, of the building faces on a wall plane."""
    return np.array(
        [
            [b.min.x - _FACE_TOL, b.max.x + _FACE_TOL, b.min.z - _FACE_TOL, b.max.z + _FACE_TOL]
            for b in buildings
            if abs(b.min.y - plane.offset) <= _FACE_TOL or abs(b.max.y - plane.offset) <= _FACE_TOL
        ]
    ).reshape(-1, 4).T


def _on_faces(points: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Which of the (r, 3) points lie on one of the faces from _wall_faces."""
    x = points[:, 0, None]
    z = points[:, 2, None]
    return ((faces[0] <= x) & (x <= faces[1]) & (faces[2] <= z) & (z <= faces[3])).any(axis=1)


def trace_scenes(
    scenario: Scenario, scenes: Sequence[Scene], cfg: TraceConfig
) -> tuple[tuple[PairRecord, ...], ...]:
    """Synthesize the multipath sets from the RSU to every receiving vehicle's roof.

    Returns one tuple per scene, holding one record per vehicle with a
    receiver index, in receiver-index order. Every sub-segment of a candidate
    path must clear all building boxes and the boxes of the scene's vehicles
    (one ``vehicle_boxes`` call per scene) except the receiver's own; full
    blockage yields a record with an empty ray tuple rather than an error.
    """
    receivers = [
        sorted((v for v in s.vehicles if v.receiver_index is not None), key=lambda v: v.receiver_index)
        for s in scenes
    ]
    flat = [v for found in receivers for v in found]
    if not flat:
        return tuple(() for _ in scenes)

    # every receiver of every scene is one row, with its scene's index
    g = scenario.ground_z
    tx = scenario.rsu_position.to_array()
    rx = np.array([[v.position.x, v.position.y, g + v.type.height] for v in flat], dtype=float)
    rx_ids = np.array([v.id for v in flat])
    row_scene = np.repeat(np.arange(len(scenes)), [len(found) for found in receivers])
    planes = tuple(_wall_planes(scenario) + [ReflectorPlane(2, g, "ground")])
    faces = {p: _wall_faces(p, scenario.buildings) for p in planes if p.kind == "wall"}
    area = scenario.rt_area

    # geometric validity, then the segments of every valid candidate
    paths = []
    seg_start, seg_end, seg_row, first_seg = [], [], [], []
    n_segs = 0
    for seq, points, valid in mirror_paths(tx, rx, planes, cfg.max_reflections):
        for k, plane in enumerate(seq):
            bounce = points[:, k + 1]
            if plane.kind == "wall":
                valid &= _on_faces(bounce, faces[plane])
            else:
                x, y = bounce[:, 0], bounce[:, 1]
                valid &= (area.xmin <= x) & (x <= area.xmax) & (area.ymin <= y) & (y <= area.ymax)
        rows = np.flatnonzero(valid)
        paths.append((seq, points, rows))
        hops = len(seq) + 1
        seg_start.append(points[rows, :-1].reshape(-1, 3))
        seg_end.append(points[rows, 1:].reshape(-1, 3))
        seg_row.append(np.repeat(rows, hops))
        first_seg.append(n_segs + hops * np.arange(rows.size))
        n_segs += hops * rows.size

    # each scene's segments against the buildings and that scene's vehicles;
    # a receiver never blocks itself
    seg_row = np.concatenate(seg_row)
    order = np.argsort(row_scene[seg_row], kind="stable")
    bounds = np.searchsorted(row_scene[seg_row[order]], np.arange(len(scenes) + 1))
    starts = np.concatenate(seg_start)[order]
    ends = np.concatenate(seg_end)[order]
    owners = rx_ids[seg_row[order]]
    buildings = scenario.buildings
    building_lo = np.array([[bx.min.x, bx.min.y, bx.min.z] for bx in buildings])
    building_hi = np.array([[bx.max.x, bx.max.y, bx.max.z] for bx in buildings])
    seg_hit = np.empty(n_segs, dtype=bool)
    for scene, a, b in zip(scenes, bounds[:-1].tolist(), bounds[1:].tolist()):
        if a == b:
            continue
        lo, hi = vehicle_boxes(scene.vehicles, g)
        lo, hi = np.concatenate([building_lo, lo]), np.concatenate([building_hi, hi])
        box_owner = np.array([-1] * len(buildings) + [v.id for v in scene.vehicles])
        hit = _slab_hits(starts[a:b], ends[a:b], lo, hi)
        hit &= owners[a:b, None] != box_owner[None, :]
        seg_hit[order[a:b]] = hit.any(axis=1)
    blocked = np.logical_or.reduceat(seg_hit, np.concatenate(first_seg))

    # the finish of each bounce sequence's kept rays, appended in sequence order
    rays: list[list[Ray]] = [[] for _ in flat]
    done = 0
    for seq, points, rows in paths:
        clear = rows[~blocked[done : done + rows.size]]
        done += rows.size
        if not clear.size:
            continue
        kept = points[clear]
        totals = np.linalg.norm(np.diff(kept, axis=1), axis=2).sum(axis=1)
        departures = _unit_rows(kept[:, 1] - kept[:, 0])
        arrivals = _unit_rows(kept[:, -2] - kept[:, -1])
        interactions = "-".join("R" if p.kind == "wall" else "RG" for p in seq) or "LOS"
        for r, total, dep, arr in zip(clear.tolist(), totals.tolist(), departures, arrivals):
            gain = free_space_gain(total, cfg.wavelength)
            for plane in seq:
                gain *= cfg.wall_reflection if plane.kind == "wall" else cfg.ground_reflection
            rays[r].append(Ray(gain, total / SPEED_OF_LIGHT, *_angles(*dep), *_angles(*arr), interactions))
    records = iter([_pair_record(v.receiver_index, found, cfg) for v, found in zip(flat, rays)])
    return tuple(tuple(itertools.islice(records, len(found))) for found in receivers)


def _pair_record(rx_id: int, rays: list[Ray], cfg: TraceConfig) -> PairRecord:
    """Keep the max_rays strongest rays, ties broken by delay, and summarize them."""
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
        rx_id=rx_id,
        rays=tuple(rays),
        mean_toa=mean_toa,
        p_tx_dbm=cfg.tx_power_dbm,
        p_rx_dbm=p_rx,
    )

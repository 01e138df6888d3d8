"""Image-method multipath synthesis between the RSU and a receiving vehicle.

Candidate paths are the direct line of sight plus every specular bounce
sequence off the two canyon wall planes and the ground plane, up to a
configurable bounce count. Each candidate is validated for geometric
feasibility and blockage before it becomes a ray.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .scenario import Box, Scenario, Scene, Vec3, vehicle_bounding_box

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
    carrier_hz: float = 6.0e10
    max_reflections: int = 2
    max_rays: int = 25
    wall_reflection: complex = -0.5 + 0.0j
    ground_reflection: complex = -0.6 + 0.0j
    tx_power_dbm: float = 0.0

    def __post_init__(self) -> None:
        if self.carrier_hz <= 0:
            raise ValueError("carrier_hz must be positive")
        if self.max_rays < 1:
            raise ValueError("max_rays must be at least 1")
        if self.max_reflections < 0:
            raise ValueError("max_reflections must be non-negative")
        if abs(self.wall_reflection) > 1 or abs(self.ground_reflection) > 1:
            raise ValueError("reflection coefficient magnitudes must not exceed 1")

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


def _azimuth_elevation(direction: np.ndarray) -> tuple[float, float]:
    norm = float(np.linalg.norm(direction))
    u = direction / norm
    azimuth = math.atan2(u[1], u[0])
    if azimuth <= -math.pi:
        azimuth += 2.0 * math.pi
    elevation = math.acos(max(-1.0, min(1.0, float(u[2]))))
    return azimuth, elevation


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


def trace_scene(scenario: Scenario, scene: Scene, cfg: TraceConfig) -> tuple[PairRecord, ...]:
    """Synthesize the multipath sets from the RSU to every receiving vehicle's roof.

    Returns one record per vehicle with a receiver index, in receiver-index
    order. Every sub-segment of a candidate path must clear all building
    boxes and all vehicle boxes except the receiver's own; full blockage
    yields a record with an empty ray tuple rather than an error.
    """
    receivers = sorted(
        (v for v in scene.vehicles if v.receiver_index is not None),
        key=lambda v: v.receiver_index,
    )
    if not receivers:
        return ()

    g = scenario.ground_z
    tx = scenario.rsu_position.to_array()
    rx = np.array([[v.position.x, v.position.y, g + v.type.height] for v in receivers], dtype=float)
    rx_ids = np.array([v.id for v in receivers])
    planes = tuple(_wall_planes(scenario) + [ReflectorPlane(2, g, "ground")])
    faces = {p: _wall_faces(p, scenario.buildings) for p in planes if p.kind == "wall"}
    area = scenario.rt_area

    blockers = list(scenario.buildings) + [vehicle_bounding_box(v, g) for v in scene.vehicles]
    lo = np.array([[b.min.x, b.min.y, b.min.z] for b in blockers])
    hi = np.array([[b.max.x, b.max.y, b.max.z] for b in blockers])
    owners = np.array([-1] * len(scenario.buildings) + [v.id for v in scene.vehicles])

    # geometric validity, then the segments of every valid candidate
    paths = []
    seg_start, seg_end, seg_owner, first_seg = [], [], [], []
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
        seg_owner.append(np.repeat(rx_ids[rows], hops))
        first_seg.append(n_segs + hops * np.arange(rows.size))
        n_segs += hops * rows.size

    # one slab test over every (segment, box) pair; a receiver never blocks itself
    hit = _slab_hits(np.concatenate(seg_start), np.concatenate(seg_end), lo, hi)
    hit &= np.concatenate(seg_owner)[:, None] != owners[None, :]
    blocked = np.logical_or.reduceat(hit.any(axis=1), np.concatenate(first_seg))

    rays: list[list[Ray]] = [[] for _ in receivers]
    done = 0
    for seq, points, rows in paths:
        clear = rows[~blocked[done : done + rows.size]]
        done += rows.size
        if not clear.size:
            continue
        kept = points[clear]
        totals = np.linalg.norm(np.diff(kept, axis=1), axis=2).sum(axis=1)
        interactions = "-".join("R" if p.kind == "wall" else "RG" for p in seq) or "LOS"
        for r, path, total in zip(clear, kept, totals.tolist()):
            gain = free_space_gain(total, cfg.wavelength)
            for plane in seq:
                gain *= cfg.wall_reflection if plane.kind == "wall" else cfg.ground_reflection
            dep_az, dep_el = _azimuth_elevation(path[1] - path[0])
            arr_az, arr_el = _azimuth_elevation(path[-2] - path[-1])
            rays[r].append(
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
    return tuple(
        _pair_record(v.receiver_index, found, cfg) for v, found in zip(receivers, rays)
    )


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


def classify_los(record: PairRecord) -> LosStatus:
    """LOS if any ray is the direct path, NoPath if the pair has no rays at all."""
    if not record.rays:
        return LosStatus.NO_PATH
    if any(r.interactions == "LOS" for r in record.rays):
        return LosStatus.LOS
    return LosStatus.NLOS

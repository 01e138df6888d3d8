"""Occupancy-grid scene encoding for the machine-learning pipeline.

A scene becomes an integer matrix over the service strip: 0 for free cells,
a negative height-class code for blocker vehicles (car -1, truck -2, bus -3)
and the positive receiver index for receiver vehicles. ``encode_scenes``
rasterizes the ``SceneVehicles`` columns of a run of scenes, as a file is
read into them, into one int16 stack in a single array pass. The receivers
of a scene share its matrix; a per-receiver view of it rewrites the target
receiver to +1 and every other receiver to -1. All views of a scene agree
off the target's cells with its ``scene_view``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .scenario import VehicleKind, geometry_boxes

HEIGHT_CODES = {VehicleKind.CAR: -1, VehicleKind.TRUCK: -2, VehicleKind.BUS: -3}

OVERLAP_FRACTION = 0.01  # a cell is occupied once this share of its area is covered

# receiver index r is rasterized as RECEIVER_KEY + r, below every blocker code
RECEIVER_KEY = int(np.iinfo(np.int16).min)
MAX_RECEIVER_INDEX = min(HEIGHT_CODES.values()) - 1 - RECEIVER_KEY


@dataclass(frozen=True)
class GridSpec:
    origin: tuple[float, float]  # (x, y) of the row-0 / column-0 corner
    rows: int = 23
    cols: int = 250
    cell: float = 1.0

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid must have at least one row and column")
        if self.cell <= 0:
            raise ValueError("cell size must be positive")

    @classmethod
    def from_area(cls, area, cell: float = 1.0) -> "GridSpec":
        """Grid covering a service-strip rectangle, anchored at its (xmin, ymin) corner.

        Rows run across the street (+y), columns along it (+x).
        """
        if cell <= 0:
            raise ValueError("cell size must be positive")
        rows = int(round(area.y_extent / cell))
        cols = int(round(area.x_extent / cell))
        return cls(origin=(area.xmin, area.ymin), rows=rows, cols=cols, cell=cell)


def _windows(lo: np.ndarray, hi: np.ndarray, origin: float, count: int, cell: float):
    """Yield, per window offset along one axis, each box's cell index and overlap length.

    The overlap is 0 where the offset lies past the box's last cell on the grid.
    """
    first = np.maximum(0, np.floor((lo - origin) / cell).astype(np.intp))
    last = np.minimum(count - 1, np.floor((hi - origin) / cell).astype(np.intp))
    for offset in range(int((last - first).max(initial=-1)) + 1):
        index = first + offset
        overlap = np.minimum(hi, origin + (index + 1) * cell) - np.maximum(lo, origin + index * cell)
        yield index, np.where(index <= last, overlap, 0.0)


@dataclass(frozen=True)
class SceneVehicles:
    """The vehicles of a run of scenes in columns: scene s holds the next ``counts[s]`` rows.

    This is the form an episodes file is read into.
    """

    counts: np.ndarray    # vehicles per scene
    geometry: np.ndarray  # (n, 6) float64 ``vehicle_geometry`` rows
    key: np.ndarray       # int32: a blocker's height code, or a receiver's index

    @classmethod
    def concat(cls, parts: Sequence[SceneVehicles]) -> SceneVehicles:
        empty = cls(np.empty(0, np.intp), np.empty((0, 6)), np.empty(0, np.int32))
        return cls(*(np.concatenate([getattr(p, f.name) for p in (empty, *parts)]) for f in fields(cls)))


def encode_scenes(vehicles: SceneVehicles, grid: GridSpec) -> np.ndarray:
    """Rasterize the vehicle footprints of every scene into one (scenes, rows, cols) stack.

    Cell conflicts: a receiver index always wins over a blocker code; between
    blockers the more negative (taller) code wins; between receivers the
    smaller index wins. No rule depends on vehicle order, so the boxes of all
    scenes' vehicles are built in one ``geometry_boxes`` call and laid at once,
    and each cell keeps the smallest key, receivers keyed below blockers.
    Receiver indices must lie in 1..MAX_RECEIVER_INDEX.
    """
    receiver = vehicles.key > 0
    past = vehicles.key[receiver & (vehicles.key > MAX_RECEIVER_INDEX)]
    if past.size:
        raise ValueError(f"receiver index {past[0]} outside 1..{MAX_RECEIVER_INDEX}")
    out = np.zeros((len(vehicles.counts), grid.rows, grid.cols), dtype=np.int16)
    lo, hi = geometry_boxes(vehicles.geometry, 0.0)
    key = np.where(receiver, RECEIVER_KEY + vehicles.key, vehicles.key).astype(np.int16)
    base = np.repeat(np.arange(len(vehicles.counts)) * grid.rows, vehicles.counts)
    threshold = OVERLAP_FRACTION * grid.cell * grid.cell
    # the few row windows are kept; column windows are built one offset at a time to bound memory
    rows = list(_windows(lo[:, 1], hi[:, 1], grid.origin[1], grid.rows, grid.cell))
    for j, overlap_x in _windows(lo[:, 0], hi[:, 0], grid.origin[0], grid.cols, grid.cell):
        for i, overlap_y in rows:
            hit = np.flatnonzero(overlap_x * overlap_y >= threshold)
            np.minimum.at(out.reshape(-1), (base[hit] + i[hit]) * grid.cols + j[hit], key[hit])
    np.subtract(out, RECEIVER_KEY, out=out, where=out < min(HEIGHT_CODES.values()))
    return out


def scene_view(grids: np.ndarray) -> np.ndarray:
    """The view that all receivers of a scene share: every receiver -1, blockers keep their codes."""
    return np.where(grids > 0, -1, grids)


def receiver_view(grids: np.ndarray, receivers) -> np.ndarray:
    """Per-receiver views of scene grids: the target becomes +1, all other receivers -1.

    ``grids`` is one (rows, cols) grid or a stack of them, and ``receivers``
    one receiver index per grid. A receiver absent from its grid (off the
    service strip) gets an all-zero view.
    """
    receivers = np.asarray(receivers)
    if np.any(receivers < 1):
        raise ValueError("receiver_index must be positive")
    target = grids == receivers[..., None, None]
    view = scene_view(grids)
    view[target] = 1
    view *= target.any(axis=(-2, -1), keepdims=True)
    return view

"""Occupancy-grid scene encoding for the machine-learning pipeline.

A scene becomes an integer matrix over the service strip: 0 for free cells,
a negative height-class code for blocker vehicles (car -1, truck -2, bus -3)
and the positive receiver index for receiver vehicles. The receivers of a
scene share its matrix; a per-receiver view of it rewrites the target
receiver to +1 and every other receiver to -1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenario import Scene, VehicleKind, vehicle_bounding_box

HEIGHT_CODES = {VehicleKind.CAR: -1, VehicleKind.TRUCK: -2, VehicleKind.BUS: -3}

OVERLAP_FRACTION = 0.01  # a cell is occupied once this share of its area is covered


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
        rows = int(round(area.y_extent / cell))
        cols = int(round(area.x_extent / cell))
        return cls(origin=(area.xmin, area.ymin), rows=rows, cols=cols, cell=cell)


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
    view = np.where(grids > 0, -1, grids)
    view[target] = 1
    view *= target.any(axis=(-2, -1), keepdims=True)
    return view

import math

import numpy as np
import pytest

from beamcanyon.features import GridSpec, encode_scenes, receiver_view
from beamcanyon.scenario import (
    DEFAULT_VEHICLE_TYPES,
    Scene,
    Vec3,
    Vehicle,
    make_canyon_scenario,
)


def _vehicle(vid, x, y, kind=0, receiver=None, heading=0.0):
    return Vehicle(
        id=vid,
        type=DEFAULT_VEHICLE_TYPES[kind],
        position=Vec3(x, y, 0.0),
        heading=heading,
        speed=0.0,
        receiver_index=receiver,
    )


GRID = GridSpec(origin=(0.0, 0.0), rows=23, cols=250, cell=1.0)


class TestGridSpec:
    def test_from_scenario_matches_service_strip(self):
        sc = make_canyon_scenario()
        grid = GridSpec.from_area(sc.v2i_area)
        assert (grid.rows, grid.cols) == (23, 250)
        assert grid.origin == (sc.v2i_area.xmin, sc.v2i_area.ymin)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(origin=(0, 0), rows=0)
        with pytest.raises(ValueError):
            GridSpec(origin=(0, 0), cell=0.0)

    @pytest.mark.parametrize("cell", [0.0, -1.0])
    def test_from_area_rejects_non_positive_cell(self, cell):
        with pytest.raises(ValueError, match="cell size must be positive"):
            GridSpec.from_area(make_canyon_scenario().v2i_area, cell)


class TestEncodeScene:
    def test_empty_scene_all_zero(self):
        out = encode_scenes([Scene(0.0, ())], GRID)[0]
        assert out.shape == (23, 250)
        assert not out.any()

    def test_car_block_of_minus_ones(self):
        # car centred on a cell-aligned point: 4.645 x 1.8 footprint
        out = encode_scenes([Scene(0.0, (_vehicle(0, 100.0, 10.0),))], GRID)[0]
        marked = np.argwhere(out == -1)
        assert (out <= 0).all()
        assert len(marked) > 0
        # footprint spans x in [97.68, 102.32], y in [9.1, 10.9]
        cols = sorted(set(marked[:, 1]))
        rows = sorted(set(marked[:, 0]))
        assert cols == [97, 98, 99, 100, 101, 102]
        assert rows == [9, 10]

    def test_height_class_codes(self):
        scene = Scene(0.0, (_vehicle(0, 50.0, 6.0, kind=0), _vehicle(1, 100.0, 6.0, kind=1), _vehicle(2, 150.0, 6.0, kind=2)))
        out = encode_scenes([scene], GRID)[0]
        assert set(np.unique(out)) == {-3, -2, -1, 0}

    def test_receiver_block_and_uniqueness(self):
        out = encode_scenes([Scene(0.0, (_vehicle(0, 100.0, 10.0, receiver=3),))], GRID)[0]
        assert (out >= 0).all()
        assert (out == 3).sum() > 0
        assert set(np.unique(out)) == {0, 3}

    def test_receiver_wins_cell_conflicts(self):
        # truck and receiver car overlapping the same cells
        scene = Scene(
            0.0,
            (_vehicle(0, 100.0, 10.0, kind=1), _vehicle(1, 100.5, 10.0, receiver=2)),
        )
        out = encode_scenes([scene], GRID)[0]
        car_cells = out[9:11, 98:103]
        assert (out == 2).sum() > 0
        # wherever the receiver footprint lands, the receiver index is stored
        assert (car_cells[car_cells > 0] == 2).all()

    def test_taller_blocker_wins(self):
        # car and truck footprints overlapping: truck code -2 beats car -1
        scene = Scene(0.0, (_vehicle(0, 100.0, 10.0, kind=0), _vehicle(1, 101.0, 10.0, kind=1)))
        out = encode_scenes([scene], GRID)[0]
        assert out[10, 100] == -2

    def test_partial_overlap_threshold(self):
        # footprint sliver of 0.5% of a cell stays empty, 2% marks it
        sliver = _vehicle(0, 97.0 - 4.645 / 2 + 0.005, 10.5)  # front edge 0.005 into col 97
        out = encode_scenes([Scene(0.0, (sliver,))], GRID)[0]
        assert out[10, 97] == 0
        deeper = _vehicle(0, 97.0 - 4.645 / 2 + 0.02, 10.5)  # front edge 0.02 into col 97
        out2 = encode_scenes([Scene(0.0, (deeper,))], GRID)[0]
        assert out2[10, 97] == -1

    def test_vehicle_outside_grid_absent(self):
        out = encode_scenes([Scene(0.0, (_vehicle(0, 500.0, 10.0),))], GRID)[0]
        assert not out.any()

    def test_centroid_localization(self):
        # centroid of the receiver cells within one cell diagonal of the true centre
        rng = np.random.default_rng(6)
        for _ in range(20):
            x = float(rng.uniform(10, 240))
            y = float(rng.uniform(3, 20))
            out = encode_scenes([Scene(0.0, (_vehicle(0, x, y, receiver=1),))], GRID)[0]
            cells = np.argwhere(out == 1)
            centroid_y = cells[:, 0].mean() + 0.5
            centroid_x = cells[:, 1].mean() + 0.5
            assert math.hypot(centroid_x - x, centroid_y - y) <= math.sqrt(2.0)


class TestEncodeScenes:
    """The stack of scene grids; per-scene cell rules are in TestEncodeScene."""

    def test_zero_scenes(self):
        out = encode_scenes([], GRID)
        assert out.shape == (0, 23, 250)
        assert out.dtype == np.int16

    def test_scenes_without_vehicles(self):
        out = encode_scenes([Scene(0.0, ()), Scene(0.1, ())], GRID)
        assert out.shape == (2, 23, 250) and out.dtype == np.int16
        assert not out.any()

    def test_every_vehicle_off_grid(self):
        scenes = [
            Scene(0.0, (_vehicle(0, -50.0, 10.0), _vehicle(1, 500.0, 10.0, receiver=1))),
            Scene(0.1, (_vehicle(2, 100.0, -30.0, kind=2), _vehicle(3, 100.0, 60.0, kind=1))),
        ]
        out = encode_scenes(scenes, GRID)
        assert out.shape == (2, 23, 250)
        assert not out.any()

    def test_each_scene_keeps_its_own_vehicles(self):
        first = Scene(0.0, (_vehicle(0, 100.0, 10.0, receiver=1),))
        second = Scene(0.1, (_vehicle(1, 50.0, 6.0, kind=2),))
        out = encode_scenes([first, Scene(0.2, ()), second], GRID)
        assert np.array_equal(out[0], encode_scenes([first], GRID)[0])
        assert not out[1].any()
        assert np.array_equal(out[2], encode_scenes([second], GRID)[0])
        assert set(np.unique(out[0])) == {0, 1} and set(np.unique(out[2])) == {-3, 0}

    @pytest.mark.parametrize("receiver", [0, 32765, 40000])
    def test_receiver_index_out_of_range_rejected(self, receiver):
        # the int16 grid would draw 32765 as a bus and drop 0 and 40000
        scene = Scene(0.0, (_vehicle(0, 100.0, 10.0, receiver=receiver),))
        with pytest.raises(ValueError, match=f"receiver index {receiver} outside 1..32764"):
            encode_scenes([scene], GRID)

    def test_largest_receiver_index_encodes(self):
        scene = Scene(0.0, (_vehicle(0, 100.0, 10.0, receiver=32764), _vehicle(1, 50.0, 6.0, kind=2)))
        assert set(np.unique(encode_scenes([scene], GRID)[0])) == {-3, 0, 32764}


class TestEncodeForReceiver:
    """The per-receiver view of a scene grid."""

    def test_target_and_other_receivers(self):
        scene = Scene(0.0, (_vehicle(0, 100.0, 10.0, receiver=1), _vehicle(1, 120.0, 10.0, receiver=2)))
        base = encode_scenes([scene], GRID)[0]
        out = receiver_view(base, 1)
        assert (out[base == 1] == 1).all()
        assert (out[base == 2] == -1).all()
        assert out.max() <= 1

    def test_blockers_and_empty_cells_unchanged(self):
        scene = Scene(0.0, (_vehicle(0, 100.0, 10.0, receiver=1), _vehicle(1, 130.0, 6.0, kind=1)))
        base = encode_scenes([scene], GRID)[0]
        out = receiver_view(base, 1)
        assert (out[base == -2] == -2).all()
        assert (out[base == 0] == 0).all()

    def test_missing_receiver_gets_zero_view(self):
        base = encode_scenes([Scene(0.0, (_vehicle(0, 100.0, 10.0, receiver=1),))], GRID)[0]
        out = receiver_view(base, 5)
        assert out.shape == base.shape and out.dtype == base.dtype
        assert not out.any()

    def test_idempotent_for_receiver_one(self):
        scene = Scene(0.0, (_vehicle(0, 100.0, 10.0, receiver=1), _vehicle(1, 120.0, 10.0, receiver=2)))
        once = receiver_view(encode_scenes([scene], GRID)[0], 1)
        twice = receiver_view(once, 1)
        assert (once == twice).all()

    def test_invalid_index_rejected(self):
        base = np.zeros((4, 4), dtype=np.int16)
        with pytest.raises(ValueError):
            receiver_view(base, 0)
        with pytest.raises(ValueError):
            receiver_view(np.stack([base, base]), np.array([1, 0]))

    def test_stack_matches_one_grid_at_a_time(self):
        scene = Scene(0.0, (_vehicle(0, 100.0, 10.0, receiver=1), _vehicle(1, 120.0, 10.0, receiver=2)))
        base = encode_scenes([scene], GRID)[0]
        grids = np.stack([base, base, np.zeros_like(base)])
        receivers = np.array([1, 2, 1])
        stacked = receiver_view(grids, receivers)
        for grid_values, receiver, view in zip(grids, receivers, stacked):
            assert np.array_equal(view, receiver_view(grid_values, receiver))
        assert not stacked[2].any()

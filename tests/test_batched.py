"""The batched sweep, the scene rasterizer, the per-receiver view and the CSV writer that encodes
each scene once against their oracles."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from oracles import Ray, rays_of, vehicles_of
from beamcanyon import mimo
from beamcanyon.classify import examples_to_arrays
from beamcanyon.cli import main
from beamcanyon.dataset import Examples, export_csv, extract_examples, read_episodes
from beamcanyon.features import GridSpec, encode_scenes, receiver_view
from beamcanyon.mimo import ArraySpec, compose_channel, dft_codebook, sweep, sweep_rays, upa_steering
from beamcanyon.raytrace import LosStatus, TraceConfig
from beamcanyon.scenario import DEFAULT_VEHICLE_TYPES, Scene, Vec3, Vehicle

MAX_RAYS = TraceConfig().max_rays
TX = ArraySpec(4, 4)
RX = ArraySpec(2, 3)  # unlike TX, so that a swapped side shows
TX_CB = dft_codebook(TX)
RX_CB = dft_codebook(RX)

finite = dict(allow_nan=False, allow_infinity=False)
rays = st.builds(
    Ray,
    gain=st.complex_numbers(max_magnitude=1e3, **finite),
    delay=st.just(1e-8),
    dep_azimuth=st.floats(-math.pi, math.pi, **finite),
    dep_elevation=st.floats(0.0, math.pi, **finite),
    arr_azimuth=st.floats(-math.pi, math.pi, **finite),
    arr_elevation=st.floats(0.0, math.pi, **finite),
    interactions=st.just("LOS"),
)
SWEEP_SETTINGS = settings(max_examples=40, deadline=None)


def _check_against_oracle(ray_lists):
    h = compose_channel(rays_of(ray_lists), TX, RX)
    assert h.shape == (len(ray_lists), RX.size, TX.size)
    result = sweep(h, TX_CB, RX_CB)
    for k, rays_k in enumerate(ray_lists):
        h_ref = oracles.compose_channel(rays_k, TX, RX)
        outputs, best = oracles.sweep(h_ref, TX_CB, RX_CB)
        assert np.array_equal(h[k], h_ref)
        assert np.array_equal(result.outputs[k], outputs)
        assert result.best_index[k] == best
        # Parseval: unitary codebooks keep the channel's energy over the beam grid
        energy = float(np.sum(np.abs(h_ref) ** 2))
        assert float(np.sum(np.abs(result.outputs[k]) ** 2)) == pytest.approx(energy, rel=1e-9, abs=1e-300)


@SWEEP_SETTINGS
@given(st.lists(st.lists(rays, min_size=1, max_size=1), min_size=1, max_size=8))
def test_one_ray_per_channel(ray_lists):
    _check_against_oracle(ray_lists)


@SWEEP_SETTINGS
@given(st.lists(st.lists(rays, min_size=MAX_RAYS, max_size=MAX_RAYS), min_size=1, max_size=3))
def test_max_rays_per_channel(ray_lists):
    _check_against_oracle(ray_lists)


@SWEEP_SETTINGS
@given(
    st.lists(st.lists(rays, min_size=1, max_size=MAX_RAYS), min_size=2, max_size=6).filter(
        lambda batch: len({len(r) for r in batch}) > 1
    )
)
def test_unequal_ray_counts_in_one_batch(ray_lists):
    _check_against_oracle(ray_lists)


@SWEEP_SETTINGS
@given(
    st.lists(
        st.tuples(st.floats(-math.pi, math.pi, **finite), st.floats(0.0, math.pi, **finite)),
        min_size=1,
        max_size=20,
    )
)
def test_steering_on_arrays_matches_scalar_calls(directions):
    batch = upa_steering([az for az, _ in directions], [el for _, el in directions], TX)
    assert batch.shape == (len(directions), TX.size)
    for row, (az, el) in zip(batch, directions):
        assert np.array_equal(row, oracles.upa_steering(az, el, TX))


def test_sweep_rays_chunks_match_one_batch(monkeypatch):
    rng = np.random.default_rng(5)
    ray_lists = [
        [
            Ray(complex(*rng.normal(size=2)), 1e-8, *rng.uniform(0.0, 3.0, size=4), "LOS")
            for _ in range(rng.integers(1, 6))
        ]
        for _ in range(11)
    ]
    whole = sweep(compose_channel(rays_of(ray_lists), TX, RX), TX_CB, RX_CB)
    monkeypatch.setattr(mimo, "SWEEP_CHUNK", 4)
    chunks = list(sweep_rays(rays_of(ray_lists), TX, RX))
    assert [len(c.best_index) for c in chunks] == [4, 4, 3]
    assert np.array_equal(np.concatenate([c.outputs for c in chunks]), whole.outputs)
    assert np.array_equal(np.concatenate([c.best_index for c in chunks]), whole.best_index)


def test_sweep_rays_of_nothing_yields_nothing():
    assert list(sweep_rays(rays_of([]), TX, RX)) == []


def _oracle_view(grid_values, receiver):
    """The per-receiver features as the old per-example extraction built them."""
    if np.any(grid_values == receiver):
        return oracles.encode_for_receiver(grid_values, receiver)
    return np.zeros_like(grid_values)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_receiver_view_matches_oracle(data):
    n_receivers = data.draw(st.integers(1, 10))
    grids = data.draw(
        hnp.arrays(
            np.int16,
            st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 6)),
            elements=st.integers(-3, n_receivers),
        )
    )
    # receivers 1..R, each present in its grid or not
    receivers = data.draw(hnp.arrays(np.int64, len(grids), elements=st.integers(1, n_receivers)))
    stacked = receiver_view(grids, receivers)
    assert stacked.dtype == grids.dtype
    for grid_values, receiver, view in zip(grids, receivers, stacked):
        expected = _oracle_view(grid_values, int(receiver))
        assert np.array_equal(view, expected)
        assert np.array_equal(receiver_view(grid_values, receiver), expected)


LANE_HEADINGS = (0.0, math.pi / 2, math.pi, -math.pi / 2, 3 * math.pi / 2)


def _draw_vehicle(data, vid, grid):
    """A vehicle of any kind, placed freely, with a box edge or corner on a cell edge, or off the grid."""
    ox, oy = grid.origin
    c = grid.cell
    vtype = DEFAULT_VEHICLE_TYPES[data.draw(st.integers(0, 2))]
    heading = data.draw(st.one_of(st.sampled_from(LANE_HEADINGS), st.floats(-2 * math.pi, 2 * math.pi)))
    # half extents of a lane-aligned box, for the edge- and corner-snapped placements
    half_x, half_y = vtype.length / 2, vtype.width / 2
    if round(math.cos(heading), 9) == 0:
        half_x, half_y = half_y, half_x
    col = data.draw(st.integers(-2, grid.cols + 2))
    row = data.draw(st.integers(-2, grid.rows + 2))
    side = data.draw(st.sampled_from((-1, 1)))
    free_x = st.floats(ox - 15, ox + grid.cols * c + 15)
    free_y = st.floats(oy - 15, oy + grid.rows * c + 15)
    placement = data.draw(st.sampled_from(("free", "edge", "corner", "off")))
    if placement == "free":
        x, y = data.draw(free_x), data.draw(free_y)
    elif placement == "edge":
        # left or right box edge on a column edge
        x, y = ox + col * c - side * half_x, data.draw(free_y)
    elif placement == "corner":
        # one box corner on a cell corner: only that corner touches the neighbouring cell
        x, y = ox + col * c - side * half_x, oy + row * c - side * half_y
    else:
        x = data.draw(st.sampled_from((ox - 40 - grid.cols * c, ox + 2 * grid.cols * c + 40)))
        y = data.draw(free_y)
    receiver = data.draw(st.one_of(st.none(), st.integers(1, 4)))
    return Vehicle(vid, vtype, Vec3(x, y, 0.0), heading, 0.0, receiver)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_encode_scenes_matches_oracle(data):
    cell = data.draw(st.sampled_from((0.25, 0.5, 1.0, 2.0)) | st.floats(0.25, 2.0))
    origin = (data.draw(st.floats(-60.0, 60.0)), data.draw(st.floats(-60.0, 60.0)))
    grid = GridSpec(origin, rows=data.draw(st.integers(1, 24)), cols=data.draw(st.integers(1, 60)), cell=cell)
    scenes = [
        Scene(0.1 * k, tuple(_draw_vehicle(data, v, grid) for v in range(data.draw(st.integers(0, 8)))))
        for k in range(data.draw(st.integers(1, 4)))
    ]
    out = encode_scenes(vehicles_of(scenes), grid)
    expected = np.stack([oracles.encode_scene(scene, grid) for scene in scenes])
    assert out.dtype == expected.dtype
    assert np.array_equal(out, expected)


def _table(grids, receivers=None, grid_row=None):
    """One example per grid, or one per entry of ``grid_row`` when given."""
    n = len(grids) if grid_row is None else len(grid_row)
    rows = np.arange(n)
    return Examples(
        grids=np.stack(grids),
        grid_row=rows if grid_row is None else np.array(grid_row, dtype=np.intp),
        receiver=np.ones(n, dtype=np.int64) if receivers is None else np.array(receivers, dtype=np.int64),
        label=rows % 4,
        los=np.where(rows % 2 == 1, LosStatus.LOS.value, LosStatus.NLOS.value),
        episode=rows // 3,
        scene=rows,
        angles=np.array([(0.1 * i, 2.0, -math.pi, 1e-17) for i in range(n)]),
    )


def _oracle_examples(table):
    return [
        oracles.Example(
            episode_id=int(table.episode[i]),
            scene_index=int(table.scene[i]),
            receiver_index=int(table.receiver[i]),
            features=_oracle_view(table.grids[table.grid_row[i]], int(table.receiver[i])),
            label=int(table.label[i]),
            los=LosStatus(table.los[i]),
            in_service_area=True,
            target_angles=tuple(table.angles[i].tolist()),
        )
        for i in range(len(table))
    ]


def _csv_bytes(writer, examples):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "examples.csv"
        writer(examples, path)
        return path.read_bytes()


def _assert_same_csv(grids, receivers=None, grid_row=None):
    table = _table(grids, receivers, grid_row)
    written = _csv_bytes(export_csv, table)
    assert written == _csv_bytes(oracles.export_csv_by_cell, _oracle_examples(table))
    assert written == _csv_bytes(oracles.export_csv_rows, table)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(hnp.arrays(np.int16, (3, 5), elements=st.integers(-3, 1)), min_size=1, max_size=5))
def test_csv_matches_oracle_on_occupancy_codes(grids):
    _assert_same_csv(grids)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(
        st.tuples(hnp.arrays(np.int16, (2, 4), elements=st.integers(-40, 40)), st.integers(1, 40)),
        min_size=1,
        max_size=5,
    )
)
def test_csv_matches_oracle_on_wider_int16_codes(rows):
    _assert_same_csv([grid for grid, _ in rows], [receiver for _, receiver in rows])


def test_csv_matches_oracle_on_all_zero_grids():
    _assert_same_csv([np.zeros((23, 250), dtype=np.int16) for _ in range(3)])


def test_csv_matches_oracle_outside_occupancy_codes():
    _assert_same_csv(
        [np.array([[7, -12, 0], [1, -3, 7]], dtype=np.int16), np.full((2, 3), -12, np.int16)], [7, 1]
    )


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_csv_matches_oracles_with_many_rows_per_grid(data):
    # few receivers on small grids, so that receivers touch and lie inside each other's spans, or
    # codes -40..40; receiver index top + 1 never occurs, so it is absent from every grid
    lo = data.draw(st.sampled_from((-3, -40)))
    top = data.draw(st.integers(1, 4)) if lo == -3 else 40
    shape = data.draw(st.tuples(st.integers(1, 4), st.integers(1, 6)))
    grids = data.draw(st.lists(hnp.arrays(np.int16, shape, elements=st.integers(lo, top)), min_size=1, max_size=3))
    rows = data.draw(
        st.lists(st.tuples(st.integers(0, len(grids) - 1), st.integers(1, top + 1)), min_size=1, max_size=12)
    )
    _assert_same_csv(grids, [receiver for _, receiver in rows], [grid_row for grid_row, _ in rows])


SHARED_GRID = np.array([[2, 1, 3, 1], [-2, 3, 0, -3], [0, -1, 0, 4]], dtype=np.int16)
# receiver 1 lies elsewhere than in SHARED_GRID, so that a row written from the wrong scene's text shows
OTHER_GRID = np.array([[0, 0, 0, 0], [1, 1, -1, 0], [0, 2, 0, -2]], dtype=np.int16)


@pytest.mark.parametrize(
    "receivers, grid_row",
    [
        pytest.param([1, 3, 2], [0, 0, 0], id="adjacent-and-inside-target-span"),
        pytest.param([2, 4], [0, 0], id="target-at-first-and-last-cell"),
        pytest.param([5, 1, 5], [0, 0, 0], id="absent-receiver"),
        pytest.param([1, 1, 1, 2], [0, 1, 0, 0], id="grid-rows-0-1-0"),
    ],
)
def test_csv_rows_sharing_a_grid_match_oracles(receivers, grid_row):
    _assert_same_csv([SHARED_GRID, OTHER_GRID], receivers, grid_row)


@pytest.mark.parametrize("receiver", [0, -1])
def test_csv_rejects_non_positive_receiver(tmp_path, receiver):
    with pytest.raises(ValueError, match="receiver_index must be positive"):
        export_csv(_table([SHARED_GRID], [1, receiver], [0, 0]), tmp_path / "x.csv")
    assert list(tmp_path.iterdir()) == []


def test_csv_matches_oracle_extraction_on_seed_7_records(tmp_path, capsys):
    # 3 s between scenes, so that receivers drive off the service strip within an episode
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"episode": {"sample_period": 3.0}}))
    argv = ["--config", str(config), "--seed", "7", "--out", str(tmp_path)]
    assert main(argv + ["generate", "--episodes", "3", "--scenes", "10"]) == 0
    capsys.readouterr()
    records = read_episodes(tmp_path / "episodes.jsonl")
    grid = GridSpec.from_area(records[0].v2i_area)
    train, test, keys = extract_examples(records[:2], records[2:], grid, TX, RX)
    old_train, old_map = oracles.extract_examples(records[:2], grid, TX, RX, mode="fit")
    old_test, _ = oracles.extract_examples(records[2:], grid, TX, RX, mode="apply", label_map=old_map)
    assert keys.tolist() == list(old_map.ordered_keys)
    for examples, old in ((train, old_train), (test, old_test)):
        off_strip = sum(not ex.in_service_area for ex in old)
        assert 0 < off_strip < len(old)
        assert len(examples) == len(old)
        assert _csv_bytes(export_csv, examples) == _csv_bytes(oracles.export_csv, old)
        x, y, nlos = examples_to_arrays(examples)
        assert np.array_equal(x, np.stack([ex.features.reshape(-1) for ex in old]).astype(np.float64))
        assert np.array_equal(y, [ex.label for ex in old])
        assert np.array_equal(nlos, [ex.los == LosStatus.NLOS for ex in old])

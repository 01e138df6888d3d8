"""The batched sweep and the table-driven CSV writer against their scalar oracles."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from beamcanyon import mimo
from beamcanyon.dataset import Example, export_csv
from beamcanyon.mimo import ArraySpec, compose_channel, dft_codebook, sweep, sweep_rays, upa_steering
from beamcanyon.raytrace import LosStatus, Ray, TraceConfig

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
    h = compose_channel(ray_lists, TX, RX)
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
    whole = sweep(compose_channel(ray_lists, TX, RX), TX_CB, RX_CB)
    monkeypatch.setattr(mimo, "SWEEP_CHUNK", 4)
    chunks = list(sweep_rays(ray_lists, TX, RX))
    assert [len(c.best_index) for c in chunks] == [4, 4, 3]
    assert np.array_equal(np.concatenate([c.outputs for c in chunks]), whole.outputs)
    assert np.array_equal(np.concatenate([c.best_index for c in chunks]), whole.best_index)


def test_sweep_rays_of_nothing_yields_nothing():
    assert list(sweep_rays([], TX, RX)) == []


def _example(features, i=0):
    return Example(
        episode_id=i // 3,
        scene_index=i,
        receiver_index=1,
        features=features,
        label=i % 4,
        los=LosStatus.LOS if i % 2 else LosStatus.NLOS,
        in_service_area=True,
        target_angles=(0.1 * i, 2.0, -math.pi, 1e-17),
    )


def _csv_bytes(writer, examples):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "examples.csv"
        writer(examples, path)
        return path.read_bytes()


def _assert_same_csv(grids):
    examples = [_example(g, i) for i, g in enumerate(grids)]
    assert _csv_bytes(export_csv, examples) == _csv_bytes(oracles.export_csv, examples)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(hnp.arrays(np.int16, (3, 5), elements=st.integers(-3, 1)), min_size=1, max_size=5))
def test_csv_matches_oracle_on_occupancy_codes(grids):
    _assert_same_csv(grids)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(hnp.arrays(np.int16, (2, 4), elements=st.integers(-40, 40)), min_size=1, max_size=5))
def test_csv_matches_oracle_on_wider_int16_codes(grids):
    _assert_same_csv(grids)


def test_csv_matches_oracle_on_all_zero_grids():
    _assert_same_csv([np.zeros((23, 250), dtype=np.int16) for _ in range(3)])


def test_csv_matches_oracle_outside_occupancy_codes():
    _assert_same_csv([np.array([[7, -12, 0], [1, -3, 7]], dtype=np.int16), np.full((2, 3), -12, np.int16)])


def test_csv_matches_oracle_on_float_features():
    # int() truncates toward zero: 2.7 -> 2, -2.7 -> -2, -0.5 -> 0
    _assert_same_csv([np.array([[2.7, -2.7, -0.5], [0.0, -12.9, 0.99]]), np.array([[1.0, 3.5, -1.5], [7.2, 0.4, -0.4]])])


def test_inconsistent_grid_sizes_rejected(tmp_path):
    examples = [_example(np.zeros((2, 3), np.int16)), _example(np.zeros((2, 4), np.int16), 1)]
    with pytest.raises(ValueError, match="inconsistent grid sizes"):
        export_csv(examples, tmp_path / "x.csv")
    assert list(tmp_path.iterdir()) == []

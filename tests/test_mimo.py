import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import EpisodeRecord, PairRecord, Ray, TracedScene, rays_of
from beamcanyon.dataset import extract_examples
from beamcanyon.features import GridSpec
from beamcanyon.mimo import (
    ArraySpec,
    compose_channel,
    dft_codebook,
    strongest_ray_angles,
    sweep,
    upa_steering,
)
from beamcanyon.scenario import EpisodeParams, Rect, Vec3


def _ray(gain=1.0 + 0j, delay=1e-8, dep=(0.0, 0.0), arr=(0.0, 0.0)):
    return Ray(gain, delay, dep[0], dep[1], arr[0], arr[1], "LOS")


def _strongest(rays):
    """``strongest_ray_angles`` of one list, as a tuple."""
    return tuple(strongest_ray_angles(rays_of([rays]))[0].tolist())


def _grid_angles(px, py, spec):
    """Angles whose direction cosines sit exactly on the DFT beam (px, py)."""
    u = -2.0 * px / spec.nx
    v = -2.0 * py / spec.ny
    if u <= -1.0:
        u += 2.0
    if v <= -1.0:
        v += 2.0
    if u * u + v * v > 1.0:
        return None
    elevation = math.asin(math.sqrt(u * u + v * v))
    azimuth = math.atan2(v, u)
    return azimuth, elevation


class TestUpaSteering:
    def test_zenith_gives_uniform_vector(self):
        spec = ArraySpec(4, 4)
        a = upa_steering(0.3, 0.0, spec)
        assert np.allclose(a, np.full(16, 0.25))

    def test_unit_norm_random_angles(self):
        rng = np.random.default_rng(2)
        spec = ArraySpec(4, 4)
        for _ in range(100):
            az = rng.uniform(-math.pi, math.pi)
            el = rng.uniform(0, math.pi)
            assert np.linalg.norm(upa_steering(az, el, spec)) == pytest.approx(1.0)

    def test_two_element_line_array(self):
        # horizon along +x: phases (0, pi), i.e. (1, -1)/sqrt(2)
        a = upa_steering(0.0, math.pi / 2, ArraySpec(2, 1))
        assert np.allclose(a, np.array([1.0, -1.0]) / math.sqrt(2))

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            ArraySpec(0, 4)


class TestComposeChannel:
    def test_single_zenith_ray_gives_all_ones(self):
        spec = ArraySpec(4, 4)
        h = compose_channel(rays_of([[_ray()]]), spec, spec)[0]
        assert np.allclose(h, np.ones((16, 16)))

    def test_linearity_over_concatenation(self):
        rng = np.random.default_rng(3)
        spec = ArraySpec(2, 2)
        rays_a = [
            _ray(
                gain=complex(rng.normal(), rng.normal()),
                dep=(rng.uniform(-3, 3), rng.uniform(0, 3)),
                arr=(rng.uniform(-3, 3), rng.uniform(0, 3)),
            )
            for _ in range(4)
        ]
        rays_b = [
            _ray(
                gain=complex(rng.normal(), rng.normal()),
                dep=(rng.uniform(-3, 3), rng.uniform(0, 3)),
                arr=(rng.uniform(-3, 3), rng.uniform(0, 3)),
            )
            for _ in range(3)
        ]
        h_all = compose_channel(rays_of([rays_a + rays_b]), spec, spec)[0]
        h_a, h_b = compose_channel(rays_of([rays_a, rays_b]), spec, spec)
        h_sum = h_a + h_b
        assert np.allclose(h_all, h_sum, rtol=1e-12, atol=1e-15)

    def test_homogeneity(self):
        spec = ArraySpec(2, 2)
        ray = _ray(gain=0.3 - 0.4j, dep=(1.0, 1.2), arr=(-0.5, 0.8))
        scaled = _ray(gain=3 * (0.3 - 0.4j), dep=(1.0, 1.2), arr=(-0.5, 0.8))
        h, h_scaled = compose_channel(rays_of([[ray], [scaled]]), spec, spec)
        assert np.allclose(3 * h, h_scaled)

    def test_rank_bounded_by_ray_count(self):
        rng = np.random.default_rng(4)
        spec = ArraySpec(4, 4)
        for n_rays in (1, 2, 3):
            rays = [
                _ray(
                    gain=complex(rng.normal(), rng.normal()),
                    dep=(rng.uniform(-3, 3), rng.uniform(0.2, 2.9)),
                    arr=(rng.uniform(-3, 3), rng.uniform(0.2, 2.9)),
                )
                for _ in range(n_rays)
            ]
            h = compose_channel(rays_of([rays]), spec, spec)[0]
            s = np.linalg.svd(h, compute_uv=False)
            assert (s > 1e-9 * s[0]).sum() <= n_rays

    def test_empty_rays_rejected(self):
        with pytest.raises(ValueError):
            compose_channel(rays_of([[_ray()], []]), ArraySpec(2, 2), ArraySpec(2, 2))


class TestDftCodebook:
    def test_two_point(self):
        cb = dft_codebook(ArraySpec(2, 1))
        assert np.allclose(cb[:, 0], np.array([1, 1]) / math.sqrt(2))
        assert np.allclose(cb[:, 1], np.array([1, -1]) / math.sqrt(2))

    @pytest.mark.parametrize("nx,ny", [(2, 2), (4, 4), (8, 8), (3, 5)])
    def test_unitary(self, nx, ny):
        cb = dft_codebook(ArraySpec(nx, ny))
        n = nx * ny
        assert np.abs(cb.conj().T @ cb - np.eye(n)).max() < 1e-12

    def test_dc_column(self):
        cb = dft_codebook(ArraySpec(4, 4))
        assert np.allclose(cb[:, 0], np.full(16, 0.25))


class TestSweep:
    def test_all_ones_channel_picks_broadside(self):
        spec = ArraySpec(4, 4)
        h = compose_channel(rays_of([[_ray()]]), spec, spec)[0]
        cb = dft_codebook(spec)
        result = sweep(h, cb, cb)
        assert divmod(int(result.best_index), cb.shape[1]) == (0, 0)
        assert result.best_index == 0
        assert abs(result.outputs[0]) == pytest.approx(16.0)

    def test_matches_bruteforce_loop(self):
        # oracle: evaluate every pair explicitly
        rng = np.random.default_rng(8)
        spec = ArraySpec(4, 4)
        h = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        cb = dft_codebook(spec)
        result = sweep(h, cb, cb)
        best_i, best_mag = 0, -1.0
        for p in range(16):
            for q in range(16):
                y = cb[:, q].conj() @ h @ cb[:, p]
                i = p * 16 + q
                assert result.outputs[i] == pytest.approx(y, rel=1e-12)
                if abs(y) > best_mag:
                    best_i, best_mag = i, abs(y)
        assert result.best_index == best_i

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        spec = ArraySpec(4, 4)
        cb = dft_codebook(spec)
        h = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        base = sweep(h, cb, cb).best_index
        for _ in range(20):
            c = float(rng.uniform(0.01, 100.0))
            assert sweep(c * h, cb, cb).best_index == base

    def test_outputs_bounded_by_frobenius_norm(self):
        rng = np.random.default_rng(10)
        spec = ArraySpec(4, 4)
        cb = dft_codebook(spec)
        h = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        result = sweep(h, cb, cb)
        assert np.abs(result.outputs).max() <= np.linalg.norm(h) + 1e-12

    def test_dimension_mismatch_rejected(self):
        cb = dft_codebook(ArraySpec(4, 4))
        with pytest.raises(ValueError):
            sweep(np.ones((8, 16)), cb, cb)

    def test_on_grid_ray_lands_on_its_beam(self):
        # a single ray aligned with a DFT grid point must win that exact pair
        rng = np.random.default_rng(11)
        spec = ArraySpec(4, 4)
        cb = dft_codebook(spec)
        hits = 0
        while hits < 50:
            px, py = rng.integers(4), rng.integers(4)
            qx, qy = rng.integers(4), rng.integers(4)
            dep = _grid_angles(px, py, spec)
            arr = _grid_angles(qx, qy, spec)
            if dep is None or arr is None:
                continue
            gain = complex(rng.normal(), rng.normal())
            h = compose_channel(rays_of([[_ray(gain=gain, dep=dep, arr=arr)]]), spec, spec)[0]
            result = sweep(h, cb, cb)
            tx_col = px * spec.ny + py
            rx_col = qx * spec.ny + qy
            assert divmod(int(result.best_index), cb.shape[1]) == (tx_col, rx_col)
            hits += 1


class TestStrongestRayAngles:
    def test_single_ray(self):
        ray = _ray(dep=(0.1, 0.2), arr=(0.3, 0.4))
        assert _strongest([ray]) == (0.1, 0.2, 0.3, 0.4)

    def test_picks_larger_amplitude(self):
        weak = _ray(gain=0.5, dep=(1, 1), arr=(1, 1))
        strong = _ray(gain=0.9, dep=(2, 2), arr=(2, 2))
        assert _strongest([weak, strong]) == (2, 2, 2, 2)

    def test_amplitude_tie_takes_earliest_arrival(self):
        late = _ray(gain=0.5, delay=2e-8, dep=(1, 1), arr=(1, 1))
        early = _ray(gain=0.5, delay=1e-8, dep=(2, 2), arr=(2, 2))
        assert _strongest([late, early]) == (2, 2, 2, 2)

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            rays = [
                _ray(
                    gain=complex(rng.normal(), rng.normal()),
                    delay=float(rng.uniform(1e-9, 1e-7)),
                    dep=(float(rng.normal()), float(rng.normal())),
                    arr=(float(rng.normal()), float(rng.normal())),
                )
                for _ in range(int(rng.integers(1, 10)))
            ]
            best, best_key = None, None
            for r in rays:
                key = (-abs(r.gain), r.delay)
                if best_key is None or key < best_key:
                    best, best_key = r, key
            assert _strongest(rays) == (
                best.dep_azimuth,
                best.dep_elevation,
                best.arr_azimuth,
                best.arr_elevation,
            )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            strongest_ray_angles(rays_of([[]]))


# each of a 4 x 1 array's four DFT beams points at a real direction, so every one of
# the 16 beam-pair indices is the best pair of one grid-aligned ray
LINE = ArraySpec(4, 1)
N_INDICES = LINE.size * LINE.size


def _record(episode_id, indices):
    """An episode whose scene s holds one pair, with best beam-pair index ``indices[s]``."""
    scenes = []
    for index in indices:
        tx_beam, rx_beam = divmod(index, LINE.size)
        ray = _ray(dep=_grid_angles(tx_beam, 0, LINE), arr=_grid_angles(rx_beam, 0, LINE))
        scenes.append(TracedScene(float(len(scenes)), (), (PairRecord(0, 1, (ray,), 0.0, 0.0, 0.0),)))
    area = Rect(0.0, 0.0, 1.0, 1.0)
    origin = Vec3(0.0, 0.0, 0.0)
    params = EpisodeParams(receiver_count=1)
    return oracles.columns_of(EpisodeRecord(episode_id, 0.0, params, 1, area, area, origin, {1: 0}, tuple(scenes)))


def _classes(train_indices, test_indices):
    """Train labels, test labels and beam-pair keys of ``extract_examples`` on one episode per side."""
    train, test, keys = extract_examples(
        [_record(0, train_indices)], [_record(1, test_indices)], GridSpec((0.0, 0.0), 1, 1), LINE, LINE
    )
    return train.label.tolist(), test.label.tolist(), keys.tolist()


class TestLabelMap:
    """The beam classes that ``extract_examples`` fits on the train side of a split."""

    def test_distinct_keys_counted(self):
        _, _, keys = _classes([5, 3, 9, 3, 5], [9])
        assert len(keys) == 3

    def test_round_trip(self):
        train, _, keys = _classes([5, 3, 9, 3], [])
        assert [keys[label - 1] for label in train] == [5, 3, 9, 3]

    def test_unseen_maps_to_zero(self):
        _, test, _ = _classes([1, 2, 3], [2, 15, 0, 3])
        assert test == [2, 0, 0, 3]

    def test_labels_are_one_based_and_sorted(self):
        train, _, keys = _classes([12, 10, 11], [])
        assert keys == [10, 11, 12]
        assert train == [3, 1, 2]

    def test_no_train_index_gives_no_classes(self):
        assert _classes([], [4, 7]) == ([], [0, 0], [])

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(0, N_INDICES - 1), min_size=1, max_size=12),
        st.lists(st.integers(0, N_INDICES - 1), max_size=12),
    )
    def test_classes_match_the_label_map_oracle(self, train_indices, test_indices):
        train, test, keys = _classes(train_indices, test_indices)
        label_map = oracles.compact_labels(train_indices)
        assert keys == list(label_map.ordered_keys)
        assert train == [label_map.apply(i) for i in train_indices]
        assert test == [label_map.apply(i) for i in test_indices]

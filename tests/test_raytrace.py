import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from beamcanyon.raytrace import (
    LosStatus,
    PairRecord,
    Ray,
    ReflectorPlane,
    SPEED_OF_LIGHT,
    TraceConfig,
    classify_los,
    free_space_gain,
    mirror_paths,
    segment_intersects_box,
    trace_scene,
)
from beamcanyon.scenario import (
    Box,
    DEFAULT_VEHICLE_TYPES,
    EpisodeParams,
    Rect,
    ScenarioConfig,
    Scene,
    Vec3,
    Vehicle,
    generate_episode,
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


def _paths(tx, rx, planes, max_reflections):
    """(points, bounce planes) of the valid mirror paths from tx to the single point rx."""
    return [
        (points[0], seq)
        for seq, points, valid in mirror_paths(tx, rx[None, :], planes, max_reflections)
        if valid[0]
    ]


def _rays_with(record, interactions):
    return [r for r in record.rays if r.interactions == interactions]


def _oracle_scene(scenario, scene, cfg):
    """The per-pair oracle over the scene's receivers, in receiver-index order."""
    receivers = sorted(
        (v for v in scene.vehicles if v.receiver_index is not None),
        key=lambda v: v.receiver_index,
    )
    return tuple(oracles.trace_paths(scenario, scene, v, cfg) for v in receivers)


class TestSegmentIntersectsBox:
    BOX = Box(Vec3(4, -1, 0), Vec3(6, 1, 3))

    def test_pass_through(self):
        assert segment_intersects_box(Vec3(0, 0, 1), Vec3(10, 0, 1), self.BOX)

    def test_above_the_box(self):
        assert not segment_intersects_box(Vec3(0, 0, 5), Vec3(10, 0, 5), self.BOX)

    def test_touching_a_face_does_not_block(self):
        # segment grazing the top face z = 3
        assert not segment_intersects_box(Vec3(0, 0, 3), Vec3(10, 0, 3), self.BOX)
        # segment ending exactly on a side face, going away from the box
        assert not segment_intersects_box(Vec3(4, 0, 1), Vec3(0, 0, 1), self.BOX)

    def test_endpoint_inside_blocks(self):
        assert segment_intersects_box(Vec3(5, 0, 1), Vec3(10, 0, 1), self.BOX)

    def test_stops_short(self):
        assert not segment_intersects_box(Vec3(0, 0, 1), Vec3(3.9, 0, 1), self.BOX)

    def test_agrees_with_dense_sampling(self):
        # oracle: strict containment of any of 10^4 interior sample points
        rng = np.random.default_rng(1234)
        ts = (np.arange(10_000) + 0.5) / 10_000
        disagreements = 0
        for _ in range(1000):
            lo = rng.uniform(-5, 4, size=3)
            hi = lo + rng.uniform(0.5, 3.0, size=3)
            box = Box(Vec3(*lo), Vec3(*hi))
            p0 = rng.uniform(-6, 6, size=3)
            p1 = rng.uniform(-6, 6, size=3)
            points = p0[None, :] + ts[:, None] * (p1 - p0)[None, :]
            inside = np.all((points > lo) & (points < hi), axis=1).any()
            got = segment_intersects_box(Vec3(*p0), Vec3(*p1), box)
            disagreements += got != inside
        assert disagreements == 0


class TestFreeSpaceGain:
    def test_unit_magnitude_distance(self):
        wavelength = 0.005
        d = wavelength / (4 * math.pi)
        assert abs(free_space_gain(d, wavelength)) == pytest.approx(1.0)

    def test_60ghz_at_10m_is_minus_88db(self):
        g = free_space_gain(10.0, 0.005)
        db = 20 * math.log10(abs(g))
        assert db == pytest.approx(-20 * math.log10(4 * math.pi * 10.0 / 0.005), abs=1e-9)
        assert db == pytest.approx(-88.0, abs=0.01)

    def test_phase_at_one_wavelength(self):
        g = free_space_gain(0.005, 0.005)
        assert math.atan2(g.imag, g.real) == pytest.approx(0.0, abs=1e-9)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            free_space_gain(0.0, 0.005)
        with pytest.raises(ValueError):
            free_space_gain(-1.0, 0.005)
        with pytest.raises(ValueError):
            free_space_gain(1.0, 0.0)


@pytest.fixture(scope="module")
def canyon():
    return make_canyon_scenario()


class TestTracePaths:
    def test_los_delay_is_distance_over_c(self, canyon):
        rx = _vehicle(0, 180.0, 9.75, receiver=1)
        (rec,) = trace_scene(canyon, Scene(0.0, (rx,)), TraceConfig())
        los = [r for r in rec.rays if r.interactions == "LOS"]
        assert len(los) == 1
        tx = canyon.rsu_position.to_array()
        roof = np.array([180.0, 9.75, rx.type.height])
        assert los[0].delay == pytest.approx(np.linalg.norm(roof - tx) / SPEED_OF_LIGHT, rel=1e-12)

    def test_scene_without_receivers_yields_nothing(self, canyon):
        v = _vehicle(0, 180.0, 9.75)
        assert trace_scene(canyon, Scene(0.0, (v,)), TraceConfig()) == ()

    def test_bus_blocks_line_of_sight(self, canyon):
        rx = _vehicle(0, 165.0, 16.75, receiver=1)  # straight across from the RSU
        # bus parked between the RSU and the receiver
        bus = _vehicle(1, 165.0, 9.75, kind=2)
        (rec,) = trace_scene(canyon, Scene(0.0, (rx, bus)), TraceConfig())
        assert all(r.interactions != "LOS" for r in rec.rays)

    def test_one_wall_reflection_matches_mirror_point(self, canyon):
        # oracle: path length via the explicitly mirrored source
        rx = _vehicle(0, 200.0, 13.25, receiver=1)
        cfg = TraceConfig(max_reflections=1)
        (rec,) = trace_scene(canyon, Scene(0.0, (rx,)), cfg)
        walls = [r for r in rec.rays if r.interactions == "R"]
        assert len(walls) == 2  # south wall at y=0, north wall at y=23
        tx = canyon.rsu_position.to_array()
        roof = np.array([200.0, 13.25, rx.type.height])
        expected = sorted(
            np.linalg.norm(roof - np.array([tx[0], 2 * wall_y - tx[1], tx[2]]))
            for wall_y in (0.0, 23.0)
        )
        got = sorted(r.delay * SPEED_OF_LIGHT for r in walls)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_ground_reflection_present(self, canyon):
        rx = _vehicle(0, 200.0, 13.25, receiver=1)
        (rec,) = trace_scene(canyon, Scene(0.0, (rx,)), TraceConfig(max_reflections=1))
        assert any(r.interactions == "RG" for r in rec.rays)

    def test_rays_ranked_by_amplitude(self, canyon):
        rx = _vehicle(0, 220.0, 6.25, receiver=1)
        (rec,) = trace_scene(canyon, Scene(0.0, (rx,)), TraceConfig())
        mags = [abs(r.gain) for r in rec.rays]
        assert mags == sorted(mags, reverse=True)

    def test_more_reflections_grow_the_candidate_set(self, canyon):
        rx = _vehicle(0, 190.0, 9.75, receiver=1)
        scene = Scene(0.0, (rx,))
        sets = []
        for k in (0, 1, 2):
            (rec,) = trace_scene(canyon, scene, TraceConfig(max_reflections=k))
            sets.append({(r.interactions, round(r.delay * 1e12, 3)) for r in rec.rays})
        assert sets[0] <= sets[1] <= sets[2]

    def test_truncates_to_max_rays(self, canyon):
        rx = _vehicle(0, 190.0, 9.75, receiver=1)
        (rec,) = trace_scene(canyon, Scene(0.0, (rx,)), TraceConfig(max_rays=3))
        assert len(rec.rays) == 3

    def test_received_power_consistent_with_ray_gains(self, canyon):
        rx = _vehicle(0, 170.0, 6.25, receiver=1)
        (rec,) = trace_scene(canyon, Scene(0.0, (rx,)), TraceConfig(tx_power_dbm=0.0))
        total = sum(abs(r.gain) ** 2 for r in rec.rays)
        assert rec.p_rx_dbm == pytest.approx(10 * math.log10(total), abs=1e-6)

    def test_mean_toa_is_power_weighted(self, canyon):
        rx = _vehicle(0, 170.0, 6.25, receiver=1)
        (rec,) = trace_scene(canyon, Scene(0.0, (rx,)), TraceConfig())
        weights = [abs(r.gain) ** 2 for r in rec.rays]
        expected = sum(w * r.delay for w, r in zip(weights, rec.rays)) / sum(weights)
        assert rec.mean_toa == pytest.approx(expected, rel=1e-12)

    def test_total_blockage_yields_empty_rays(self, canyon):
        # receiver fully ringed by buses, LOS-only tracing
        rx = _vehicle(0, 165.0, 9.75, receiver=1)
        ring = [
            _vehicle(i + 1, 165.0 + dx, 9.75 + dy, kind=2, heading=h)
            for i, (dx, dy, h) in enumerate(
                [(-7, 0, 0.0), (7, 0, 0.0), (0, 3.2, math.pi / 2), (0, -3.2, math.pi / 2)]
            )
        ]
        (rec,) = trace_scene(canyon, Scene(0.0, tuple([rx] + ring)), TraceConfig(max_reflections=0))
        assert rec.rays == ()
        assert rec.p_rx_dbm is None and rec.mean_toa is None
        assert classify_los(rec) == LosStatus.NO_PATH


class TestMatchesOracle:
    """trace_scene equals the per-pair tracer it replaced, record for record."""

    @pytest.mark.parametrize("seed", range(20))
    def test_default_canyon(self, canyon, seed):
        ep = generate_episode(canyon, EpisodeParams(scenes_per_episode=4, receiver_count=10, seed=seed))
        cfg = TraceConfig()
        for scene in ep.scenes:
            assert trace_scene(canyon, scene, cfg) == _oracle_scene(canyon, scene, cfg)

    @pytest.mark.parametrize(
        "lane_count, receivers, max_reflections, max_rays",
        [
            (1, 2, 0, 25),
            (1, 4, 3, 7),
            (4, 10, 1, 1),
            (4, 10, 3, 25),
            (6, 10, 0, 7),
            (6, 2, 1, 25),
            (6, 10, 3, 1),
        ],
    )
    def test_varied_configs(self, lane_count, receivers, max_reflections, max_rays):
        sc = make_canyon_scenario(ScenarioConfig(lane_count=lane_count))
        params = EpisodeParams(
            scenes_per_episode=3, receiver_count=receivers, seed=lane_count + max_rays
        )
        ep = generate_episode(sc, params)
        cfg = TraceConfig(max_reflections=max_reflections, max_rays=max_rays)
        for scene in ep.scenes:
            assert trace_scene(sc, scene, cfg) == _oracle_scene(sc, scene, cfg)

    def test_gapped_walls_and_narrow_area(self, canyon):
        # gaps between buildings reject wall bounces off the face; a narrowed
        # tracing area rejects ground bounces outside it
        sc = replace(
            canyon,
            buildings=tuple(b for i, b in enumerate(canyon.buildings) if i % 3 != 2),
            rt_area=Rect(150.0, -20.0, 180.0, 43.0),
        )
        ep = generate_episode(canyon, EpisodeParams(scenes_per_episode=3, receiver_count=10, seed=3))
        cfg = TraceConfig()
        counts = {"R": [0, 0], "RG": [0, 0]}
        for scene in ep.scenes:
            records = trace_scene(sc, scene, cfg)
            assert records == _oracle_scene(sc, scene, cfg)
            for i, recs in enumerate((trace_scene(canyon, scene, cfg), records)):
                for kind in counts:
                    counts[kind][i] += sum(len(_rays_with(r, kind)) for r in recs)
        assert counts["R"][1] < counts["R"][0]
        assert counts["RG"][1] < counts["RG"][0]

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 330.0),
                st.floats(0.5, 22.5),
                st.integers(0, 2),
                st.sampled_from([0.0, math.pi / 2, math.pi / 4, math.pi, 2.0]),
                st.booleans(),
            ),
            min_size=1,
            max_size=12,
        ),
        st.integers(0, 3),
        st.integers(1, 25),
    )
    def test_random_placements(self, placements, max_reflections, max_rays):
        canyon = make_canyon_scenario()
        receivers = iter(range(1, len(placements) + 1))
        scene = Scene(
            0.0,
            tuple(
                _vehicle(i, x, y, kind, next(receivers) if tagged else None, heading)
                for i, (x, y, kind, heading, tagged) in enumerate(placements)
            ),
        )
        cfg = TraceConfig(max_reflections=max_reflections, max_rays=max_rays)
        assert trace_scene(canyon, scene, cfg) == _oracle_scene(canyon, scene, cfg)

    def test_receiver_blocks_another_but_not_itself(self, canyon):
        # receiver 2's bus stands on receiver 1's line of sight to the RSU
        rx1 = _vehicle(0, 165.0, 16.75, receiver=1)
        rx2 = _vehicle(1, 165.0, 9.75, kind=2, receiver=2)
        scene = Scene(0.0, (rx1, rx2))
        rec1, rec2 = trace_scene(canyon, scene, TraceConfig())
        assert (rec1.rx_id, rec2.rx_id) == (1, 2)
        assert _rays_with(rec1, "LOS") == []
        assert _rays_with(rec2, "LOS") != []
        # a last ground bounce rises to the roof through the bus's own box
        assert _rays_with(rec2, "RG") != []
        assert (rec1, rec2) == _oracle_scene(canyon, scene, TraceConfig())


class TestSpecularGeometry:
    PLANES = (
        ReflectorPlane(1, 0.0, "wall"),
        ReflectorPlane(1, 23.0, "wall"),
        ReflectorPlane(2, 0.0, "ground"),
    )

    def test_specular_law_randomized(self):
        # angle of incidence equals angle of reflection at every bounce
        rng = np.random.default_rng(99)
        checked = 0
        for _ in range(300):
            tx = np.array([rng.uniform(0, 300), rng.uniform(1, 22), rng.uniform(2, 8)])
            rx = np.array([rng.uniform(0, 300), rng.uniform(1, 22), rng.uniform(1, 5)])
            for points, seq in _paths(tx, rx, self.PLANES, 2):
                for k, plane in enumerate(seq):
                    b = points[k + 1]
                    d_in = b - points[k]
                    d_out = points[k + 2] - b
                    d_in = d_in / np.linalg.norm(d_in)
                    d_out = d_out / np.linalg.norm(d_out)
                    normal = np.zeros(3)
                    normal[plane.axis] = 1.0
                    mirrored = d_in - 2 * float(d_in @ normal) * normal
                    assert np.abs(mirrored - d_out).max() < 1e-9
                    checked += 1
        assert checked > 1000

    def test_path_length_consistency(self, canyon):
        # delay * c equals the summed segment lengths of the matching mirror path
        rng = np.random.default_rng(5)
        tx = canyon.rsu_position.to_array()
        for _ in range(100):
            rx = _vehicle(0, float(rng.uniform(60, 270)), 9.75, receiver=1)
            (rec,) = trace_scene(canyon, Scene(0.0, (rx,)), TraceConfig())
            roof = np.array([rx.position.x, rx.position.y, rx.type.height])
            lengths = sorted(
                float(np.linalg.norm(np.diff(points, axis=0), axis=1).sum())
                for points, _ in _paths(tx, roof, self.PLANES, 2)
            )
            got = sorted(r.delay * SPEED_OF_LIGHT for r in rec.rays)
            # open scene: every mirror candidate survives validation
            assert got == pytest.approx(lengths, abs=1e-9)

    def test_geometric_reciprocity(self):
        # swapping endpoints preserves lengths and swaps the angle roles
        rng = np.random.default_rng(21)
        for _ in range(50):
            tx = np.array([rng.uniform(0, 300), rng.uniform(1, 22), rng.uniform(2, 8)])
            rx = np.array([rng.uniform(0, 300), rng.uniform(1, 22), rng.uniform(1, 5)])
            fwd = _paths(tx, rx, self.PLANES, 2)
            bwd = _paths(rx, tx, self.PLANES, 2)

            def summary(paths, flip):
                out = []
                for points, seq in paths:
                    length = float(np.linalg.norm(np.diff(points, axis=0), axis=1).sum())
                    kinds = tuple(p.kind for p in seq)
                    out.append((round(length, 9), kinds[::-1] if flip else kinds))
                return sorted(out)

            assert summary(fwd, False) == summary(bwd, True)


class TestClassifyLos:
    def _record(self, interactions):
        rays = tuple(
            Ray(1.0 + 0j, 1e-8, 0.0, 1.0, 0.0, 1.0, s) for s in interactions
        )
        return PairRecord(0, 1, rays, 1e-8 if rays else None, 0.0, -80.0 if rays else None)

    def test_los(self):
        assert classify_los(self._record(["R", "LOS"])) == LosStatus.LOS

    def test_nlos(self):
        assert classify_los(self._record(["R", "RG"])) == LosStatus.NLOS

    def test_no_path(self):
        assert classify_los(self._record([])) == LosStatus.NO_PATH


class TestTraceConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TraceConfig(max_rays=0)
        with pytest.raises(ValueError):
            TraceConfig(max_reflections=-1)
        with pytest.raises(ValueError):
            TraceConfig(wall_reflection=1.5 + 0j)

    def test_wavelength(self):
        assert TraceConfig().wavelength == pytest.approx(SPEED_OF_LIGHT / 6.0e10)

import math

import numpy as np
import pytest

import oracles
from beamcanyon.scenario import (
    EpisodeParams,
    LaneCar,
    ScenarioConfig,
    Vehicle,
    VehicleKind,
    DEFAULT_VEHICLE_TYPES,
    generate_episode,
    make_canyon_scenario,
    sample_vehicle_type,
    step_lane,
    vehicle_bounding_box,
)


def _car(vid=0, x=100.0, y=6.25, heading=0.0, speed=8.2, receiver=None):
    return Vehicle(
        id=vid,
        type=DEFAULT_VEHICLE_TYPES[0],
        position=_vec(x, y),
        heading=heading,
        speed=speed,
        receiver_index=receiver,
    )


def _vec(x, y, z=0.0):
    from beamcanyon.scenario import Vec3

    return Vec3(x, y, z)


class TestCanyonScenario:
    def test_default_service_strip_is_23_by_250(self):
        sc = make_canyon_scenario()
        assert sc.v2i_area.x_extent == pytest.approx(250.0)
        assert sc.v2i_area.y_extent == pytest.approx(23.0)

    def test_default_rsu_height_is_5m(self):
        sc = make_canyon_scenario()
        assert sc.rsu_position.z == 5.0

    def test_default_lane_count(self):
        sc = make_canyon_scenario()
        assert len(sc.lanes) == 4

    def test_strip_inside_study_area(self):
        sc = make_canyon_scenario()
        v, r = sc.v2i_area, sc.rt_area
        assert r.xmin <= v.xmin and v.xmax <= r.xmax
        assert r.ymin <= v.ymin and v.ymax <= r.ymax

    def test_two_building_rows_flank_the_street(self):
        sc = make_canyon_scenario()
        south = [b for b in sc.buildings if b.max.y <= 0.0]
        north = [b for b in sc.buildings if b.min.y >= sc.v2i_area.ymax]
        assert south and north
        assert len(south) + len(north) == len(sc.buildings)

    def test_zero_street_width_rejected(self):
        with pytest.raises(ValueError):
            make_canyon_scenario(ScenarioConfig(street_width=0.0))

    def test_negative_dimension_rejected(self):
        with pytest.raises(ValueError):
            make_canyon_scenario(ScenarioConfig(building_height=-1.0))


class TestVehicleTypeSampling:
    def test_cdf_order_car_truck_bus(self):
        assert sample_vehicle_type(0.3).kind == VehicleKind.CAR
        assert sample_vehicle_type(0.75).kind == VehicleKind.TRUCK
        assert sample_vehicle_type(0.95).kind == VehicleKind.BUS

    def test_boundaries(self):
        assert sample_vehicle_type(0.0).kind == VehicleKind.CAR
        assert sample_vehicle_type(0.7).kind == VehicleKind.TRUCK
        assert sample_vehicle_type(0.8).kind == VehicleKind.BUS

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            sample_vehicle_type(1.0)
        with pytest.raises(ValueError):
            sample_vehicle_type(-0.1)

    def test_monte_carlo_frequencies(self):
        # empirical frequencies over 10^4 draws stay within 3 standard errors
        rng = np.random.default_rng(7)
        counts = {k: 0 for k in VehicleKind}
        n = 10_000
        for _ in range(n):
            counts[sample_vehicle_type(float(rng.random())).kind] += 1
        for kind, p in ((VehicleKind.CAR, 0.7), (VehicleKind.TRUCK, 0.1), (VehicleKind.BUS, 0.2)):
            se = math.sqrt(p * (1 - p) / n)
            assert abs(counts[kind] / n - p) <= 3 * se


class TestBoundingBox:
    def test_car_axis_aligned_extents(self):
        box = vehicle_bounding_box(_car(), 0.0)
        assert box.max.x - box.min.x == pytest.approx(4.645)
        assert box.max.y - box.min.y == pytest.approx(1.8)
        assert box.max.z - box.min.z == pytest.approx(1.59)

    def test_truck_height(self):
        truck = Vehicle(1, DEFAULT_VEHICLE_TYPES[1], _vec(0, 0), 0.0, 0.0)
        box = vehicle_bounding_box(truck, 0.0)
        assert box.max.z - box.min.z == pytest.approx(4.3)

    def test_quarter_turn_swaps_extents(self):
        box = vehicle_bounding_box(_car(heading=math.pi / 2), 0.0)
        assert box.max.x - box.min.x == pytest.approx(1.8)
        assert box.max.y - box.min.y == pytest.approx(4.645)

    def test_rotated_footprint_is_bounded(self):
        box = vehicle_bounding_box(_car(heading=math.pi / 4), 0.0)
        expected = (4.645 + 1.8) / 2 / math.sqrt(2) * 2
        assert box.max.x - box.min.x == pytest.approx(expected)
        assert box.max.y - box.min.y == pytest.approx(expected)

    def test_ground_offset(self):
        box = vehicle_bounding_box(_car(), 1.5)
        assert box.min.z == 1.5
        assert box.max.z == pytest.approx(1.5 + 1.59)


def _lane_car(vid=0, x=100.0, y=6.25, speed=8.2):
    return LaneCar(vid, DEFAULT_VEHICLE_TYPES[0], speed, x, y, 0.0)


class TestStepTraffic:
    """One traffic step, taken lane by lane with step_lane."""

    def test_free_vehicle_advances_speed_times_dt(self):
        sc = make_canyon_scenario()
        cars = [_lane_car(x=100.0, speed=8.2)]
        step_lane(cars, sc.lanes[0], 0.1, np.random.default_rng(0))
        assert cars[0].x - 100.0 == pytest.approx(0.82)
        assert cars[0].y == 6.25

    def test_blocked_follower_does_not_move(self):
        sc = make_canyon_scenario()
        # leader stopped, follower's front 1 m behind the leader's rear
        leader = _lane_car(vid=1, x=120.0, speed=0.0)
        gap = 1.0
        follower_x = 120.0 - 4.645 / 2 - gap - 4.645 / 2
        follower = _lane_car(vid=2, x=follower_x, speed=8.2)
        cars = [leader, follower]
        step_lane(cars, sc.lanes[0], 0.1, np.random.default_rng(0), min_gap=2.0)
        assert follower.x == pytest.approx(follower_x)

    def test_follower_stops_exactly_at_gap(self):
        sc = make_canyon_scenario()
        leader = _lane_car(vid=1, x=120.0, speed=0.0)
        follower = _lane_car(vid=2, x=100.0, speed=8.2)
        cars = [leader, follower]
        rng = np.random.default_rng(0)
        for _ in range(200):
            step_lane(cars, sc.lanes[0], 0.1, rng)
        expected_front = 120.0 - 4.645 / 2 - 2.0
        assert follower.x + 4.645 / 2 == pytest.approx(expected_front)

    def test_nonpositive_dt_rejected(self):
        sc = make_canyon_scenario()
        cars = [_lane_car()]
        with pytest.raises(ValueError):
            step_lane(cars, sc.lanes[0], 0.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            step_lane(cars, sc.lanes[0], -0.1, np.random.default_rng(0))

    def test_westbound_lane_moves_negative_x(self):
        sc = make_canyon_scenario()
        cars = [_lane_car(x=100.0, y=16.75)]
        step_lane(cars, sc.lanes[3], 0.1, np.random.default_rng(0))
        assert cars[0].x == pytest.approx(100.0 - 0.82)


def _recycles(episode, scenario):
    """Count vehicles that jump back to a lane entrance between sampled scenes."""
    count = 0
    for before, after in zip(episode.scenes, episode.scenes[1:]):
        prev = {v.id: v.position.x for v in before.vehicles}
        count += sum(
            abs(v.position.x - prev[v.id]) > scenario.rt_area.x_extent / 2 for v in after.vehicles
        )
    return count


class TestMatchesOracle:
    """generate_episode equals the frozen-scene traffic model it replaced, field for field."""

    @pytest.mark.parametrize("seed", range(20))
    def test_default_canyon(self, seed):
        sc = make_canyon_scenario()
        params = EpisodeParams(scenes_per_episode=10, receiver_count=10, seed=seed)
        assert generate_episode(sc, params) == oracles.generate_episode(sc, params)

    @pytest.mark.parametrize(
        "lane_count, sample_period, avg_speed, receivers",
        [
            (1, 0.1, 8.2, 2),
            (1, 0.3, 20.0, 2),
            (3, 0.1, 8.2, 10),
            (3, 0.05, 20.0, 2),
            (4, 0.05, 8.2, 10),
            (4, 0.3, 8.2, 2),
            (4, 0.1, 2.0, 10),
            (4, 0.1, 20.0, 10),
            (6, 0.1, 20.0, 2),
            (6, 0.3, 2.0, 10),
        ],
    )
    def test_varied_configs(self, lane_count, sample_period, avg_speed, receivers):
        sc = make_canyon_scenario(ScenarioConfig(lane_count=lane_count))
        params = EpisodeParams(
            sample_period=sample_period,
            scenes_per_episode=20,
            receiver_count=receivers,
            seed=lane_count * 100 + receivers,
            avg_speed=avg_speed,
        )
        expected = oracles.generate_episode(sc, params)
        assert generate_episode(sc, params) == expected
        if avg_speed == 20.0:  # fast traffic reaches the lane ends inside the window
            assert _recycles(expected, sc) > 0


class TestGenerateEpisode:
    def test_scene_count_and_span(self):
        sc = make_canyon_scenario()
        ep = generate_episode(sc, EpisodeParams(scenes_per_episode=50, seed=3))
        assert len(ep.scenes) == 50
        assert ep.scenes[-1].time - ep.scenes[0].time == pytest.approx(4.9)

    def test_times_form_arithmetic_sequence(self):
        sc = make_canyon_scenario()
        ep = generate_episode(sc, EpisodeParams(scenes_per_episode=20, seed=3))
        steps = np.diff([s.time for s in ep.scenes])
        assert np.allclose(steps, 0.1, rtol=0, atol=1e-12)

    def test_deterministic_given_seed(self):
        sc = make_canyon_scenario()
        params = EpisodeParams(scenes_per_episode=10, seed=11)
        assert generate_episode(sc, params) == generate_episode(sc, params)

    def test_receiver_count_and_persistence(self):
        sc = make_canyon_scenario()
        ep = generate_episode(sc, EpisodeParams(scenes_per_episode=15, receiver_count=10, seed=5))
        expected = set(range(1, 11))
        for scene in ep.scenes:
            tags = sorted(v.receiver_index for v in scene.vehicles if v.receiver_index)
            assert tags == sorted(expected)
            by_index = {v.receiver_index: v.id for v in scene.vehicles if v.receiver_index}
            if scene is ep.scenes[0]:
                mapping = by_index
            assert by_index == mapping

    def test_too_many_receivers_rejected(self):
        sc = make_canyon_scenario()
        with pytest.raises(ValueError):
            generate_episode(sc, EpisodeParams(receiver_count=500, seed=1))

    def test_vehicles_inside_study_area(self):
        sc = make_canyon_scenario()
        ep = generate_episode(sc, EpisodeParams(scenes_per_episode=30, seed=9))
        for scene in ep.scenes:
            for v in scene.vehicles:
                box = vehicle_bounding_box(v, sc.ground_z)
                assert box.min.x >= sc.rt_area.xmin - 1e-9
                assert box.max.x <= sc.rt_area.xmax + 1e-9

    def test_no_same_lane_overlap(self):
        sc = make_canyon_scenario()
        ep = generate_episode(sc, EpisodeParams(scenes_per_episode=30, seed=13))
        for scene in ep.scenes:
            lanes: dict[float, list] = {}
            for v in scene.vehicles:
                lanes.setdefault(round(v.position.y, 6), []).append(v)
            for group in lanes.values():
                spans = sorted(
                    (v.position.x - v.type.length / 2, v.position.x + v.type.length / 2)
                    for v in group
                )
                for (r0, f0), (r1, f1) in zip(spans, spans[1:]):
                    assert f0 <= r1 + 1e-9

    def test_temporal_consistency(self):
        # surviving vehicles move at most v_max * dt per step (recycles excluded)
        sc = make_canyon_scenario()
        params = EpisodeParams(scenes_per_episode=30, seed=17)
        ep = generate_episode(sc, params)
        v_max = 1.2 * params.avg_speed
        for before, after in zip(ep.scenes, ep.scenes[1:]):
            prev = {v.id: v for v in before.vehicles}
            for v in after.vehicles:
                if v.id not in prev:
                    continue
                dx = abs(v.position.x - prev[v.id].position.x)
                if dx > sc.rt_area.x_extent / 2:
                    continue  # recycled to the lane entrance
                assert dx <= v_max * params.sample_period + 1e-9

    def test_invalid_params_rejected(self):
        sc = make_canyon_scenario()
        with pytest.raises(ValueError):
            generate_episode(sc, EpisodeParams(sample_period=0.0))
        with pytest.raises(ValueError):
            generate_episode(sc, EpisodeParams(scenes_per_episode=0))

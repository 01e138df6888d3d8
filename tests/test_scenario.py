import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from beamcanyon.scenario import (
    MAX_BUILDINGS_PER_ROW,
    Box,
    EpisodeParams,
    LaneCar,
    Scene,
    ScenarioConfig,
    Vec3,
    Vehicle,
    VehicleKind,
    VehicleType,
    DEFAULT_VEHICLE_TYPES,
    generate_episode,
    make_canyon_scenario,
    sample_vehicle_type,
    step_lane,
    vehicle_boxes,
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

    def test_buildings_per_row_bounded(self):
        # (9,920 + 2 * 40) / 1 is exactly the bound; a shorter building passes it
        sc = make_canyon_scenario(ScenarioConfig(street_length=9920.0, building_length=1.0))
        assert len(sc.buildings) == 2 * MAX_BUILDINGS_PER_ROW
        with pytest.raises(ValueError, match=f"at most {MAX_BUILDINGS_PER_ROW} buildings per row"):
            make_canyon_scenario(ScenarioConfig(street_length=9920.0, building_length=math.nextafter(1.0, 0.0)))


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


def vehicle_bounding_box(vehicle, ground_z):
    """The one box of ``vehicle_boxes`` over a single vehicle, as a Box."""
    (lo,), (hi,) = vehicle_boxes([vehicle], ground_z)
    return Box(Vec3(*lo), Vec3(*hi))


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
        step_lane(cars, sc.lanes[0], 0.1, np.random.default_rng(0))
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


def _recycles(scenes, scenario):
    """Count vehicles that jump back to a lane entrance between sampled scenes."""
    count = 0
    for before, after in zip(scenes, scenes[1:]):
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


def _lane_cars(draw, lane):
    """A drawn car set of one lane, in id order, some cars near each end and some carrying receivers."""
    dx, dy, x0, y0, s0, s1 = lane.frame
    cars = []
    for vid in range(draw(st.integers(1, 6))):
        vtype = draw(st.sampled_from(DEFAULT_VEHICLE_TYPES))
        along = draw(st.one_of(st.floats(0.0, 12.0), st.floats(s1 - s0 - 12.0, s1 - s0), st.floats(0.0, s1 - s0)))
        prog = s0 + along
        speed = draw(st.floats(0.0, 25.0))
        cars.append(LaneCar(vid, vtype, speed, x0 + (prog - s0) * dx, y0 + (prog - s0) * dy, 0.0))
    receivers = [c for c in cars if draw(st.booleans())]
    for index, car in enumerate(receivers, start=1):
        car.receiver_index = index
    return cars


class TestPropertiesAgainstOracles:
    def test_step_lane_is_one_oracle_step(self):
        """step_lane moves one lane's cars as oracles.step_traffic moves them, field for field."""
        sc = make_canyon_scenario()
        reached = set()

        @settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @given(st.data())
        def check(data):
            index = data.draw(st.sampled_from([0, 3]), label="lane")  # eastbound, westbound
            lane = sc.lanes[index]
            cars = _lane_cars(data.draw, lane)
            dt = data.draw(st.sampled_from([0.05, 0.1, 0.3, 1.0]), label="dt")
            avg_speed = data.draw(st.floats(1.0, 25.0), label="avg_speed")
            seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
            heading = math.atan2(lane.direction[1], lane.direction[0])
            before = [(c.x, c.y, c.type, c.speed) for c in cars]
            scene = Scene(0.0, tuple(
                Vehicle(c.id, c.type, Vec3(c.x, c.y, c.z), heading, c.speed, c.receiver_index) for c in cars
            ))
            oracle_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
            expected = oracles.step_traffic(scene, sc, dt, oracle_rng, avg_speed=avg_speed)
            step_lane(cars, lane, dt, rng, avg_speed=avg_speed)
            assert [(c.id, c.type, c.speed, c.x, c.y, c.z, c.receiver_index) for c in cars] == [
                (v.id, v.type, v.speed, v.position.x, v.position.y, v.position.z, v.receiver_index)
                for v in expected.vehicles
            ]
            assert rng.bit_generator.state == oracle_rng.bit_generator.state
            dx, dy, _, _, _, s1 = lane.frame
            for car, (x, y, vtype, speed) in zip(cars, before):
                if car.x * dx + car.y * dy < x * dx + y * dy:  # moved back to the entrance
                    if car.receiver_index is not None:
                        assert (car.type, car.speed) == (vtype, speed)
                        reached.add("receiver recycled")
                    else:
                        reached.add("recycled")
                elif car.x * dx + car.y * dy + car.type.length / 2.0 == pytest.approx(s1, abs=1e-9):
                    reached.add("held at the end")

        check()
        assert reached == {"recycled", "receiver recycled", "held at the end"}

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(-2.0, 20.0),  # a negative size inverts the box
                st.floats(-1.0, 5.0),
                st.floats(-1.0, 5.0),
                st.floats(-1e3, 1e3),
                st.floats(-1e3, 1e3),
                st.one_of(st.sampled_from([0.0, math.pi / 2, math.pi, math.pi / 4, -math.pi / 2]),
                          st.floats(-2 * math.pi, 2 * math.pi)),
            ),
            max_size=8,
        ),
        st.floats(-10.0, 10.0),
    )
    def test_vehicle_boxes_match_the_oracle_bit_for_bit(self, rows, ground_z):
        vehicles = [
            Vehicle(i, VehicleType(VehicleKind.CAR, length, width, height, 1.0), Vec3(x, y, 0.0), heading, 0.0)
            for i, (length, width, height, x, y, heading) in enumerate(rows)
        ]
        try:
            boxes = [oracles.vehicle_bounding_box(v, ground_z) for v in vehicles]
        except ValueError as e:
            with pytest.raises(ValueError, match=str(e)):
                vehicle_boxes(vehicles, ground_z)
            return
        lo, hi = vehicle_boxes(vehicles, ground_z)
        assert lo.shape == hi.shape == (len(vehicles), 3)
        assert lo.tobytes() == np.array([[b.min.x, b.min.y, b.min.z] for b in boxes], dtype=float).reshape(-1, 3).tobytes()
        assert hi.tobytes() == np.array([[b.max.x, b.max.y, b.max.z] for b in boxes], dtype=float).reshape(-1, 3).tobytes()


class TestGenerateEpisode:
    def test_scene_count_and_span(self):
        sc = make_canyon_scenario()
        scenes = generate_episode(sc, EpisodeParams(scenes_per_episode=50, seed=3))
        assert len(scenes) == 50
        assert scenes[-1].time - scenes[0].time == pytest.approx(4.9)

    def test_times_form_arithmetic_sequence(self):
        sc = make_canyon_scenario()
        scenes = generate_episode(sc, EpisodeParams(scenes_per_episode=20, seed=3))
        steps = np.diff([s.time for s in scenes])
        assert np.allclose(steps, 0.1, rtol=0, atol=1e-12)

    def test_deterministic_given_seed(self):
        sc = make_canyon_scenario()
        params = EpisodeParams(scenes_per_episode=10, seed=11)
        assert generate_episode(sc, params) == generate_episode(sc, params)

    def test_receiver_count_and_persistence(self):
        sc = make_canyon_scenario()
        scenes = generate_episode(sc, EpisodeParams(scenes_per_episode=15, receiver_count=10, seed=5))
        expected = set(range(1, 11))
        for scene in scenes:
            tags = sorted(v.receiver_index for v in scene.vehicles if v.receiver_index)
            assert tags == sorted(expected)
            by_index = {v.receiver_index: v.id for v in scene.vehicles if v.receiver_index}
            if scene is scenes[0]:
                mapping = by_index
            assert by_index == mapping

    def test_too_many_receivers_rejected(self):
        sc = make_canyon_scenario()
        with pytest.raises(ValueError):
            generate_episode(sc, EpisodeParams(receiver_count=500, seed=1))

    def test_vehicles_inside_study_area(self):
        sc = make_canyon_scenario()
        scenes = generate_episode(sc, EpisodeParams(scenes_per_episode=30, seed=9))
        for scene in scenes:
            for v in scene.vehicles:
                box = vehicle_bounding_box(v, sc.ground_z)
                assert box.min.x >= sc.rt_area.xmin - 1e-9
                assert box.max.x <= sc.rt_area.xmax + 1e-9

    def test_no_same_lane_overlap(self):
        sc = make_canyon_scenario()
        scenes = generate_episode(sc, EpisodeParams(scenes_per_episode=30, seed=13))
        for scene in scenes:
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
        scenes = generate_episode(sc, params)
        v_max = 1.2 * params.avg_speed
        for before, after in zip(scenes, scenes[1:]):
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

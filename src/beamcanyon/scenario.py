"""Urban-canyon geometry and lane-based vehicle mobility.

The canyon is a straight multi-lane street flanked by two rows of buildings.
Coordinates are metric: x runs along the street, y across it, z up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

MIN_GAP_M = 2.0        # hard minimum bumper-to-bumper gap
SPEED_SPREAD = 0.2     # per-vehicle target speed drawn from [0.8, 1.2] * avg_speed
WARMUP_S = 30.0        # traffic build-up time before an episode window
SPAWN_HEADWAY_S = 2.0  # mean time between spawn attempts per lane


@dataclass(frozen=True)
class Vec3:
    x: float
    y: float
    z: float

    def to_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box, min corner componentwise below the max corner."""

    min: Vec3
    max: Vec3

    def __post_init__(self) -> None:
        if not (
            self.min.x <= self.max.x
            and self.min.y <= self.max.y
            and self.min.z <= self.max.z
        ):
            raise ValueError("box min corner must not exceed max corner")


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle in the ground plane."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def contains(self, x: float, y: float) -> bool:
        return self.xmin <= x <= self.xmax and self.ymin <= y <= self.ymax

    @property
    def x_extent(self) -> float:
        return self.xmax - self.xmin

    @property
    def y_extent(self) -> float:
        return self.ymax - self.ymin


@dataclass(frozen=True)
class Lane:
    start: Vec3
    end: Vec3
    width: float
    direction: tuple[float, float]  # unit vector in the ground plane


class VehicleKind(str, Enum):
    CAR = "car"
    TRUCK = "truck"
    BUS = "bus"


@dataclass(frozen=True)
class VehicleType:
    kind: VehicleKind
    length: float
    width: float
    height: float
    probability: float


# Paper-style three-way mix; widths are typical real-world values.
DEFAULT_VEHICLE_TYPES: tuple[VehicleType, ...] = (
    VehicleType(VehicleKind.CAR, 4.645, 1.8, 1.59, 0.7),
    VehicleType(VehicleKind.TRUCK, 12.5, 2.5, 4.3, 0.1),
    VehicleType(VehicleKind.BUS, 9.0, 2.5, 3.2, 0.2),
)


@dataclass(frozen=True)
class Vehicle:
    id: int
    type: VehicleType
    position: Vec3  # footprint centre, z at ground level
    heading: float  # radians, 0 along +x
    speed: float    # target speed in m/s, fixed at spawn
    receiver_index: int | None = None


@dataclass(frozen=True)
class Scene:
    time: float
    vehicles: tuple[Vehicle, ...]


@dataclass(frozen=True)
class EpisodeParams:
    sample_period: float = 0.1
    scenes_per_episode: int = 50
    receiver_count: int = 10
    seed: int = 0
    avg_speed: float = 8.2


@dataclass(frozen=True)
class Episode:
    id: int
    start_time: float
    params: EpisodeParams
    scenes: tuple[Scene, ...]


@dataclass(frozen=True)
class Scenario:
    buildings: tuple[Box, ...]
    ground_z: float
    lanes: tuple[Lane, ...]
    rt_area: Rect
    v2i_area: Rect
    rsu_position: Vec3


@dataclass(frozen=True)
class ScenarioConfig:
    """Dimensions of the synthetic canyon.

    The service strip (``street_length`` x ``street_width``) sits centred in a
    longer street; ``approach_length`` of extra road on each end lets vehicles
    enter and leave the strip while staying inside the simulated area.
    """

    street_length: float = 250.0
    street_width: float = 23.0
    approach_length: float = 40.0
    lane_count: int = 4
    lane_width: float = 3.5
    building_depth: float = 20.0
    building_length: float = 30.0
    building_height: float = 30.0
    rsu_height: float = 5.0
    rsu_wall_offset: float = 1.0
    ground_z: float = 0.0


def make_canyon_scenario(config: ScenarioConfig = ScenarioConfig()) -> Scenario:
    """Build the two-row canyon scenario with the roadside unit on the south side."""
    for name in (
        "street_length",
        "street_width",
        "approach_length",
        "lane_width",
        "building_depth",
        "building_length",
        "building_height",
        "rsu_height",
    ):
        if getattr(config, name) <= 0:
            raise ValueError(f"{name} must be positive")
    if config.lane_count < 1:
        raise ValueError("lane_count must be at least 1")
    if config.lane_count * config.lane_width > config.street_width + 1e-9:
        raise ValueError("lanes do not fit inside the street width")
    if not 0 < config.rsu_wall_offset < config.street_width:
        raise ValueError("rsu_wall_offset must lie inside the street")

    length = config.street_length + 2.0 * config.approach_length
    width = config.street_width
    g = config.ground_z

    buildings: list[Box] = []
    x = 0.0
    while x < length - 1e-9:
        x1 = min(x + config.building_length, length)
        top = g + config.building_height
        buildings.append(Box(Vec3(x, -config.building_depth, g), Vec3(x1, 0.0, top)))
        buildings.append(Box(Vec3(x, width, g), Vec3(x1, width + config.building_depth, top)))
        x = x1

    first_center = (width - config.lane_count * config.lane_width) / 2.0 + config.lane_width / 2.0
    lanes: list[Lane] = []
    for i in range(config.lane_count):
        yc = first_center + i * config.lane_width
        forward = i < config.lane_count / 2.0
        if forward:
            lanes.append(Lane(Vec3(0.0, yc, g), Vec3(length, yc, g), config.lane_width, (1.0, 0.0)))
        else:
            lanes.append(Lane(Vec3(length, yc, g), Vec3(0.0, yc, g), config.lane_width, (-1.0, 0.0)))

    rt_area = Rect(0.0, -config.building_depth, length, width + config.building_depth)
    v2i_area = Rect(config.approach_length, 0.0, config.approach_length + config.street_length, width)
    rsu = Vec3(length / 2.0, config.rsu_wall_offset, g + config.rsu_height)
    return Scenario(tuple(buildings), g, tuple(lanes), rt_area, v2i_area, rsu)


def sample_vehicle_type(
    u: float, types: tuple[VehicleType, ...] = DEFAULT_VEHICLE_TYPES
) -> VehicleType:
    """Map a uniform draw onto the vehicle mix, cumulative in tuple order."""
    if not 0.0 <= u < 1.0:
        raise ValueError("u must lie in [0, 1)")
    acc = 0.0
    for t in types[:-1]:
        acc += t.probability
        if u < acc:
            return t
    return types[-1]


def vehicle_bounding_box(vehicle: Vehicle, ground_z: float) -> Box:
    """Axis-aligned box around the (possibly rotated) footprint, extruded upward."""
    half_l = vehicle.type.length / 2.0
    half_w = vehicle.type.width / 2.0
    c = abs(math.cos(vehicle.heading))
    s = abs(math.sin(vehicle.heading))
    hx = c * half_l + s * half_w
    hy = s * half_l + c * half_w
    p = vehicle.position
    return Box(
        Vec3(p.x - hx, p.y - hy, ground_z),
        Vec3(p.x + hx, p.y + hy, ground_z + vehicle.type.height),
    )


def _place(lane: Lane, progress: float) -> tuple[float, float]:
    dx, dy = lane.direction
    s0 = lane.start.x * dx + lane.start.y * dy
    return lane.start.x + (progress - s0) * dx, lane.start.y + (progress - s0) * dy


def _draw_speed(rng: np.random.Generator, avg_speed: float) -> float:
    return float((1.0 - SPEED_SPREAD + 2.0 * SPEED_SPREAD * rng.random()) * avg_speed)


@dataclass(slots=True)
class LaneCar:
    """Mutable traffic state of one vehicle; its lane is the list that holds it."""

    id: int
    type: VehicleType
    speed: float  # target speed in m/s, fixed at spawn
    x: float
    y: float
    z: float
    receiver_index: int | None = None


def step_lane(
    cars: list[LaneCar],
    lane: Lane,
    dt: float,
    rng: np.random.Generator,
    *,
    avg_speed: float = 8.2,
    min_gap: float = MIN_GAP_M,
) -> None:
    """Advance the cars of one lane, held in id order, by one time step in place.

    Cars keep their spawn-time target speed but never close to less than
    ``min_gap`` behind their leader. A car reaching the end of the lane is
    recycled at the entrance with a freshly drawn type and speed, at most one
    per lane and step; cars carrying a receiver keep their identity, type and
    speed so the receiver set of an episode stays fixed.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    dx, dy = lane.direction
    s0 = lane.start.x * dx + lane.start.y * dy
    s1 = lane.end.x * dx + lane.end.y * dy
    progress = [c.x * dx + c.y * dy for c in cars]
    prev_rear = math.inf
    recycled_this_step = False
    for i in sorted(range(len(cars)), key=lambda i: -progress[i]):
        car, prog = cars[i], progress[i]
        half = car.type.length / 2.0
        new = min(prog + car.speed * dt, prev_rear - min_gap - half)
        new = max(new, prog)  # gap rule never pushes a car backwards
        if new + half > s1:
            if not recycled_this_step:
                if car.receiver_index is None:
                    new_type = sample_vehicle_type(float(rng.random()))
                    new_speed = _draw_speed(rng, avg_speed)
                else:
                    new_type, new_speed = car.type, car.speed
                entry = s0 + new_type.length / 2.0
                rear_min = min(
                    (progress[j] - o.type.length / 2.0 for j, o in enumerate(cars) if j != i),
                    default=math.inf,
                )
                if entry + new_type.length / 2.0 <= rear_min - min_gap:
                    car.type, car.speed = new_type, new_speed
                    car.x, car.y = _place(lane, entry)
                    recycled_this_step = True
                    continue
            # entrance blocked (or one recycle already done): hold at the end
            new = min(new, s1 - half)
        car.x, car.y = _place(lane, new)
        prev_rear = new - half


def _spawn(
    lanes: list[list[LaneCar]],
    scenario: Scenario,
    dt: float,
    rng: np.random.Generator,
    avg_speed: float,
    next_id: int,
    min_gap: float = MIN_GAP_M,
) -> int:
    """Try one spawn at the entrance of each lane; return the next free id."""
    for lane, cars in zip(scenario.lanes, lanes):
        if rng.random() >= dt / SPAWN_HEADWAY_S:
            continue
        vtype = sample_vehicle_type(float(rng.random()))
        dx, dy = lane.direction
        s0 = lane.start.x * dx + lane.start.y * dy
        rear_min = min(
            (c.x * dx + c.y * dy - c.type.length / 2.0 for c in cars), default=math.inf
        )
        if s0 + vtype.length > rear_min - min_gap:
            continue  # entrance occupied, drop this attempt
        x, y = _place(lane, s0 + vtype.length / 2.0)
        cars.append(LaneCar(next_id, vtype, _draw_speed(rng, avg_speed), x, y, scenario.ground_z))
        next_id += 1
    return next_id


def _snapshot(scenario: Scenario, lanes: list[list[LaneCar]]) -> tuple[Vehicle, ...]:
    vehicles = []
    for lane, cars in zip(scenario.lanes, lanes):
        heading = math.atan2(lane.direction[1], lane.direction[0])
        vehicles.extend(
            Vehicle(c.id, c.type, Vec3(c.x, c.y, c.z), heading, c.speed, c.receiver_index)
            for c in cars
        )
    vehicles.sort(key=lambda v: v.id)
    return tuple(vehicles)


def _tag_receivers(
    vehicles: tuple[Vehicle, ...], scenario: Scenario, count: int
) -> dict[int, int]:
    """Receiver indices 1..count for the vehicles nearest the RSU, service strip first."""
    if len(vehicles) < count:
        raise ValueError(f"only {len(vehicles)} vehicles spawned, cannot tag {count} receivers")
    rsu = scenario.rsu_position

    def dist2(v: Vehicle) -> float:
        return (v.position.x - rsu.x) ** 2 + (v.position.y - rsu.y) ** 2

    inside = [v for v in vehicles if scenario.v2i_area.contains(v.position.x, v.position.y)]
    inside_ids = {v.id for v in inside}
    outside = [v for v in vehicles if v.id not in inside_ids]
    ranked = sorted(inside, key=lambda v: (dist2(v), v.id)) + sorted(
        outside, key=lambda v: (dist2(v), v.id)
    )
    return {v.id: i + 1 for i, v in enumerate(ranked[:count])}


def generate_episode(
    scenario: Scenario, params: EpisodeParams, episode_id: int = 0
) -> Episode:
    """Warm up traffic, tag the receivers nearest the RSU, and sample the scenes.

    Fully deterministic for a given (scenario, params): the episode's random
    generator is seeded from ``params.seed`` and owned by this call.
    """
    if params.sample_period <= 0:
        raise ValueError("sample_period must be positive")
    if params.scenes_per_episode < 1 or params.receiver_count < 1:
        raise ValueError("scenes_per_episode and receiver_count must be at least 1")

    rng = np.random.default_rng(params.seed)
    dt = params.sample_period
    lanes: list[list[LaneCar]] = [[] for _ in scenario.lanes]

    def step() -> None:
        for lane, cars in zip(scenario.lanes, lanes):
            step_lane(cars, lane, dt, rng, avg_speed=params.avg_speed)

    next_id = 0
    for _ in range(int(round(WARMUP_S / dt))):
        step()
        next_id = _spawn(lanes, scenario, dt, rng, params.avg_speed, next_id)

    receivers = _tag_receivers(_snapshot(scenario, lanes), scenario, params.receiver_count)
    for cars in lanes:
        for car in cars:
            car.receiver_index = receivers.get(car.id)

    scenes: list[Scene] = []
    for k in range(params.scenes_per_episode):
        if k > 0:
            step()
        scenes.append(Scene(WARMUP_S + k * dt, _snapshot(scenario, lanes)))
    return Episode(episode_id, WARMUP_S, params, tuple(scenes))

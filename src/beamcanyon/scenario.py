"""Urban-canyon geometry and lane-based vehicle mobility.

The canyon is a straight multi-lane street flanked by two rows of buildings.
Coordinates are metric: x runs along the street, y across it, z up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np

from .rules import check, setting

MIN_GAP_M = 2.0        # hard minimum bumper-to-bumper gap
SPEED_SPREAD = 0.2     # per-vehicle target speed drawn from [0.8, 1.2] * avg_speed
WARMUP_S = 30.0        # traffic build-up time before an episode window
SPAWN_HEADWAY_S = 2.0  # mean time between spawn attempts per lane
MAX_BUILDINGS_PER_ROW = 10_000  # each adds a box to every blockage test; see docs/config.md


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
    direction: tuple[float, float]  # unit vector in the ground plane

    @cached_property
    def frame(self) -> tuple[float, float, float, float, float, float]:
        """(dx, dy, start x, start y, s0, s1), with s0 and s1 the progress x * dx + y * dy at each end."""
        dx, dy = self.direction
        s0 = self.start.x * dx + self.start.y * dy
        return dx, dy, self.start.x, self.start.y, s0, self.end.x * dx + self.end.y * dy


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
    """The vehicles at one sample time; once traced, ``pairs`` has one record per receiver, by index."""

    time: float
    vehicles: tuple[Vehicle, ...]
    pairs: tuple = ()  # of raytrace.PairRecord, which cannot be imported here: raytrace imports this module


@dataclass(frozen=True)
class EpisodeParams:
    sample_period: float = setting(0.1, "number", "> 0")
    scenes_per_episode: int = setting(50, "integer", ">= 1")
    receiver_count: int = setting(10, "integer", ">= 1")
    seed: int = setting(0, "integer")
    avg_speed: float = setting(8.2, "number", "> 0")

    def __post_init__(self) -> None:
        check(self, "episode")


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

    street_length: float = setting(250.0, "number", "> 0")
    street_width: float = setting(23.0, "number", "> 0")
    approach_length: float = setting(40.0, "number", "> 0")
    lane_count: int = setting(4, "integer", ">= 1")
    lane_width: float = setting(3.5, "number", "> 0")
    building_depth: float = setting(20.0, "number", "> 0")
    building_length: float = setting(30.0, "number", "> 0")
    building_height: float = setting(30.0, "number", "> 0")
    rsu_height: float = setting(5.0, "number", "> 0")
    rsu_wall_offset: float = setting(1.0, "number")
    ground_z: float = setting(0.0, "number")

    def __post_init__(self) -> None:
        check(self, "scenario")


def make_canyon_scenario(config: ScenarioConfig = ScenarioConfig()) -> Scenario:
    """Build the two-row canyon scenario with the roadside unit on the south side."""
    if config.lane_count * config.lane_width > config.street_width + 1e-9:
        raise ValueError("lanes do not fit inside the street width")
    if not 0 < config.rsu_wall_offset < config.street_width:
        raise ValueError("rsu_wall_offset must lie inside the street")

    length = config.street_length + 2.0 * config.approach_length
    per_row = length / config.building_length  # buildings per row, before rounding up
    if per_row > MAX_BUILDINGS_PER_ROW:
        raise ValueError(f"(street_length + 2 * approach_length) / building_length must be at most "
                         f"{MAX_BUILDINGS_PER_ROW} buildings per row, got {per_row:.6g}")
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
            lanes.append(Lane(Vec3(0.0, yc, g), Vec3(length, yc, g), (1.0, 0.0)))
        else:
            lanes.append(Lane(Vec3(length, yc, g), Vec3(0.0, yc, g), (-1.0, 0.0)))

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


def vehicle_geometry(vehicles: Sequence[Vehicle]) -> np.ndarray:
    """(n, 6) length, width, height, x, y and heading of each vehicle: the input of ``geometry_boxes``."""
    return np.array([(v.type.length, v.type.width, v.type.height, v.position.x, v.position.y, v.heading)
                     for v in vehicles], dtype=float).reshape(-1, 6)


def geometry_boxes(geometry: np.ndarray, ground_z: float) -> tuple[np.ndarray, np.ndarray]:
    """(n, 3) min and max corners of the boxes around (n, 6) ``vehicle_geometry`` rows' footprints.

    Each footprint's axis-aligned bounding rectangle is extruded upward from
    ``ground_z``; one ``math`` cosine and sine are taken per distinct heading.
    """
    length, width, height, x, y, heading = geometry.T
    headings = heading.tolist()
    trig = {h: (abs(math.cos(h)), abs(math.sin(h))) for h in set(headings)}
    c, s = np.array([trig[h] for h in headings], dtype=float).reshape(-1, 2).T
    half_l, half_w = length / 2.0, width / 2.0
    hx = c * half_l + s * half_w
    hy = s * half_l + c * half_w
    lo = np.stack([x - hx, y - hy, np.full_like(x, ground_z)], axis=1)
    hi = np.stack([x + hx, y + hy, ground_z + height], axis=1)
    if not (lo <= hi).all():
        raise ValueError("box min corner must not exceed max corner")
    return lo, hi


def vehicle_boxes(vehicles: Sequence[Vehicle], ground_z: float) -> tuple[np.ndarray, np.ndarray]:
    """(n, 3) min and max corners of the boxes around the vehicles' (possibly rotated) footprints."""
    return geometry_boxes(vehicle_geometry(vehicles), ground_z)


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
    cars: list[LaneCar], lane: Lane, dt: float, rng: np.random.Generator,
    *, avg_speed: float = EpisodeParams.avg_speed,
) -> None:
    """Advance the cars of one lane, held in id order, by one time step in place.

    Cars keep their spawn-time target speed but never close to less than
    ``MIN_GAP_M`` behind their leader. A car reaching the end of the lane is
    recycled at the entrance with a freshly drawn type and speed, at most one
    per lane and step; cars carrying a receiver keep their identity, type and
    speed so the receiver set of an episode stays fixed. Cars are moved front
    to back, but the list keeps its order, so the cars stay in id order.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    dx, dy, x0, y0, s0, s1 = lane.frame
    progress = [c.x * dx + c.y * dy for c in cars]
    prev_rear = math.inf
    recycled_this_step = False
    for i in sorted(range(len(cars)), key=progress.__getitem__, reverse=True):
        car, prog = cars[i], progress[i]
        half = car.type.length / 2.0
        new, cap = prog + car.speed * dt, prev_rear - MIN_GAP_M - half
        if cap < new:
            new = cap
        if new < prog:
            new = prog  # gap rule never pushes a car backwards
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
                if entry + new_type.length / 2.0 <= rear_min - MIN_GAP_M:
                    car.type, car.speed = new_type, new_speed
                    car.x, car.y = x0 + (entry - s0) * dx, y0 + (entry - s0) * dy
                    recycled_this_step = True
                    continue
            # entrance blocked (or one recycle already done): hold at the end
            if s1 - half < new:
                new = s1 - half
        car.x, car.y = x0 + (new - s0) * dx, y0 + (new - s0) * dy
        prev_rear = new - half


def _spawn(
    lanes: list[list[LaneCar]], scenario: Scenario, dt: float, rng: np.random.Generator,
    avg_speed: float, next_id: int,
) -> int:
    """Try one spawn at the entrance of each lane; return the next free id."""
    for lane, cars in zip(scenario.lanes, lanes):
        if rng.random() >= dt / SPAWN_HEADWAY_S:
            continue
        vtype = sample_vehicle_type(float(rng.random()))
        dx, dy, x0, y0, s0, _ = lane.frame
        rear_min = math.inf
        for c in cars:
            rear = c.x * dx + c.y * dy - c.type.length / 2.0
            if rear < rear_min:
                rear_min = rear
        if s0 + vtype.length > rear_min - MIN_GAP_M:
            continue  # entrance occupied, drop this attempt
        entry = s0 + vtype.length / 2.0
        x, y = x0 + (entry - s0) * dx, y0 + (entry - s0) * dy
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

    def rank(v: Vehicle) -> tuple[bool, float, int]:
        x, y = v.position.x, v.position.y
        return not scenario.v2i_area.contains(x, y), (x - rsu.x) ** 2 + (y - rsu.y) ** 2, v.id

    ranked = sorted(vehicles, key=rank)
    return {v.id: i + 1 for i, v in enumerate(ranked[:count])}


def generate_episode(scenario: Scenario, params: EpisodeParams) -> tuple[Scene, ...]:
    """Warm up traffic, tag the receivers nearest the RSU, and return the untraced scenes from ``WARMUP_S`` on.

    Fully deterministic for a given (scenario, params): the episode's random
    generator is seeded from ``params.seed`` and owned by this call.
    """
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
    return tuple(scenes)

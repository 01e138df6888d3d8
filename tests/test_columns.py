"""The read stages on the columns of a file against the object records the file used to be read into.

Drawn records are encoded by the object encoder in ``oracles``, written by the real streaming writer,
then read back twice: into ``EpisodeColumns`` by ``read_episodes`` and into frozen objects by the
object reader in ``oracles``. Example extraction and the reward table must come out bit for bit as
the per-pair object code computes them.
"""

import math
from dataclasses import fields

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from oracles import EpisodeRecord, PairRecord, Ray, TracedScene, encode_record, rays_of
from beamcanyon.dataset import Examples, extract_examples, read_episodes, write_episodes
from beamcanyon.features import GridSpec
from beamcanyon.mimo import ArraySpec, compose_channel
from beamcanyon.scenario import DEFAULT_VEHICLE_TYPES, EpisodeParams, Vec3, Vehicle, make_canyon_scenario
from beamcanyon.scheduler import SchedulerParams, build_reward_table

CANYON = make_canyon_scenario()
STRIP = CANYON.v2i_area
GRID = GridSpec.from_area(STRIP)
TX = ArraySpec(2, 2)
RX = ArraySpec(2, 1)

angle = st.floats(-math.pi, math.pi, allow_nan=False)
# the gain turns that keep its modulus bit for bit, so that amplitudes tie
TURNS = (lambda g: g, lambda g: -g, lambda g: g * 1j, lambda g: -g * 1j, lambda g: g.conjugate())


@st.composite
def ray_lists(draw):
    """A pair's rays in no particular order: few moduli and delays, so that both tie."""
    base = draw(st.sampled_from((complex(0.3, 0.4), complex(1e-3, -2e-3), complex(0.5, 0.0))))
    return tuple(
        Ray(draw(st.sampled_from(TURNS))(base * draw(st.sampled_from((1.0, 0.5)))),
            draw(st.sampled_from((1e-8, 2e-8, 1.5e-8))), draw(angle), draw(angle), draw(angle), draw(angle),
            draw(st.sampled_from(("LOS", "R", "RG", "R-RG"))))
        for _ in range(draw(st.integers(0, 4)))
    )


@st.composite
def vehicles(draw, vid, receiver):
    """A vehicle of any kind, on the strip or, now and then, off it."""
    vtype = draw(st.sampled_from(DEFAULT_VEHICLE_TYPES))
    on_strip = draw(st.booleans()) or receiver is None
    x = draw(st.floats(STRIP.xmin - 5, STRIP.xmax + 5) if on_strip else st.sampled_from((STRIP.xmin - 40, STRIP.xmax + 60)))
    y = draw(st.floats(STRIP.ymin - 3, STRIP.ymax + 3))
    heading = draw(st.sampled_from((0.0, math.pi, math.pi / 2, -0.0)) | angle)
    return Vehicle(vid, vtype, Vec3(x, y, 0.0), heading, 8.0, receiver)


@st.composite
def records(draw):
    receivers = draw(st.integers(1, 3))
    out = []
    for episode_id in range(draw(st.integers(2, 4))):
        scenes = []
        for s in range(draw(st.integers(1, 3))):
            blockers = [draw(vehicles(vid, None)) for vid in range(draw(st.integers(0, 4)))]
            tagged = [draw(vehicles(100 + r, r)) for r in range(1, receivers + 1)]
            order = draw(st.permutations(blockers + tagged))
            rx_ids = draw(st.lists(st.integers(1, receivers), unique=True, max_size=receivers))
            pairs = []
            for rx_id in rx_ids:
                rays = draw(ray_lists())
                pairs.append(PairRecord(0, rx_id, rays, 1e-8 if rays else None, 0.0, -80.0 if rays else None))
            scenes.append(TracedScene(0.1 * s, tuple(order), tuple(pairs)))
        params = EpisodeParams(scenes_per_episode=len(scenes), receiver_count=receivers, seed=episode_id)
        out.append(EpisodeRecord(episode_id, 0.0, params, 25, CANYON.rt_area, STRIP, CANYON.rsu_position,
                                 {r: 100 + r for r in range(1, receivers + 1)}, tuple(scenes)))
    return out


def _assert_same_examples(got: Examples, want: Examples) -> None:
    for f in fields(Examples):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name == "los":
            assert a.tolist() == b.tolist()
        else:
            assert a.dtype == b.dtype and a.shape == b.shape, f.name
            assert a.tobytes() == b.tobytes(), f.name


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(records(), st.data())
def test_column_path_matches_object_path(tmp_path_factory, drawn, data):
    path = tmp_path_factory.mktemp("columns") / "episodes.jsonl"
    write_episodes(map(encode_record, drawn), path, len(drawn))
    columns, objects = read_episodes(path), oracles.read_episodes(path)
    assert objects == drawn
    for c, o in zip(columns, objects, strict=True):
        oracles.assert_columns_equal(c, oracles.columns_of(o))
    n_train = data.draw(st.integers(1, len(drawn) - 1))
    train, test, keys = extract_examples(columns[:n_train], columns[n_train:], GRID, TX, RX)
    old_train, old_test, old_keys = oracles.extract_example_table(objects[:n_train], objects[n_train:], GRID, TX, RX)
    assert keys.tolist() == old_keys.tolist()
    _assert_same_examples(train, old_train)
    _assert_same_examples(test, old_test)
    params = SchedulerParams(num_receivers=data.draw(st.integers(1, len(drawn[0].receiver_vehicles))))
    for c, o in zip(columns, objects):
        table = build_reward_table(c, TX, RX, params).normalized
        assert table.tobytes() == oracles.build_reward_table(o, TX, RX, params).normalized.tobytes()


def test_strongest_ray_ties_go_to_the_first_listed():
    # equal moduli by turning one gain, equal delays: the first of the tied rays wins, in any order
    gain = complex(0.3, 0.4)
    rays = [Ray(turn(gain), 1e-8, float(k), 0.0, 0.0, 0.0, "R") for k, turn in enumerate(TURNS)]
    for start in range(len(rays)):
        turned = rays[start:] + rays[:start]
        assert oracles.strongest_ray_angles(turned)[0] == turned[0].dep_azimuth
        record = EpisodeRecord(
            0, 0.0, EpisodeParams(scenes_per_episode=1, receiver_count=1), 25, CANYON.rt_area, STRIP,
            CANYON.rsu_position, {1: 0}, (TracedScene(0.0, (), (PairRecord(0, 1, tuple(turned), 1e-8, 0.0, -80.0),)),),
        )
        examples, _, _ = extract_examples([oracles.columns_of(record)], [], GRID, TX, RX)
        assert examples.angles[0, 0] == turned[0].dep_azimuth


@settings(max_examples=60, deadline=None)
@given(st.lists(ray_lists().filter(len), min_size=1, max_size=6))
def test_compose_matches_the_object_form(lists):
    h = compose_channel(rays_of(lists), TX, RX)
    assert h.tobytes() == oracles.compose_ray_lists(lists, TX, RX).tobytes()

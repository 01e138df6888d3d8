import csv
import json
from dataclasses import fields, replace

import numpy as np
import pytest

import oracles
from beamcanyon.cli import main
from beamcanyon.dataset import (
    PAIR_KEYS,
    PARAMS_KEYS,
    RAY_KEYS,
    VEHICLE_KEYS,
    VEHICLE_TYPE_KEYS,
    DatasetFormatError,
    Examples,
    build_episode_record,
    encode_record,
    export_csv,
    extract_examples,
    read_episodes,
    split_episodes,
    write_episodes,
)
from beamcanyon.features import GridSpec, receiver_view
from beamcanyon.mimo import ArraySpec, compose_channel, dft_codebook, sweep
from beamcanyon.raytrace import LosStatus, PairRecord, Ray, TraceConfig
from beamcanyon.scenario import (
    EpisodeParams,
    Vehicle,
    VehicleType,
    make_canyon_scenario,
)

ARRAY = ArraySpec(4, 4)


@pytest.fixture(scope="module")
def canyon():
    return make_canyon_scenario()


@pytest.fixture(scope="module")
def records(canyon):
    cfg = TraceConfig()
    out = []
    for i in range(3):
        params = EpisodeParams(scenes_per_episode=4, receiver_count=5, seed=100 + i)
        out.append(build_episode_record(canyon, params, cfg, i))
    return out


@pytest.fixture(scope="module")
def columns(records):
    return [oracles.columns_of(r) for r in records]


@pytest.fixture(scope="module")
def grid(canyon):
    return GridSpec.from_area(canyon.v2i_area)


def _write(records, path):
    write_episodes(map(encode_record, records), path, len(records))


def _rows(examples, rows):
    """The examples at ``rows``, over the same scene grids."""
    return replace(
        examples, **{f.name: getattr(examples, f.name)[rows] for f in fields(Examples) if f.name != "grids"}
    )


def _first_ray(record_obj):
    return next(r for s in record_obj["scenes"] for p in s["pairs"] for r in p["rays"])


def _retag(scene_obj, new_index):
    """Give each vehicle of the scene tagged with a key of ``new_index`` that key's value instead."""
    for v in scene_obj["vehicles"]:
        if v["receiver_index"] in new_index:
            v["receiver_index"] = new_index[v["receiver_index"]]


def _renumber(record_obj, old, new):
    """Give receiver ``old`` of the record the index ``new`` everywhere: its key, its vehicle's tags, its pairs."""
    receivers = record_obj["receiver_vehicles"]
    receivers[str(new)] = receivers.pop(str(old))
    for scene_obj in record_obj["scenes"]:
        _retag(scene_obj, {old: new})
        for pair in scene_obj["pairs"]:
            if pair["rx_id"] == old:
                pair["rx_id"] = new


def _shift_strip(record_obj, dx):
    """Move the record's service strip by ``dx`` along the street."""
    xmin, ymin, xmax, ymax = record_obj["v2i_area"]
    record_obj["v2i_area"] = [xmin + dx, ymin, xmax + dx, ymax]


def _views(examples):
    return receiver_view(examples.grids[examples.grid_row], examples.receiver)


def _assert_reads_as(path, records):
    """The column reader gives the columns of ``records``, and the object reader gives ``records``."""
    back = read_episodes(path)
    assert len(back) == len(records)
    for columns, record in zip(back, records):
        oracles.assert_columns_equal(columns, oracles.columns_of(record))
    assert oracles.read_episodes(path) == records


class TestRoundTrip:
    def test_read_back_equals_written(self, records, tmp_path):
        path = tmp_path / "episodes.jsonl"
        _write(records[:2], path)
        _assert_reads_as(path, records[:2])

    def test_byte_identical_rewrites(self, records, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        _write(records, a)
        _write(records, b)
        assert a.read_bytes() == b.read_bytes()

    def test_truncated_line_names_record(self, records, tmp_path):
        path = tmp_path / "episodes.jsonl"
        _write(records[:2], path)
        data = path.read_text().splitlines()
        path.write_text("\n".join([data[0], data[1], data[2][: len(data[2]) // 2]]) + "\n")
        with pytest.raises(DatasetFormatError, match="record 1"):
            read_episodes(path)

    def test_extra_record_named_at_the_first_extra_line(self, records, tmp_path):
        path = tmp_path / "episodes.jsonl"
        _write(records[:2], path)
        with open(path, "a", encoding="utf-8") as f:
            f.write(encode_record(records[2]) + "\n{not a record\n")  # the extra lines are never decoded
        with pytest.raises(DatasetFormatError, match="more episode records than the 2 the header promises"):
            read_episodes(path)

    def test_missing_record_detected(self, records, tmp_path):
        path = tmp_path / "episodes.jsonl"
        _write(records[:2], path)
        data = path.read_text().splitlines()
        path.write_text("\n".join(data[:2]) + "\n")  # drop the last record entirely
        with pytest.raises(DatasetFormatError, match="truncated"):
            read_episodes(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bogus.jsonl"
        path.write_text(json.dumps({"format": "something-else", "version": 1}) + "\n")
        with pytest.raises(DatasetFormatError, match="not a"):
            read_episodes(path)

    def test_header_without_records_rejected(self, tmp_path):
        path = tmp_path / "none.jsonl"
        path.write_text(
            json.dumps({"episode_count": 0, "format": "beamcanyon-episodes", "version": 1}) + "\n"
        )
        with pytest.raises(DatasetFormatError, match="no episode records"):
            read_episodes(path)

    @pytest.mark.parametrize(
        "count, match",
        [
            (None, "header episode_count must be an integer, got None"),
            (3.0, "header episode_count must be an integer, got 3.0"),
            ("3", "header episode_count must be an integer, got '3'"),
            (True, "header episode_count must be an integer, got True"),
            (0, "no episode records: header episode_count is 0"),
            (-1, "no episode records: header episode_count is -1"),
        ],
        ids=["missing", "float", "string", "bool", "zero", "negative"],
    )
    def test_header_count_must_be_an_integer_of_at_least_one(self, records, tmp_path, count, match):
        path = tmp_path / "episodes.jsonl"
        _write(records[:3], path)
        lines = path.read_text().splitlines()
        header = {"format": "beamcanyon-episodes", "version": 1}
        if count is not None:
            header["episode_count"] = count
        # with no count, a file cut to its first record would otherwise read as complete
        path.write_text("\n".join([json.dumps(header), lines[1]]) + "\n")
        with pytest.raises(DatasetFormatError) as raised:
            read_episodes(path)
        assert str(raised.value) == f"{path}: {match}"

    @pytest.mark.parametrize(
        "corrupt, match",
        [
            pytest.param(lambda objs: _first_ray(objs[2]).update(gain=[0.1]), "record 1: ", id="one-part-ray-gain"),
            pytest.param(
                lambda objs: _first_ray(objs[2]).update(gain=[0.1, 0.2, 0.3]), "record 1: ", id="three-part-ray-gain"
            ),
            pytest.param(lambda objs: _first_ray(objs[1]).update(gain=[]), "record 0: ", id="empty-ray-gain"),
            pytest.param(lambda objs: objs[2].update(receiver_vehicles=[]), "record 1: ", id="receivers-as-list"),
            pytest.param(lambda objs: objs[2].update(scenes=[]), "record 1: no scenes", id="no-scenes"),
            pytest.param(
                lambda objs: objs[1]["receiver_vehicles"].update({"0": objs[1]["receiver_vehicles"].pop("1")}),
                "record 0: receiver_vehicles holds receiver index 0; indices start at 1",
                id="receiver-index-0",
            ),
            pytest.param(
                lambda objs: _renumber(objs[2], 1, 40000),
                r"record 1: receiver_vehicles keys \[2, 3, 4, 5, 40000\]: not the receiver indices 1..5 of "
                "receiver_count 5",
                id="receiver-index-past-the-grid-range",
            ),
            pytest.param(
                lambda objs: _renumber(objs[1], 2, 6),
                r"record 0: receiver_vehicles keys \[1, 3, 4, 5, 6\]: not the receiver indices 1..5",
                id="receiver-indices-with-a-gap",
            ),
            pytest.param(
                lambda objs: objs[2]["scenes"][3]["pairs"][4].update(rx_id=6),
                r"record 1: scene 3: pair rx_ids \[1, 2, 3, 4, 6\]: not distinct receiver_vehicles keys",
                id="rx-id-not-a-receiver",
            ),
            pytest.param(
                lambda objs: objs[1]["scenes"][2]["pairs"][0].update(rx_id=5),
                r"record 0: scene 2: pair rx_ids \[5, 2, 3, 4, 5\]: not distinct receiver_vehicles keys",
                id="rx-id-repeated",
            ),
            pytest.param(
                lambda objs: _retag(objs[1]["scenes"][0], {1: 0}),
                r"record 0: scene 0: vehicle \(receiver_index, id\) tags \[.*\]: not distinct receiver_vehicles entries",
                id="vehicle-receiver-index-0",
            ),
            pytest.param(
                lambda objs: _retag(objs[2]["scenes"][3], {2: 6}),
                r"record 1: scene 3: vehicle \(receiver_index, id\) tags \[.*\]: not distinct receiver_vehicles entries",
                id="vehicle-receiver-index-not-a-receiver",
            ),
            pytest.param(
                lambda objs: _retag(objs[1]["scenes"][1], {3: 4}),
                r"record 0: scene 1: vehicle \(receiver_index, id\) tags \[.*\]: not distinct receiver_vehicles entries",
                id="vehicle-receiver-index-repeated",
            ),
            pytest.param(
                lambda objs: _retag(objs[2]["scenes"][2], {1: 2, 2: 1}),
                r"record 1: scene 2: vehicle \(receiver_index, id\) tags \[.*\]: not distinct receiver_vehicles entries",
                id="vehicle-receiver-index-of-another-vehicle",
            ),
            pytest.param(lambda objs: objs.__setitem__(0, [1, 2]), "not a beamcanyon-episodes file", id="list-header"),
            pytest.param(
                lambda objs: _shift_strip(objs[2], 40.0),
                r"record 1: v2i_area \[80.0, 0.0, 330.0, 23.0\] differs from record 0's \[40.0, 0.0, 290.0, 23.0\]",
                id="v2i-area-differs",
            ),
        ],
    )
    def test_malformed_line_rejected(self, records, tmp_path, corrupt, match):
        path = tmp_path / "episodes.jsonl"
        _write(records[:2], path)
        objs = [json.loads(line) for line in path.read_text().splitlines()]
        corrupt(objs)
        path.write_text("".join(json.dumps(o) + "\n" for o in objs))
        with pytest.raises(DatasetFormatError, match=match):
            read_episodes(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(DatasetFormatError):
            read_episodes(path)

    def test_no_temp_file_left_behind(self, records, tmp_path):
        path = tmp_path / "episodes.jsonl"
        _write(records[:1], path)
        assert [p.name for p in tmp_path.iterdir()] == ["episodes.jsonl"]

    @pytest.mark.parametrize(
        "count, match",
        [(3, "2 episode records, but the header promises 3"), (1, "more episode records than the 1")],
        ids=["short", "long"],
    )
    def test_line_count_must_match_header(self, records, tmp_path, count, match):
        path = tmp_path / "episodes.jsonl"
        with pytest.raises(ValueError, match=match):
            write_episodes(map(encode_record, records[:2]), path, count)
        assert list(tmp_path.iterdir()) == []

    def test_failing_stream_leaves_no_file(self, records, tmp_path):
        def lines():
            yield encode_record(records[0])
            raise RuntimeError("episode 1 failed")

        path = tmp_path / "episodes.jsonl"
        with pytest.raises(RuntimeError, match="episode 1 failed"):
            write_episodes(lines(), path, 3)
        assert list(tmp_path.iterdir()) == []

    def test_paper_scale_round_trip_under_a_minute(self, canyon, tmp_path):
        # 116 episodes of 50 scenes each: one fully traced episode replicated
        # under fresh ids, so the timing exercises serialization at scale
        import dataclasses
        import time

        params = EpisodeParams(scenes_per_episode=50, receiver_count=10, seed=4242)
        base = build_episode_record(canyon, params, TraceConfig())
        big = [dataclasses.replace(base, episode_id=i) for i in range(116)]
        path = tmp_path / "big.jsonl"
        started = time.monotonic()
        _write(big, path)
        back = read_episodes(path)
        assert time.monotonic() - started < 60.0
        expected = oracles.columns_of(base)
        for i, columns in enumerate(back):
            oracles.assert_columns_equal(columns, replace(expected, episode_id=i))


def _oracle_read(path):
    return [oracles._record_from_obj(json.loads(line)) for line in path.read_text().splitlines()[1:]]


def _oracle_bytes(records, tmp_path):
    path = tmp_path / "oracle.jsonl"
    oracles.write_episodes(records, path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """The golden case's 6 x 10 file at seed 7, and a 3 x 10 file at seed 71 with NoPath pairs."""
    out = tmp_path_factory.mktemp("episodes")
    for seed, episodes in ((7, 6), (71, 3)):
        argv = ["--seed", str(seed), "--out", str(out), "generate", "--episodes", str(episodes)]
        assert main(argv + ["--scenes", "10", "--file", f"seed{seed}.jsonl"]) == 0
    return {"golden": out / "seed7.jsonl", "nopath": out / "seed71.jsonl"}


class TestCodecMatchesOracle:
    @pytest.mark.parametrize(
        "cls, keys, converted",
        [
            (Ray, RAY_KEYS, {"gain"}),
            (PairRecord, PAIR_KEYS, {"rays"}),
            (Vehicle, VEHICLE_KEYS, {"type", "position"}),
            (VehicleType, VEHICLE_TYPE_KEYS, set()),
            (EpisodeParams, PARAMS_KEYS, set()),
        ],
    )
    def test_keys_follow_constructor_order(self, cls, keys, converted):
        # the reader builds records positionally from these keys, and the writer stores
        # every field under its name
        assert keys == tuple(f.name for f in fields(cls) if f.name not in converted)

    @pytest.mark.parametrize("name", ["golden", "nopath"])
    def test_reader_equals_oracle(self, cli_files, name):
        path = cli_files[name]
        records = oracles.read_episodes(path)
        assert records == _oracle_read(path)
        _assert_reads_as(path, records)

    def test_files_exercise_string_key_order_and_null_powers(self, cli_files):
        golden = json.loads(cli_files["golden"].read_text().splitlines()[1])
        assert list(golden["receiver_vehicles"])[:3] == ["1", "10", "2"]
        pairs = [p for r in oracles.read_episodes(cli_files["nopath"]) for s in r.scenes for p in s.pairs]
        assert any(p.mean_toa is None and p.p_rx_dbm is None and not p.rays for p in pairs)
        assert any(not r.rays.counts.all() for r in read_episodes(cli_files["nopath"]))

    @pytest.mark.parametrize("name", ["golden", "nopath"])
    def test_writer_bytes_equal_oracle(self, cli_files, tmp_path, name):
        records = oracles.read_episodes(cli_files[name])
        path = tmp_path / "rewritten.jsonl"
        _write(records, path)
        assert path.read_bytes() == _oracle_bytes(records, tmp_path) == cli_files[name].read_bytes()


class TestSplitEpisodes:
    def test_paper_scale_split(self):
        split = split_episodes(list(range(116)), 34 / 116, seed=0)
        assert len(split.test_episode_ids) == 34
        assert len(split.train_episode_ids) == 82

    def test_deterministic(self):
        a = split_episodes(list(range(20)), 0.25, seed=5)
        b = split_episodes(list(range(20)), 0.25, seed=5)
        assert a == b

    def test_different_seed_differs(self):
        a = split_episodes(list(range(50)), 0.3, seed=5)
        b = split_episodes(list(range(50)), 0.3, seed=6)
        assert a != b

    def test_disjoint_and_complete(self):
        ids = list(range(17))
        split = split_episodes(ids, 0.4, seed=2)
        train, test = set(split.train_episode_ids), set(split.test_episode_ids)
        assert train.isdisjoint(test)
        assert train | test == set(ids)

    def test_too_few_episodes_rejected(self):
        with pytest.raises(ValueError):
            split_episodes([1], 0.5, seed=0)

    def test_repeated_ids_rejected(self):
        with pytest.raises(ValueError, match=r"repeated: \[2, 5\]"):
            split_episodes([1, 2, 5, 2, 3, 5, 5], 0.3, seed=0)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            split_episodes([1, 2, 3], 0.0, seed=0)
        with pytest.raises(ValueError):
            split_episodes([1, 2, 3], 1.0, seed=0)


class TestExtractExamples:
    def test_example_count_bounded(self, records, columns, grid):
        examples, _, _ = extract_examples(columns, [], grid, ARRAY, ARRAY)
        assert 0 < len(examples) <= sum(len(r.scenes) for r in records) * 5
        assert {len(getattr(examples, f.name)) for f in fields(Examples) if f.name != "grids"} == {
            len(examples)
        }

    def test_train_labels_one_based(self, records, columns, grid):
        examples, _, keys = extract_examples(columns, [], grid, ARRAY, ARRAY)
        assert ((1 <= examples.label) & (examples.label <= len(keys))).all()

    def test_apply_mode_may_produce_unknown(self, records, columns, grid):
        _, test_examples, keys = extract_examples(columns[:1], columns[1:], grid, ARRAY, ARRAY)
        assert ((0 <= test_examples.label) & (test_examples.label <= len(keys))).all()

    def test_labels_match_relooked_sweeps(self, records, columns, grid):
        # stored label reproduces when the stored rays are swept again
        examples, _, keys = extract_examples(columns, [], grid, ARRAY, ARRAY)
        cb = dft_codebook(ARRAY)
        by_key = {(r.episode_id, s, p.rx_id): p for r in records for s, sr in enumerate(r.scenes) for p in sr.pairs}
        for episode, scene, receiver, label in zip(
            examples.episode, examples.scene, examples.receiver, examples.label
        ):
            pair = by_key[(episode, scene, receiver)]
            raw = sweep(compose_channel([pair.rays], ARRAY, ARRAY), cb, cb).best_index[0]
            assert keys.tolist().index(raw) + 1 == label

    def test_outside_strip_receiver_flagged_with_zero_grid(self, records, columns, grid):
        # receivers in the study area but off the service strip keep a label
        # and carry the all-zero sentinel grid
        examples, _, _ = extract_examples(columns, [], grid, ARRAY, ARRAY)
        present = (examples.grids[examples.grid_row] == examples.receiver[:, None, None]).any(axis=(1, 2))
        assert present.any(), "expected at least some receivers on the service strip"
        views = _views(examples)
        assert not views[~present].any()
        assert (examples.label[~present] >= 0).all()
        assert (views[present] == 1).any(axis=(1, 2)).all()

    def test_features_shape_matches_grid(self, records, columns, grid):
        examples, _, _ = extract_examples(columns[:1], [], grid, ARRAY, ARRAY)
        assert examples.grids.shape == (len(records[0].scenes), grid.rows, grid.cols)
        assert _views(examples).shape == (len(examples), grid.rows, grid.cols)

    def test_los_flags_recorded(self, records, columns, grid):
        examples, _, _ = extract_examples(columns, [], grid, ARRAY, ARRAY)
        assert set(examples.los.tolist()) <= {LosStatus.LOS.value, LosStatus.NLOS.value}


class TestExportCsv:
    def test_row_and_column_counts(self, records, columns, grid, tmp_path):
        examples, _, _ = extract_examples(columns[:1], [], grid, ARRAY, ARRAY)
        path = tmp_path / "examples.csv"
        export_csv(_rows(examples, slice(3)), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        assert all(len(line.split(",")) == 23 * 250 + 8 for line in lines)

    def test_reimport_reproduces_labels(self, records, columns, grid, tmp_path):
        examples, _, _ = extract_examples(columns[:1], [], grid, ARRAY, ARRAY)
        path = tmp_path / "examples.csv"
        export_csv(examples, path)
        with open(path) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == len(examples)
        views = _views(examples).reshape(len(examples), -1)
        for i, row in enumerate(rows):
            assert int(row["label"]) == examples.label[i]
            assert row["los"] == examples.los[i]
            assert int(row["episode"]) == examples.episode[i]
            assert int(row["scene"]) == examples.scene[i]
            assert float(row["dep_azimuth"]) == examples.angles[i, 0]
            grid_back = np.array([int(row[f"g{i}"]) for i in range(10)])
            assert (grid_back == views[i, :10]).all()

    def test_empty_examples_rejected(self, records, columns, grid, tmp_path):
        examples, _, _ = extract_examples(columns[:1], [], grid, ARRAY, ARRAY)
        with pytest.raises(ValueError, match="no examples"):
            export_csv(_rows(examples, slice(0)), tmp_path / "x.csv")
        assert list(tmp_path.iterdir()) == []

    def test_failed_export_leaves_no_partial_or_temp_file(self, records, columns, grid, tmp_path):
        examples, _, _ = extract_examples(columns[:1], [], grid, ARRAY, ARRAY)
        # the third row points past the scene grids, after two rows have been written
        first = _rows(examples, slice(3))
        broken = replace(first, grid_row=np.array([0, 0, len(examples.grids)]))
        path = tmp_path / "examples.csv"
        with pytest.raises(IndexError):
            export_csv(broken, path)
        assert list(tmp_path.iterdir()) == []
        # a file already at the path survives a failed rewrite unchanged
        export_csv(first, path)
        before = path.read_bytes()
        with pytest.raises(IndexError):
            export_csv(broken, path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

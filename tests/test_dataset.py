import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from beamcanyon.dataset import (
    DatasetFormatError,
    build_episode_record,
    export_csv,
    extract_examples,
    read_episodes,
    split_episodes,
    write_episodes,
)
from beamcanyon.features import GridSpec
from beamcanyon.mimo import ArraySpec, compose_channel, dft_codebook, sweep
from beamcanyon.raytrace import LosStatus, TraceConfig
from beamcanyon.scenario import EpisodeParams, generate_episode, make_canyon_scenario

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
        out.append(build_episode_record(canyon, generate_episode(canyon, params, i), cfg))
    return out


@pytest.fixture(scope="module")
def grid(canyon):
    return GridSpec.from_scenario(canyon)


class TestRoundTrip:
    def test_read_back_equals_written(self, records, tmp_path):
        path = tmp_path / "episodes.jsonl"
        write_episodes(records[:2], path)
        assert read_episodes(path) == records[:2]

    def test_byte_identical_rewrites(self, records, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_episodes(records, a)
        write_episodes(records, b)
        assert a.read_bytes() == b.read_bytes()

    def test_truncated_line_names_record(self, records, tmp_path):
        path = tmp_path / "episodes.jsonl"
        write_episodes(records[:2], path)
        data = path.read_text().splitlines()
        path.write_text("\n".join([data[0], data[1], data[2][: len(data[2]) // 2]]) + "\n")
        with pytest.raises(DatasetFormatError, match="record 1"):
            read_episodes(path)

    def test_missing_record_detected(self, records, tmp_path):
        path = tmp_path / "episodes.jsonl"
        write_episodes(records[:2], path)
        data = path.read_text().splitlines()
        path.write_text("\n".join(data[:2]) + "\n")  # drop the last record entirely
        with pytest.raises(DatasetFormatError, match="truncated"):
            read_episodes(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bogus.jsonl"
        path.write_text(json.dumps({"format": "something-else", "version": 1}) + "\n")
        with pytest.raises(DatasetFormatError, match="not a"):
            read_episodes(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(DatasetFormatError):
            read_episodes(path)

    def test_no_temp_file_left_behind(self, records, tmp_path):
        path = tmp_path / "episodes.jsonl"
        write_episodes(records[:1], path)
        assert [p.name for p in tmp_path.iterdir()] == ["episodes.jsonl"]

    def test_paper_scale_round_trip_under_a_minute(self, canyon, tmp_path):
        # 116 episodes of 50 scenes each: one fully traced episode replicated
        # under fresh ids, so the timing exercises serialization at scale
        import dataclasses
        import time

        params = EpisodeParams(scenes_per_episode=50, receiver_count=10, seed=4242)
        base = build_episode_record(canyon, generate_episode(canyon, params, 0), TraceConfig())
        big = [dataclasses.replace(base, episode_id=i) for i in range(116)]
        path = tmp_path / "big.jsonl"
        started = time.monotonic()
        write_episodes(big, path)
        back = read_episodes(path)
        assert time.monotonic() - started < 60.0
        assert back == big


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

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            split_episodes([1, 2, 3], 0.0, seed=0)
        with pytest.raises(ValueError):
            split_episodes([1, 2, 3], 1.0, seed=0)


class TestExtractExamples:
    def test_example_count_bounded(self, records, grid):
        examples, _ = extract_examples(records, grid, ARRAY, ARRAY, mode="fit")
        assert 0 < len(examples) <= sum(len(r.scenes) for r in records) * 5

    def test_train_labels_one_based(self, records, grid):
        examples, label_map = extract_examples(records, grid, ARRAY, ARRAY, mode="fit")
        assert all(1 <= ex.label <= label_map.num_classes for ex in examples)

    def test_apply_mode_may_produce_unknown(self, records, grid):
        _, label_map = extract_examples(records[:1], grid, ARRAY, ARRAY, mode="fit")
        test_examples, _ = extract_examples(
            records[1:], grid, ARRAY, ARRAY, mode="apply", label_map=label_map
        )
        assert all(0 <= ex.label <= label_map.num_classes for ex in test_examples)

    def test_apply_without_map_rejected(self, records, grid):
        with pytest.raises(ValueError):
            extract_examples(records, grid, ARRAY, ARRAY, mode="apply")

    def test_unknown_mode_rejected(self, records, grid):
        with pytest.raises(ValueError):
            extract_examples(records, grid, ARRAY, ARRAY, mode="both")

    def test_labels_match_relooked_sweeps(self, records, grid):
        # stored label reproduces when the stored rays are swept again
        examples, label_map = extract_examples(records, grid, ARRAY, ARRAY, mode="fit")
        cb = dft_codebook(ARRAY)
        by_key = {(r.episode_id, s, p.rx_id): p for r in records for s, sr in enumerate(r.scenes) for p in sr.pairs}
        for ex in examples:
            pair = by_key[(ex.episode_id, ex.scene_index, ex.receiver_index)]
            raw = sweep(compose_channel([pair.rays], ARRAY, ARRAY), cb, cb).best_index[0]
            assert label_map.apply(raw) == ex.label

    def test_outside_strip_receiver_flagged_with_zero_grid(self, records, grid):
        # receivers in the study area but off the service strip keep a label
        # and carry the all-zero sentinel grid
        examples, _ = extract_examples(records, grid, ARRAY, ARRAY, mode="fit")
        outside = [ex for ex in examples if not ex.in_service_area]
        inside = [ex for ex in examples if ex.in_service_area]
        assert inside, "expected at least some receivers on the service strip"
        for ex in outside:
            assert not ex.features.any()
            assert ex.label >= 0
        for ex in inside[:10]:
            assert (ex.features == 1).any()

    def test_features_shape_matches_grid(self, records, grid):
        examples, _ = extract_examples(records[:1], grid, ARRAY, ARRAY, mode="fit")
        assert examples[0].features.shape == (grid.rows, grid.cols)

    def test_los_flags_recorded(self, records, grid):
        examples, _ = extract_examples(records, grid, ARRAY, ARRAY, mode="fit")
        assert {ex.los for ex in examples} <= {LosStatus.LOS, LosStatus.NLOS}


class TestExportCsv:
    def test_row_and_column_counts(self, records, grid, tmp_path):
        examples, _ = extract_examples(records[:1], grid, ARRAY, ARRAY, mode="fit")
        path = tmp_path / "examples.csv"
        export_csv(examples[:3], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        assert all(len(line.split(",")) == 23 * 250 + 8 for line in lines)

    def test_reimport_reproduces_labels(self, records, grid, tmp_path):
        examples, _ = extract_examples(records[:1], grid, ARRAY, ARRAY, mode="fit")
        path = tmp_path / "examples.csv"
        export_csv(examples, path)
        with open(path) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == len(examples)
        for row, ex in zip(rows, examples):
            assert int(row["label"]) == ex.label
            assert row["los"] == ex.los.value
            assert int(row["episode"]) == ex.episode_id
            assert int(row["scene"]) == ex.scene_index
            assert float(row["dep_azimuth"]) == ex.target_angles[0]
            grid_back = np.array([int(row[f"g{i}"]) for i in range(10)])
            assert (grid_back == ex.features.reshape(-1)[:10]).all()

    def test_empty_examples_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_csv([], tmp_path / "x.csv")

    def test_failed_export_leaves_no_partial_or_temp_file(self, records, grid, tmp_path):
        examples, _ = extract_examples(records[:1], grid, ARRAY, ARRAY, mode="fit")
        # the third row cannot be formatted, after two rows have been written
        broken = examples[:2] + [replace(examples[2], los=None)]
        path = tmp_path / "examples.csv"
        with pytest.raises(AttributeError):
            export_csv(broken, path)
        assert list(tmp_path.iterdir()) == []
        # a file already at the path survives a failed rewrite unchanged
        export_csv(examples[:2], path)
        before = path.read_bytes()
        with pytest.raises(AttributeError):
            export_csv(broken, path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

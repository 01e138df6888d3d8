import concurrent.futures
import json
import math
import multiprocessing
import time

import numpy as np
import pytest

import oracles
from beamcanyon import cli
from beamcanyon.cli import _apply_overrides, _build_parser, derive_seed, load_run_config, main, splitmix64
from beamcanyon.dataset import episode_line, read_episodes, split_episodes
from beamcanyon.raytrace import TraceConfig
from beamcanyon.scenario import EpisodeParams, make_canyon_scenario


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


def _tags_reason(record_obj):
    """The reader's reason for rejecting the vehicle receiver tags of scene 1 of the record."""
    vehicles = record_obj["scenes"][1]["vehicles"]
    tags = [(v["receiver_index"], v["id"]) for v in vehicles if v["receiver_index"] is not None]
    return f"scene 1: vehicle (receiver_index, id) tags {tags}: not distinct receiver_vehicles entries"


def _generate(tmp_path, episodes=2, scenes=3, seed=42, name="episodes.jsonl", jobs=1):
    rc = main(
        [
            "--seed",
            str(seed),
            "--out",
            str(tmp_path),
            "generate",
            "--episodes",
            str(episodes),
            "--scenes",
            str(scenes),
            "--jobs",
            str(jobs),
            "--file",
            name,
        ]
    )
    assert rc == 0
    return tmp_path / name


class TestSeedDerivation:
    def test_splitmix_reference_values(self):
        # splitmix64 outputs for the all-zero state, cross-checked against
        # the published reference sequence (seed 0): first two outputs
        assert splitmix64(0) == 0xE220A8397B1DCDAF
        assert splitmix64(0xE220A8397B1DCDAF) != splitmix64(0)

    def test_derive_seed_stable_and_distinct(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 3)


class TestGenerate:
    def test_writes_requested_episodes(self, tmp_path):
        path = _generate(tmp_path, episodes=2, scenes=3)
        records = read_episodes(path)
        assert len(records) == 2
        assert all(r.n_scenes == 3 for r in records)
        assert [r.episode_id for r in records] == [0, 1]

    def test_byte_identical_reruns(self, tmp_path):
        a = _generate(tmp_path / "a", episodes=2, scenes=3, seed=7)
        b = _generate(tmp_path / "b", episodes=2, scenes=3, seed=7)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        a = _generate(tmp_path / "a", episodes=1, scenes=2, seed=7)
        b = _generate(tmp_path / "b", episodes=1, scenes=2, seed=8)
        assert a.read_bytes() != b.read_bytes()

    def test_parallel_jobs_match_serial(self, tmp_path):
        a = _generate(tmp_path / "serial", episodes=3, scenes=2, seed=5, jobs=1)
        b = _generate(tmp_path / "parallel", episodes=3, scenes=2, seed=5, jobs=2)
        assert a.read_bytes() == b.read_bytes()

    def test_progress_is_logged_and_stdout_carries_results(self, tmp_path, capsys, caplog):
        caplog.set_level("INFO", logger="beamcanyon")
        path = _generate(tmp_path, episodes=2, scenes=2)
        assert capsys.readouterr().out == f"wrote 2 episodes to {path}\n"
        progress = [r.getMessage() for r in caplog.records if r.name == "beamcanyon"]
        assert progress == ["episode 0: 2 scenes traced", "episode 1: 2 scenes traced"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_streamed_bytes_equal_list_writer(self, tmp_path, jobs):
        path = _generate(tmp_path, episodes=3, scenes=2, seed=5, jobs=jobs)
        scenario = make_canyon_scenario()
        records = [
            oracles.episode_record(
                scenario,
                EpisodeParams(scenes_per_episode=2, seed=derive_seed(5, cli._PURPOSE_EPISODE, i)),
                TraceConfig(),
                i,
            )
            for i in range(3)
        ]
        oracles.write_episodes(records, tmp_path / "oracle.jsonl")
        assert path.read_bytes() == (tmp_path / "oracle.jsonl").read_bytes()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_episode_leaves_no_file(self, tmp_path, capsys, monkeypatch, jobs):
        if jobs > 1 and multiprocessing.get_start_method() != "fork":
            pytest.skip("workers see the patched module only when forked")

        def line_or_fail(scenario, params, cfg, episode_id):
            if episode_id == 1:
                raise RuntimeError("episode 1 failed")
            return episode_line(scenario, params, cfg, episode_id)

        monkeypatch.setattr(cli, "episode_line", line_or_fail)
        argv = ["--out", str(tmp_path), "generate", "--episodes", "3", "--scenes", "1", "--jobs", str(jobs)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: episode 1 failed\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("episodes, jobs, pools", [(1, 64, []), (3, 64, [3]), (3, 2, [2])])
    def test_pool_has_at_most_one_worker_per_episode(self, tmp_path, monkeypatch, episodes, jobs, pools):
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        _generate(tmp_path, episodes=episodes, scenes=1, jobs=jobs)
        assert sizes == pools

    def test_bad_episode_count_fails(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path), "generate", "--episodes", "0"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_negative_episode_count_fails(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path), "generate", "--episodes", "-1"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "episodes.jsonl").exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_bad_jobs_fails(self, tmp_path, capsys, jobs):
        rc = main(["--out", str(tmp_path), "generate", "--episodes", "1", "--scenes", "1", "--jobs", jobs])
        assert rc == 1
        assert "--jobs must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "episodes.jsonl").exists()


class TestExport:
    def test_export_writes_csvs_and_labelmap(self, tmp_path, capsys):
        path = _generate(tmp_path, episodes=3, scenes=3)
        rc = main(
            [
                "--out",
                str(tmp_path),
                "export",
                str(path),
                "--test-fraction",
                "0.34",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "classes:" in out
        train = (tmp_path / "train.csv").read_text().splitlines()
        test = (tmp_path / "test.csv").read_text().splitlines()
        assert len(train) > 1 and len(test) > 1
        labelmap = json.loads((tmp_path / "labelmap.json").read_text())
        assert 1 <= labelmap["num_classes"] <= 256
        assert len(labelmap["raw_to_class"]) == labelmap["num_classes"]

    def test_rerun_writes_identical_csvs(self, tmp_path):
        path = _generate(tmp_path, episodes=3, scenes=3)
        argv = ["--seed", "3", "--out", None, "export", str(path), "--test-fraction", "0.34"]
        outputs = []
        for sub in ("one", "two"):
            argv[3] = str(tmp_path / sub)
            assert main(argv) == 0
            outputs.append((tmp_path / sub / "train.csv").read_bytes())
            outputs.append((tmp_path / sub / "test.csv").read_bytes())
        assert outputs[0] == outputs[2]
        assert outputs[1] == outputs[3]

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path), "export", str(tmp_path / "nope.jsonl")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["0", "-1", "1e400", "NaN"])
    def test_non_positive_grid_cell_fails(self, tmp_path, capsys, cell):
        # JSON reads 1e400 as infinity and NaN as nan: neither is a usable cell size
        path = _generate(tmp_path, episodes=3, scenes=2)
        config = tmp_path / "config.json"
        config.write_text('{"grid_cell": %s}' % cell)
        capsys.readouterr()
        rc = main(["--config", str(config), "--out", str(tmp_path), "export", str(path), "--test-fraction", "0.34"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: grid_cell must be a positive finite number, got ") and err.count("\n") == 1
        assert not (tmp_path / "train.csv").exists()

    def test_repeated_episode_ids_fail(self, tmp_path, capsys):
        path = _generate(tmp_path, episodes=3, scenes=2)
        header, *records = path.read_text().splitlines(keepends=True)
        doubled = tmp_path / "doubled.jsonl"
        head = json.loads(header)
        head["episode_count"] *= 2
        doubled.write_text(json.dumps(head) + "\n" + "".join(records * 2))
        rc = main(["--out", str(tmp_path), "export", str(doubled), "--test-fraction", "0.3"])
        assert rc == 1
        assert "episode ids must be unique; repeated: [0, 1, 2]" in capsys.readouterr().err
        assert not (tmp_path / "train.csv").exists()

    @pytest.mark.parametrize("side", ["train", "test"])
    def test_empty_side_fails_before_writing_any_file(self, tmp_path, capsys, side):
        path = _generate(tmp_path, episodes=3, scenes=2)
        header, *records = path.read_text().splitlines()
        split = split_episodes(range(3), 0.34, derive_seed(0, cli._PURPOSE_SPLIT))
        stripped = set(getattr(split, f"{side}_episode_ids"))
        objs = [json.loads(line) for line in records]
        for obj in objs:
            if obj["episode_id"] in stripped:
                for pair in (p for scene in obj["scenes"] for p in scene["pairs"]):
                    pair.update(rays=[], mean_toa=None, p_rx_dbm=None)
        path.write_text("\n".join([header] + [json.dumps(obj) for obj in objs]) + "\n")
        earlier = {name: f"{name} of an earlier run\n" for name in ("train.csv", "test.csv", "labelmap.json")}
        for name, text in earlier.items():
            (tmp_path / name).write_text(text)
        capsys.readouterr()
        rc = main(["--out", str(tmp_path), "export", str(path), "--test-fraction", "0.34"])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: no examples on the {side} side: none of its pairs has a ray"]
        assert {name: (tmp_path / name).read_text() for name in earlier} == earlier

    @pytest.mark.parametrize(
        "corrupt, reason",
        [
            pytest.param(
                lambda o: o["receiver_vehicles"].update({"0": o["receiver_vehicles"].pop("1")}),
                "receiver_vehicles holds receiver index 0; indices start at 1",
                id="receiver-index-0",
            ),
            pytest.param(
                lambda o: _renumber(o, 1, 40000),
                f"receiver_vehicles keys {[*range(2, 11), 40000]}: not the receiver indices 1..10 of receiver_count 10",
                id="receiver-index-past-the-grid-range",
            ),
            pytest.param(
                lambda o: _renumber(o, 2, 11),
                f"receiver_vehicles keys {[1, *range(3, 12)]}: not the receiver indices 1..10 of receiver_count 10",
                id="receiver-indices-with-a-gap",
            ),
            pytest.param(
                lambda o: o["scenes"][1]["pairs"][0].update(rx_id=0),
                f"scene 1: pair rx_ids {[0, *range(2, 11)]}: not distinct receiver_vehicles keys",
                id="rx-id-not-a-receiver",
            ),
            pytest.param(
                lambda o: o["scenes"][1]["pairs"][1].update(rx_id=1),
                f"scene 1: pair rx_ids {[1, 1, *range(3, 11)]}: not distinct receiver_vehicles keys",
                id="rx-id-repeated",
            ),
            pytest.param(
                lambda o: _retag(o["scenes"][1], {1: 0}),
                _tags_reason,
                id="vehicle-receiver-index-0",
            ),
            pytest.param(
                lambda o: _retag(o["scenes"][1], {2: 1}),
                _tags_reason,
                id="vehicle-receiver-index-repeated",
            ),
            pytest.param(
                lambda o: _retag(o["scenes"][1], {1: 2, 2: 1}),
                _tags_reason,
                id="vehicle-receiver-index-of-another-vehicle",
            ),
            pytest.param(
                # every grid is laid on record 0's strip, so another strip would put this record's off it
                lambda o: o.update(v2i_area=[o["v2i_area"][0] + 40.0, *o["v2i_area"][1:]]),
                "v2i_area [80.0, 0.0, 290.0, 23.0] differs from record 0's [40.0, 0.0, 290.0, 23.0]",
                id="v2i-area-differs-from-record-0",
            ),
        ],
    )
    def test_bad_receiver_fails_every_read_stage(self, tmp_path, capsys, corrupt, reason):
        path = _generate(tmp_path, episodes=3, scenes=2)
        header, *lines = path.read_text().splitlines()
        obj = json.loads(lines[1])
        corrupt(obj)
        if callable(reason):
            reason = reason(obj)
        lines[1] = json.dumps(obj)
        path.write_text("\n".join([header, *lines]) + "\n")
        capsys.readouterr()
        out = tmp_path / "out"
        for stage in ("export", "classify", "schedule"):
            assert main(["--out", str(out), stage, str(path)]) == 1
            assert capsys.readouterr().err.splitlines() == [f"error: {path}: record 1: {reason}"]
        assert not out.exists()

    def test_negative_vehicle_length_fails_with_the_box_message(self, tmp_path, capsys):
        path = _generate(tmp_path, episodes=3, scenes=2)
        header, first, *records = path.read_text().splitlines()
        obj = json.loads(first)
        obj["scenes"][1]["vehicles"][0]["length"] = -4.645  # a hand-edited file: the box turns inside out
        path.write_text("\n".join([header, json.dumps(obj)] + records) + "\n")
        capsys.readouterr()
        rc = main(["--out", str(tmp_path), "export", str(path), "--test-fraction", "0.34"])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == ["error: box min corner must not exceed max corner"]
        assert not (tmp_path / "train.csv").exists()


class TestClassify:
    def test_prints_table_and_writes_report(self, tmp_path, capsys):
        path = _generate(tmp_path, episodes=3, scenes=3)
        rc = main(["--out", str(tmp_path), "classify", str(path), "--knn-k", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Classifier" in out and "majority" in out
        report = json.loads((tmp_path / "classify_report.json").read_text())
        assert set(report) == {"majority", "knn(k=3)"}
        for obj in report.values():
            assert 0.0 <= obj["accuracy_all"] <= 1.0


    def test_report_names_the_k_used_when_training_rows_are_fewer(self, tmp_path, capsys):
        path = _generate(tmp_path, episodes=3, scenes=2)
        records = read_episodes(path)
        split = split_episodes([r.episode_id for r in records], 0.25, derive_seed(42, cli._PURPOSE_SPLIT))
        n_train = sum(
            np.count_nonzero(r.rays.counts) for r in records if r.episode_id in split.train_episode_ids
        )
        assert main(["--seed", "42", "--out", str(tmp_path), "classify", str(path), "--knn-k", "1000"]) == 0
        report = json.loads((tmp_path / "classify_report.json").read_text())
        assert set(report) == {"majority", f"knn(k={n_train})"}
        assert f"knn(k={n_train})" in capsys.readouterr().out


class TestSchedule:
    def test_all_agents_and_dominance(self, tmp_path, capsys):
        path = _generate(tmp_path, episodes=2, scenes=4)
        rc = main(
            [
                "--out",
                str(tmp_path),
                "schedule",
                str(path),
                "--agents",
                "greedy,round_robin,tabular_q,dp",
                "--n-rec",
                "2",
            ]
        )
        assert rc == 0
        report = json.loads((tmp_path / "schedule_report.json").read_text())
        assert len(report["episodes"]) == 2
        for ep in report["episodes"]:
            dp = ep["agents"]["dp"]["mean_reward"]
            for name, agent in ep["agents"].items():
                assert dp >= agent["mean_reward"]
        csv_lines = (tmp_path / "rewards.csv").read_text().splitlines()
        assert csv_lines[0] == "episode,greedy,round_robin,tabular_q,dp"
        assert len(csv_lines) == 3

    def test_greedy_no_outage_reaches_one(self, tmp_path):
        path = _generate(tmp_path, episodes=2, scenes=4)
        rc = main(
            [
                "--out",
                str(tmp_path),
                "schedule",
                str(path),
                "--agents",
                "greedy",
                "--n-out",
                "inf",
                "--n-rec",
                "2",
            ]
        )
        assert rc == 0
        report = json.loads((tmp_path / "schedule_report.json").read_text())
        for ep in report["episodes"]:
            assert ep["agents"]["greedy"]["mean_reward"] == 1.0

    def test_scenes_without_paths_do_not_abort(self, tmp_path, capsys):
        # at this seed receivers 1 and 2 have no path in episode 2, scenes 8-9
        path = _generate(tmp_path, episodes=3, scenes=10, seed=71)
        dead = [p for p in oracles.read_episodes(path)[2].scenes[8].pairs if p.rx_id <= 2]
        assert len(dead) == 2 and not any(p.rays for p in dead)
        argv = ["--seed", "71", "--out", str(tmp_path), "schedule", str(path)]
        assert main(argv + ["--n-rec", "2", "--n-out", "3", "--r-out", "-3"]) == 0
        report = json.loads((tmp_path / "schedule_report.json").read_text())
        assert [e["episode_id"] for e in report["episodes"]] == [0, 1, 2]
        assert len((tmp_path / "rewards.csv").read_text().splitlines()) == 4

    def test_oversized_state_space_fails_before_q_learning(self, tmp_path, capsys):
        # 10 receivers with outages after 9 scenes reach more states than the guard admits
        path = _generate(tmp_path, episodes=2, scenes=2)
        argv = ["--out", str(tmp_path), "schedule", str(path), "--n-rec", "10", "--n-out", "9"]
        assert main(argv + ["--agents", "tabular_q"]) == 1
        err = capsys.readouterr().err
        assert "exceed the guard" in err and err.count("\n") == 1 and err.startswith("error: ")
        # the plans that need no state tables are scored at the same config
        assert main(argv + ["--agents", "greedy,round_robin"]) == 0

    def test_unknown_agent_fails(self, tmp_path, capsys):
        path = _generate(tmp_path, episodes=2, scenes=2)
        choices = ", ".join(cli.AGENTS)
        rc = main(["--out", str(tmp_path), "schedule", str(path), "--agents", "alphago"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: unknown agent 'alphago'; choose from {choices}\n"
        for agents in ("", ","):  # checked before the episodes file is read, so a missing one is not named
            rc = main(["--out", str(tmp_path), "schedule", str(tmp_path / "missing.jsonl"), "--agents", agents])
            assert rc == 1
            assert capsys.readouterr().err == f"error: no agent named; choose from {choices}\n"

    def test_repeated_agent_is_one_column(self, tmp_path, capsys):
        path = _generate(tmp_path, episodes=2, scenes=2)
        capsys.readouterr()
        assert main(["--out", str(tmp_path), "schedule", str(path), "--agents", "greedy,greedy"]) == 0
        means = capsys.readouterr().out.splitlines()[:-1]
        assert [line.split(":")[0] for line in means] == ["greedy"]
        assert (tmp_path / "rewards.csv").read_text().splitlines()[0] == "episode,greedy"

    def test_agents_default_lists_the_table(self):
        args = _build_parser().parse_args(["schedule", "episodes.jsonl"])
        assert args.agents.split(",") == list(cli.AGENTS) == ["greedy", "round_robin", "tabular_q", "dp"]

    def test_table_calls_agents_through_their_module_names(self, tmp_path, monkeypatch):
        # a table that held the function objects would miss a rebinding, such as the bench's spans
        path = _generate(tmp_path, episodes=2, scenes=2)
        calls = []

        def spy(name):
            agent = getattr(cli, name)
            return lambda *args: calls.append(name) or agent(*args)

        names = ["greedy_agent", "round_robin_agent", "tabular_q_agent", "dp_optimal"]
        for name in names:
            monkeypatch.setattr(cli, name, spy(name))
        assert main(["--out", str(tmp_path), "schedule", str(path), "--n-rec", "2"]) == 0
        assert calls == names * 2


class TestReport:
    def test_summarizes_written_reports(self, tmp_path, capsys):
        path = _generate(tmp_path, episodes=3, scenes=3)
        capsys.readouterr()
        assert main(["--out", str(tmp_path), "classify", str(path)]) == 0
        table = capsys.readouterr().out.splitlines()[:3]
        assert main(["--out", str(tmp_path), "schedule", str(path), "--n-rec", "2"]) == 0
        means = capsys.readouterr().out.splitlines()[:-1]
        assert [line.split(":")[0] for line in means] == list(cli.AGENTS)
        rc = main(
            [
                "report",
                "--classify-report",
                str(tmp_path / "classify_report.json"),
                "--schedule-report",
                str(tmp_path / "schedule_report.json"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        # reports are written with sorted keys, so rows and agents come back in alphabetical order
        assert out == [table[0], *sorted(table[1:]), *sorted(means)]

    def test_malformed_report_names_file(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        rc = main(["report", "--classify-report", str(bad)])
        assert rc == 1
        assert "broken.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, obj, match",
        [
            pytest.param(
                "--classify-report", {"knn": {"accuracy_nlos": None}}, "no key 'accuracy_all'", id="classify-no-accuracy"
            ),
            pytest.param("--classify-report", [1], "no attribute 'items'", id="classify-list"),
            pytest.param("--schedule-report", [1], "list indices", id="schedule-list"),
            pytest.param("--schedule-report", {}, "no key 'episodes'", id="schedule-empty-object"),
            pytest.param("--schedule-report", {"episodes": []}, "no episodes", id="schedule-no-episodes"),
            pytest.param(
                "--schedule-report",
                {"episodes": [{"episode_id": 0, "agents": {"dp": {"mean_reward": "0.5"}}}]},
                "unsupported operand",
                id="schedule-string-mean",
            ),
        ],
    )
    def test_faulty_report_names_file(self, tmp_path, capsys, flag, obj, match):
        bad = tmp_path / "report.json"
        bad.write_text(json.dumps(obj))
        rc = main(["report", flag, str(bad)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read report {bad}: ") and captured.err.count("\n") == 1
        assert match in captured.err

    def test_rewards_means(self, tmp_path, capsys):
        path = tmp_path / "schedule_report.json"
        episodes = [
            {"episode_id": 0, "agents": {"dp": {"mean_reward": 0.75}, "greedy": {"mean_reward": 0.5}}},
            {"episode_id": 1, "agents": {"dp": {"mean_reward": 1.0}, "greedy": {"mean_reward": 0.25}}},
        ]
        path.write_text(json.dumps({"episodes": episodes}))
        assert main(["report", "--schedule-report", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["dp: mean episode reward 0.8750", "greedy: mean episode reward 0.3750"]


class TestRunConfig:
    def test_defaults_without_file(self):
        config = load_run_config(None)
        assert config.episode.scenes_per_episode == 50
        assert config.trace.max_rays == 25
        assert config.tx_array.size == 16

    def test_empty_arrays_section_loads_the_defaults(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"arrays": {}}))
        assert load_run_config(str(path)) == cli.RunConfig()

    def test_one_array_given_keeps_the_other_defaults(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"arrays": {"tx": [2, 2]}}))
        config, default = load_run_config(str(path)), cli.RunConfig()
        assert (config.tx_array.nx, config.tx_array.ny) == (2, 2)
        assert config.rx_array == default.rx_array
        assert config.tx_array.spacing_wavelengths == default.tx_array.spacing_wavelengths

    def test_file_values_and_inf_outage(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(
            json.dumps(
                {
                    "seed": 9,
                    "episode": {"scenes_per_episode": 7},
                    "trace": {"wall_reflection": [-0.4, 0.1]},
                    "scheduler": {"outage_after": "inf"},
                    "arrays": {"tx": [2, 2], "rx": [2, 2]},
                }
            )
        )
        config = load_run_config(str(path))
        assert config.seed == 9
        assert config.episode.scenes_per_episode == 7
        assert config.trace.wall_reflection == complex(-0.4, 0.1)
        assert config.scheduler.outage_after is None
        assert config.tx_array.size == 4

    @pytest.mark.parametrize("key", ["wall_reflection", "ground_reflection"])
    @pytest.mark.parametrize(
        "value",
        [[-0.4], [-0.4, 0.1, 9], ["-0.4", "0.1"], [-0.4, None], [True, 0.0], [], -0.4],
        ids=["one-part", "three-part", "strings", "null", "bool", "empty", "bare-number"],
    )
    def test_reflection_must_be_re_im_pair(self, tmp_path, capsys, key, value):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"trace": {key: value}}))
        with pytest.raises(ValueError, match=rf"trace\.{key} must be two numbers \[re, im\]"):
            load_run_config(str(path))
        assert main(["--config", str(path), "report"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: trace.{key} must be two numbers") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "arrays, key",
        [
            pytest.param({"tx": [4]}, "arrays.tx", id="tx-one-part"),
            pytest.param({"rx": [4, 4, 4]}, "arrays.rx", id="rx-three-part"),
            pytest.param({"rx": [4.5, 4]}, "arrays.rx", id="rx-float"),
            pytest.param({"tx": [4.0, 4]}, "arrays.tx", id="tx-integral-float"),
            pytest.param({"tx": "44"}, "arrays.tx", id="tx-string"),
            pytest.param({"tx": [True, 4]}, "arrays.tx", id="tx-bool"),
            pytest.param({"rx": [4, 0]}, "arrays.rx", id="rx-zero"),
            pytest.param({"spacing_wavelengths": -1}, "arrays.spacing_wavelengths", id="spacing-negative"),
            pytest.param({"spacing_wavelengths": 0}, "arrays.spacing_wavelengths", id="spacing-zero"),
            pytest.param({"spacing_wavelengths": math.inf}, "arrays.spacing_wavelengths", id="spacing-infinite"),
            pytest.param({"spacing_wavelengths": "0.5"}, "arrays.spacing_wavelengths", id="spacing-string"),
            pytest.param({"spacing_wavelengths": True}, "arrays.spacing_wavelengths", id="spacing-bool"),
        ],
    )
    def test_bad_arrays_section_fails_with_one_line(self, tmp_path, capsys, arrays, key):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"arrays": arrays}))
        assert main(["--config", str(path), "report"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be") and err.count("\n") == 1

    def test_negative_spacing_fails_export_before_writing(self, tmp_path, capsys):
        path = _generate(tmp_path, episodes=3, scenes=2)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"arrays": {"spacing_wavelengths": -1}}))
        rc = main(["--config", str(config), "--out", str(tmp_path), "export", str(path), "--test-fraction", "0.34"])
        assert rc == 1
        assert "error: arrays.spacing_wavelengths must be a positive finite number" in capsys.readouterr().err
        assert not (tmp_path / "train.csv").exists()

    @pytest.mark.parametrize(
        "config, message",
        [
            pytest.param({"seed": 1.5}, "seed must be an integer", id="seed-float"),
            pytest.param({"seed": "7"}, "seed must be an integer", id="seed-string"),
            pytest.param({"seed": True}, "seed must be an integer", id="seed-bool"),
            pytest.param({"grid_cell": "1"}, "grid_cell must be a positive finite number", id="grid_cell-string"),
            pytest.param({"grid_cell": True}, "grid_cell must be a positive finite number", id="grid_cell-bool"),
            pytest.param({"test_fraction": "0.3"}, "test_fraction must be a finite number in (0, 1)", id="test_fraction-string"),
            pytest.param({"test_fraction": False}, "test_fraction must be a finite number in (0, 1)", id="test_fraction-bool"),
        ],
    )
    def test_bad_top_level_value_fails_with_one_line(self, tmp_path, capsys, config, message):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        assert main(["--config", str(path), "report"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}, got") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "trace, key",
        [
            pytest.param('{"max_rays": 2.0}', "max_rays", id="max_rays-float"),
            pytest.param('{"max_rays": true}', "max_rays", id="max_rays-bool"),
            pytest.param('{"max_rays": 0}', "max_rays", id="max_rays-zero"),
            pytest.param('{"max_reflections": 1.5}', "max_reflections", id="max_reflections-float"),
            pytest.param('{"max_reflections": false}', "max_reflections", id="max_reflections-bool"),
            pytest.param('{"max_reflections": -1}', "max_reflections", id="max_reflections-negative"),
            pytest.param('{"carrier_hz": 1e400}', "carrier_hz", id="carrier_hz-infinite"),
            pytest.param('{"carrier_hz": NaN}', "carrier_hz", id="carrier_hz-nan"),
            pytest.param('{"carrier_hz": 0}', "carrier_hz", id="carrier_hz-zero"),
            pytest.param('{"carrier_hz": "6e10"}', "carrier_hz", id="carrier_hz-string"),
            pytest.param('{"tx_power_dbm": 1e400}', "tx_power_dbm", id="tx_power_dbm-infinite"),
            pytest.param('{"tx_power_dbm": -1e400}', "tx_power_dbm", id="tx_power_dbm-minus-infinite"),
            pytest.param('{"tx_power_dbm": NaN}', "tx_power_dbm", id="tx_power_dbm-nan"),
            pytest.param('{"tx_power_dbm": "0"}', "tx_power_dbm", id="tx_power_dbm-string"),
            pytest.param('{"wall_reflection": [NaN, 0]}', "wall_reflection", id="wall_reflection-nan"),
            pytest.param(f'{{"carrier_hz": {10**400}}}', "carrier_hz", id="carrier_hz-huge-integer"),
            pytest.param(f'{{"wall_reflection": [{10**400}, 0]}}', "wall_reflection", id="wall_reflection-huge-integer"),
        ],
    )
    def test_bad_trace_value_fails_before_tracing(self, tmp_path, capsys, monkeypatch, trace, key):
        path = tmp_path / "run.json"
        path.write_text(f'{{"trace": {trace}}}')
        traced = []
        monkeypatch.setattr(cli, "_generate_one", traced.append)
        rc = main(["--config", str(path), "--out", str(tmp_path), "generate", "--episodes", "1", "--scenes", "1"])
        assert rc == 1 and traced == []
        err = capsys.readouterr().err
        assert err.startswith(f"error: trace.{key} must ") and err.count("\n") == 1
        assert not (tmp_path / "episodes.jsonl").exists()

    @pytest.mark.parametrize(
        "config, key",
        [
            pytest.param('{"scenario": {"street_length": 1e400}}', "scenario.street_length", id="street_length-infinite"),
            pytest.param(f'{{"scenario": {{"street_length": {10**400}}}}}', "scenario.street_length",
                         id="street_length-huge-integer"),
            pytest.param('{"scenario": {"rsu_height": NaN}}', "scenario.rsu_height", id="rsu_height-nan"),
            pytest.param('{"scenario": {"lane_count": true}}', "scenario.lane_count", id="lane_count-bool"),
            pytest.param('{"scenario": {"lane_count": 1.5}}', "scenario.lane_count", id="lane_count-float"),
            pytest.param('{"scenario": {"lane_width": "3"}}', "scenario.lane_width", id="lane_width-string"),
            pytest.param('{"scenario": {"ground_z": "a"}}', "scenario.ground_z", id="ground_z-string"),
            pytest.param('{"episode": {"scenes_per_episode": true}}', "episode.scenes_per_episode", id="scenes-bool"),
            pytest.param('{"episode": {"receiver_count": 2.5}}', "episode.receiver_count", id="receiver_count-float"),
            pytest.param('{"episode": {"sample_period": NaN}}', "episode.sample_period", id="sample_period-nan"),
            pytest.param('{"episode": {"avg_speed": NaN}}', "episode.avg_speed", id="avg_speed-nan"),
            pytest.param('{"trace": {"max_reflections": 40}}', "trace.max_reflections", id="max_reflections-40"),
            pytest.param('{"scheduler": {"outage_penalty": -1e400}}', "scheduler.outage_penalty", id="penalty-infinite"),
            pytest.param('{"scheduler": {"outage_penalty": "x"}}', "scheduler.outage_penalty", id="penalty-string"),
            pytest.param('{"scheduler": {"floor_offset_db": NaN}}', "scheduler.floor_offset_db", id="floor_offset-nan"),
            pytest.param('{"qlearn": {"learning_rate": "x"}}', "qlearn.learning_rate", id="learning_rate-string"),
        ],
    )
    def test_bad_value_fails_generate_before_the_scenario(self, tmp_path, capsys, monkeypatch, config, key):
        path = tmp_path / "run.json"
        path.write_text(config)
        built = []
        monkeypatch.setattr(cli, "make_canyon_scenario", built.append)
        rc = main(["--config", str(path), "--out", str(tmp_path), "generate", "--episodes", "1", "--scenes", "2"])
        assert rc == 1 and built == []
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be ") and err.count("\n") == 1
        assert not (tmp_path / "episodes.jsonl").exists()

    @pytest.mark.parametrize("scenario", [{"street_length": 1e9}, {"building_length": 1e-6}], ids=["long", "short"])
    def test_too_many_buildings_fail_generate_at_once(self, tmp_path, capsys, scenario):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"scenario": scenario}))
        start = time.perf_counter()
        rc = main(["--config", str(path), "--out", str(tmp_path), "generate", "--episodes", "1", "--scenes", "2"])
        assert rc == 1 and time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: (street_length + 2 * approach_length) / building_length must be at most 10000")
        assert err.count("\n") == 1
        assert not (tmp_path / "episodes.jsonl").exists()

    def test_nan_outage_penalty_flag_fails(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path), "schedule", str(tmp_path / "episodes.jsonl"), "--r-out", "nan"])
        assert rc == 1
        assert capsys.readouterr().err == "error: scheduler.outage_penalty must be a finite number <= 0, got nan\n"

    def test_integral_trace_numbers_load(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"trace": {"carrier_hz": 28_000_000_000, "tx_power_dbm": -10, "max_rays": 1}}))
        trace = load_run_config(str(path)).trace
        assert (trace.carrier_hz, trace.tx_power_dbm, trace.max_rays) == (28e9, -10.0, 1)

    def test_reflection_pair_of_integers_loads(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"trace": {"ground_reflection": [-1, 0]}}))
        assert load_run_config(str(path)).trace.ground_reflection == complex(-1, 0)

    @pytest.mark.parametrize(
        "qlearn, key",
        [
            ({"training_episodes": -3}, "training_episodes"),
            ({"training_episodes": 2.5}, "training_episodes"),
            ({"learning_rate": 0}, "learning_rate"),
            ({"discount": 2}, "discount"),
            ({"epsilon_start": 1.5}, "epsilon_start"),
            ({"epsilon_end": -1}, "epsilon_end"),
        ],
    )
    def test_bad_qlearn_section_fails_with_one_line(self, tmp_path, capsys, qlearn, key):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"qlearn": qlearn}))
        assert main(["--config", str(path), "report"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: qlearn.{key} must be") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "config, key",
        [
            pytest.param({"scheduler": {"num_receivers": 2.0}}, "scheduler.num_receivers", id="num_receivers-float"),
            pytest.param({"scheduler": {"num_receivers": True}}, "scheduler.num_receivers", id="num_receivers-bool"),
            pytest.param({"scheduler": {"outage_after": 2.5}}, "scheduler.outage_after", id="outage_after-float"),
            pytest.param({"scheduler": {"outage_after": True}}, "scheduler.outage_after", id="outage_after-bool"),
            pytest.param({"knn_k": 2.5}, "knn_k", id="knn_k-float"),
            pytest.param({"knn_k": 0}, "knn_k", id="knn_k-zero"),
            pytest.param({"knn_k": True}, "knn_k", id="knn_k-bool"),
        ],
    )
    def test_count_key_must_be_integer(self, tmp_path, capsys, config, key):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        assert main(["--config", str(path), "report"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be an integer >= 1") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "config, key",
        [
            pytest.param({"grid_cel": 0.5}, "'grid_cel'", id="top-level"),
            pytest.param({"knn-k": 1}, "'knn-k'", id="top-level-hyphen"),
            pytest.param({"arrays": {"spacing": 0.25}}, "'spacing'", id="arrays"),
            pytest.param({"scenario": {"street_lenght": 250.0}}, "'street_lenght'", id="scenario"),
            pytest.param({"episode": {"scenes": 5}}, "'scenes'", id="episode"),
            pytest.param({"trace": {"max_ray": 5}}, "'max_ray'", id="trace"),
            pytest.param({"scheduler": {"n_out": 3}}, "'n_out'", id="scheduler"),
            pytest.param({"qlearn": {"epsilon": 0.1}}, "'epsilon'", id="qlearn"),
        ],
    )
    def test_unknown_key_fails(self, tmp_path, capsys, config, key):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        with pytest.raises(ValueError, match=f"unknown keys in config.*{key}"):
            load_run_config(str(path))
        assert main(["--config", str(path), "report"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown keys in config") and key in err and err.count("\n") == 1

    def test_every_documented_key_loads(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(
            json.dumps(
                {
                    "seed": 3,
                    "output_dir": "elsewhere",
                    "test_fraction": 0.5,
                    "knn_k": 2,
                    "grid_cell": 0.5,
                    "arrays": {"tx": [2, 4], "rx": [4, 2], "spacing_wavelengths": 0.25},
                }
            )
        )
        config = load_run_config(str(path))
        assert (config.seed, config.output_dir, config.test_fraction, config.knn_k) == (3, "elsewhere", 0.5, 2)
        assert config.grid_cell == 0.5
        assert config.tx_array.spacing_wavelengths == config.rx_array.spacing_wavelengths == 0.25

    @pytest.mark.parametrize("spelling", ["inf", "INF", "Inf", "none", "None", "NONE", pytest.param(None, id="null")])
    def test_outage_disabled_in_file_and_flag_alike(self, tmp_path, capsys, spelling):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"scheduler": {"outage_after": spelling}}))
        assert load_run_config(str(path)).scheduler.outage_after is None
        if spelling is not None:
            args = _build_parser().parse_args(["schedule", "episodes.jsonl", "--n-out", spelling])
            assert _apply_overrides(load_run_config(None), args).scheduler.outage_after is None

    @pytest.mark.parametrize("spelling", [4, "4"], ids=["number", "string"])
    def test_outage_threshold_integer(self, tmp_path, spelling):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"scheduler": {"outage_after": spelling}}))
        assert load_run_config(str(path)).scheduler.outage_after == 4
        args = _build_parser().parse_args(["schedule", "episodes.jsonl", "--n-out", str(spelling)])
        assert _apply_overrides(load_run_config(None), args).scheduler.outage_after == 4

    def test_outage_threshold_garbage_fails(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"scheduler": {"outage_after": "never"}}))
        assert main(["--config", str(path), "report"]) == 1
        assert capsys.readouterr().err == "error: scheduler.outage_after must be an integer >= 1 or None, got 'never'\n"

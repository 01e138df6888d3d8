"""Command-line pipeline: generate, export, classify, schedule, report.

Configuration comes from an optional JSON file (schema in docs/config.md);
command-line flags override file values. The master seed is expanded into
per-purpose sub-seeds with a splitmix64 chain, so regenerating with the same
seed is reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import sys
from collections.abc import Callable
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import classify as clf
from .dataset import (
    Examples,
    Split,
    episode_line,
    export_csv,
    extract_examples,
    open_atomic,
    read_episodes,
    split_episodes,
    write_episodes,
)
from .features import GridSpec
from .mimo import ArraySpec
from .raytrace import LosStatus, TraceConfig
from .rules import Rule, check, rules_of, setting
from .scenario import EpisodeParams, ScenarioConfig, make_canyon_scenario
from .scheduler import (
    QLearningConfig,
    SchedulerParams,
    build_reward_table,
    dp_optimal,
    greedy_agent,
    round_robin_agent,
    tabular_q_agent,
)

log = logging.getLogger("beamcanyon")

# agent name -> (reward table, scheduler params, Q-learning hyperparameters) -> plan. Each
# entry looks its agent up when called, so that a rebinding of the module name reaches it.
AGENTS = {
    "greedy": lambda table, params, hyper: greedy_agent(table, params),
    "round_robin": lambda table, params, hyper: round_robin_agent(table, params),
    "tabular_q": lambda table, params, hyper: tabular_q_agent(table, params, hyper),
    "dp": lambda table, params, hyper: dp_optimal(table, params),
}

# seed-derivation purposes
_PURPOSE_EPISODE = 1
_PURPOSE_SPLIT = 2
_PURPOSE_QLEARN = 3


def splitmix64(state: int) -> int:
    """One splitmix64 output for the given state; used for sub-seed derivation."""
    z = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return (z ^ (z >> 31)) & 0xFFFFFFFFFFFFFFFF


def derive_seed(master: int, *path: int) -> int:
    """Stable sub-seed: fold each path element through splitmix64."""
    state = master & 0xFFFFFFFFFFFFFFFF
    for element in path:
        state = splitmix64(state ^ (element & 0xFFFFFFFFFFFFFFFF))
    return state


@dataclass(frozen=True)
class RunConfig:
    seed: int = setting(0, "integer")
    output_dir: str = setting("out", "string")
    scenario: ScenarioConfig = ScenarioConfig()
    episode: EpisodeParams = EpisodeParams()
    trace: TraceConfig = TraceConfig()
    tx_array: ArraySpec = ArraySpec(4, 4)
    rx_array: ArraySpec = ArraySpec(4, 4)
    grid_cell: float = setting(1.0, "number", "> 0")
    scheduler: SchedulerParams = SchedulerParams()
    test_fraction: float = setting(0.25, "number", "> 0", "< 1")
    knn_k: int = setting(5, "integer", ">= 1")
    qlearn: QLearningConfig = QLearningConfig()

    def __post_init__(self) -> None:
        check(self)


TOP_LEVEL_KEYS = frozenset(rules_of(RunConfig))
# the file's sections, each built from its class's fields; "arrays", read apart, sets tx_array and rx_array
SECTIONS = {f.name: type(f.default) for f in fields(RunConfig)
            if "rule" not in f.metadata and type(f.default) is not ArraySpec}


def _parse_outage_after(value: object) -> object:
    """The outage threshold from ``--n-out`` or the config file.

    "inf" and "none", in any case, disable outages, and other strings are read
    as integers. ``SchedulerParams`` rejects what is left, naming the key.
    """
    if not isinstance(value, str):
        return value
    if value.lower() in ("inf", "none"):
        return None
    try:
        return int(value)
    except ValueError:
        return value


def _read(rule: Rule, value: object) -> object:
    """A file value as its rule's kind spells it; the rule's check rejects what does not fit."""
    if rule.kind == "integer or None":
        return _parse_outage_after(value)
    pair = isinstance(value, list) and len(value) == 2 and all(map(Rule("number").accepts, value))
    if rule.kind == "[re, im]" and pair:  # two finite numbers, so complex() neither overflows nor takes a bool
        return complex(*value)
    return value


def _read_object(value: object, rules: dict[str, Rule], where: str) -> dict:
    """Each key of JSON object ``value``, read by its rule; a key without one is an error naming ``where``."""
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be an object")
    unknown = [key for key in value if key not in rules]
    if unknown:
        raise ValueError(f"unknown keys in {where}: {', '.join(map(repr, unknown))}")
    return {key: _read(rules[key], v) for key, v in value.items()}


def load_run_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    values = {
        name: cls(**_read_object(data.pop(name, {}), rules_of(cls), f"config section {name!r}"))
        for name, cls in SECTIONS.items()
    }
    count = rules_of(ArraySpec)["nx"]  # the rule of each part of the [nx, ny] pairs "tx" and "rx"
    known = {"tx": count, "rx": count, "spacing_wavelengths": rules_of(ArraySpec)["spacing_wavelengths"]}
    arrays = _read_object(data.pop("arrays", {}), known, "config section 'arrays'")
    default = RunConfig()
    for key, spec in (("tx", default.tx_array), ("rx", default.rx_array)):
        shape = arrays.get(key, [spec.nx, spec.ny])
        if not (isinstance(shape, list) and len(shape) == 2 and all(map(count.accepts, shape))):
            raise ValueError(f"arrays.{key} must be [nx, ny], each {count.text()}, got {shape!r}")
        values[f"{key}_array"] = ArraySpec(*shape, arrays.get("spacing_wavelengths", spec.spacing_wavelengths))
    return RunConfig(**values, **_read_object(data, rules_of(RunConfig), "config"))


def _write_json(path: Path, obj: object) -> None:
    """Write a JSON report or map atomically, with sorted keys."""
    with open_atomic(path) as f:
        json.dump(obj, f, sort_keys=True, indent=2)


def _generate_one(args: tuple) -> str:
    """Simulate and trace one episode; its encoded line, so that only text is pickled."""
    scenario_cfg, params, trace_cfg, episode_id = args
    return episode_line(make_canyon_scenario(scenario_cfg), params, trace_cfg, episode_id)


def cmd_generate(config: RunConfig, n_episodes: int, out_path: Path, jobs: int = 1) -> None:
    """Simulate episodes, trace all pairs, and stream them to the episodes file atomically.

    Each episode's line is made from its derived seed in ``min(jobs, n_episodes)`` worker processes,
    and written and logged as soon as it is its turn, so the episodes are never all held at once.
    """
    if n_episodes < 1:
        raise ValueError("need at least one episode")
    if jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {jobs}")
    from concurrent.futures import ProcessPoolExecutor  # here, so no other stage loads multiprocessing
    tasks = [
        (
            config.scenario,
            replace(config.episode, seed=derive_seed(config.seed, _PURPOSE_EPISODE, i)),
            config.trace,
            i,
        )
        for i in range(n_episodes)
    ]

    def lines(results):
        for episode_id, line in enumerate(results):
            log.info("episode %d: %d scenes traced", episode_id, config.episode.scenes_per_episode)
            yield line

    workers = min(jobs, n_episodes)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else contextlib.nullcontext() as pool:
        write_episodes(lines((pool.map if pool else map)(_generate_one, tasks)), out_path, n_episodes)
    print(f"wrote {n_episodes} episodes to {out_path}")


def _load_split_examples(
    config: RunConfig, episodes_path: Path
) -> tuple[Split, Examples, Examples, np.ndarray]:
    """The split, both sides' examples and the train side's beam-pair keys (see ``extract_examples``)."""
    records = read_episodes(episodes_path)
    split = split_episodes(
        [r.episode_id for r in records],
        config.test_fraction,
        derive_seed(config.seed, _PURPOSE_SPLIT),
    )
    if not split.train_episode_ids or not split.test_episode_ids:
        raise ValueError(
            f"episode split is empty on one side (test_fraction={config.test_fraction}, "
            f"{len(records)} episodes); adjust --test-fraction"
        )
    by_id = {r.episode_id: r for r in records}
    train, test, keys = extract_examples(
        [by_id[i] for i in split.train_episode_ids],
        [by_id[i] for i in split.test_episode_ids],
        GridSpec.from_area(records[0].v2i_area, config.grid_cell),
        config.tx_array,
        config.rx_array,
    )
    # before any file is written, so that a failed export leaves an earlier one's files as they were
    for side, examples in (("train", train), ("test", test)):
        if not len(examples):
            raise ValueError(f"no examples on the {side} side: none of its pairs has a ray")
    return split, train, test, keys


def cmd_export(config: RunConfig, episodes_path: Path, out_dir: Path) -> None:
    """Fit the beam classes on the train side and write train/test CSVs plus the label map."""
    split, train, test, keys = _load_split_examples(config, episodes_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    export_csv(train, out_dir / "train.csv")
    export_csv(test, out_dir / "test.csv")
    _write_json(
        out_dir / "labelmap.json",
        {"num_classes": len(keys), "raw_to_class": {str(k): i + 1 for i, k in enumerate(keys.tolist())}},
    )
    los = np.concatenate([train.los, test.los])
    n_los = int(np.count_nonzero(los == LosStatus.LOS.value))
    n_nlos = int(np.count_nonzero(los == LosStatus.NLOS.value))
    print(f"episodes: {len(split.train_episode_ids)} train / {len(split.test_episode_ids)} test")
    print(f"classes: {len(keys)}")
    print(f"examples: {len(train)} train / {len(test)} test (LOS {n_los}, NLOS {n_nlos})")


def _classifier_table(reports: dict[str, dict]) -> str:
    """The accuracy table of a ``classify_report.json`` object, one row per model in key order."""
    lines = [f"{'Classifier':<16} {'All data (%)':>12} {'Only NLOS (%)':>14}"]
    for name, report in reports.items():
        nlos = "-" if report["accuracy_nlos"] is None else f"{100 * report['accuracy_nlos']:.1f}"
        lines.append(f"{name:<16} {100 * report['accuracy_all']:>12.1f} {nlos:>14}")
    return "\n".join(lines)


def cmd_classify(config: RunConfig, episodes_path: Path, out_dir: Path) -> None:
    """Run the in-repo baselines on an episode-wise split and print the table."""
    _, train, test, _ = _load_split_examples(config, episodes_path)
    columns = clf.varying_columns(train)
    x_train, y_train, _ = clf.examples_to_arrays(train, columns)  # the kNN model keeps these rows
    k = min(config.knn_k, len(y_train))  # the report names the k the model uses
    models = {
        "majority": clf.majority_classifier(x_train, y_train),
        f"knn(k={k})": clf.knn_classifier(x_train, y_train, k, columns),
    }
    del train, x_train
    x_test, y_test, nlos = clf.examples_to_arrays(test)
    del test
    reports = {name: clf.evaluate(m, x_test, y_test, nlos) for name, m in models.items()}
    print(_classifier_table(reports))
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "classify_report.json", reports)
    print(f"wrote {out_dir / 'classify_report.json'}")


def _reward_means(report: dict) -> str:
    """Each agent's mean episode reward in a ``schedule_report.json`` object, in key order."""
    episodes = report["episodes"]
    if not episodes:
        raise ValueError("no episodes")
    return "\n".join(
        f"{name}: mean episode reward "
        f"{sum(episode['agents'][name]['mean_reward'] for episode in episodes) / len(episodes):.4f}"
        for name in episodes[0]["agents"]
    )


def cmd_schedule(
    config: RunConfig, episodes_path: Path, out_dir: Path, agents: tuple[str, ...]
) -> None:
    """Build reward tables from stored rays and run the requested agents on each episode."""
    if not agents:
        raise ValueError(f"no agent named; choose from {', '.join(AGENTS)}")
    for name in agents:
        if name not in AGENTS:
            raise ValueError(f"unknown agent {name!r}; choose from {', '.join(AGENTS)}")
    episodes = []
    for record in read_episodes(episodes_path):
        table = build_reward_table(record, config.tx_array, config.rx_array, config.scheduler)
        hyper = replace(config.qlearn, seed=derive_seed(config.seed, _PURPOSE_QLEARN, record.episode_id))
        plans = {name: asdict(AGENTS[name](table, config.scheduler, hyper)) for name in agents}
        episodes.append({"episode_id": record.episode_id, "agents": plans})
    report = {"episodes": episodes}
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "schedule_report.json", report)
    csv_path = out_dir / "rewards.csv"
    with open_atomic(csv_path) as f:
        f.write(",".join(["episode", *episodes[0]["agents"]]) + "\n")
        for episode in episodes:
            means = [repr(agent["mean_reward"]) for agent in episode["agents"].values()]
            f.write(",".join([str(episode["episode_id"]), *means]) + "\n")
    print(_reward_means(report))
    print(f"wrote {out_dir / 'schedule_report.json'} and {csv_path}")


def _read_report(path: Path, render: Callable[[dict], str]) -> str:
    """``render`` applied to the JSON report at ``path``; any fault in it names the file."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return render(json.load(f))
    except (OSError, ValueError, LookupError, TypeError, AttributeError) as e:
        why = f"no key {e}" if isinstance(e, KeyError) else e
        raise ValueError(f"cannot read report {path}: {why}") from e


def cmd_report(classify_report: Path | None, schedule_report: Path | None) -> None:
    """Print the tables of previously written classify and schedule reports."""
    if classify_report is not None:
        print(_read_report(classify_report, _classifier_table))
    if schedule_report is not None:
        print(_read_report(schedule_report, _reward_means))


def _key_flag(parser: argparse.ArgumentParser, flag: str, key: str, **kwargs) -> None:
    """A flag that sets config ``key``, its ``dest``; absent from the namespace unless given."""
    metavar = flag.lstrip("-").upper().replace("-", "_")
    parser.add_argument(flag, dest=key, default=argparse.SUPPRESS, metavar=metavar, **kwargs)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beamcanyon",
        description="mmWave V2I beam-selection simulation pipeline",
    )
    parser.add_argument("--config", type=str, default=None, help="JSON run configuration")
    _key_flag(parser, "--seed", "seed", type=int, help="master seed override")
    _key_flag(parser, "--out", "output_dir", type=str, help="output directory override")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="simulate and trace episodes")
    p.add_argument("--episodes", type=int, default=20)
    _key_flag(p, "--scenes", "episode.scenes_per_episode", type=int, help="scenes per episode override")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--file", type=str, default="episodes.jsonl", help="output file name")

    p = sub.add_parser("export", help="split episodes and export ML CSVs")
    p.add_argument("episodes_file", type=str)
    _key_flag(p, "--test-fraction", "test_fraction", type=float)

    p = sub.add_parser("classify", help="run baseline classifiers on a split")
    p.add_argument("episodes_file", type=str)
    _key_flag(p, "--test-fraction", "test_fraction", type=float)
    _key_flag(p, "--knn-k", "knn_k", type=int)

    p = sub.add_parser("schedule", help="run scheduling agents and the DP optimum")
    p.add_argument("episodes_file", type=str)
    p.add_argument("--agents", type=str, default=",".join(AGENTS))
    _key_flag(p, "--n-out", "scheduler.outage_after", type=_parse_outage_after,
              help="outage threshold (int, 'inf' or 'none')")
    _key_flag(p, "--r-out", "scheduler.outage_penalty", type=float, help="outage penalty")
    _key_flag(p, "--n-rec", "scheduler.num_receivers", type=int, help="number of scheduled receivers")

    p = sub.add_parser("report", help="summarize written reports")
    p.add_argument("--classify-report", type=Path, default=None)
    p.add_argument("--schedule-report", type=Path, default=None)
    return parser


def _apply_overrides(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    """Set the config key that each given flag names in its ``dest``: ``key`` or ``section.key``."""
    for dest, value in vars(args).items():
        section, _, key = dest.rpartition(".")
        if section:
            config = replace(config, **{section: replace(getattr(config, section), **{key: value})})
        elif dest in TOP_LEVEL_KEYS:
            config = replace(config, **{dest: value})
    return config


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=os.environ.get("BEAMCANYON_LOG", "WARNING").upper())
    args = _build_parser().parse_args(argv)
    try:
        config = _apply_overrides(load_run_config(args.config), args)
        out_dir = Path(config.output_dir)
        if args.command == "generate":
            cmd_generate(config, args.episodes, out_dir / args.file, jobs=args.jobs)
        elif args.command == "export":
            cmd_export(config, Path(args.episodes_file), out_dir)
        elif args.command == "classify":
            cmd_classify(config, Path(args.episodes_file), out_dir)
        elif args.command == "schedule":
            agents = tuple(a.strip() for a in args.agents.split(",") if a.strip())
            cmd_schedule(config, Path(args.episodes_file), out_dir, agents)
        elif args.command == "report":
            cmd_report(args.classify_report, args.schedule_report)
    except Exception as e:  # one-line diagnostic, nonzero exit
        log.debug("command failed", exc_info=True)
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

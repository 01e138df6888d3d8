"""Command-line pipeline: generate, export, classify, schedule, report.

Configuration comes from an optional JSON file (schema in docs/config.md);
command-line flags override file values. The master seed is expanded into
per-purpose sub-seeds with a splitmix64 chain, so regenerating with the same
seed is reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import classify as clf
from .dataset import (
    EpisodeRecord,
    Split,
    build_episode_record,
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
from .scenario import EpisodeParams, ScenarioConfig, generate_episode, make_canyon_scenario
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

AGENT_NAMES = ("greedy", "round_robin", "tabular_q", "dp")

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
    seed: int = 0
    output_dir: str = "out"
    scenario: ScenarioConfig = ScenarioConfig()
    episode: EpisodeParams = EpisodeParams()
    trace: TraceConfig = TraceConfig()
    tx_array: ArraySpec = ArraySpec(4, 4)
    rx_array: ArraySpec = ArraySpec(4, 4)
    grid_cell: float = 1.0
    scheduler: SchedulerParams = SchedulerParams()
    test_fraction: float = 0.25
    knn_k: int = 5
    qlearn: QLearningConfig = QLearningConfig()


def _section(data: dict, name: str) -> dict:
    value = data.get(name, {})
    if not isinstance(value, dict):
        raise ValueError(f"config section {name!r} must be an object")
    return value


def load_run_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    scenario = ScenarioConfig(**_section(data, "scenario"))
    episode = EpisodeParams(**_section(data, "episode"))
    trace_raw = _section(data, "trace")
    for key in ("wall_reflection", "ground_reflection"):
        if key in trace_raw and isinstance(trace_raw[key], list):
            trace_raw[key] = complex(*trace_raw[key])
    trace = TraceConfig(**trace_raw)
    arrays = _section(data, "arrays")
    spacing = arrays.get("spacing_wavelengths", 0.5)
    tx_array = ArraySpec(*arrays.get("tx", (4, 4)), spacing_wavelengths=spacing)
    rx_array = ArraySpec(*arrays.get("rx", (4, 4)), spacing_wavelengths=spacing)
    sched_raw = _section(data, "scheduler")
    if sched_raw.get("outage_after") == "inf":
        sched_raw["outage_after"] = None
    scheduler = SchedulerParams(**sched_raw)
    qlearn = QLearningConfig(**_section(data, "qlearn"))
    return RunConfig(
        seed=data.get("seed", 0),
        output_dir=data.get("output_dir", "out"),
        scenario=scenario,
        episode=episode,
        trace=trace,
        tx_array=tx_array,
        rx_array=rx_array,
        grid_cell=data.get("grid_cell", 1.0),
        scheduler=scheduler,
        test_fraction=data.get("test_fraction", 0.25),
        knn_k=data.get("knn_k", 5),
        qlearn=qlearn,
    )


def _generate_one(args: tuple) -> EpisodeRecord:
    scenario_cfg, params, trace_cfg, episode_id = args
    scenario = make_canyon_scenario(scenario_cfg)
    episode = generate_episode(scenario, params, episode_id)
    return build_episode_record(scenario, episode, trace_cfg)


def cmd_generate(config: RunConfig, n_episodes: int, out_path: Path, jobs: int = 1) -> None:
    """Simulate episodes, trace all pairs, and write the episodes file atomically."""
    if n_episodes < 1:
        raise ValueError("need at least one episode")
    if jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {jobs}")
    tasks = [
        (
            config.scenario,
            replace(config.episode, seed=derive_seed(config.seed, _PURPOSE_EPISODE, i)),
            config.trace,
            i,
        )
        for i in range(n_episodes)
    ]
    records: list[EpisodeRecord] = []
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for record in pool.map(_generate_one, tasks):
                records.append(record)
                log.info("episode %d: %d scenes traced", record.episode_id, len(record.scenes))
    else:
        for task in tasks:
            record = _generate_one(task)
            records.append(record)
            log.info("episode %d: %d scenes traced", record.episode_id, len(record.scenes))
    records.sort(key=lambda r: r.episode_id)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_episodes(records, out_path)
    print(f"wrote {len(records)} episodes to {out_path}")


def _load_split_examples(
    config: RunConfig, episodes_path: Path
) -> tuple[Split, list, list, object]:
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
    grid = GridSpec.from_area(records[0].v2i_area, config.grid_cell)
    train_records = [by_id[i] for i in split.train_episode_ids]
    test_records = [by_id[i] for i in split.test_episode_ids]
    train, label_map = extract_examples(
        train_records, grid, config.tx_array, config.rx_array, mode="fit"
    )
    test, _ = extract_examples(
        test_records, grid, config.tx_array, config.rx_array, mode="apply", label_map=label_map
    )
    return split, train, test, label_map


def cmd_export(config: RunConfig, episodes_path: Path, out_dir: Path) -> None:
    """Fit the label map on the train side and write train/test CSVs plus the map."""
    split, train, test, label_map = _load_split_examples(config, episodes_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    export_csv(train, out_dir / "train.csv")
    export_csv(test, out_dir / "test.csv")
    with open_atomic(out_dir / "labelmap.json") as f:
        json.dump(
            {
                "num_classes": label_map.num_classes,
                "raw_to_class": {str(k): i + 1 for i, k in enumerate(label_map.ordered_keys)},
            },
            f,
            sort_keys=True,
            indent=2,
        )
    n_los = sum(1 for ex in train + test if ex.los == LosStatus.LOS)
    n_nlos = sum(1 for ex in train + test if ex.los == LosStatus.NLOS)
    print(f"episodes: {len(split.train_episode_ids)} train / {len(split.test_episode_ids)} test")
    print(f"classes: {label_map.num_classes}")
    print(f"examples: {len(train)} train / {len(test)} test (LOS {n_los}, NLOS {n_nlos})")


def _classifier_table(reports: dict[str, clf.EvalReport]) -> str:
    lines = [f"{'Classifier':<16} {'All data (%)':>12} {'Only NLOS (%)':>14}"]
    for name, report in reports.items():
        nlos = "-" if report.accuracy_nlos is None else f"{100 * report.accuracy_nlos:.1f}"
        lines.append(f"{name:<16} {100 * report.accuracy_all:>12.1f} {nlos:>14}")
    return "\n".join(lines)


def cmd_classify(config: RunConfig, episodes_path: Path, out_dir: Path) -> None:
    """Run the in-repo baselines on an episode-wise split and print the table."""
    _, train, test, _ = _load_split_examples(config, episodes_path)
    x_train, y_train, _ = clf.examples_to_arrays(train)
    x_test, y_test, nlos = clf.examples_to_arrays(test)
    models = {
        "majority": clf.majority_classifier(x_train, y_train),
        f"knn(k={config.knn_k})": clf.knn_classifier(
            x_train, y_train, min(config.knn_k, len(y_train))
        ),
    }
    reports = {name: clf.evaluate(m, x_test, y_test, nlos) for name, m in models.items()}
    print(_classifier_table(reports))
    out_dir.mkdir(parents=True, exist_ok=True)
    with open_atomic(out_dir / "classify_report.json") as f:
        json.dump(
            {name: clf.report_to_obj(rep) for name, rep in reports.items()},
            f,
            sort_keys=True,
            indent=2,
        )
    print(f"wrote {out_dir / 'classify_report.json'}")


def cmd_schedule(
    config: RunConfig, episodes_path: Path, out_dir: Path, agents: tuple[str, ...]
) -> None:
    """Build reward tables from stored rays and run the requested agents plus DP."""
    for name in agents:
        if name not in AGENT_NAMES:
            raise ValueError(f"unknown agent {name!r}; choose from {', '.join(AGENT_NAMES)}")
    records = read_episodes(episodes_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for record in records:
        table = build_reward_table(record, config.tx_array, config.rx_array, config.scheduler)
        plans = {}
        for name in agents:
            if name == "greedy":
                plans[name] = greedy_agent(table, config.scheduler)
            elif name == "round_robin":
                plans[name] = round_robin_agent(table, config.scheduler)
            elif name == "tabular_q":
                hyper = replace(
                    config.qlearn,
                    seed=derive_seed(config.seed, _PURPOSE_QLEARN, record.episode_id),
                )
                plans[name] = tabular_q_agent(table, config.scheduler, hyper)
            elif name == "dp":
                plans[name] = dp_optimal(table, config.scheduler)
        rows.append((record.episode_id, plans))

    report = {
        "episodes": [
            {
                "episode_id": episode_id,
                "agents": {
                    name: {
                        "mean_reward": plan.mean_reward,
                        "receivers": list(plan.receivers),
                        "pair_indices": list(plan.pair_indices),
                    }
                    for name, plan in plans.items()
                },
            }
            for episode_id, plans in rows
        ]
    }
    with open_atomic(out_dir / "schedule_report.json") as f:
        json.dump(report, f, sort_keys=True, indent=2)

    csv_path = out_dir / "rewards.csv"
    with open_atomic(csv_path) as f:
        f.write(",".join(["episode"] + list(agents)) + "\n")
        for episode_id, plans in rows:
            f.write(
                ",".join([str(episode_id)] + [repr(plans[a].mean_reward) for a in agents]) + "\n"
            )
    for name in agents:
        mean = sum(plans[name].mean_reward for _, plans in rows) / len(rows)
        print(f"{name}: mean episode reward {mean:.4f}")
    print(f"wrote {out_dir / 'schedule_report.json'} and {csv_path}")


def cmd_report(classify_report: Path | None, rewards_csv: Path | None) -> None:
    """Summarize previously written classify/schedule reports."""
    if classify_report is not None:
        try:
            with open(classify_report, "r", encoding="utf-8") as f:
                data = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            raise ValueError(f"cannot read report {classify_report}: {e}") from e
        reports = {
            name: clf.EvalReport(
                accuracy_all=obj["accuracy_all"],
                accuracy_nlos=obj["accuracy_nlos"],
                confusion=_confusion_from_obj(obj),
                n_examples=obj["n_examples"],
            )
            for name, obj in data.items()
        }
        print(_classifier_table(reports))
    if rewards_csv is not None:
        try:
            with open(rewards_csv, "r", encoding="utf-8") as f:
                lines = f.read().splitlines()
        except OSError as e:
            raise ValueError(f"cannot read report {rewards_csv}: {e}") from e
        if not lines:
            raise ValueError(f"cannot read report {rewards_csv}: empty file")
        names = lines[0].split(",")[1:]
        values = [line.split(",")[1:] for line in lines[1:]]
        print(f"per-episode rewards: {rewards_csv} ({len(values)} episodes)")
        for col, name in enumerate(names):
            mean = sum(float(row[col]) for row in values) / max(1, len(values))
            print(f"  {name}: mean {mean:.4f}")


def _confusion_from_obj(obj: dict) -> np.ndarray:
    return np.array(obj["confusion"], dtype=np.int64)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beamcanyon",
        description="mmWave V2I beam-selection simulation pipeline",
    )
    parser.add_argument("--config", type=str, default=None, help="JSON run configuration")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--out", type=str, default=None, help="output directory override")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="simulate and trace episodes")
    p.add_argument("--episodes", type=int, default=20)
    p.add_argument("--scenes", type=int, default=None, help="scenes per episode override")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--file", type=str, default="episodes.jsonl", help="output file name")

    p = sub.add_parser("export", help="split episodes and export ML CSVs")
    p.add_argument("episodes_file", type=str)
    p.add_argument("--test-fraction", type=float, default=None)

    p = sub.add_parser("classify", help="run baseline classifiers on a split")
    p.add_argument("episodes_file", type=str)
    p.add_argument("--test-fraction", type=float, default=None)
    p.add_argument("--knn-k", type=int, default=None)

    p = sub.add_parser("schedule", help="run scheduling agents and the DP optimum")
    p.add_argument("episodes_file", type=str)
    p.add_argument("--agents", type=str, default="greedy,round_robin,tabular_q,dp")
    p.add_argument("--n-out", type=str, default=None, help="outage threshold (int or 'inf')")
    p.add_argument("--r-out", type=float, default=None, help="outage penalty")
    p.add_argument("--n-rec", type=int, default=None, help="number of scheduled receivers")

    p = sub.add_parser("report", help="summarize written reports")
    p.add_argument("--classify-report", type=str, default=None)
    p.add_argument("--rewards-csv", type=str, default=None)
    return parser


def _apply_overrides(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.out is not None:
        config = replace(config, output_dir=args.out)
    if getattr(args, "scenes", None) is not None:
        config = replace(
            config, episode=replace(config.episode, scenes_per_episode=args.scenes)
        )
    if getattr(args, "test_fraction", None) is not None:
        config = replace(config, test_fraction=args.test_fraction)
    if getattr(args, "knn_k", None) is not None:
        config = replace(config, knn_k=args.knn_k)
    scheduler = config.scheduler
    if getattr(args, "n_out", None) is not None:
        outage = None if args.n_out.lower() in ("inf", "none") else int(args.n_out)
        scheduler = replace(scheduler, outage_after=outage)
    if getattr(args, "r_out", None) is not None:
        scheduler = replace(scheduler, outage_penalty=args.r_out)
    if getattr(args, "n_rec", None) is not None:
        scheduler = replace(scheduler, num_receivers=args.n_rec)
    return replace(config, scheduler=scheduler)


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
            cmd_report(
                Path(args.classify_report) if args.classify_report else None,
                Path(args.rewards_csv) if args.rewards_csv else None,
            )
    except Exception as e:  # one-line diagnostic, nonzero exit
        log.debug("command failed", exc_info=True)
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

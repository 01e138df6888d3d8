"""In-process traced run of the beamcanyon CLI stages.

Usage: python3 bench/tracer.py PLAN.json [--no-spans]   (with src/ on PYTHONPATH)

PLAN.json holds ``stages`` (a list of [stage name, beamcanyon argv]) and
``result`` (where to write the metrics). Each stage runs through
``beamcanyon.cli.main`` in this process, with the public functions of each
layer wrapped in spans: busy time summed over calls, and counts taken from
their arguments and results at the same boundary. A span's time includes the
spans nested under it; ``cli.stage_overhead_s`` is each stage's time minus its
outermost layer spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
from collections import defaultdict

# (module, function) -> metric name prefix of its busy time
LAYERS = {
    ("scenario", "generate_episode"): "scenario.generate_episode",
    ("scenario", "step_traffic"): "scenario.step_traffic",
    ("raytrace", "trace_paths"): "raytrace.trace_paths",
    ("dataset", "write_episodes"): "dataset.write_episodes",
    ("dataset", "read_episodes"): "dataset.read_episodes",
    ("dataset", "extract_examples"): "dataset.extract_examples",
    ("dataset", "export_csv"): "dataset.export_csv",
    ("mimo", "compose_channel"): "mimo.compose_channel",
    ("mimo", "sweep"): "mimo.sweep",
    ("features", "encode_scene"): "features.encode_scene",
    ("features", "encode_for_receiver"): "features.encode_for_receiver",
    ("classify", "examples_to_arrays"): "classify.examples_to_arrays",
    ("classify", "predict"): "classify.predict",
    ("scheduler", "build_reward_table"): "scheduler.build_reward_table",
    ("scheduler", "tabular_q_agent"): "scheduler.tabular_q",
    ("scheduler", "dp_optimal"): "scheduler.dp_optimal",
    ("scheduler", "greedy_agent"): "scheduler.greedy",
    ("scheduler", "round_robin_agent"): "scheduler.round_robin",
}

# wall planes (2) plus the ground: bounce sequences of length k number 3 * 2**(k - 1)
N_PLANES = 3

PER_LAYER = [
    ("scenario.generate_episode_s", "s"), ("scenario.step_traffic_s", "s"),
    ("scenario.step_traffic_calls", "count"), ("scenario.vehicle_steps", "count"),
    ("raytrace.trace_paths_s", "s"), ("raytrace.pairs", "count"), ("raytrace.rays", "count"),
    ("raytrace.candidates", "count"), ("raytrace.kept_ratio", "ratio"),
    ("raytrace.los_pairs", "count"), ("raytrace.nopath_pairs", "count"),
    ("dataset.write_episodes_s", "s"), ("dataset.episodes_bytes", "bytes"),
    ("dataset.read_episodes_s", "s"), ("dataset.read_episodes_calls", "count"),
    ("dataset.extract_examples_s", "s"), ("dataset.examples", "count"),
    ("dataset.export_csv_s", "s"), ("dataset.csv_rows", "count"), ("dataset.csv_bytes", "bytes"),
    ("mimo.compose_channel_s", "s"), ("mimo.sweep_s", "s"), ("mimo.sweeps", "count"),
    ("mimo.sweeps_per_pair", "ratio"),
    ("features.encode_scene_s", "s"), ("features.encode_scene_calls", "count"),
    ("features.encode_for_receiver_s", "s"),
    ("classify.examples_to_arrays_s", "s"), ("classify.predict_s", "s"),
    ("classify.train_examples", "count"), ("classify.test_examples", "count"),
    ("classify.feature_bytes", "bytes"),
    ("scheduler.build_reward_table_s", "s"), ("scheduler.tabular_q_s", "s"),
    ("scheduler.q_updates", "count"), ("scheduler.dp_optimal_s", "s"),
    ("scheduler.dp_states", "count"), ("scheduler.greedy_s", "s"),
    ("scheduler.round_robin_s", "s"),
    ("cli.stage_overhead_s", "s"),
]


class Tracer:
    def __init__(self) -> None:
        self.values: dict[str, float] = defaultdict(float)
        self.depth = 0
        self.outer = 0.0  # time in outermost spans during the current stage
        self.arrays_calls = 0

    def wrap(self, fn, name: str):
        def span(*args, **kwargs):
            self.depth += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.depth -= 1
                self.values[name + "_s"] += elapsed
                if self.depth == 0:
                    self.outer += elapsed
            self.count(name, args, kwargs, result)
            return result

        return span

    def count(self, name: str, args: tuple, kwargs: dict, result) -> None:
        v = self.values
        if name == "scenario.step_traffic":
            v["scenario.step_traffic_calls"] += 1
            v["scenario.vehicle_steps"] += len(args[0].vehicles)
        elif name == "raytrace.trace_paths":
            cfg = args[3] if len(args) > 3 else kwargs["cfg"]
            v["raytrace.pairs"] += 1
            v["raytrace.rays"] += len(result.rays)
            v["raytrace.candidates"] += 1 + sum(
                N_PLANES * 2 ** (k - 1) for k in range(1, cfg.max_reflections + 1)
            )
            v["raytrace.los_pairs"] += any(r.interactions == "LOS" for r in result.rays)
            v["raytrace.nopath_pairs"] += not result.rays
        elif name == "dataset.write_episodes":
            v["dataset.episodes_bytes"] += os.path.getsize(args[1])
        elif name == "dataset.read_episodes":
            v["dataset.read_episodes_calls"] += 1
        elif name == "dataset.extract_examples":
            v["dataset.examples"] += len(result[0])
        elif name == "dataset.export_csv":
            v["dataset.csv_rows"] += len(args[0])
            v["dataset.csv_bytes"] += os.path.getsize(args[1])
        elif name == "mimo.sweep":
            v["mimo.sweeps"] += 1
        elif name == "features.encode_scene":
            v["features.encode_scene_calls"] += 1
        elif name == "classify.examples_to_arrays":
            # cmd_classify converts the training side first, then the test side
            side = "train" if self.arrays_calls % 2 == 0 else "test"
            self.arrays_calls += 1
            v[f"classify.{side}_examples"] += len(result[1])
            v["classify.feature_bytes"] += result[0].nbytes
        elif name == "scheduler.tabular_q":
            table, hyper = args[0], args[2] if len(args) > 2 else kwargs.get("hyper")
            episodes = hyper.training_episodes if hyper is not None else 1000
            v["scheduler.q_updates"] += episodes * table.n_scenes
        elif name == "scheduler.dp_optimal":
            table, params = args[0], args[1]
            if params.outage_after is not None:
                states = (params.outage_after + 1) ** params.num_receivers
                v["scheduler.dp_states"] += states * table.n_scenes

    def install(self) -> None:
        """Replace every binding of each layer function in the beamcanyon modules."""
        import importlib

        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "beamcanyon"]
        for (module, function), name in LAYERS.items():
            original = getattr(importlib.import_module(f"beamcanyon.{module}"), function, None)
            if original is None:
                continue
            wrapper = self.wrap(original, name)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)


def main(plan_path: str, spans: bool = True) -> int:
    with open(plan_path, "r", encoding="utf-8") as f:
        plan = json.load(f)
    from beamcanyon import cli

    tracer = Tracer()
    if spans:
        tracer.install()
    exit_codes = {}
    stage_s = {}
    for name, argv in plan["stages"]:
        tracer.outer = 0.0
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            exit_codes[name] = cli.main(argv)
        stage_s[name] = time.perf_counter() - start
        tracer.values["cli.stage_overhead_s"] += stage_s[name] - tracer.outer

    v = tracer.values
    v["raytrace.kept_ratio"] = v["raytrace.rays"] / v["raytrace.candidates"] if v["raytrace.candidates"] else 0.0
    swept = v["raytrace.pairs"] - v["raytrace.nopath_pairs"]
    v["mimo.sweeps_per_pair"] = v["mimo.sweeps"] / swept if swept else 0.0
    metrics = {
        name: {"value": v[name] if unit in ("s", "ratio") else int(v[name]), "unit": unit}
        for name, unit in PER_LAYER
    }
    with open(plan["result"], "w", encoding="utf-8") as f:
        json.dump({"metrics": metrics, "exit_codes": exit_codes, "stage_s": stage_s}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], spans="--no-spans" not in sys.argv[2:]))

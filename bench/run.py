#!/usr/bin/env python3
"""Pipeline benchmark: the four beamcanyon CLI stages, end to end, on one workload.

Run from the repository root:

    python3 bench/run.py --workload desk --seed 7 --seconds 10 --trace 0
    python3 bench/run.py --workload all          # every workload, default seeds

Each stage (generate, export, classify, schedule) runs as its own child
process, one at a time, from the sources under ``src/``. A run repeats the
whole pipeline in fresh output directories until ``--seconds`` have passed
(at least twice, so that repeat runs of one seed can be compared byte for
byte) and reports medians over those rounds. Each round also runs
``schedule`` once on a fixed input that hits a known fault; see
``SCHEDULE_SEED`` below. Outputs are then checked by ``checks.py``, which
recomputes them without importing the program.

``--trace 1`` instead runs one checked round through the CLI, then the same
four stages in-process under ``tracer.py``, which wraps each layer's public
functions, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
RUNS_DIR = ROOT / ".bench_runs"
STAGES = ("generate", "export", "classify", "schedule")
OUTPUT_FILES = (
    "episodes.jsonl",
    "train.csv",
    "test.csv",
    "labelmap.json",
    "classify_report.json",
    "schedule_report.json",
    "rewards.csv",
)
AGENTS = "greedy,round_robin,tabular_q,dp"
N_OUT = 3
R_OUT = -3.0
KNN_K = 5
MIN_ROUNDS = 2
SETUP_SAMPLES = 7
DEFAULT_SEED = 7
# schedule aborts on inputs where, in some scene, none of the scheduled receivers has a
# path (1.5-5% of seeds, depending on the workload). So that no stage fails on some seeds
# only, schedule always runs on the workload's episodes at this seed, where it completes...
SCHEDULE_SEED = 7
# ...and every round also runs schedule on a fixed input that hits the fault: three
# desk-scale episodes at seed 71, where receivers 1 and 2 have no path in episode 2,
# scenes 8-9. It fails every time until the fault is mended, and counts in `failed`.
FAULT_SEED = 71
FAULT_EPISODES = 3


@dataclass(frozen=True)
class Workload:
    episodes: int
    scenes: int
    receivers: int
    jobs: int
    test_fraction: float
    n_rec: int

    def config(self) -> dict | None:
        """Run-configuration file contents, or None when the defaults apply."""
        if self.receivers == 10:
            return None
        return {"episode": {"receiver_count": self.receivers}}

    def generate_args(self, jobs: int) -> list:
        return ["generate", "--episodes", str(self.episodes), "--scenes", str(self.scenes),
                "--jobs", str(jobs)]


WORKLOADS = {
    # the README walkthrough at desk scale: every layer does a moderate share
    "desk": Workload(20, 10, 10, 1, 0.3, 2),
    # few long episodes: tracing is most of generate, the largest CSVs and kNN split,
    # Q-learning and DP over long horizons, and the only use of the --jobs pool
    "long-episodes": Workload(4, 80, 10, 2, 0.25, 3),
    # many short two-receiver episodes: traffic warm-up is most of generate, the tracer
    # has almost no receivers per scene to share work across, and scene encoding is a
    # large share of example extraction
    "two-receivers": Workload(40, 10, 2, 1, 0.25, 2),
}

END_TO_END = [("setup_s", "s")] + [(f"{s}_s", "s") for s in STAGES] + [
    ("pipeline_s", "s"),
    ("pipeline_cpu_s", "s"),
] + [(f"{s}_rss_mb", "MB") for s in STAGES]


@dataclass(frozen=True)
class Inputs:
    """Files one run prepares before timing: the config file and the fixed schedule inputs."""

    config: Path | None
    schedule: Path
    fault: Path


def common(seed: int, out: Path, config: Path | None) -> list:
    return ["--seed", str(seed), "--out", str(out)] + (["--config", str(config)] if config else [])


def schedule_argv(n_rec: int, seed: int, out: Path, config: Path | None, episodes: Path) -> list:
    return common(seed, out, config) + ["schedule", str(episodes), "--agents", AGENTS,
                                        "--n-rec", str(n_rec), "--n-out", str(N_OUT),
                                        "--r-out", repr(R_OUT)]


def stage_argvs(w: Workload, seed: int, out: Path, inputs: Inputs, jobs: int) -> list:
    """(stage name, beamcanyon argv) for the four stages of one pipeline round."""
    episodes = str(out / "episodes.jsonl")
    split = ["--test-fraction", repr(w.test_fraction)]
    return [
        ("generate", common(seed, out, inputs.config) + w.generate_args(jobs)),
        ("export", common(seed, out, inputs.config) + ["export", episodes] + split),
        ("classify", common(seed, out, inputs.config) + ["classify", episodes] + split
         + ["--knn-k", str(KNN_K)]),
        ("schedule", schedule_argv(w.n_rec, SCHEDULE_SEED, out, inputs.config, inputs.schedule)),
    ]


def fault_argv(out: Path, inputs: Inputs) -> list:
    return schedule_argv(2, FAULT_SEED, out / "fault", None, inputs.fault)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_child(argv: list, log: Path) -> tuple[int, float, float, float]:
    """Run one child to completion: (exit code, wall s, user+sys CPU s, peak RSS MB).

    ``wait4`` reports the child together with the descendants it reaped (the
    ``--jobs`` workers), so CPU time covers the whole pool and peak RSS is that
    of the largest process.
    """
    with open(log, "ab") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=out, env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024 / 1e6


def measure_setup(work: Path) -> float:
    """Median wall time of a fresh interpreter importing beamcanyon.cli (after one warm-up)."""
    argv = [sys.executable, "-c", "import beamcanyon.cli"]
    times = []
    for i in range(SETUP_SAMPLES + 1):
        code, wall, _, _ = run_child(argv, work / "setup.log")
        if code != 0:
            raise RuntimeError("cannot import beamcanyon.cli: " + tail(work / "setup.log"))
        if i:
            times.append(wall)
    return statistics.median(times)


def tail(log: Path, lines: int = 5) -> str:
    text = log.read_text(errors="replace").strip().splitlines() if log.exists() else []
    return " | ".join(text[-lines:])


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cached_episodes(name: str, seed: int, generate: list, config: dict | None, episodes: int) -> Path:
    """An episodes file generated and checked once per source tree, then reused by later runs."""
    key = hashlib.sha256(json.dumps([source_digest(), seed, generate, config]).encode()).hexdigest()
    final = RUNS_DIR / "inputs" / f"{name}-{key[:16]}"
    if not (final / "episodes.jsonl").exists():
        tmp = final.with_name(f"{final.name}.tmp{os.getpid()}")
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        config_path = None
        if config is not None:
            config_path = tmp / "config.json"
            config_path.write_text(json.dumps(config, sort_keys=True))
        argv = [sys.executable, "-m", "beamcanyon"] + common(seed, tmp, config_path) + generate
        if run_child(argv, tmp / "generate.log")[0]:
            raise RuntimeError(f"cannot generate the {name} input: " + tail(tmp / "generate.log"))
        errors = checks.check_episodes(checks.load_episodes(tmp / "episodes.jsonl", episodes))
        if errors:
            raise RuntimeError(f"the {name} input fails its checks: " + "; ".join(errors[:5]))
        try:
            tmp.rename(final)
        except OSError:  # another run made it first
            shutil.rmtree(tmp, ignore_errors=True)
    return final / "episodes.jsonl"


def prepare_inputs(w: Workload, work: Path) -> Inputs:
    """Write the config file and fetch the two fixed schedule inputs; none of it is timed."""
    config = None
    if w.config() is not None:
        config = work / "config.json"
        config.write_text(json.dumps(w.config(), sort_keys=True))
    fault = ["generate", "--episodes", str(FAULT_EPISODES), "--scenes", "10"]
    return Inputs(
        config,
        cached_episodes(f"schedule-{w.episodes}x{w.scenes}x{w.receivers}", SCHEDULE_SEED,
                        w.generate_args(w.jobs), w.config(), w.episodes),
        cached_episodes("fault", FAULT_SEED, fault, None, FAULT_EPISODES),
    )


def round_ops(w: Workload, seed: int, out: Path, inputs: Inputs) -> list:
    """The four stages plus the schedule run on the fixed input that hits the known fault."""
    return stage_argvs(w, seed, out, inputs, w.jobs) + [("schedule-fault", fault_argv(out, inputs))]


def run_round(ops: list, out: Path) -> dict:
    """Run the operations in order; export and classify fail unrun when generate failed."""
    out.mkdir(parents=True)
    results = {}
    for name, argv in ops:
        if name in ("export", "classify") and not results["generate"]["ok"]:
            results[name] = {"ok": False, "ran": False}
            continue
        log = out / f"{name}.log"
        code, wall, cpu, rss = run_child([sys.executable, "-m", "beamcanyon"] + argv, log)
        results[name] = {"ok": code == 0, "ran": True, "wall": wall, "cpu": cpu, "rss": rss}
        if code != 0 and name != "schedule-fault":
            print(f"stage {name} failed (exit {code}): {tail(log)}", file=sys.stderr)
    return results


def digests(out: Path) -> dict:
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in OUTPUT_FILES
        if (out / name).exists()
    }


def check_outputs(out: Path, w: Workload, seed: int, ok: dict, schedule_episodes: list) -> list[str]:
    """Every output check that applies to the stages that succeeded in this round."""
    errors = []
    if ok["generate"]:
        episodes = checks.load_episodes(out / "episodes.jsonl", w.episodes)
        errors += checks.check_episodes(episodes)
        if ok["export"]:
            errors += checks.check_csvs(out, episodes, seed, w.test_fraction)
        if ok["export"] and ok["classify"]:
            errors += checks.check_classify(out, KNN_K)
    if ok["schedule"]:
        errors += checks.check_schedule(out, schedule_episodes, w.n_rec, N_OUT, R_OUT,
                                        AGENTS.split(","))
    return errors


def compare_digests(name: str, reference: dict, other: dict) -> list[str]:
    return [
        f"{name}: {f} differs from the first round"
        for f in sorted(set(reference) | set(other))
        if reference.get(f) != other.get(f)
    ]


def timed_run(w: Workload, seed: int, seconds: float, work: Path, inputs: Inputs,
              schedule_episodes: list) -> dict:
    setup = measure_setup(work)
    rounds = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        out = work / f"round-{len(rounds)}"
        rounds.append((out, run_round(round_ops(w, seed, out, inputs), out)))

    first_out, first = rounds[0]
    errors = check_outputs(first_out, w, seed, {k: r["ok"] for k, r in first.items()},
                           schedule_episodes)
    reference = digests(first_out)
    for out, _ in rounds[1:]:
        errors += compare_digests(out.name, reference, digests(out))

    def median(key, stage):
        values = [r[stage][key] for _, r in rounds if r[stage]["ran"]]
        return statistics.median(values) if values else 0.0

    def per_round_sum(key):
        return statistics.median(
            [sum(r[s][key] for s in STAGES if r[s]["ran"]) for _, r in rounds]
        )

    metrics = {"setup_s": setup}
    for s in STAGES:
        metrics[f"{s}_s"] = median("wall", s)
    metrics["pipeline_s"] = per_round_sum("wall")
    metrics["pipeline_cpu_s"] = per_round_sum("cpu")
    for s in STAGES:
        metrics[f"{s}_rss_mb"] = median("rss", s)
    return {
        "errors": errors,
        "attempted": sum(len(r) for _, r in rounds),
        "failed": sum(not op["ok"] for _, r in rounds for op in r.values()),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END},
        "rounds": len(rounds),
    }


def traced_run(w: Workload, seed: int, work: Path, inputs: Inputs, schedule_episodes: list) -> dict:
    """One checked CLI round, then the four stages in-process under tracer.py."""
    plain = work / "round-0"
    results = run_round(round_ops(w, seed, plain, inputs), plain)
    ok = {name: r["ok"] for name, r in results.items()}
    errors = check_outputs(plain, w, seed, ok, schedule_episodes)

    traced = work / "traced"
    traced.mkdir()
    plan = {
        # one generate process, so that every episode's spans are recorded here
        "stages": stage_argvs(w, seed, traced, inputs, 1),
        "result": str(traced / "trace.json"),
    }
    (traced / "plan.json").write_text(json.dumps(plan))
    log = traced / "trace.log"
    if run_child([sys.executable, str(BENCH_DIR / "tracer.py"), str(traced / "plan.json")], log)[0]:
        raise RuntimeError("traced run failed: " + tail(log))
    trace = json.loads((traced / "trace.json").read_text())
    traced_ok = {name: code == 0 for name, code in trace["exit_codes"].items()}
    errors += check_outputs(traced, w, seed, traced_ok, schedule_episodes)
    errors += compare_digests("traced (one process)", digests(plain), digests(traced))
    # the fault input once more, so that traced runs fail the same share as timed ones
    traced_ok["schedule-fault"] = run_child(
        [sys.executable, "-m", "beamcanyon"] + fault_argv(traced, inputs), traced / "fault.log"
    )[0] == 0
    return {
        "errors": errors,
        "attempted": len(ok) + len(traced_ok),
        "failed": sum(not v for v in ok.values()) + sum(not v for v in traced_ok.values()),
        "metrics": trace["metrics"],
        "rounds": 1,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, keep: bool) -> dict:
    w = WORKLOADS[name]
    work = RUNS_DIR / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = prepare_inputs(w, work)
        schedule_episodes = checks.load_episodes(inputs.schedule, w.episodes)
        if trace:
            result = traced_run(w, seed, work, inputs, schedule_episodes)
        else:
            result = timed_run(w, seed, seconds, work, inputs, schedule_episodes)
    finally:
        if not keep:
            shutil.rmtree(work, ignore_errors=True)
    for error in result["errors"][:20]:
        print(f"CHECK FAILED [{name}]: {error}", file=sys.stderr)
    if len(result["errors"]) > 20:
        print(f"... and {len(result['errors']) - 20} more", file=sys.stderr)
    return result


def print_table(name: str, seed: int, result: dict) -> None:
    print(f"== {name} (seed {seed}, {result['rounds']} round(s), "
          f"{result['attempted']} operations attempted, {result['failed']} failed, "
          f"checks {'passed' if not result['errors'] else 'FAILED'})")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:<34} {entry['value']:>14.6g} {entry['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--keep", action="store_true", help="keep the output directories")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "beamcanyon" / "__init__.py").is_file():
        print("error: run from the repository root; src/beamcanyon is missing", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), args.keep)
        print_table(name, args.seed, results[name])
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{metric}": entry
                   for name, r in results.items() for metric, entry in r["metrics"].items()}
    print(json.dumps({
        "correct": all(not r["errors"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

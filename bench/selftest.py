#!/usr/bin/env python3
"""Self-test of the benchmark's output checks: each must reject a corrupted copy.

Run from the repository root:

    python3 bench/selftest.py

It runs a small pipeline (4 episodes x 6 scenes x 3 receivers) through the
CLI, requires every check to pass on it, then corrupts one copy per check and
requires that check to fail: a shifted ray delay, a dropped LOS ray, a
swapped label, a changed grid cell, a flipped kNN prediction and a
non-optimal ``dp`` plan.
Exits 0 when every corruption is rejected.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
from pathlib import Path

import checks
import run

SMALL = run.Workload(4, 6, 3, 1, 0.25, 2)
SEED = 7


def rewrite_episodes(out: Path, mutate) -> None:
    """Apply ``mutate`` to the first pair it accepts (it returns True) and rewrite the file."""
    path = out / "episodes.jsonl"
    lines = path.read_text().splitlines()
    episodes = [json.loads(line) for line in lines[1:]]
    for ep in episodes:
        for scene in ep["scenes"]:
            for pair in scene["pairs"]:
                if mutate(pair):
                    body = [json.dumps(e, sort_keys=True, separators=(",", ":")) for e in episodes]
                    path.write_text("\n".join([lines[0]] + body) + "\n")
                    return
    raise AssertionError("no pair to corrupt")


def shift_delay(out: Path) -> list[str]:
    def mutate(pair):
        if not pair["rays"]:
            return False
        pair["rays"][0]["delay"] += 1e-9  # 30 cm
        return True

    rewrite_episodes(out, mutate)
    return checks.check_episodes(checks.load_episodes(out / "episodes.jsonl", SMALL.episodes))


def drop_los(out: Path) -> list[str]:
    """Remove a LOS ray and keep the pair summaries consistent with the remaining rays."""
    def mutate(pair):
        rest = [r for r in pair["rays"] if r["interactions"] != "LOS"]
        if len(rest) == len(pair["rays"]) or not rest:
            return False
        pair["rays"] = rest
        powers = [abs(complex(*r["gain"])) ** 2 for r in rest]
        pair["p_rx_dbm"] = pair["p_tx_dbm"] + 10 * math.log10(sum(powers))
        pair["mean_toa"] = sum(p * r["delay"] for p, r in zip(powers, rest)) / sum(powers)
        return True

    rewrite_episodes(out, mutate)
    return checks.check_episodes(checks.load_episodes(out / "episodes.jsonl", SMALL.episodes))


def swap_label(out: Path) -> list[str]:
    path = out / "train.csv"
    lines = path.read_text().splitlines()
    labels = [line.rsplit(",", 8)[1] for line in lines[1:]]
    i = 1 + next(k for k, label in enumerate(labels) if label != labels[0])
    for row, label in ((1, labels[i - 1]), (i, labels[0])):
        fields = lines[row].rsplit(",", 8)
        fields[1] = label
        lines[row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    episodes = checks.load_episodes(out / "episodes.jsonl", SMALL.episodes)
    return checks.check_csvs(out, episodes, SEED, SMALL.test_fraction)


def change_cell(out: Path) -> list[str]:
    """Mark one free cell of the first test row as a truck."""
    path = out / "test.csv"
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[cells.index("0")] = "-2"
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    episodes = checks.load_episodes(out / "episodes.jsonl", SMALL.episodes)
    return checks.check_csvs(out, episodes, SEED, SMALL.test_fraction)


def flip_knn(out: Path) -> list[str]:
    path = out / "classify_report.json"
    report = json.loads(path.read_text())
    name = next(n for n in report if n.startswith("knn"))
    confusion = report[name]["confusion"]
    n = report[name]["n_examples"]
    true = next(t for t, row in enumerate(confusion) if sum(row) > 0)
    pred = max(range(len(confusion)), key=lambda p: confusion[true][p])
    other = (pred + 1) % len(confusion)
    confusion[true][pred] -= 1
    confusion[true][other] += 1
    correct = sum(confusion[k][k] for k in range(len(confusion)))
    report[name]["accuracy_all"] = correct / n
    path.write_text(json.dumps(report, sort_keys=True, indent=2))
    return checks.check_classify(out, run.KNN_K)


def suboptimal_dp(out: Path) -> list[str]:
    """Flip one served receiver of a dp plan to a strictly worse plan; keep its reward consistent."""
    path = out / "schedule_report.json"
    report = json.loads(path.read_text())
    episodes = checks.load_episodes(out / "episodes.jsonl", SMALL.episodes)
    for entry, episode in zip(report["episodes"], episodes):
        table = checks.reward_table(episode, SMALL.n_rec)
        plan = entry["agents"]["dp"]
        for s in range(len(plan["receivers"])):
            receivers = list(plan["receivers"])
            receivers[s] = 1 - receivers[s]
            pairs = list(plan["pair_indices"])
            pairs[s] = int(table[s, receivers[s]].argmax())
            value = checks.replay(table, receivers, pairs, run.N_OUT, run.R_OUT)
            if value < plan["mean_reward"] - 1e-6:
                plan.update(receivers=receivers, pair_indices=pairs, mean_reward=value)
                path.write_text(json.dumps(report, sort_keys=True, indent=2))
                lines = (out / "rewards.csv").read_text().splitlines()
                agents = lines[0].split(",")[1:]
                rows = [lines[0]] + [
                    ",".join([str(e["episode_id"])] + [repr(e["agents"][a]["mean_reward"]) for a in agents])
                    for e in report["episodes"]
                ]
                (out / "rewards.csv").write_text("\n".join(rows) + "\n")
                return checks.check_schedule(out, episodes, SMALL.n_rec, run.N_OUT, run.R_OUT,
                                             run.AGENTS.split(","))
    raise AssertionError("no dp plan has a strictly worse single-scene variant")


CORRUPTIONS = {
    "shifted ray delay": shift_delay,
    "dropped LOS ray": drop_los,
    "swapped label": swap_label,
    "changed grid cell": change_cell,
    "flipped kNN prediction": flip_knn,
    "non-optimal dp plan": suboptimal_dp,
}


def main() -> int:
    work = run.RUNS_DIR / f"selftest-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        clean = work / "clean"
        config = work / "config.json"
        config.write_text(json.dumps(SMALL.config()))
        # the small run schedules its own episodes
        inputs = run.Inputs(config, clean / "episodes.jsonl", clean / "episodes.jsonl")
        results = run.run_round(run.stage_argvs(SMALL, SEED, clean, inputs, 1), clean)
        if not all(r["ok"] for r in results.values()):
            print("FAIL: the small pipeline did not run")
            return 1
        episodes = checks.load_episodes(clean / "episodes.jsonl", SMALL.episodes)
        errors = run.check_outputs(clean, SMALL, SEED, {k: True for k in results}, episodes)
        print(f"{'PASS' if not errors else 'FAIL'}: clean run passes every check")
        for error in errors[:10]:
            print("   ", error)
        failures = bool(errors)
        for name, corrupt in CORRUPTIONS.items():
            copy = work / name.replace(" ", "-")
            shutil.copytree(clean, copy)
            errors = corrupt(copy)
            print(f"{'PASS' if errors else 'FAIL'}: {name} is rejected"
                  + (f" ({errors[0]})" if errors else ""))
            failures |= not errors
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

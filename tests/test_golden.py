"""Golden digests: the whole CLI pipeline writes the same bytes at a fixed seed.

The digests below were recorded with the numpy version named beside them.
numpy's random streams and float kernels may differ between versions, so on
another version the test is skipped rather than failed. A digest may change
only with a CHANGES.md entry saying why; never re-pin one to make a change pass.
"""

import hashlib
import json

import numpy as np
import pytest

from beamcanyon.cli import main

PINNED_NUMPY = "2.4.6"

# --seed 7: generate 6 x 10 scenes, export and classify at --test-fraction 0.3,
# schedule --n-rec 2 (default outage rules)
GOLDEN = {
    "episodes.jsonl": "fe66200435d47a87a388326c7717cc805e3e01610407f32c519e7e61876015e7",
    "train.csv": "3c118f576408f8e2b3e201118cdc674bb663454554840b02f02638101c3d9390",
    "test.csv": "8723878db09f449ef7b15b48ddd7d5300cc7ea643346288a33c0d06bbfe84400",
    "labelmap.json": "bef2673584a48a71a82ce5addac9389ff53f4d4058472d27dbe135f86ee861ac",
    "classify_report.json": "8a6ecf52ad1cd24a565108b10087fcec7f7286524bedc22492495dc3a2e33944",
    "schedule_report.json": "219c7c263403d5a0a37c75cf58acd2c4bcd5251e7140ba51cd2916de05ad6f81",
    "rewards.csv": "0a0ab78d1c6bb7e6530531e433a5ce2a45f88d0fe152f77baf5125ddb4e40ed7",
}

# the same run with two receivers per episode and half-metre grid cells, so the
# occupancy grid is 46 x 500 and a scene grid can hold receiver codes 1 and 2
TWO_RECEIVER_CONFIG = {"episode": {"receiver_count": 2}, "grid_cell": 0.5}
GOLDEN_TWO_RECEIVERS = {
    "train.csv": "80fc04414a8515da6b8462a2612cfc67638fb9011b55f904d7f2e6f3c0ab46fc",
    "test.csv": "5ef190f595422573b91eb47dd49bb8e15eb8bf86ae54001ddf4d4213fa75e8ff",
    "labelmap.json": "cf4ebf641cb906de35fae5d3d84faaf8fbb63f8545b6dd9eb81ca46a5eb4b353",
    "classify_report.json": "7b495051f355dd26295b9fbaa6762fb3ae12c38ed2bd74dba0a911b9c9682b92",
}

# the first case's episodes scheduled over three receivers with a two-scene
# outage threshold and a -2.5 penalty, so DP and Q-learning plan over 27 states
SCHEDULE_THREE_RECEIVERS = ["--n-rec", "3", "--n-out", "2", "--r-out", "-2.5"]
GOLDEN_SCHEDULE_THREE_RECEIVERS = {
    "schedule_report.json": "0c9fa282c71f69eb9674cbcbf9523176bcc0e6c3ee0b4b0351636edbd64b8f17",
    "rewards.csv": "cd310be9f7c03daf35b78121e5079eb3b71b999bb08f00c3e3b83db7c117e8a1",
}

# the first case's episodes classified at --knn-k 1 and at --knn-k 25; both cut the
# neighbour list through equidistant train rows on about half the test rows
GOLDEN_KNN_K = {
    "1": "8f11a582db1d36e9c2f9abca64bb6e5fa30bd5b3fb4dd4ccc9e323f5a0ffd1f5",
    "25": "933f70cd024df4951e7f05f009c0ee690cbf2261fe826f97eeecb6b57e398b7a",
}

pinned_numpy = pytest.mark.skipif(
    np.__version__ != PINNED_NUMPY,
    reason=f"golden digests were pinned with numpy {PINNED_NUMPY}, found {np.__version__}",
)


def _run(tmp_path, stages, names, config=None):
    common = ["--seed", "7", "--out", str(tmp_path)]
    if config is not None:
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        common += ["--config", str(config_path)]
    for argv in stages:
        assert main(common + argv) == 0, argv[0]
    return {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in names}


@pinned_numpy
def test_pipeline_outputs_match_golden_digests(tmp_path, capsys):
    episodes = str(tmp_path / "episodes.jsonl")
    stages = [
        ["generate", "--episodes", "6", "--scenes", "10"],
        ["export", episodes, "--test-fraction", "0.3"],
        ["classify", episodes, "--test-fraction", "0.3"],
        ["schedule", episodes, "--n-rec", "2"],
    ]
    digests = _run(tmp_path, stages, GOLDEN)
    capsys.readouterr()
    assert digests == GOLDEN


@pinned_numpy
def test_two_receiver_half_metre_grid_matches_golden_digests(tmp_path, capsys):
    episodes = str(tmp_path / "episodes.jsonl")
    stages = [
        ["generate", "--episodes", "6", "--scenes", "10"],
        ["export", episodes, "--test-fraction", "0.3"],
        ["classify", episodes, "--test-fraction", "0.3"],
    ]
    digests = _run(tmp_path, stages, GOLDEN_TWO_RECEIVERS, TWO_RECEIVER_CONFIG)
    capsys.readouterr()
    assert digests == GOLDEN_TWO_RECEIVERS


@pinned_numpy
def test_three_receiver_schedule_matches_golden_digests(tmp_path, capsys):
    episodes = str(tmp_path / "episodes.jsonl")
    stages = [
        ["generate", "--episodes", "6", "--scenes", "10"],
        ["schedule", episodes] + SCHEDULE_THREE_RECEIVERS,
    ]
    digests = _run(tmp_path, stages, GOLDEN_SCHEDULE_THREE_RECEIVERS)
    capsys.readouterr()
    assert digests == GOLDEN_SCHEDULE_THREE_RECEIVERS


@pinned_numpy
def test_knn_k_one_and_twenty_five_match_golden_digests(tmp_path, capsys):
    episodes = str(tmp_path / "episodes.jsonl")
    _run(tmp_path, [["generate", "--episodes", "6", "--scenes", "10"]], [])
    digests = {
        k: _run(tmp_path / k, [["classify", episodes, "--test-fraction", "0.3", "--knn-k", k]],
                ["classify_report.json"])["classify_report.json"]
        for k in GOLDEN_KNN_K
    }
    capsys.readouterr()
    assert digests == GOLDEN_KNN_K

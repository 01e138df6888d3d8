"""Golden digests: the whole CLI pipeline writes the same bytes at a fixed seed.

The digests below were recorded with the numpy version named beside them.
numpy's random streams and float kernels may differ between versions, so on
another version the test is skipped rather than failed. A digest may change
only with a CHANGES.md entry saying why; never re-pin one to make a change pass.
"""

import hashlib

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


@pytest.mark.skipif(
    np.__version__ != PINNED_NUMPY,
    reason=f"golden digests were pinned with numpy {PINNED_NUMPY}, found {np.__version__}",
)
def test_pipeline_outputs_match_golden_digests(tmp_path, capsys):
    episodes = str(tmp_path / "episodes.jsonl")
    common = ["--seed", "7", "--out", str(tmp_path)]
    stages = [
        ["generate", "--episodes", "6", "--scenes", "10"],
        ["export", episodes, "--test-fraction", "0.3"],
        ["classify", episodes, "--test-fraction", "0.3"],
        ["schedule", episodes, "--n-rec", "2"],
    ]
    for argv in stages:
        assert main(common + argv) == 0, argv[0]
    capsys.readouterr()
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN
    }
    assert digests == GOLDEN

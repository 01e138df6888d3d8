"""Traced-peak gates: a read stage runs on a fixed small input in a fresh interpreter, and the
peak that ``tracemalloc`` reads for it stays under a bound.

``tracemalloc`` sees numpy's buffers, and in a fresh interpreter its peak is steady to a few
kB from run to run, where wall time and RSS drift on a shared machine. A second run in one
process reads lower (first-call imports and caches), so each gate starts its own interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from beamcanyon.cli import main

ROOT = Path(__file__).resolve().parents[1]
TRACED_RUN = (
    "import sys, tracemalloc\n"
    "from beamcanyon.cli import main\n"
    "tracemalloc.start()\n"
    "code = main(sys.argv[1:])\n"
    "print(tracemalloc.get_traced_memory()[1])\n"
    "sys.exit(code)\n"
)


def _traced_peak(argv: list[str]) -> int:
    """The traced peak, in bytes, of one CLI command run in a fresh interpreter (imports excluded)."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", TRACED_RUN, *argv], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    return int(run.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def walkthrough(tmp_path_factory):
    """The README walkthrough's episodes at seed 7: 20 episodes of 10 scenes, 10 receivers."""
    out = tmp_path_factory.mktemp("walkthrough")
    assert main(["--seed", "7", "--out", str(out), "generate", "--episodes", "20", "--scenes", "10"]) == 0
    return out / "episodes.jsonl"


def test_export_traced_peak_on_the_desk_walkthrough(walkthrough, tmp_path):
    # 1,361 train and 561 test rows. Six fresh runs read 8,329,449-8,331,645 B with the
    # episodes read into columns; the bound is 19.6% above that. Reading them into one
    # frozen object per vehicle, pair and ray reads 13,130,035-13,131,559 B.
    peak = _traced_peak(["--seed", "7", "--out", str(tmp_path), "export", str(walkthrough), "--test-fraction", "0.3"])
    assert (tmp_path / "test.csv").exists()
    assert peak < 9.5 * 2**20


def test_classify_traced_peak_on_the_desk_walkthrough(walkthrough, tmp_path):
    # 1,361 train and 561 test rows of 5,750 grid cells, 2,922 of which vary over the train
    # rows. Four fresh runs read 19,460,913-19,463,940 B, at the kNN's predict: one float32
    # block of 512 train rows (6.0 MB) and one float32 chunk of 256 test rows (3.0 MB) over
    # the varying columns. The bound is 13.1% above that. Reading the episodes into objects
    # and stacking every column of the train rows reads 19.93 MB; a model holding a float32
    # copy of the varying columns reads 33.17 MB.
    peak = _traced_peak(["--seed", "7", "--out", str(tmp_path), "classify", str(walkthrough), "--test-fraction", "0.3"])
    assert (tmp_path / "classify_report.json").exists()
    assert peak < 21 * 2**20


def test_schedule_traced_peak_on_the_desk_walkthrough(walkthrough, tmp_path):
    # every agent on every episode, one episode's reward table at a time. Six fresh runs
    # read 2,787,717-2,790,707 B with the episodes read into columns; the bound is 22.1%
    # above that. Reading them into objects reads 8,835,249-8,836,012 B.
    peak = _traced_peak(["--seed", "7", "--out", str(tmp_path), "schedule", str(walkthrough)])
    assert (tmp_path / "schedule_report.json").exists()
    assert peak < 3.25 * 2**20

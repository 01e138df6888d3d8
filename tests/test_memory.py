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


def test_classify_traced_peak_on_the_desk_walkthrough(tmp_path, capsys):
    # the README walkthrough at seed 7: 20 episodes of 10 scenes, 1,361 train and 561 test
    # rows of 5,750 grid cells, 2,922 of which vary over the train rows. Three fresh runs
    # read 19,926,674-19,927,772 B, at the kNN's predict: one float32 block of 512 train
    # rows (6.0 MB) and one float32 chunk of 256 test rows (3.0 MB) over the varying
    # columns. The bound is 16% above that. A model holding a float32 copy of the
    # varying columns reads 33.17 MB; such a copy alone is 15.9 MB.
    assert main(["--seed", "7", "--out", str(tmp_path), "generate", "--episodes", "20", "--scenes", "10"]) == 0
    capsys.readouterr()
    episodes = str(tmp_path / "episodes.jsonl")
    peak = _traced_peak(["--seed", "7", "--out", str(tmp_path), "classify", episodes, "--test-fraction", "0.3"])
    assert (tmp_path / "classify_report.json").exists()
    assert peak < 22 * 2**20

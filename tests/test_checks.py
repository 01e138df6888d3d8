"""The four stages' outputs hold up against the independent model in bench/checks.py.

``bench/checks.py`` recomputes rays, grids, labels, the split, the kNN and the
scheduling optimum without importing the program. It encodes the default
canyon and 4 x 4 arrays at both ends, so every drawn run keeps those and draws
only what the checker reads from the files or is told: the seed, the episode and
scene counts, the receivers per episode, the split and the scheduler's
``--n-rec`` and ``--n-out``. The stages run in-process, with the same arguments
as ``bench/run.py`` gives them, and the checks are called as it calls them.
"""

import contextlib
import importlib.util
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from beamcanyon.cli import main

_spec = importlib.util.spec_from_file_location("checks", Path(__file__).resolve().parents[1] / "bench" / "checks.py")
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)

AGENTS = ["greedy", "round_robin", "tabular_q", "dp"]
KNN_K = 5
R_OUT = -3.0
# the documented refusals a drawn run can meet, each one error line: too few vehicles to tag
# the receivers (generate), and a split side whose pairs are all blocked (export and classify)
REFUSALS = (r"only \d+ vehicles spawned, cannot tag \d+ receivers", r"no examples on the (train|test) side: .*")


def _run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stderr of one in-process CLI call."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        return main(argv), err.getvalue()


@st.composite
def _runs(draw):
    episodes = draw(st.integers(2, 4))
    receivers = draw(st.integers(1, 10))
    n_test = draw(st.integers(1, episodes - 1))
    n_out = draw(st.integers(1, 4))
    n_rec = draw(st.integers(1, receivers))
    return {
        "seed": draw(st.integers(0, 2**32 - 1)),
        "episodes": episodes,
        "scenes": draw(st.integers(2, 10)),
        "receivers": receivers,
        # round(test_fraction * episodes) == n_test, so both sides of the split hold an episode
        "test_fraction": draw(st.floats((n_test - 0.4) / episodes, (n_test + 0.4) / episodes)),
        "n_rec": n_rec,
        "n_out": n_out,
    }


@settings(max_examples=15, deadline=None)
@given(_runs())
def test_stage_outputs_pass_the_independent_checks(run):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        config = out / "run.json"
        config.write_text(json.dumps({"episode": {"receiver_count": run["receivers"]}}))
        common = ["--seed", str(run["seed"]), "--out", str(out), "--config", str(config)]
        episodes_file = str(out / "episodes.jsonl")
        split = ["--test-fraction", repr(run["test_fraction"])]
        stages = [
            ["generate", "--episodes", str(run["episodes"]), "--scenes", str(run["scenes"])],
            ["export", episodes_file, *split],
            ["classify", episodes_file, *split, "--knn-k", str(KNN_K)],
            ["schedule", episodes_file, "--agents", ",".join(AGENTS), "--n-rec", str(run["n_rec"]),
             "--n-out", str(run["n_out"]), "--r-out", repr(R_OUT)],
        ]
        for argv in stages:
            code, err = _run(common + argv)
            if code:
                assert code == 1 and any(re.fullmatch(f"error: {r}\n", err) for r in REFUSALS), err
                assume(False)

        episodes = checks.load_episodes(out / "episodes.jsonl", run["episodes"])
        errors = checks.check_episodes(episodes)
        errors += checks.check_csvs(out, episodes, run["seed"], run["test_fraction"])
        errors += checks.check_classify(out, KNN_K)
        errors += checks.check_schedule(out, episodes, run["n_rec"], run["n_out"], R_OUT, AGENTS)
        assert errors == []

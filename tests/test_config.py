"""The config rule table: every key's rule, as loaded, flagged and documented."""

import json
import math
import re
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamcanyon.cli import RunConfig, load_run_config
from beamcanyon.mimo import ArraySpec
from beamcanyon.raytrace import TraceConfig
from beamcanyon.rules import Rule
from beamcanyon.scenario import EpisodeParams, ScenarioConfig
from beamcanyon.scheduler import QLearningConfig, SchedulerParams

DOC = (Path(__file__).resolve().parents[1] / "docs" / "config.md").read_text()
SECTIONS = {
    "scenario": ScenarioConfig,
    "episode": EpisodeParams,
    "trace": TraceConfig,
    "arrays": ArraySpec,
    "scheduler": SchedulerParams,
    "qlearn": QLearningConfig,
}


def config_keys() -> dict[str, Rule]:
    """Every key of the config file and its rule, from the config dataclasses' fields.

    ``arrays.tx`` and ``arrays.rx`` each hold an ``[nx, ny]`` pair under
    ``ArraySpec``'s ``nx``/``ny`` rule.
    """
    keys = {f.name: f.metadata["rule"] for f in fields(RunConfig) if "rule" in f.metadata}
    for section, cls in SECTIONS.items():
        keys.update({f"{section}.{f.name}": f.metadata["rule"] for f in fields(cls) if "rule" in f.metadata})
    nx = keys.pop("arrays.nx")
    assert keys.pop("arrays.ny") == nx
    keys["arrays.tx"] = keys["arrays.rx"] = nx
    return keys


KEYS = config_keys()


def as_config(key: str, value: object) -> dict:
    """The config file that sets ``key`` to ``value``, a part of a pair for the pair keys."""
    if key in ("arrays.tx", "arrays.rx"):
        value = [value, 4]
    elif KEYS[key].kind == "[re, im]":
        value = [value, 0.0]
    section, _, name = key.rpartition(".")
    return {section: {name: value}} if section else {name: value}


def bad_values(rule: Rule) -> st.SearchStrategy:
    """A wrong kind for the rule, NaN, an infinity, or a value past one of its bounds."""
    if rule.kind == "string":
        return st.one_of(st.booleans(), st.none(), st.integers(), st.floats())
    integer = rule.kind.startswith("integer")
    options = [st.booleans(), st.sampled_from([math.nan, math.inf, -math.inf])]
    if rule.kind == "integer or None":
        options.append(st.text().map(lambda s: s + "x"))  # never spells an integer, "inf" or "none"
    else:
        options += [st.text(), st.none()]
    if integer:
        options.append(st.floats())  # even 2.0 is not an integer
    for sign, bound in map(str.split, rule.bounds):
        bound, closed = (int if integer else float)(bound), sign.endswith("=")
        if sign.startswith(">"):  # the bad values lie below the bound
            options.append(st.integers(max_value=bound - 1 if closed else bound) if integer
                           else st.floats(max_value=bound, exclude_max=closed, allow_nan=False))
        else:
            options.append(st.integers(min_value=bound + 1 if closed else bound) if integer
                           else st.floats(min_value=bound, exclude_min=closed, allow_nan=False))
    return st.one_of(options)


def load(tmp_path: Path, config: dict) -> RunConfig:
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    return load_run_config(str(path))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_every_key_rejects_a_bad_value_naming_the_key(tmp_path_factory, data):
    key = data.draw(st.sampled_from(sorted(KEYS)), label="key")
    value = data.draw(bad_values(KEYS[key]), label="value")
    with pytest.raises(ValueError) as excinfo:
        load(tmp_path_factory.getbasetemp(), as_config(key, value))
    assert str(excinfo.value).startswith(f"{key} must be ")
    assert "\n" not in str(excinfo.value)


def range_ends(rule: Rule) -> list:
    """Each closed bound, and the nearest value inside each open one."""
    ends = []
    for sign, bound in map(str.split, rule.bounds):
        bound = (int if rule.kind.startswith("integer") else float)(bound)
        ends.append(bound if sign.endswith("=") else math.nextafter(bound, math.inf if sign == ">" else -math.inf))
    return ends


@pytest.mark.parametrize("key", sorted(KEYS))
def test_every_range_end_loads(tmp_path, key):
    for end in range_ends(KEYS[key]):
        load(tmp_path, as_config(key, end))


def _example() -> dict:
    return json.loads(re.search(r"```json\n(.*?)```", DOC, re.S).group(1))


def _flat(example: dict) -> dict:
    flat = {}
    for name, value in example.items():
        if isinstance(value, dict):
            flat.update({f"{name}.{key}": v for key, v in value.items()})
        else:
            flat[name] = value
    return flat


def test_doc_example_is_the_defaults_and_names_every_key(tmp_path):
    example = _example()
    assert load(tmp_path, example) == RunConfig()
    assert set(_flat(example)) == set(KEYS)


def test_doc_table_matches_the_rules_and_the_example():
    rows = re.findall(r"^\| `([\w.]+)` \| (.+?) \| `(.+?)` \|$", DOC, re.M)
    example = _flat(_example())
    assert sorted(key for key, _, _ in rows) == sorted(example)
    for key, must_be, default in rows:
        rule = KEYS[key]
        assert must_be == (f"[nx, ny], each {rule.text()}" if key in ("arrays.tx", "arrays.rx") else rule.text())
        assert json.loads(default) == example[key]

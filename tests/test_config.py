"""The config rule table: every key's rule, as loaded, flagged and documented."""

import argparse
import json
import math
import re
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamcanyon.cli import RunConfig, _apply_overrides, _build_parser, load_run_config
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


@pytest.mark.parametrize("key", sorted(k for k, rule in KEYS.items() if rule.kind in ("number", "[re, im]")))
@pytest.mark.parametrize("sign", [1, -1])
def test_number_key_rejects_an_integer_past_the_float_range(tmp_path, key, sign):
    # JSON reads 10**400 as an exact integer, whose float() overflows
    with pytest.raises(ValueError) as excinfo:
        load(tmp_path, as_config(key, sign * 10**400))
    assert str(excinfo.value).startswith(f"{key} must be ")


def test_integer_past_the_float_range_fails_only_number_rules():
    assert not Rule("number").accepts(10**400)
    assert not Rule("number").accepts(-(10**400))
    assert Rule("number").accepts(10**300)
    assert Rule("integer", (">= 0",)).accepts(10**400)


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


def parser_flags() -> dict[str, tuple[str, set[str]]]:
    """Each flag whose default is suppressed: its dest and the subcommands that take it.

    The top-level flags go before any subcommand; their subcommands read ``{"all"}``.
    """
    parser = _build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags: dict[str, tuple[str, set[str]]] = {}
    for command, sub in [("all", parser), *subparsers.choices.items()]:
        for action in sub._actions:
            if action.default is argparse.SUPPRESS and not isinstance(action, argparse._HelpAction):
                (flag,) = action.option_strings
                flags.setdefault(flag, (action.dest, set()))[1].add(command)
    return flags


def flag_rows() -> dict[str, tuple[str, set[str]]]:
    rows = re.findall(r"^\| `(--[\w-]+)` \| (.+?) \| `([\w.]+)` \|$", DOC, re.M)
    return {flag: (key, set(re.findall(r"`(\w+)`", commands)) or {commands}) for flag, commands, key in rows}


def key_of(config: RunConfig, key: str) -> object:
    section, _, name = key.rpartition(".")
    return getattr(getattr(config, section) if section else config, name)


def nested(flat: dict) -> dict:
    """The config file that sets each ``key`` or ``section.key`` of ``flat``."""
    config: dict = {}
    for key, value in flat.items():
        section, _, name = key.rpartition(".")
        (config.setdefault(section, {}) if section else config)[name] = value
    return config


def flag_argv(flag: str, commands: set[str], value: str) -> list[str]:
    """An argv that gives ``flag`` ``value``, after one of its subcommands or before ``report``."""
    if commands == {"all"}:
        return [flag, value, "report"]
    command = sorted(commands)[0]
    return [command] + (["episodes.jsonl"] if command != "generate" else []) + [flag, value]


# a value for each flag that differs from the key's default and from FILE_VALUES
FLAG_VALUES = {
    "--seed": ("11", 11),
    "--out": ("elsewhere", "elsewhere"),
    "--scenes": ("3", 3),
    "--test-fraction": ("0.5", 0.5),
    "--knn-k": ("2", 2),
    "--n-out": ("5", 5),
    "--r-out": ("-1.5", -1.5),
    "--n-rec": ("3", 3),
}
FILE_VALUES = {
    "seed": 4,
    "output_dir": "from-file",
    "episode.scenes_per_episode": 9,
    "test_fraction": 0.4,
    "knn_k": 7,
    "scheduler.outage_after": None,
    "scheduler.outage_penalty": -2.0,
    "scheduler.num_receivers": 1,
}


def test_doc_flag_table_matches_the_parser():
    flags = parser_flags()
    assert flag_rows() == flags
    assert {key for key, _ in flags.values()} <= set(KEYS)
    assert set(FLAG_VALUES) == set(flags) and set(FILE_VALUES) == {key for key, _ in flags.values()}


@pytest.mark.parametrize("flag", sorted(FLAG_VALUES))
def test_each_flag_sets_its_key_over_the_file(tmp_path, flag):
    key, commands = flag_rows()[flag]
    text, value = FLAG_VALUES[flag]
    loaded = load(tmp_path, nested(FILE_VALUES))
    config = _apply_overrides(loaded, _build_parser().parse_args(flag_argv(flag, commands, text)))
    assert key_of(config, key) == value != key_of(loaded, key) != key_of(RunConfig(), key)
    for other in FILE_VALUES:
        if other != key:
            assert key_of(config, other) == key_of(loaded, other) == FILE_VALUES[other]


@pytest.mark.parametrize("argv", [["report"], ["generate"], ["export", "e"], ["classify", "e"], ["schedule", "e"]])
def test_absent_flags_keep_the_file_values(tmp_path, argv):
    loaded = load(tmp_path, nested(FILE_VALUES))
    assert _apply_overrides(loaded, _build_parser().parse_args(argv)) == loaded


@pytest.mark.parametrize("spelling", ["inf", "none", "INF", "None"])
def test_n_out_disables_outages(spelling):
    args = _build_parser().parse_args(["schedule", "e", "--n-out", spelling])
    assert _apply_overrides(RunConfig(), args).scheduler.outage_after is None


def test_seed_and_out_go_before_the_subcommand():
    args = _build_parser().parse_args(["--seed", "11", "--out", "elsewhere", "classify", "e", "--knn-k", "2"])
    config = _apply_overrides(RunConfig(), args)
    assert (config.seed, config.output_dir, config.knn_k) == (11, "elsewhere", 2)
    with pytest.raises(SystemExit):
        _build_parser().parse_args(["classify", "e", "--seed", "11"])

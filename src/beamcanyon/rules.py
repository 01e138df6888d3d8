"""The rule of every config key, and the one function that checks them.

Each config dataclass declares its keys' rules on its fields with ``setting``,
so the dataclasses are the rule table, and its ``__post_init__`` calls
``check``. A number must be finite, also as a float, and a bool is never a number.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields

_KINDS = {  # kind: (accepted type, what a value must be, with "{}" for the bounds)
    "integer": (int, "an integer{}"),
    "integer or None": (int, "an integer{} or None"),
    "number": ((int, float), "a finite number{}"),
    "string": (str, "a string{}"),
    "[re, im]": (complex, "two numbers [re, im] of magnitude{}"),  # the bounds limit the magnitude
}
_OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


@dataclass(frozen=True)
class Rule:
    kind: str  # a key of _KINDS
    bounds: tuple[str, ...] = ()  # such as "> 0" or "<= 1"; a lower bound comes first

    def accepts(self, value: object) -> bool:
        if value is None or isinstance(value, bool) or not isinstance(value, _KINDS[self.kind][0]):
            return value is None and self.kind == "integer or None"
        if isinstance(value, complex):
            value = math.hypot(value.real, value.imag)
        try:  # isfinite takes an integer as a float, and one past the float range overflows
            finite = not (isinstance(value, float) or self.kind == "number") or math.isfinite(value)
        except OverflowError:
            finite = False
        return finite and all(_OPS[sign](value, float(limit)) for sign, limit in map(str.split, self.bounds))

    def text(self) -> str:
        """What a value must be, in the words of the error message and docs/config.md."""
        if self.kind == "number" and self.bounds == ("> 0",):
            return "a positive finite number"
        if len(self.bounds) == 2:
            (lo_sign, lo), (hi_sign, hi) = map(str.split, self.bounds)
            limits = f" in {'(' if lo_sign == '>' else '['}{lo}, {hi}{')' if hi_sign == '<' else ']'}"
        else:
            limits = "".join(" " + bound for bound in self.bounds)
        return _KINDS[self.kind][1].format(limits)


def setting(default: object, kind: str, *bounds: str):
    """A dataclass field with ``default`` (``dataclasses.MISSING`` for none) and its rule."""
    return field(default=default, metadata={"rule": Rule(kind, bounds)})


def check_value(name: str, rule: Rule, value: object) -> None:
    if not rule.accepts(value):
        raise ValueError(f"{name} must be {rule.text()}, got {value!r}")


def rules_of(config: object) -> dict[str, Rule]:
    """The rule of each field of a config dataclass, or of its instance, that has one, by field name."""
    return {f.name: f.metadata["rule"] for f in fields(config) if "rule" in f.metadata}


def check(config: object, section: str = "") -> None:
    """Check each field of ``config`` that has a rule; an error names ``<section>.<key>``."""
    for name, rule in rules_of(config).items():
        check_value(f"{section}.{name}" if section else name, rule, getattr(config, name))

"""Rule and RuleSet data model.

The paper enforces a strict JSON structure: a list of objects with
``Parameter``, ``Rule Description`` and ``Tuning Context`` keys.  We carry
those three (snake_cased) plus machine-readable companions the Tuning Agent
uses to *apply* rules: context tags for matching, the concretely recommended
value, and the observed speedup that produced the rule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable


def _is_number_or_null(value: Any) -> bool:
    return value is None or (
        isinstance(value, (int, float)) and not isinstance(value, bool)
    )


#: field -> (the keys :meth:`Rule.from_dict` reads it from, first present
#: wins; what a valid value is; its check; the value when no key is present).
#: The paper's TitleCase spellings are accepted beside snake_case.
_FIELDS = {
    "parameter": (
        ("parameter", "Parameter"),
        "a non-empty string",
        lambda v: isinstance(v, str) and v != "",
        "",
    ),
    "rule_description": (
        ("rule_description", "Rule Description"),
        "a string",
        lambda v: isinstance(v, str),
        "",
    ),
    "tuning_context": (
        ("tuning_context", "Tuning Context"),
        "a string",
        lambda v: isinstance(v, str),
        "",
    ),
    "context_tags": (
        ("context_tags",),
        "a list of strings",
        lambda v: isinstance(v, list) and all(isinstance(t, str) for t in v),
        [],
    ),
    "recommended_value": (
        ("recommended_value",), "a number or null", _is_number_or_null, None
    ),
    "observed_speedup": (
        ("observed_speedup",), "a number or null", _is_number_or_null, None
    ),
    "alternative": (
        ("alternative",), "a boolean", lambda v: isinstance(v, bool), False
    ),
}


def rule_field_error(raw: dict[str, Any]) -> str | None:
    """What is wrong with the first bad field of rule object ``raw``, naming
    the key it was read from, or ``None`` when every field is well typed.

    Checks the value :meth:`Rule.from_dict` would read, under whichever key
    spelling it accepts; a missing field is checked at its default, so a
    rule without a ``parameter`` is rejected.
    """
    for name, (keys, expected, valid, default) in _FIELDS.items():
        for key in keys:
            if key in raw:
                value = raw[key]
                break
        else:
            key, value = name, default
        if not valid(value):
            return f"rule field {key!r} is not {expected}: {value!r}"
    return None


@dataclass
class Rule:
    """One distilled piece of tuning knowledge."""

    parameter: str
    rule_description: str
    tuning_context: str
    context_tags: list[str] = field(default_factory=list)
    recommended_value: int | None = None
    observed_speedup: float | None = None
    alternative: bool = False  # marked when merged as one of several options

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "parameter": self.parameter,
            "rule_description": self.rule_description,
            "tuning_context": self.tuning_context,
            "context_tags": list(self.context_tags),
            "recommended_value": self.recommended_value,
        }
        if self.observed_speedup is not None:
            out["observed_speedup"] = self.observed_speedup
        if self.alternative:
            out["alternative"] = True
        return out

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "Rule":
        def pick(name):
            keys, _, _, default = _FIELDS[name]
            for key in keys:
                if key in raw:
                    return raw[key]
            return default

        return cls(
            parameter=pick("parameter"),
            rule_description=pick("rule_description"),
            tuning_context=pick("tuning_context"),
            context_tags=list(pick("context_tags") or []),
            recommended_value=pick("recommended_value"),
            observed_speedup=pick("observed_speedup"),
            alternative=bool(pick("alternative")),
        )

    def same_context(self, other: "Rule") -> bool:
        """Rules about the same parameter in an equal tuning context.

        Contexts count as equal when they share the workload-class tag or at
        least two descriptive tags; one generic shared tag (e.g. both touch
        a shared file) is not the "equal tuning context" of §4.4.2.
        """
        if self.parameter != other.parameter:
            return False
        mine, theirs = set(self.context_tags), set(other.context_tags)
        if mine and theirs:
            if self.context_tags[0] == other.context_tags[0]:
                return True  # same workload class
            return len(mine & theirs) >= 2
        return self.tuning_context == other.tuning_context

    def contradicts(self, other: "Rule") -> bool:
        """Same parameter + context but *opposite* concrete guidance.

        Opposite means direction, not magnitude: recommending 16 and 128
        for the same knob is the same advice at different strengths (kept
        as alternatives), while -1 vs. 1 for a stripe count is a genuine
        contradiction.
        """
        if not self.same_context(other):
            return False
        mine, theirs = self.recommended_value, other.recommended_value
        if mine is None or theirs is None:
            return False
        return (mine > 0) != (theirs > 0)


@dataclass
class RuleSet:
    """An ordered collection of rules with JSON round-tripping."""

    rules: list[Rule] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)

    def add(self, rule: Rule) -> None:
        self.rules.append(rule)

    def for_parameter(self, parameter: str) -> list[Rule]:
        return [r for r in self.rules if r.parameter == parameter]

    def matching_tags(self, tags: Iterable[str]) -> list[Rule]:
        wanted = set(tags)
        return [r for r in self.rules if set(r.context_tags) & wanted]

    def to_json(self) -> list[dict[str, Any]]:
        return [r.to_dict() for r in self.rules]

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=1)

    @classmethod
    def from_json(cls, raw: list[dict[str, Any]]) -> "RuleSet":
        return cls(rules=[Rule.from_dict(r) for r in raw])

    @classmethod
    def loads(cls, payload: str) -> "RuleSet":
        return cls.from_json(json.loads(payload))

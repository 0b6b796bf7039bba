"""Validated parallel file system configuration.

A :class:`PfsConfig` holds a value for every writable parameter.  Validation
enforces type, static bounds, and *dependent* bounds (expressions evaluated
against the rest of the configuration plus hardware facts).  ``clipped``
returns the nearest valid configuration — the behaviour of a real admin tool
that refuses out-of-range writes — and is what the Configuration Runner
applies when an LLM proposes an invalid value.

Caching invariants
------------------
Bounds resolution is the simulator's hot path (every ``run`` validates every
parameter).  A parameter's bounds are a pure function of its spec and the
values its range expression references, so nothing caches them.  Each
backend builds one bounds table, once
(:attr:`~repro.backends.base.PfsBackend.bounds_table`): every parameter in
registry order with its constant range, or with the compiled min/max
evaluators of a range that names another parameter or a fact.
``bounds()``, ``violations()`` and ``clipped()`` all resolve through it:

- constant ranges are resolved once per backend
  (:attr:`~repro.backends.base.PfsBackend.constant_bounds`);
- expression ranges are evaluated on every call against the evaluation
  *env* (``{name: float(value)} ∪ facts``).  Each expression references a
  single name, so evaluating it costs about what a memo key would.  An
  expression error therefore raises on every call;
- ``clipped()`` walks the table inline (at most four passes) instead of
  calling ``bounds()`` per parameter, while ``violations()`` still calls
  ``bounds()`` once per parameter.  A value with ``low <= v <= high`` is
  kept as it is, which is what the clip expression would give it; every
  other value (out of range, or under crossed or NaN bounds, which no
  value satisfies) is clipped as ``int(min(max(v, low), high))``.

The config memoizes only the env, updated in place on ``__setitem__``, and
the ``cache_key()`` tuple.  Values change only through ``__setitem__`` /
``_set_raw``, which keep both coherent — code must never write ``_values``
directly from outside this module.  ``_values`` holds every writable
parameter in registry order, so ``cache_key()`` carries the values as one
tuple without their names.  Facts are fixed when a config is built:
``facts`` is a read-only :class:`~types.MappingProxyType` view of a private
copy of the mapping passed in, which ``copy()``, ``with_updates()`` and
``clipped()`` share.  A config that needs other facts is built with them.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Mapping

from repro.backends import get_backend, resolve_backend
from repro.backends.base import PfsBackend
from repro.pfs.expressions import ExpressionError


@dataclass(frozen=True)
class Violation:
    """One invalid parameter setting."""

    name: str
    value: int
    reason: str


class PfsConfig:
    """A complete assignment of writable parameters."""

    def __init__(
        self,
        values: Mapping[str, int] | None = None,
        facts: Mapping[str, float] | None = None,
        backend: PfsBackend | str | None = None,
    ):
        self.backend: PfsBackend = resolve_backend(backend)
        self._values: dict[str, int] = self.backend.defaults()
        # The paper testbed's facts when none are given; ``{}`` means none.
        self._facts: dict[str, float] = (
            {"system_memory_mb": 196 * 1024, "n_ost": 5}
            if facts is None
            else dict(facts)
        )
        self._env_cache: dict[str, float] | None = None
        self._cache_key: tuple | None = None
        if values:
            for name, value in values.items():
                self[name] = value

    @property
    def facts(self) -> Mapping[str, float]:
        """The hardware facts range expressions read, fixed at construction."""
        return MappingProxyType(self._facts)

    # -- mapping protocol -------------------------------------------------
    def __getitem__(self, name: str) -> int:
        spec = self.backend.param(name)
        return self._values[spec.name]

    def __setitem__(self, name: str, value) -> None:
        spec = self.backend.param(name)
        if not spec.writable:
            raise PermissionError(f"parameter {spec.name} is read-only")
        self._set_raw(spec.name, int(value))

    def role(self, role_name: str, default: int | None = None) -> int:
        """Value of the parameter filling a model role, in the role's unit.

        The analytic model is written against roles (``dirty_bytes``,
        ``data_rpcs_in_flight``, …); each backend maps them to its own
        parameters with a unit scale.  ``default`` serves roles a backend
        legitimately omits (see ``MODEL_ROLES``).
        """
        entry = self.backend.roles.get(role_name)
        if entry is None:
            if default is None:
                raise KeyError(
                    f"backend {self.backend.name!r} maps no parameter to "
                    f"role {role_name!r}"
                )
            return default
        name, scale = entry
        return self._values[name] * scale

    def _set_raw(self, name: str, value: int) -> None:
        """Write a resolved parameter name, keeping caches coherent."""
        self._values[name] = value
        self._cache_key = None
        if self._env_cache is not None:
            self._env_cache[name] = float(value)

    def _invalidate(self) -> None:
        """Drop the env and ``cache_key()`` memos."""
        self._env_cache = None
        self._cache_key = None

    def __contains__(self, name: str) -> bool:
        return name in self.backend

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PfsConfig):
            return NotImplemented
        return self._values == other._values

    __hash__ = None

    def __getstate__(self) -> dict:
        # Caches are rebuilt lazily.  The backend is a process-wide singleton
        # and crosses by name.
        return {
            "values": dict(self._values),
            "facts": dict(self._facts),
            "backend": self.backend.name,
        }

    def __setstate__(self, state: dict) -> None:
        self.backend = get_backend(state.get("backend"))
        # Registry order, whatever order the state lists: ``cache_key()``
        # carries the values without their names.
        values = state["values"]
        self._values = {
            name: values[name] for name in self.backend.registry if name in values
        }
        self._facts = dict(state["facts"])
        self._env_cache = None
        self._cache_key = None

    def as_dict(self) -> dict[str, int]:
        return dict(self._values)

    def copy(self) -> "PfsConfig":
        new = PfsConfig.__new__(PfsConfig)
        new.backend = self.backend
        new._values = dict(self._values)
        new._facts = self._facts
        new._env_cache = None
        new._cache_key = self._cache_key
        return new

    def _with_facts(self, facts: Mapping[str, float]) -> "PfsConfig":
        """A copy of this config built with ``facts`` instead, its values
        copied as they are rather than written one by one."""
        new = self.copy()
        new._facts = dict(facts)
        new._cache_key = None
        return new

    def with_updates(self, updates: Mapping[str, int]) -> "PfsConfig":
        new = self.copy()
        for name, value in updates.items():
            new[name] = value
        return new

    def diff(self, other: "PfsConfig") -> dict[str, tuple[int, int]]:
        """Parameters whose values differ: name -> (self value, other value)."""
        out = {}
        for name, value in self._values.items():
            if other._values.get(name) != value:
                out[name] = (value, other._values.get(name))
        return out

    def cache_key(self) -> tuple:
        """Hashable identity of (backend, values, facts) — for batch dedup.

        ``(backend name, values, sorted (fact, value) pairs)``, where the
        values are one tuple in registry order: every config of a backend
        lists the same parameters in that order, so the names add nothing
        to the identity, and a flat tuple of ints is cheaper to hash and to
        hold as a run-cache key than one ``(name, value)`` pair per
        parameter.  Memoized: the sweep engine and the run cache key every
        item, so the key is built once per distinct set of values (the
        memo drops on ``__setitem__``).
        """
        key = self._cache_key
        if key is None:
            key = (
                self.backend.name,
                tuple(self._values.values()),
                tuple(sorted(self._facts.items())),
            )
            self._cache_key = key
        return key

    # -- validation --------------------------------------------------------
    def _env(self) -> dict[str, float]:
        env = self._env_cache
        if env is None:
            env = {name: float(v) for name, v in self._values.items()}
            env.update(self._facts)
            self._env_cache = env
        return env

    def bounds(self, name: str) -> tuple[float, float]:
        """Resolved (min, max) for a parameter under current values/facts."""
        spec = self.backend.param(name)
        constant, low, high = self.backend.bounds_table[spec.name]
        if constant is not None:
            return constant
        env = self._env()
        return low(env), high(env)

    def violations(self) -> list[Violation]:
        """All out-of-range settings in dependency-stable order."""
        out: list[Violation] = []
        for name, value in self._values.items():
            spec = self.backend.registry[name]
            try:
                low, high = self.bounds(name)
            except ExpressionError as exc:
                out.append(Violation(name, value, f"range expression error: {exc}"))
                continue
            if spec.ptype == "bool" and value not in (0, 1):
                out.append(Violation(name, value, "boolean parameter accepts 0 or 1"))
            elif value < low:
                out.append(Violation(name, value, f"below minimum {low:g}"))
            elif value > high:
                out.append(Violation(name, value, f"above maximum {high:g}"))
        return out

    def validate(self) -> None:
        """Raise ``ValueError`` listing every violation, if any."""
        problems = self.violations()
        if problems:
            lines = ", ".join(f"{v.name}={v.value} ({v.reason})" for v in problems)
            raise ValueError(f"invalid configuration: {lines}")

    def clipped(self) -> "PfsConfig":
        """Nearest valid configuration (iterate because bounds are dependent).

        Walks the backend's bounds table inline: the resolution
        :meth:`bounds` makes, without one ``bounds`` call per parameter.
        """
        new = self.copy()
        values = new._values
        table = self.backend.bounds_table
        for _ in range(4):  # dependent bounds converge in <= chain depth passes
            changed = False
            for name, value in values.items():
                constant, low_of, high_of = table[name]
                if constant is None:
                    env = new._env()
                    low, high = low_of(env), high_of(env)
                else:
                    low, high = constant
                if low <= value <= high:
                    continue
                clipped_value = int(min(max(value, low), high))
                if clipped_value != value:
                    new._set_raw(name, clipped_value)
                    changed = True
            if not changed:
                break
        return new

    # -- convenience -------------------------------------------------------
    @classmethod
    def default(
        cls,
        facts: Mapping[str, float] | None = None,
        backend: PfsBackend | str | None = None,
    ) -> "PfsConfig":
        return cls(facts=facts, backend=backend)

    def summarize(self, only_nondefault: bool = True) -> str:
        """Human/agent readable summary, optionally only non-default values."""
        base = self.backend.defaults()
        lines = []
        for name, value in sorted(self._values.items()):
            if only_nondefault and base.get(name) == value:
                continue
            lines.append(f"{name} = {value}")
        return "\n".join(lines) if lines else "(all defaults)"

    def __repr__(self) -> str:  # pragma: no cover
        return f"PfsConfig({self.summarize(only_nondefault=True)!r})"

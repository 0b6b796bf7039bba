"""The :class:`PfsBackend` abstraction: everything file-system-specific.

A backend owns the complete description of one parallel file system flavor —
the tunable-parameter registry, how those parameters are documented (manual
chapters), how they are exposed (``/proc``-tree layout), how they feed the
performance model (role mapping + cost coefficients), what an unaided LLM
mis-remembers about them (hallucination profile), what the mock tuning
policy proposes for them (heuristic ladders), and what a human expert would
configure.  Every layer of the pipeline resolves the active backend through
:func:`repro.backends.get_backend` instead of importing a concrete parameter
table, which is what makes the RAG → analysis → tuning → reflection loop
file-system-agnostic.

Model roles
-----------
The analytic performance model is written against *roles* — abstract levers
like ``stripe_size_bytes`` or ``data_rpcs_in_flight`` — and each backend maps
roles to its own parameter names with a unit scale (Lustre counts dirty cache
in MiB, a BeeGFS-like system may count buffer sizes in KiB).  A backend may
omit a role; the model then falls back to a documented default (e.g. no
short-I/O fast path, no statahead).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Mapping

KiB = 1024
MiB = 1024 * KiB
PAGE_SIZE = 4096

#: Roles the analytic model understands.  ``required`` roles must be mapped
#: by every backend; optional ones default as documented in the model.
MODEL_ROLES = {
    # data path
    "stripe_size_bytes": "required",
    "stripe_count": "required",
    "data_rpcs_in_flight": "required",
    "rpc_cap_bytes": "required",
    "dirty_bytes": "required",
    "short_io_bytes": "optional",  # absent -> no inline fast path
    "checksums": "optional",  # absent -> checksums off
    # client caching / readahead
    "read_ahead_total_bytes": "required",
    "read_ahead_file_bytes": "required",
    "read_ahead_whole_bytes": "required",
    "cached_bytes": "required",
    # metadata path
    "meta_rpcs_in_flight": "required",
    "meta_mod_rpcs_in_flight": "optional",  # absent -> meta_rpcs_in_flight
    "statahead_count": "optional",  # absent -> no attribute prefetch
}


@dataclass(frozen=True)
class ParamSpec:
    """One tunable (or non-tunable) parameter."""

    name: str  # dotted, e.g. "osc.max_rpcs_in_flight"
    ptype: str  # "int" | "bool"
    default: int
    min_expr: float | str | None = None
    max_expr: float | str | None = None
    unit: str = "count"
    writable: bool = True
    binary: bool = False
    impact: str = "high"  # "high" | "medium" | "low" | "none" (ground truth)
    doc: str = "full"  # manual coverage: "full" | "partial" | "none"
    per_device: bool = False  # instantiated once per OST/MDT device
    # Settable without root (lfs setstripe on a user-owned directory); the
    # §5.6 user-space tuning mode restricts STELLAR to these.
    user_settable: bool = False
    description: str = ""
    perf_note: str = ""
    selected: bool = False  # expected member of STELLAR's final selection

    @property
    def subsystem(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def basename(self) -> str:
        return self.name.rsplit(".", 1)[-1]


@dataclass(frozen=True)
class TuningHeuristics:
    """What the mock LLM "knows" about tuning this file system.

    Value functions receive ``(report, facts)`` and may return ``None`` to
    skip a lever for the observed workload.
    """

    #: workload class -> ((param, moderate_fn, aggressive_fn), ...)
    ladders: Mapping[str, tuple]
    #: workload class -> ((param, value_fn), ...) third-attempt refinements
    secondary: Mapping[str, tuple]
    #: what a model holding a *flawed* definition does instead, per param
    misguided_actions: Mapping[str, Callable]
    #: misconception-driven levers an ungrounded agent adds per class
    ungrounded_traps: Mapping[str, tuple]
    #: metadata-path parameters (rule-tag domain split)
    meta_params: frozenset
    #: the occasionally-explored suboptimal lever and its value
    noise_param: str = ""
    noise_value: int = 0


#: Lustre-flavored defaults for the hardware-description nouns.
DEFAULT_HARDWARE_TERMS = {
    "data_servers": "OSS nodes (one OST each)",
    "mgmt_server": "combined MGS/MDS node",
    "target_disks": "OST disks",
    "meta_service": "MDS",
    "client_cache": "llite caches",
    "storage_targets": "OSTs",
}


@dataclass(frozen=True)
class PfsBackend:
    """Complete description of one parallel file system flavor."""

    name: str  # registry key, e.g. "lustre"
    display_name: str  # e.g. "Lustre 2.15"
    fs_family: str  # e.g. "Lustre" (agent prompts name this)
    proc_root: str  # e.g. "/proc/fs/lustre"
    specs: tuple  # tuple[ParamSpec, ...]
    #: role -> (parameter name, unit scale to the role's canonical unit)
    roles: Mapping[str, tuple]
    # -- manual ---------------------------------------------------------
    manual_title: str = ""
    manual_intro: str = ""
    subsystem_chapters: Mapping[str, str] = field(default_factory=dict)
    filler_chapters: tuple = ()
    # -- performance model ---------------------------------------------
    #: overrides applied to CostModel's per-RPC timing fields
    cost_overrides: Mapping[str, float] = field(default_factory=dict)
    # -- hallucination profile (mock parametric knowledge) --------------
    misconceptions: Mapping[str, str] = field(default_factory=dict)
    #: (model, param) -> (definition_correct, wrong_max) pinned outcomes
    belief_overrides: Mapping[tuple, tuple] = field(default_factory=dict)
    universal_flaws: frozenset = frozenset()
    # -- mock tuning policy --------------------------------------------
    tuning: TuningHeuristics | None = None
    # -- baselines ------------------------------------------------------
    expert_configs: Mapping[str, Mapping[str, int]] = field(default_factory=dict)
    expert_rationale: Mapping[str, str] = field(default_factory=dict)
    search_candidates: Mapping[str, tuple] = field(default_factory=dict)
    #: device naming for per-device /proc entries: subsystem -> fn(cluster, fsname)
    device_namers: Mapping[str, Callable] = field(default_factory=dict)
    #: nouns for the hardware description the agents read (ClusterSpec.describe)
    hardware_terms: Mapping[str, str] = field(
        default_factory=lambda: dict(DEFAULT_HARDWARE_TERMS)
    )

    # -- derived views (cached; frozen dataclasses allow cached_property) --
    @cached_property
    def registry(self) -> dict:
        """``{name: ParamSpec}`` for every parameter."""
        return {spec.name: spec for spec in self.specs}

    @cached_property
    def _by_basename(self) -> dict:
        table: dict[str, list] = {}
        for spec in self.specs:
            table.setdefault(spec.basename, []).append(spec)
        return table

    def param(self, name: str) -> ParamSpec:
        """Lookup by full dotted name or unique basename."""
        spec = self.registry.get(name)
        if spec is not None:
            return spec
        matches = self._by_basename.get(name, [])
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise KeyError(f"unknown parameter {name!r}")
        raise KeyError(
            f"ambiguous parameter basename {name!r}: {[m.name for m in matches]}"
        )

    def __contains__(self, name: str) -> bool:
        try:
            self.param(name)
            return True
        except KeyError:
            return False

    @cached_property
    def _defaults(self) -> dict:
        return {s.name: s.default for s in self.specs if s.writable}

    def defaults(self) -> dict:
        """Default value for every writable parameter (a fresh copy)."""
        return self._defaults.copy()

    def writable_specs(self) -> list:
        return [s for s in self.specs if s.writable]

    def selected_parameter_names(self) -> list:
        """The parameters STELLAR is expected to select for tuning."""
        return [s.name for s in self.specs if s.selected]

    @cached_property
    def role_of(self) -> dict:
        """Reverse role map: parameter name -> role."""
        return {entry[0]: role for role, entry in self.roles.items()}

    @cached_property
    def constant_bounds(self) -> dict:
        """``{name: (min, max)}`` for every parameter whose range names no
        other parameter or fact.

        A number is its own bound and a missing one is unbounded, so these
        ranges are the same under every configuration; only the parameters
        with an expression bound are resolved per call by
        :meth:`repro.pfs.config.PfsConfig.bounds`.
        """
        return {
            spec.name: (
                float("-inf") if spec.min_expr is None else float(spec.min_expr),
                float("inf") if spec.max_expr is None else float(spec.max_expr),
            )
            for spec in self.specs
            if not isinstance(spec.min_expr, str)
            and not isinstance(spec.max_expr, str)
        }

    @cached_property
    def bounds_table(self) -> dict:
        """``{name: (constant, low, high)}`` for every parameter, in registry
        order: the one place :class:`~repro.pfs.config.PfsConfig` resolves
        bounds from.

        A constant range has ``constant == (min, max)`` (its
        :attr:`constant_bounds` pair) and no evaluators.  A range that names
        another parameter or a fact has ``constant is None`` and one
        evaluator per side, each taking the config's env: a compiled
        expression, or a closure returning the other side's constant.  An
        expression that does not compile gets an evaluator that compiles it
        again on every call, so its :class:`ExpressionError` is raised per
        call, as the uncompiled resolver raised it.
        """
        from repro.pfs.expressions import ExpressionError, compile_expression

        def evaluator(expr, default: float) -> Callable:
            if not isinstance(expr, str):
                bound = default if expr is None else float(expr)
                return lambda env: bound
            try:
                return compile_expression(expr)
            except ExpressionError:
                return lambda env: compile_expression(expr)(env)

        constant_bounds = self.constant_bounds
        table = {}
        for spec in self.specs:
            constant = constant_bounds.get(spec.name)
            if constant is not None:
                table[spec.name] = (constant, None, None)
            else:
                table[spec.name] = (
                    None,
                    evaluator(spec.min_expr, float("-inf")),
                    evaluator(spec.max_expr, float("inf")),
                )
        return table

    def validate(self) -> None:
        """Sanity-check internal consistency (used by the parity suite)."""
        for role, requirement in MODEL_ROLES.items():
            entry = self.roles.get(role)
            if entry is None:
                if requirement == "required":
                    raise ValueError(f"backend {self.name} misses role {role!r}")
                continue
            param, scale = entry
            spec = self.registry.get(param)
            if spec is None:
                raise ValueError(
                    f"backend {self.name} role {role!r} names unknown "
                    f"parameter {param!r}"
                )
            if not spec.writable:
                # PfsConfig holds values for writable params only; a
                # read-only role target would KeyError deep in the model.
                raise ValueError(
                    f"backend {self.name} role {role!r} maps read-only "
                    f"parameter {param!r}"
                )
            if scale < 1:
                raise ValueError(f"backend {self.name} role {role!r} scale < 1")
        for role in self.roles:
            if role not in MODEL_ROLES:
                raise ValueError(f"backend {self.name} maps unknown role {role!r}")
        if self.tuning is None:
            raise ValueError(f"backend {self.name} provides no tuning heuristics")


# ---------------------------------------------------------------------------
# Backend registry
# ---------------------------------------------------------------------------
_REGISTRY: dict[str, PfsBackend] = {}

DEFAULT_BACKEND = "lustre"


def register_backend(backend: PfsBackend) -> PfsBackend:
    """Register a backend under its name (idempotent for identical objects)."""
    existing = _REGISTRY.get(backend.name)
    if existing is not None and existing is not backend:
        raise ValueError(f"backend {backend.name!r} already registered")
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str | None = None) -> PfsBackend:
    """The registered backend for ``name`` (default: Lustre)."""
    key = name or DEFAULT_BACKEND
    try:
        return _REGISTRY[key]
    except KeyError:
        raise KeyError(
            f"unknown backend {key!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def list_backends() -> list[str]:
    """Registered backend names, in registration order."""
    return list(_REGISTRY)


def resolve_backend(backend: "PfsBackend | str | None") -> PfsBackend:
    """Coerce a backend argument: instance passes through, name or ``None``
    (the default backend) resolves via :func:`get_backend`."""
    if backend is None or isinstance(backend, str):
        return get_backend(backend)
    return backend


def find_backend_for_param(name: str) -> PfsBackend:
    """The backend whose registry defines ``name`` (registration order wins)."""
    for backend in _REGISTRY.values():
        if name in backend.registry:
            return backend
    # Basename fallback mirrors PfsBackend.param's convenience lookup.
    for backend in _REGISTRY.values():
        if name in backend:
            return backend
    raise KeyError(f"no registered backend defines parameter {name!r}")


def detect_backend(param_names) -> PfsBackend:
    """The unique backend covering the most of ``param_names``.

    The mock LLM uses this: its "knowledge" of which file system it is tuning
    comes from the parameter names present in the prompt, exactly like a real
    model inferring the system from context.  A prompt whose parameter names
    match no registered backend, or whose best coverage is tied between
    several backends, is undecidable — raising beats silently tuning the
    wrong file system, so a descriptive :class:`KeyError` names the
    candidates instead.
    """
    names = list(param_names)
    hits = {
        backend.name: sum(1 for name in names if name in backend.registry)
        for backend in _REGISTRY.values()
    }
    best_hits = max(hits.values(), default=0)
    if best_hits == 0:
        shown = sorted(set(names))[:5]
        raise KeyError(
            f"cannot detect backend: parameter names {shown or '(none)'} "
            f"match no registered backend (registered: {sorted(_REGISTRY)})"
        )
    candidates = sorted(name for name, count in hits.items() if count == best_hits)
    if len(candidates) > 1:
        raise KeyError(
            f"cannot detect backend: parameter names match {candidates} "
            f"equally well ({best_hits} name(s) each); prompts must name "
            "parameters from exactly one backend"
        )
    return _REGISTRY[candidates[0]]

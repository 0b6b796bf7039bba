"""Cross-backend rule transfer: does reflected knowledge generalize?

Runs the full tuning loop on two backends (Lustre and the BeeGFS-like
system), accumulates each backend's reflected rule set, and then asks the
question StorageXTuner raises for heterogeneous storage engines: do the
rules STELLAR learns on one file system carry over to another?

Two transfer notions are measured:

- **literal**: the fraction of rules whose parameter name exists on the
  other backend (expected ≈ 0 — the registries are disjoint by design);
- **role-mapped**: rules are translated through the model-role layer
  (parameter → role on the source backend → parameter on the target, with
  unit-scale conversion), applied as a configuration on the target backend,
  and measured against the target's defaults.

A positive role-mapped speedup demonstrates that what the reflection phase
captures is *mechanism* knowledge (stripe wider for shared streams, deepen
metadata concurrency for small-file storms) rather than Lustre trivia —
the property that makes backend-pluggable tuning worthwhile.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backends import get_backend
from repro.cluster.hardware import ClusterSpec, make_cluster
from repro.experiments.harness import DEFAULT_REPS, Measurement, measure_configs
from repro.rules.model import RuleSet

WORKLOADS = ("IOR_16M", "MDWorkbench_2K")
BACKENDS = ("lustre", "beegfs")


@dataclass
class TransferRow:
    """Rule transfer from one backend onto another, for one workload."""

    source: str
    target: str
    workload: str
    n_rules: int
    literal_hits: int
    mapped_hits: int
    mapped_updates: dict[str, int]
    default: Measurement | None = None
    transferred: Measurement | None = None

    @property
    def speedup(self) -> float:
        if not self.default or not self.transferred:
            return 1.0
        return self.default.mean / self.transferred.mean


@dataclass
class CrossFsResult:
    tuned_speedups: dict[str, dict[str, float]] = field(default_factory=dict)
    rules: dict[str, RuleSet] = field(default_factory=dict)
    transfers: list[TransferRow] = field(default_factory=list)

    def render(self) -> str:
        lines = ["Cross-backend transfer (tuning on both file systems)"]
        for backend, per_wl in self.tuned_speedups.items():
            rendered = ", ".join(
                f"{wl} {speedup:.2f}x" for wl, speedup in per_wl.items()
            )
            n_rules = len(self.rules[backend].rules)
            lines.append(
                f"  {backend:8s} tuned: {rendered} ({n_rules} rules reflected)"
            )
        lines.append("  rule transfer onto the other backend:")
        for row in self.transfers:
            lines.append(
                f"  {row.source} -> {row.target} [{row.workload}]: "
                f"literal {row.literal_hits}/{row.n_rules}, "
                f"role-mapped {row.mapped_hits}/{row.n_rules}, "
                f"transferred-config speedup {row.speedup:.2f}x"
            )
        return "\n".join(lines)


def workload_class_tag(workload_name: str) -> str:
    """The ground-truth workload-class tag for a catalog workload.

    Derived from the workload's ``traits`` (which agents never see); used to
    select which reflected rules a transferred configuration may apply —
    mirroring how the engine itself matches rules by context tags.
    """
    from repro.workloads import get_workload

    traits = get_workload(workload_name).traits
    intensity = traits.get("io_intensity")
    if intensity == "metadata":
        return "metadata_small_files"
    if intensity == "mixed":
        return "mixed"
    if not traits.get("shared_file", True):
        return "fpp_data"
    if traits.get("pattern") == "random" and traits.get("xfer_size", 1 << 20) < 1 << 20:
        return "shared_random_small"
    return "shared_seq_large"


def map_rule_updates(
    rules: RuleSet,
    source_name: str,
    target_name: str,
    context_tag: str | None = None,
) -> tuple[int, int, dict[str, int]]:
    """Translate a rule set's recommendations between backends.

    ``context_tag`` (a workload-class tag) restricts transfer to rules whose
    recorded tuning context matches the target workload — applying a
    bandwidth-striping rule to a metadata storm is exactly the transplant
    the engine's own rule matching refuses.  Returns
    ``(literal_hits, mapped_hits, updates)`` where ``updates`` is a
    target-backend configuration assembled from the role-translated
    recommendations (best observed speedup wins per parameter).
    """
    source = get_backend(source_name)
    target = get_backend(target_name)
    literal = 0
    mapped = 0
    best: dict[str, tuple[float, int]] = {}
    matching = [
        rule
        for rule in rules.rules
        if context_tag is None or context_tag in rule.context_tags
    ]
    for rule in matching:
        if rule.parameter in target.registry:
            literal += 1
        if rule.recommended_value is None:
            continue
        role = source.role_of.get(rule.parameter)
        entry = target.roles.get(role) if role else None
        if entry is None:
            continue
        mapped += 1
        target_param, target_scale = entry
        _, source_scale = source.roles[role]
        # Convert through the role's canonical unit.  The -1 sentinel
        # ("all targets") is unit-less and crosses as-is.
        value = int(rule.recommended_value)
        if value != -1:
            value = max(1, value * source_scale // target_scale)
        speedup = rule.observed_speedup or 0.0
        current = best.get(target_param)
        if current is None or speedup > current[0]:
            best[target_param] = (speedup, value)
    return literal, mapped, {name: value for name, (_, value) in best.items()}


def _tune_backend(
    cluster: ClusterSpec, workloads, seed: int
) -> tuple[dict[str, float], RuleSet]:
    from repro.core.engine import Stellar
    from repro.experiments.harness import shared_extraction
    from repro.workloads import get_workload

    extraction = shared_extraction(cluster, seed=seed)
    engine = Stellar(
        cluster=cluster,
        model="claude-3.7-sonnet",
        extraction=extraction,
        seed=seed,
    )
    speedups: dict[str, float] = {}
    for name in workloads:
        session = engine.tune_and_accumulate(get_workload(name))
        speedups[name] = session.best_speedup
    return speedups, engine.rule_set


def run(
    cluster: ClusterSpec | None = None,
    reps: int = DEFAULT_REPS,
    seed: int = 0,
    workloads=WORKLOADS,
) -> CrossFsResult:
    """Tune on every backend, then cross-apply each rule set.

    ``cluster`` (if given) serves as the testbed for its own backend —
    tuning and transfer measurements alike — so one result never mixes
    hardware; the other backends get an identically-sized default testbed.

    Each (target, workload) row scores its default and transferred
    configurations in one sweep, and the process-wide run cache serves
    every configuration an earlier row or tuning session already costed.
    """
    result = CrossFsResult()
    clusters: dict[str, ClusterSpec] = {}
    for backend_name in BACKENDS:
        if cluster is not None and cluster.backend_name == backend_name:
            clusters[backend_name] = cluster
        else:
            clusters[backend_name] = make_cluster(seed=seed, backend=backend_name)
        speedups, rules = _tune_backend(clusters[backend_name], workloads, seed)
        result.tuned_speedups[backend_name] = speedups
        result.rules[backend_name] = rules

    for source in BACKENDS:
        targets = [b for b in BACKENDS if b != source]
        for target in targets:
            rules = result.rules[source]
            for workload in workloads:
                tag = workload_class_tag(workload)
                literal, mapped, updates = map_rule_updates(
                    rules, source, target, context_tag=tag
                )
                row = TransferRow(
                    source=source,
                    target=target,
                    workload=workload,
                    n_rules=len(rules.matching_tags([tag])),
                    literal_hits=literal,
                    mapped_hits=mapped,
                    mapped_updates=updates,
                )
                row.default, row.transferred = measure_configs(
                    clusters[target],
                    workload,
                    [{}, updates],
                    ["default", "transferred"],
                    reps=reps,
                    seed=seed,
                )
                result.transfers.append(row)
    return result

"""RAG-based parameter extraction (§4.2.2).

The offline pipeline:

1. Walk the ``/proc`` tree and keep writable parameters (rough filter).
2. For each candidate, query the vector index with *"How do I use the
   parameter X?"* and retrieve the top-K chunks.
3. Ask the LLM whether the retrieved documentation is **sufficient** to
   define the parameter's purpose and valid range; drop insufficient ones
   (under-documented parameters are assumed unimportant).
4. Ask the LLM to **describe** the parameter — purpose, intended I/O impact,
   valid range, with dependent ranges emitted in the expression syntax that
   the online tuner evaluates against live system values.
5. Exclude **binary** parameters (user trade-offs, not tuning decisions).
6. Ask the LLM to judge each remaining parameter's performance **impact**
   from its description, keeping only the significant ones.

For our Lustre model the result is 13 parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.hardware import ClusterSpec
from repro.corpus import render_manual
from repro.llm.client import LLMClient
from repro.llm.promptparse import ParameterInfo
from repro.llm.tasks import DESCRIBE_PARAMETER, JUDGE_DOCUMENTATION, JUDGE_IMPACT, TASKS
from repro.pfs.proctree import build_proc_tree, writable_parameter_names
from repro.rag.index import VectorIndex

TOP_K = 20


@dataclass
class ExtractedParameter:
    """The offline phase's output for one parameter."""

    name: str
    description: str
    default: int
    min_expr: str
    max_expr: str
    unit: str = "count"
    binary: bool = False
    grounded: bool = True
    impact_judgment: str = ""

    def to_info(self, include_description: bool = True) -> ParameterInfo:
        return ParameterInfo(
            name=self.name,
            default=self.default,
            min_expr=self.min_expr,
            max_expr=self.max_expr,
            description=self.description if include_description else "",
            unit=self.unit,
        )


@dataclass
class ExtractionResult:
    """Everything the offline phase produced, including filter provenance."""

    selected: list[ExtractedParameter] = field(default_factory=list)
    filtered_insufficient: list[str] = field(default_factory=list)
    filtered_binary: list[str] = field(default_factory=list)
    filtered_low_impact: list[str] = field(default_factory=list)

    @property
    def selected_names(self) -> list[str]:
        return [p.name for p in self.selected]


class ParameterExtractor:
    """Runs the offline extraction pipeline."""

    def __init__(self, cluster: ClusterSpec, client: LLMClient, manual: str | None = None):
        self.cluster = cluster
        self.client = client
        self.manual = (
            manual if manual is not None else render_manual(backend=cluster.backend)
        )
        self.index = VectorIndex.from_documents([self.manual])

    # ------------------------------------------------------------------
    def retrieve(self, parameter: str, top_k: int = TOP_K) -> str:
        """Top-K chunks for a parameter query, in document order."""
        hits = self.index.query(f"How do I use the parameter {parameter}?", top_k=top_k)
        ordered = sorted(hits, key=lambda h: h.chunk.chunk_id)
        return "\n".join(h.chunk.text for h in ordered)

    def run(self, candidates: list[str] | None = None) -> ExtractionResult:
        """Run the pipeline.

        ``candidates`` overrides the default ``/proc`` rough filter — used
        when the storage system exposes tunables via configuration files
        (DAOS-style, §4.2.2) instead of a parameter tree.
        """
        result = ExtractionResult()
        if candidates is None:
            candidates = writable_parameter_names(build_proc_tree(self.cluster))
        for name in candidates:
            context = self.retrieve(name)
            verdict = self.client.ask(
                f"{JUDGE_DOCUMENTATION}\n"
                f"PARAMETER: {name}\n"
                "Does the retrieved documentation define this parameter's "
                "purpose and its valid range?\n"
                f"RETRIEVED CONTEXT:\n{context}",
                agent="extraction",
                session=f"extract:{name}",
            )
            if not TASKS[JUDGE_DOCUMENTATION].parse(verdict):
                result.filtered_insufficient.append(name)
                continue
            described = self.client.ask(
                f"{DESCRIBE_PARAMETER}\n"
                f"PARAMETER: {name}\n"
                "Describe the parameter's purpose, its intended impact on "
                "I/O, and its valid range. Use the dependent expression "
                "syntax for ranges that depend on other parameters or "
                "hardware facts.\n"
                f"RETRIEVED CONTEXT:\n{context}",
                agent="extraction",
                session=f"extract:{name}",
            )
            fields = TASKS[DESCRIBE_PARAMETER].parse(described)
            if fields is None:
                result.filtered_insufficient.append(name)
                continue
            extracted = ExtractedParameter(**fields)
            if extracted.binary:
                result.filtered_binary.append(name)
                continue
            impact = self.client.ask(
                f"{JUDGE_IMPACT}\n"
                f"PARAMETER: {name}\n"
                "Is this parameter likely to have a significant impact on "
                "I/O performance? Answer with documented reasoning.\n"
                f"DESCRIPTION:\n{extracted.description}",
                agent="extraction",
                session=f"extract:{name}",
            )
            if not TASKS[JUDGE_IMPACT].parse(impact):
                result.filtered_low_impact.append(name)
                continue
            extracted.impact_judgment = impact
            result.selected.append(extracted)
        return result


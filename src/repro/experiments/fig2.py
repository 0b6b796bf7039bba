"""Figure 2: LLM hallucination on parameter details vs. RAG extraction.

Asks three frontier models (unaided) for the definition and accepted range
of ``llite.statahead_max`` on Lustre 2.15, grades their answers against the
ground-truth registry, and contrasts them with STELLAR's RAG-based
extraction output (which uses the older GPT-4o, as the paper notes).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.backends import get_backend
from repro.cluster.hardware import ClusterSpec
from repro.llm.client import LLMClient
from repro.llm.knowledge import parametric_belief
from repro.llm.profiles import get_profile
from repro.llm.tasks import PARAM_INFO
from repro.rag.extraction import ParameterExtractor

PARAMETER = "llite.statahead_max"
MODELS = ("gpt-4.5", "gemini-2.5-pro", "claude-3.7-sonnet")


@dataclass
class ModelAnswer:
    model: str
    definition: str
    claimed_max: float
    definition_correct: bool
    range_correct: bool


@dataclass
class Fig2Result:
    parameter: str
    true_max: float
    answers: list[ModelAnswer] = field(default_factory=list)
    rag_description: str = ""
    rag_range: tuple[str, str] = ("", "")
    rag_correct: bool = False

    def render(self) -> str:
        lines = [
            f"Figure 2 — parameter details for {self.parameter} "
            f"(true range max: {self.true_max:g})",
        ]
        for a in self.answers:
            def_mark = "+" if a.definition_correct else "x"
            rng_mark = "+" if a.range_correct else "x"
            lines.append(
                f"  {a.model:18s} definition[{def_mark}] max={a.claimed_max:g} "
                f"[{rng_mark}]  \"{a.definition[:70]}...\""
            )
        rag_mark = "+" if self.rag_correct else "x"
        lines.append(
            f"  STELLAR RAG (gpt-4o) definition[+] range="
            f"{self.rag_range[0]}..{self.rag_range[1]} [{rag_mark}]"
        )
        return "\n".join(lines)


def run(cluster: ClusterSpec, seed: int = 0) -> Fig2Result:
    # Figure 2 is specifically about Lustre's statahead_max hallucinations;
    # pin the backend (keeping the caller's hardware) so the extraction
    # contrast stays well-defined when pointed at another backend.
    if cluster.backend_name != "lustre":
        cluster = replace(cluster, backend_name="lustre")
    spec = get_backend("lustre").registry[PARAMETER]
    true_max = float(spec.max_expr)
    result = Fig2Result(parameter=PARAMETER, true_max=true_max)

    for model in MODELS:
        # Exercise the real no-RAG path: a direct question to the model.
        client = LLMClient(model, seed=seed)
        client.ask(
            f"{PARAM_INFO}\nPARAMETER: {PARAMETER}\n"
            "Provide the definition and accepted range of this Lustre 2.15 "
            "parameter."
        )
        belief = parametric_belief(get_profile(model), PARAMETER)
        result.answers.append(
            ModelAnswer(
                model=model,
                definition=belief.definition,
                claimed_max=belief.max_value,
                definition_correct=belief.definition_correct,
                range_correct=belief.range_correct,
            )
        )

    extractor = ParameterExtractor(cluster, LLMClient("gpt-4o", seed=seed))
    extraction = extractor.run()
    extracted = next(p for p in extraction.selected if p.name == PARAMETER)
    result.rag_description = extracted.description
    result.rag_range = (extracted.min_expr, extracted.max_expr)
    result.rag_correct = (
        float(extracted.max_expr) == true_max
        and spec.description.split(".")[0] in extracted.description
    )
    return result

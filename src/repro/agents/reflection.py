"""Rule set synthesis through the model (§4.4.2).

After a run's rules are generated, the Tuning Agent is asked to *augment*
the existing global rule set rather than regenerate it; the model resolves
contradictions and marks alternatives.  (The mock model implements the
merge with :func:`repro.rules.merge.merge_rule_sets` — the same semantics
the prompt instructs a real model to follow.)
"""

from __future__ import annotations

import json

from repro.llm import promptparse as pp
from repro.llm.client import LLMClient
from repro.llm.tasks import MERGE_RULES, TASKS


def merge_rules_via_llm(
    client: LLMClient,
    existing: list[dict],
    new: list[dict],
    session: str = "rules-merge",
    agent: str = "tuning",
) -> list[dict]:
    """Ask the model to merge ``new`` rules into the ``existing`` global set.

    Usage is recorded on the client's ledger under ``agent`` — the engine
    passes ``rules_merge`` so the merge step shows up as its own line in
    session accounting instead of vanishing into a throwaway client.  A
    reply that is not a JSON list of well-typed rule objects raises
    :class:`~repro.llm.tasks.ReflectionFormatError` naming ``agent``
    and ``session``.
    """
    if not existing:
        return list(new)
    if not new:
        return list(existing)
    prompt = (
        pp.build_rules_section(existing)
        + f"\n\n{MERGE_RULES}\n"
        "Augment the global rule set above with the new rules below. If a "
        "new rule directly contradicts an existing rule for the same "
        "parameter and tuning context, remove both. If two rules offer only "
        "slightly different guidance, keep both marked as alternatives. "
        "Drop alternatives whose guidance produced a negative outcome.\n"
        "NEW RULES:\n" + json.dumps(new)
    )
    content = client.ask(prompt, agent=agent, session=session)
    return TASKS[MERGE_RULES].read(content, agent, session)

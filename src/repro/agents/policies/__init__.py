"""Agent policies: turn-taking strategies for the tuning loop.

A policy is the agent class that runs the loop.  Each one is a
:class:`~repro.agents.tuning.TuningAgent` (the paper's reflection loop) or
a subclass that swaps only the turn-taking strategy — which agent talks
when, how proposals become probe runs, and when the session ends — while
the prompt sections, the probe, the analysis minor loop, fault absorption
and Reflect & Summarize stay shared.  ``AgentLoopStage`` builds the named
class from the session state, so every policy gets the same constructor
arguments.

Import-graph rules (mirrored in ROADMAP "Architecture: agent policies"):
policies live in the agents layer, read cluster configuration only through
the facts and parameter infos they are built with, and hold no
backend-specific parameter tables — backend detection happens inside the
model (:func:`repro.backends.detect_backend`), exactly as for the default
loop.  ``core``/``service`` depend on this package, never the reverse.
"""

from repro.agents.policies.critic import ProposeCriticAgent
from repro.agents.policies.react import ReACTAgent
from repro.agents.tuning import TuningAgent


class _PolicyTable(dict):
    def __missing__(self, name):
        raise KeyError(
            f"unknown agent policy {name!r}; registered: {', '.join(self)}"
        )


#: Policy name -> the agent class that runs it.  Table order is
#: presentation order (CLI choices, the ranking experiment, the bench's
#: per-policy figures); an unknown name's ``KeyError`` lists the
#: registered ones.
POLICIES: dict[str, type[TuningAgent]] = _PolicyTable(
    reflection=TuningAgent,
    react=ReACTAgent,
    propose_critic=ProposeCriticAgent,
)


def list_policies() -> list[str]:
    """Registered policy names, in table order."""
    return list(POLICIES)


__all__ = ["POLICIES", "ProposeCriticAgent", "ReACTAgent", "list_policies"]

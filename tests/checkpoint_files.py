"""Read and write fleet checkpoint files in tests.

A checkpoint is a JSON-lines log: one ``{"format", "fleet"}`` header
line, then one ``{"tenant", "outcome"}`` line per arrival, a later line
for a tenant superseding an earlier one.  Tests that inspect or doctor a
checkpoint go through these two helpers instead of parsing the format
themselves.
"""

from __future__ import annotations

import json
from pathlib import Path


def read_checkpoint(path: Path) -> tuple[dict, dict]:
    """The file's header and its ``{tenant_id: outcome}`` table."""
    header, *records = (json.loads(line) for line in path.read_text().splitlines())
    return header, {record["tenant"]: record["outcome"] for record in records}


def write_checkpoint(path: Path, header: dict, outcomes: dict) -> None:
    """Lay ``header`` and one line per outcome out as the store does."""
    lines = [header, *({"tenant": t, "outcome": o} for t, o in outcomes.items())]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))

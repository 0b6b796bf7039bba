"""Seeded request streams for the three workloads.

Every input the program receives is generated here from the run's seed:
the same seed yields the same stream, byte for byte.  Streams are longer
than any run consumes; a run takes a prefix.
"""

from __future__ import annotations

import random

BACKENDS = ("lustre", "beegfs")
#: The registered agent policies, in the order engines rotate through them.
POLICIES = ("reflection", "react", "propose_critic")
#: The session queue every tune-seq engine and service tenant runs.
QUEUE = ("IOR_64K", "IOR_16M", "MDWorkbench_8K", "IO500")
SEARCH_WORKLOADS = ("IOR_64K", "MDWorkbench_8K", "IO500")
#: One repeat follows every third fresh search, so one search in four is
#: served from the run cache.
SEARCH_REPEAT_AFTER = 3
#: Searches per round: six fresh cells and two repeats.
SEARCH_ROUND = 8
SERVICE_TENANTS = 32
SERVICE_PRINCIPALS = 4
SERVICE_FAULT_RATE = 0.05

#: Stream lengths: far beyond what one run can consume.
N_ENGINES = 6000
N_SEARCHES = 4000
N_ROUNDS = 300


def _seed(rng: random.Random) -> int:
    return rng.randrange(1, 1 << 31)


def tune_seq(seed: int, n: int = N_ENGINES) -> list[dict]:
    """Engine ``i`` alternates backends and rotates policies; fresh seed."""
    rng = random.Random(f"tune-seq:{seed}")
    return [
        {
            "backend": BACKENDS[i % len(BACKENDS)],
            "policy": POLICIES[i % len(POLICIES)],
            "seed": _seed(rng),
        }
        for i in range(n)
    ]


def search(seed: int, n: int = N_SEARCHES) -> list[dict]:
    """Rounds of ``SEARCH_ROUND`` searches: the six backend x workload cells
    in a fixed order, each with a fresh seed, and after every third fresh
    search one repeat of a fresh search from the same round."""
    rng = random.Random(f"search:{seed}")
    cells = [(b, w) for w in SEARCH_WORKLOADS for b in BACKENDS]
    out: list[dict] = []
    while len(out) < n:
        fresh: list[dict] = []
        for backend, workload in cells:
            request = {
                "backend": backend,
                "workload": workload,
                "seed": _seed(rng),
                "repeat": False,
            }
            fresh.append(request)
            out.append(request)
            if len(fresh) % SEARCH_REPEAT_AFTER == 0:
                out.append(dict(rng.choice(fresh), repeat=True))
    return out[:n]


def service_stream(seed: int, n: int = N_ROUNDS) -> list[dict]:
    """Per round: 32 tenants over 4 principals and both backends, submitted
    in a seeded shuffled order, under a seeded uniform fault plan."""
    rng = random.Random(f"service-stream:{seed}")
    rounds = []
    for r in range(n):
        tenants = [
            {
                "tenant_id": f"acct{i % SERVICE_PRINCIPALS}/r{r:03d}t{i:02d}",
                "backend": BACKENDS[i % len(BACKENDS)],
                "seed": _seed(rng),
            }
            for i in range(SERVICE_TENANTS)
        ]
        rng.shuffle(tenants)
        rounds.append(
            {
                "fault_seed": _seed(rng),
                "fault_rate": SERVICE_FAULT_RATE,
                "tenants": tenants,
            }
        )
    return rounds


GENERATORS = {
    "tune-seq": tune_seq,
    "search": search,
    "service-stream": service_stream,
}


def generate(workload: str, seed: int) -> list[dict]:
    return GENERATORS[workload](seed)

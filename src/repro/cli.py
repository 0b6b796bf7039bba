"""Command-line interface.

Examples::

    stellar extract                    # offline RAG extraction report
    stellar tune IOR_16M               # one tuning run with transcript
    stellar tune IOR_16M --backend beegfs
    stellar experiment fig5            # reproduce a paper figure
    stellar experiment all --reps 4
    stellar experiment crossfs         # cross-backend rule transfer
    stellar experiment drift           # workload drift: static vs online
    stellar drift --schedule regime_flip --backend beegfs
    stellar fleet                      # multi-tenant fleet over both backends
    stellar fleet --backend lustre --workers 4
    stellar chaos                      # fleet under injected faults
    stellar chaos --backend beegfs --rates 0,0.1
    stellar tune IOR_16M --policy react
    stellar policies                   # rank agent policies over the fleet
    stellar serve                      # long-lived service: submit -> drain
    stellar overload                   # service under rising offered load
    stellar list                       # workloads, experiments, backends
"""

from __future__ import annotations

import argparse
import sys

from repro.agents.policies import list_policies
from repro.backends import list_backends
from repro.cluster import make_cluster
from repro.core.engine import Stellar
from repro.workloads import get_workload, list_schedules, list_workloads
from repro.workloads.dynamic import DEFAULT_SEGMENTS

EXPERIMENTS = (
    "fig2",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "cost",
    "casestudy",
    "extraction",
    "userspace",
    "autotuner-cost",
    "crossfs",
    "drift",
    "fleet",
    "resilience",
    "policies",
    "overload",
)

#: Count flags, checked once after parsing: attribute -> (smallest valid
#: value, what a valid value is).
_COUNT_FLAGS = {
    "workers": (1, "a positive worker count"),
    "reps": (1, "a positive repetition count"),
    "max_attempts": (0, "a non-negative attempt budget"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stellar",
        description="STELLAR (SC'25) reproduction: autonomous PFS tuning.",
    )
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads, experiments and backends")

    extract = sub.add_parser("extract", help="run the offline RAG extraction")
    extract.add_argument("--model", default="gpt-4o")
    extract.add_argument("--backend", choices=list_backends(), default="lustre")

    tune = sub.add_parser("tune", help="run one tuning run for a workload")
    tune.add_argument("workload", choices=list_workloads())
    tune.add_argument("--model", default="claude-3.7-sonnet")
    tune.add_argument("--backend", choices=list_backends(), default="lustre")
    tune.add_argument("--max-attempts", type=int, default=5)
    tune.add_argument("--no-descriptions", action="store_true")
    tune.add_argument("--no-analysis", action="store_true")
    tune.add_argument("--transcript", action="store_true")
    tune.add_argument(
        "--policy",
        choices=list_policies(),
        default="reflection",
        help="agent turn-taking strategy (default: reflection)",
    )

    experiment = sub.add_parser("experiment", help="reproduce a paper figure")
    experiment.add_argument("name", choices=EXPERIMENTS + ("all",))
    experiment.add_argument("--reps", type=int, default=8)
    experiment.add_argument("--backend", choices=list_backends(), default="lustre")

    drift = sub.add_parser(
        "drift",
        help="dynamic workloads: static one-shot vs online re-tuning vs oracle",
    )
    drift.add_argument(
        "--schedule", choices=list_schedules() + ["all"], default="all"
    )
    drift.add_argument(
        "--backend", choices=list_backends() + ["all"], default="all"
    )
    drift.add_argument("--segments", type=int, default=DEFAULT_SEGMENTS)
    drift.add_argument("--reps", type=int, default=8)

    fleet = sub.add_parser(
        "fleet",
        help="multi-tenant fleet: mixed tenants over the scheduler pool",
    )
    fleet.add_argument(
        "--backend", choices=list_backends() + ["all"], default="all"
    )
    fleet.add_argument(
        "--workers",
        type=int,
        default=None,
        help="pool size (default: REPRO_MAX_WORKERS, then cpu count)",
    )

    chaos = sub.add_parser(
        "chaos",
        help="fault-injection sweep: fleet completion and quality under faults",
    )
    chaos.add_argument(
        "--backend", choices=list_backends() + ["all"], default="all"
    )
    chaos.add_argument(
        "--rates",
        default="0,0.05,0.1,0.2",
        help="comma-separated fault rates in [0, 1] (0 is the oracle cell)",
    )
    chaos.add_argument(
        "--workers",
        type=int,
        default=None,
        help="pool size (default: REPRO_MAX_WORKERS, then cpu count)",
    )

    policies = sub.add_parser(
        "policies",
        help="rank agent policies over the mixed-tenant fleet matrix",
    )
    policies.add_argument(
        "--backend", choices=list_backends() + ["all"], default="all"
    )
    policies.add_argument(
        "--workers",
        type=int,
        default=None,
        help="pool size (default: REPRO_MAX_WORKERS, then cpu count)",
    )

    serve = sub.add_parser(
        "serve",
        help="long-lived tuning service: submit the fleet matrix, drain",
    )
    serve.add_argument(
        "--backend", choices=list_backends() + ["all"], default="all"
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="pool size (default: REPRO_MAX_WORKERS, then cpu count)",
    )
    serve.add_argument(
        "--in-order",
        action="store_true",
        help="submit in matrix order instead of the seeded shuffle",
    )

    overload = sub.add_parser(
        "overload",
        help="service overload sweep: admitted/shed/queue depth vs offered load",
    )
    overload.add_argument(
        "--backend", choices=list_backends() + ["all"], default="all"
    )
    overload.add_argument(
        "--loads",
        default="4,8,16",
        help="comma-separated submission burst sizes",
    )
    overload.add_argument(
        "--rate",
        type=float,
        default=0.0,
        help="uniform fault rate in [0, 1] composed with the overload",
    )
    overload.add_argument(
        "--workers",
        type=int,
        default=None,
        help="pool size (default: REPRO_MAX_WORKERS, then cpu count)",
    )
    return parser


def _run_experiment(name: str, cluster, reps: int, seed: int) -> str:
    from repro.experiments import (
        casestudy,
        cost,
        extraction_report,
        fig2,
        fig5,
        fig6,
        fig7,
        fig8,
        fig9,
    )

    if name == "fig2":
        return fig2.run(cluster, seed=seed).render()
    if name == "fig5":
        return fig5.run(cluster, reps=reps, seed=seed).render()
    if name == "fig6":
        return fig6.run(cluster, reps=reps, seed=seed).render()
    if name == "fig7":
        return fig7.run(cluster, reps=reps, seed=seed).render()
    if name == "fig8":
        return fig8.run(cluster, reps=reps, seed=seed).render()
    if name == "fig9":
        return fig9.run(cluster, reps=reps, seed=seed).render()
    if name == "cost":
        return cost.run(cluster, seed=seed).render()
    if name == "casestudy":
        return casestudy.run(cluster, seed=seed or 3).render()
    if name == "extraction":
        return extraction_report.run(cluster, seed=seed).render()
    if name == "userspace":
        from repro.experiments import userspace

        return userspace.run(cluster, reps=reps, seed=seed).render()
    if name == "autotuner-cost":
        from repro.experiments import autotuner_cost

        return autotuner_cost.run(cluster, seed=seed).render()
    if name == "crossfs":
        from repro.experiments import crossfs

        return crossfs.run(cluster, reps=reps, seed=seed).render()
    if name == "drift":
        from repro.experiments import drift

        # Like the other figure experiments, honor the testbed's backend;
        # the dedicated `stellar drift` subcommand covers the full grid.
        return drift.run(
            cluster, reps=reps, seed=seed, backends=(cluster.backend_name,)
        ).render()
    if name == "fleet":
        from repro.experiments import fleet

        return fleet.run(cluster, seed=seed).render()
    if name == "resilience":
        from repro.experiments import resilience

        return resilience.run(cluster, seed=seed).render()
    if name == "policies":
        from repro.experiments import policies

        return policies.run(cluster, seed=seed).render()
    if name == "overload":
        from repro.experiments import overload

        return overload.run(cluster, seed=seed).render()
    raise ValueError(f"unknown experiment {name!r}")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    for name, (smallest, meaning) in _COUNT_FLAGS.items():
        value = getattr(args, name, None)
        if value is not None and value < smallest:
            # A typo is a clean CLI error, not a traceback or an empty
            # report from deep inside an experiment.
            flag = "--" + name.replace("_", "-")
            print(f"error: {flag} {value}: must be {meaning}", file=sys.stderr)
            return 2
    backend_arg = getattr(args, "backend", "lustre")

    if args.command == "drift":
        from repro.experiments import drift
        from repro.workloads import SCHEDULE_KINDS, build_schedule

        schedules = (
            SCHEDULE_KINDS if args.schedule == "all" else (args.schedule,)
        )
        # Schedule builders have per-kind segment minima (a regime flip
        # needs 3); surface those as a CLI error, not a traceback.  The
        # catch stays scoped to the builders so an internal ValueError
        # from the experiment itself still surfaces as a real traceback.
        for kind in schedules:
            try:
                build_schedule(kind, seed=args.seed, n_segments=args.segments)
            except ValueError as exc:
                print(f"error: --segments {args.segments}: {exc}", file=sys.stderr)
                return 2
        backends = drift.BACKENDS if backend_arg == "all" else (backend_arg,)
        result = drift.run(
            reps=args.reps,
            seed=args.seed,
            schedules=schedules,
            backends=backends,
            n_segments=args.segments,
        )
        print(result.render())
        return 0

    if args.command == "fleet":
        from repro.experiments import fleet

        backends = (
            fleet.BACKENDS if backend_arg == "all" else (backend_arg,)
        )
        report = fleet.run(
            seed=args.seed,
            backends=backends,
            max_workers=args.workers,
        )
        print(report.render())
        return 0

    if args.command == "chaos":
        from repro.experiments import resilience

        try:
            rates = tuple(
                float(token) for token in args.rates.split(",") if token.strip()
            )
        except ValueError:
            print(
                f"error: --rates {args.rates!r}: not a comma-separated "
                "list of numbers",
                file=sys.stderr,
            )
            return 2
        if not rates or any(not 0.0 <= rate <= 1.0 for rate in rates):
            print(
                f"error: --rates {args.rates!r}: rates must lie in [0, 1]",
                file=sys.stderr,
            )
            return 2
        backends = (
            resilience.BACKENDS if backend_arg == "all" else (backend_arg,)
        )
        report = resilience.run(
            seed=args.seed,
            backends=backends,
            rates=rates,
            max_workers=args.workers,
        )
        print(report.render())
        return 0

    if args.command == "serve":
        import random

        from repro.experiments import fleet as fleet_experiment
        from repro.service import TuningService

        backends = (
            fleet_experiment.BACKENDS if backend_arg == "all" else (backend_arg,)
        )
        tenants = fleet_experiment.default_tenants(backends, seed=args.seed)
        order = list(tenants)
        if not args.in_order:
            # A seeded shuffle: the daemon must produce the same drained
            # fleet whatever order tenants arrive in, so the default
            # exercises an out-of-order submission stream deterministically.
            random.Random(args.seed).shuffle(order)
        service = TuningService(seed=args.seed, max_workers=args.workers)
        print(
            "Service: long-lived tuning daemon "
            f"({len(order)} submission(s), out-of-order={not args.in_order})"
        )
        print("  admission log:")
        for index, spec in enumerate(order):
            print(service.submit(spec, priority=index % 3).render_row())
        result = service.drain()
        print(result.render())
        return 0

    if args.command == "overload":
        from repro.experiments import overload

        try:
            loads = tuple(
                int(token) for token in args.loads.split(",") if token.strip()
            )
        except ValueError:
            print(
                f"error: --loads {args.loads!r}: not a comma-separated "
                "list of integers",
                file=sys.stderr,
            )
            return 2
        if not loads or any(load <= 0 for load in loads):
            print(
                f"error: --loads {args.loads!r}: burst sizes must be "
                "positive",
                file=sys.stderr,
            )
            return 2
        if not 0.0 <= args.rate <= 1.0:
            print(
                f"error: --rate {args.rate}: must lie in [0, 1]",
                file=sys.stderr,
            )
            return 2
        backends = (
            overload.BACKENDS if backend_arg == "all" else (backend_arg,)
        )
        report = overload.run(
            seed=args.seed,
            backends=backends,
            loads=loads,
            rate=args.rate,
            max_workers=args.workers,
        )
        print(report.render())
        return 0

    if args.command == "policies":
        from repro.experiments import policies

        backends = (
            policies.BACKENDS if backend_arg == "all" else (backend_arg,)
        )
        report = policies.run(
            seed=args.seed, backends=backends, max_workers=args.workers
        )
        print(report.render())
        return 0

    cluster = make_cluster(seed=args.seed, backend=backend_arg)

    if args.command == "list":
        print("workloads:", ", ".join(list_workloads()))
        print("schedules:", ", ".join(list_schedules()))
        print("experiments:", ", ".join(EXPERIMENTS))
        print("backends:", ", ".join(list_backends()))
        print("policies:", ", ".join(list_policies()))
        return 0

    if args.command == "extract":
        from repro.experiments import extraction_report

        print(extraction_report.run(cluster, seed=args.seed, model=args.model).render())
        return 0

    if args.command == "tune":
        engine = Stellar.build(cluster, model=args.model, seed=args.seed)
        session = engine.tune(
            get_workload(args.workload),
            max_attempts=args.max_attempts,
            use_descriptions=not args.no_descriptions,
            use_analysis=not args.no_analysis,
            policy=args.policy,
        )
        print(session.summary())
        if args.transcript:
            print()
            print(session.transcript.render())
        return 0

    if args.command == "experiment":
        names = EXPERIMENTS if args.name == "all" else (args.name,)
        for name in names:
            print(_run_experiment(name, cluster, args.reps, args.seed))
            print()
        return 0

    return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

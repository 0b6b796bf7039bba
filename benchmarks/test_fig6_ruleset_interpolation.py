"""Bench: regenerate Figure 6 (rule-set interpolation on the benchmarks)."""

from bench_settings import BENCH_REPS

from repro.experiments import fig6


def test_fig6_ruleset_interpolation(benchmark, cluster):
    result = benchmark.pedantic(
        lambda: fig6.run(cluster, reps=BENCH_REPS, seed=0), rounds=1, iterations=1
    )
    print("\n" + result.render())

    # Paper shape: the global rule set yields a significantly better first
    # guess on most benchmarks (4 of 5) ...
    better_first = sum(
        1
        for c in result.comparisons
        if c.with_rules[1] >= c.without_rules[1] - 0.05
    )
    assert better_first >= 4

    # ... and never worse final configurations, with no longer exploration.
    for c in result.comparisons:
        assert c.with_rules[-1] >= c.without_rules[-1] * 0.9, c.workload
    faster_stop = sum(
        1 for c in result.comparisons if c.attempts_with <= c.attempts_without + 0.21
    )
    assert faster_stop >= 3

    # Everything concludes within five attempts.
    for c in result.comparisons:
        assert c.attempts_with <= 5 and c.attempts_without <= 5

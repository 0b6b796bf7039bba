"""Bench: regenerate Figure 7 (rule extrapolation to unseen applications)."""

from bench_settings import BENCH_REPS

from repro.experiments import fig7


def test_fig7_ruleset_extrapolation(benchmark, cluster):
    result = benchmark.pedantic(
        lambda: fig7.run(cluster, reps=BENCH_REPS, seed=0), rounds=1, iterations=1
    )
    print("\n" + result.render())

    for c in result.comparisons:
        # Benchmark-derived rules transfer: tuned configurations clearly
        # beat the default on every unseen application ...
        assert max(c.with_rules) > 1.5, c.workload
        # ... with first-guess quality held or improved.
        assert c.with_rules[1] >= c.without_rules[1] * 0.9, c.workload

    # MACSio_16M with rules avoids exploring near-default configurations.
    macsio = result.get("MACSio_16M")
    assert min(macsio.with_rules[1:]) > 2.0

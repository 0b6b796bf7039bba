"""Bench: regenerate Figure 5 (STELLAR vs default and expert, 5 benchmarks)."""

from bench_settings import BENCH_REPS

from repro.experiments import fig5


def test_fig5_tuning_performance(benchmark, cluster):
    result = benchmark.pedantic(
        lambda: fig5.run(cluster, reps=BENCH_REPS, seed=0), rounds=1, iterations=1
    )
    print("\n" + result.render())

    for comparison in result.comparisons:
        # STELLAR always beats the default within five attempts ...
        assert comparison.stellar_speedup > 1.2, comparison.workload
        assert max(comparison.attempts_used) <= 5
        # ... and is comparable to (or better than) the human expert.
        assert comparison.stellar.mean < comparison.expert.mean * 1.15

    # Headline factors: random-small IOR gains most (paper: up to 7.8x),
    # sequential-large IOR ~5x (paper Fig 9: 4.91x).
    assert 4.5 < result.get("IOR_64K").stellar_speedup < 9.0
    assert 3.5 < result.get("IOR_16M").stellar_speedup < 7.0

    # Crossover: STELLAR outperforms the expert on multi-phase IO500.
    io500 = result.get("IO500")
    assert io500.stellar.mean < io500.expert.mean

"""Bench: regenerate Figure 9 (different LLMs as the Tuning Agent)."""

from bench_settings import BENCH_REPS

from repro.experiments import fig9


def test_fig9_model_comparison(benchmark, cluster):
    result = benchmark.pedantic(
        lambda: fig9.run(cluster, reps=BENCH_REPS, seed=0), rounds=1, iterations=1
    )
    print("\n" + result.render())

    # Paper shape: all evaluated models generate similarly performing
    # configurations with significant speedups (paper: up to 4.91x) within
    # five iterations.
    speedups = [o.mean_speedup for o in result.outcomes]
    assert all(s > 4.0 for s in speedups)
    assert max(speedups) / min(speedups) < 1.2
    for outcome in result.outcomes:
        assert max(outcome.attempts) <= 5

"""Bench: regenerate Figure 8 (component ablations on MDWorkbench_8K)."""

from bench_settings import BENCH_REPS

from repro.experiments import fig8


def test_fig8_ablations(benchmark, cluster):
    result = benchmark.pedantic(
        lambda: fig8.run(cluster, reps=BENCH_REPS, seed=0), rounds=1, iterations=1
    )
    print("\n" + result.render())

    # Paper shape: the full system clearly improves the workload, while
    # removing either the RAG descriptions or the Analysis Agent is
    # catastrophic — neither ablation meaningfully beats the default.
    assert result.full.mean_speedup > 1.3
    assert result.no_descriptions.mean_speedup < 1.1
    assert result.no_analysis.mean_speedup < 1.1
    assert result.full.mean_speedup > result.no_descriptions.mean_speedup + 0.2
    assert result.full.mean_speedup > result.no_analysis.mean_speedup + 0.2

"""Bench: the §5.6 user-accessible tuning direction."""

from bench_settings import BENCH_REPS

from repro.experiments import userspace


def test_user_space_tuning(benchmark, cluster):
    result = benchmark.pedantic(
        lambda: userspace.run(cluster, reps=BENCH_REPS, seed=0),
        rounds=1,
        iterations=1,
    )
    print("\n" + result.render())

    # Shared-file data workloads keep most of their win through layout
    # (lfs setstripe) alone ...
    assert result.get("IOR_16M").win_retained > 0.6
    assert result.get("IOR_64K").win_retained > 0.5
    # ... but metadata storms have no user-space lever: the client
    # concurrency and statahead knobs all require root.
    assert result.get("MDWorkbench_8K").userspace_mean < 1.1
    assert result.get("MDWorkbench_8K").full_mean > 1.3

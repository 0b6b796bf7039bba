"""Bench: regenerate the §4.2 offline extraction output (13 parameters)."""

from repro.backends import get_backend
from repro.experiments import extraction_report


def test_extraction_pipeline(benchmark, cluster):
    report = benchmark.pedantic(
        lambda: extraction_report.run(cluster, seed=0), rounds=1, iterations=1
    )
    print("\n" + report.render())

    result = report.result
    assert sorted(result.selected_names) == sorted(
        get_backend("lustre").selected_parameter_names()
    )
    assert "osc.checksums" in result.filtered_binary
    assert "nrs.delay_min" in result.filtered_low_impact
    # Dependent ranges survive in expression syntax.
    per_file = next(
        p for p in result.selected if p.name == "llite.max_read_ahead_per_file_mb"
    )
    assert per_file.max_expr == "llite.max_read_ahead_mb / 2"

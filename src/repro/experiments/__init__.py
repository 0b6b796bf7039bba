"""Reproductions of the paper's evaluation (§5).

One module per artifact:

- :mod:`repro.experiments.fig2` — LLM hallucination vs. RAG extraction;
- :mod:`repro.experiments.fig5` — tuning vs. default and expert baselines;
- :mod:`repro.experiments.fig6` — rule-set interpolation on the benchmarks;
- :mod:`repro.experiments.fig7` — rule-set extrapolation to real apps;
- :mod:`repro.experiments.fig8` — component ablations on MDWorkbench_8K;
- :mod:`repro.experiments.fig9` — model comparison on IOR_16M;
- :mod:`repro.experiments.cost` — token/cost/latency analysis (§5.7);
- :mod:`repro.experiments.casestudy` — the Figure 10 tuning timeline;
- :mod:`repro.experiments.extraction_report` — the offline pipeline output.

All are deterministic given (seed, reps) and return dataclasses with a
``render()`` for human-readable output; the benchmark harness asserts each
one's paper-shape expectations.
"""

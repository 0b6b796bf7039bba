"""Settings shared by the figure-reproduction benchmarks.

A plain module rather than ``conftest.py``: pytest loads every directory's
``conftest.py`` under the one module name ``conftest``, so importing a
constant from it depends on which suite's conftest pytest loaded last.
"""

#: Repetitions per configuration (the paper uses 8; benches use 5 to keep
#: each artifact's regeneration under a minute end to end).
BENCH_REPS = 5

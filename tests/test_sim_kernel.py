"""Tests for the discrete-event kernel: engine, resources, RNG streams."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import BandwidthLink, Engine, FifoServer, RngStreams, TokenPool


#: Modules the engine and the service must not load: the event kernel,
#: which ``repro.sim`` resolves on first use, and every figure reproduction
#: and baseline, which only the experiments and the CLI import.
UNLOADED_BY_TUNING = (
    "repro.sim.engine",
    "repro.sim.resources",
    *(
        f"repro.experiments.{name}"
        for name in (
            "fig2", "fig5", "fig6", "fig7", "fig8", "fig9", "autotuner_cost",
            "casestudy", "cost", "extraction_report", "userspace",
        )
    ),
    "repro.baselines",
    "repro.baselines.default",
    "repro.baselines.expert",
    "repro.baselines.search",
)


#: Modules a fresh ``import repro.baselines.search`` must not load: the
#: search reaches the sweep, and with it ``numpy.random``, only through
#: ``Simulator`` methods that import it on first use.
UNLOADED_BY_SEARCH = ("repro.sim.sweep", "numpy.random")


def loaded_after(statement: str, modules) -> list[str]:
    """Which of ``modules`` a fresh interpreter has loaded after running
    ``statement``."""
    code = (
        "import sys\n"
        f"{statement}\n"
        f"print(sorted(m for m in {tuple(modules)!r} if m in sys.modules))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return ast.literal_eval(result.stdout)


def test_tuning_imports_leave_the_event_kernel_unloaded():
    """The engine and the service load no event-kernel, figure or baseline
    module: ``repro.sim`` resolves ``Engine``, ``FifoServer`` and the rest
    on first use, and ``repro.experiments`` imports no submodule."""
    statement = "import repro.core.engine, repro.service"
    assert loaded_after(statement, UNLOADED_BY_TUNING) == []


def test_search_import_leaves_the_sweep_unloaded():
    """Importing the oracle search loads neither the sweep module nor
    ``numpy.random``."""
    assert loaded_after("import repro.baselines.search", UNLOADED_BY_SEARCH) == []


class TestEngine:
    def test_events_fire_in_time_order(self):
        engine = Engine()
        fired = []
        engine.schedule(2.0, lambda: fired.append("b"))
        engine.schedule(1.0, lambda: fired.append("a"))
        engine.schedule(3.0, lambda: fired.append("c"))
        engine.run()
        assert fired == ["a", "b", "c"]
        assert engine.now == 3.0

    def test_ties_break_by_insertion_order(self):
        engine = Engine()
        fired = []
        for tag in ("first", "second", "third"):
            engine.schedule(1.0, lambda t=tag: fired.append(t))
        engine.run()
        assert fired == ["first", "second", "third"]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Engine().schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self):
        engine = Engine()
        engine.schedule(5.0, lambda: None)
        engine.run()
        with pytest.raises(ValueError):
            engine.schedule_at(1.0, lambda: None)

    def test_cancel(self):
        engine = Engine()
        fired = []
        event = engine.schedule(1.0, lambda: fired.append("x"))
        engine.cancel(event)
        engine.run()
        assert fired == []
        assert engine.pending == 0

    def test_run_until(self):
        engine = Engine()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(10.0, lambda: fired.append(10))
        engine.run(until=5.0)
        assert fired == [1]
        assert engine.now == 5.0

    def test_event_budget(self):
        engine = Engine()

        def rearm():
            engine.schedule(1.0, rearm)

        engine.schedule(1.0, rearm)
        with pytest.raises(RuntimeError):
            engine.run(max_events=100)

    def test_nested_scheduling(self):
        engine = Engine()
        fired = []

        def outer():
            fired.append("outer")
            engine.schedule(1.0, lambda: fired.append("inner"))

        engine.schedule(1.0, outer)
        engine.run()
        assert fired == ["outer", "inner"]
        assert engine.now == 2.0


class TestFifoServer:
    def test_single_server_serializes(self):
        engine = Engine()
        server = FifoServer(engine, servers=1)
        done_at = []
        for _ in range(3):
            server.submit(1.0, lambda: done_at.append(engine.now))
        engine.run()
        assert done_at == [1.0, 2.0, 3.0]
        assert server.completed == 3
        assert server.busy_time == pytest.approx(3.0)

    def test_multi_server_parallelism(self):
        engine = Engine()
        server = FifoServer(engine, servers=3)
        done_at = []
        for _ in range(3):
            server.submit(1.0, lambda: done_at.append(engine.now))
        engine.run()
        assert done_at == [1.0, 1.0, 1.0]

    def test_queue_depth_visible(self):
        engine = Engine()
        server = FifoServer(engine, servers=1)
        for _ in range(5):
            server.submit(1.0, lambda: None)
        assert server.queued == 4  # one in service

    def test_invalid_args(self):
        engine = Engine()
        with pytest.raises(ValueError):
            FifoServer(engine, servers=0)
        with pytest.raises(ValueError):
            FifoServer(engine).submit(-1.0, lambda: None)


class TestBandwidthLink:
    def test_transfer_time_is_bytes_over_bandwidth_plus_latency(self):
        engine = Engine()
        link = BandwidthLink(engine, bandwidth=100.0, latency=0.5)
        done_at = []
        link.transfer(200, lambda: done_at.append(engine.now))
        engine.run()
        assert done_at == [pytest.approx(2.5)]

    def test_transfers_serialize_on_wire_but_latency_overlaps(self):
        engine = Engine()
        link = BandwidthLink(engine, bandwidth=100.0, latency=1.0)
        done_at = []
        link.transfer(100, lambda: done_at.append(engine.now))
        link.transfer(100, lambda: done_at.append(engine.now))
        engine.run()
        # Wire times 1s each serialize (1, 2); latency 1s overlaps.
        assert done_at == [pytest.approx(2.0), pytest.approx(3.0)]
        assert link.bytes_moved == 200

    def test_invalid_args(self):
        engine = Engine()
        with pytest.raises(ValueError):
            BandwidthLink(engine, bandwidth=0)
        with pytest.raises(ValueError):
            BandwidthLink(engine, bandwidth=1.0).transfer(-1, lambda: None)


class TestTokenPool:
    def test_acquire_release_fifo(self):
        pool = TokenPool(tokens=1)
        order = []
        pool.acquire(lambda: order.append("a"))
        pool.acquire(lambda: order.append("b"))
        pool.acquire(lambda: order.append("c"))
        assert order == ["a"]
        pool.release()
        pool.release()
        assert order == ["a", "b", "c"]

    def test_release_overflow_detected(self):
        pool = TokenPool(tokens=2)
        with pytest.raises(RuntimeError):
            pool.release()

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            TokenPool(tokens=0)


class TestRngStreams:
    def test_same_seed_same_draws(self):
        a = RngStreams(42).stream("noise").random(5)
        b = RngStreams(42).stream("noise").random(5)
        assert np.array_equal(a, b)

    def test_streams_are_independent(self):
        streams = RngStreams(42)
        first = streams.stream("one").random(5)
        # Creating another stream must not perturb the first stream's future.
        streams.stream("two").random(5)
        fresh = RngStreams(42)
        fresh_first = fresh.stream("one").random(10)
        combined = np.concatenate([first, streams.stream("one").random(5)])
        assert np.array_equal(combined, fresh_first)

    def test_different_names_differ(self):
        streams = RngStreams(7)
        assert not np.array_equal(
            streams.stream("a").random(8), streams.stream("b").random(8)
        )

    def test_spawn_differs_from_parent(self):
        parent = RngStreams(7)
        child = parent.spawn("rep0")
        assert not np.array_equal(
            parent.stream("x").random(4), child.stream("x").random(4)
        )

    def test_lognormal_noise_median_near_one(self):
        streams = RngStreams(3)
        draws = [streams.lognormal_noise(f"n{i}", 0.05) for i in range(500)]
        assert 0.98 < float(np.median(draws)) < 1.02

    def test_zero_sigma_is_exact(self):
        assert RngStreams(0).lognormal_noise("x", 0.0) == 1.0


@settings(max_examples=30, deadline=None)
@given(
    service_times=st.lists(
        st.floats(min_value=0.001, max_value=5.0), min_size=1, max_size=20
    ),
    servers=st.integers(min_value=1, max_value=4),
)
def test_fifo_makespan_bounds(service_times, servers):
    """Makespan is bounded below by total/servers and above by total."""
    engine = Engine()
    server = FifoServer(engine, servers=servers)
    for s in service_times:
        server.submit(s, lambda: None)
    makespan = engine.run()
    total = sum(service_times)
    assert makespan <= total + 1e-9
    assert makespan >= total / servers - 1e-9
    assert makespan >= max(service_times) - 1e-9

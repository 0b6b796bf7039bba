"""Dynamic workloads, time-segmented simulation and the online loop:
schedule determinism, ``run_schedule`` bit-identity per backend, drift-
detector hysteresis and the bounded re-tuning controller."""

import pytest

from repro.agents.online import DriftDetector, MonitorSample, OnlineController
from repro.backends import list_backends
from repro.cluster import make_cluster
from repro.core.engine import Stellar
from repro.experiments import drift
from repro.experiments.harness import shared_extraction
from repro.pfs.config import PfsConfig
from repro.pfs.simulator import Simulator
from repro.sim.cache import RUN_CACHE
from repro.sim.random import RngStreams
from repro.sim.sweep import schedule_items
from repro.workloads import SCHEDULE_KINDS, build_schedule
from repro.workloads.dynamic import CheckpointWorkload, InterleavedWorkload


@pytest.fixture(scope="module", params=list_backends())
def cluster(request):
    return make_cluster(seed=0, backend=request.param)


class TestSchedules:
    @pytest.mark.parametrize("kind", SCHEDULE_KINDS)
    def test_same_seed_same_segments(self, kind):
        a = build_schedule(kind, seed=3)
        b = build_schedule(kind, seed=3)
        assert a.cache_key() == b.cache_key()
        assert [s.label for s in a] == [s.label for s in b]
        assert [repr(s.workload) for s in a] == [repr(s.workload) for s in b]

    @pytest.mark.parametrize("kind", SCHEDULE_KINDS)
    def test_different_seeds_differ(self, kind):
        a = build_schedule(kind, seed=0)
        b = build_schedule(kind, seed=1)
        assert a.cache_key() != b.cache_key()

    @pytest.mark.parametrize("kind", SCHEDULE_KINDS)
    def test_segments_are_indexed_in_order(self, kind):
        schedule = build_schedule(kind, seed=0, n_segments=6)
        assert [s.index for s in schedule] == list(range(6))
        assert len(schedule) == 6

    def test_unknown_kind_rejected(self):
        with pytest.raises(KeyError, match="unknown schedule"):
            build_schedule("nope")

    def test_checkpoint_workload_modes(self):
        # Large granularity: N-1 shared dump; small: N-N private files.
        from repro.backends.base import KiB, MiB

        big = CheckpointWorkload(name="ckpt", file_size=64 * MiB)
        small = CheckpointWorkload(name="ckpt", file_size=64 * KiB)
        cl = make_cluster(seed=0)
        assert any(p.fileset.shared for p in big.compile(cl))
        assert not any(p.fileset.shared for p in small.compile(cl))
        assert small.files_per_rank == 2048
        assert big.traits["io_intensity"] == "data"
        assert small.traits["io_intensity"] == "metadata"

    def test_interleaved_requires_members(self):
        cl = make_cluster(seed=0)
        with pytest.raises(ValueError, match="at least one member"):
            InterleavedWorkload(name="empty").compile(cl)

    def test_schedules_compile_through_phase_cache(self, cluster):
        schedule = build_schedule("tenant_mix", seed=0, n_segments=4)
        for segment in schedule:
            first = segment.workload.compile(cluster)
            second = segment.workload.compile(cluster)
            assert [id(p) for p in first] == [id(p) for p in second]


class TestRunSchedule:
    @pytest.mark.parametrize("kind", SCHEDULE_KINDS)
    def test_bit_identical_to_sequential(self, cluster, kind):
        """Batched schedule == per-segment sequential run(), per backend."""
        sim = Simulator(cluster)
        schedule = build_schedule(kind, seed=0, n_segments=5)
        config = PfsConfig(facts=cluster.config_facts(), backend=cluster.backend)
        batched = sim.run_schedule(schedule, config, seed=9)
        with RUN_CACHE.disabled():
            sequential = [
                sim.run(seg.workload, config, seed=RngStreams.rep_seed(9, i))
                for i, seg in enumerate(schedule)
            ]
        assert [r.seconds for r in batched] == [r.seconds for r in sequential]
        assert [r.seed for r in batched] == [r.seed for r in sequential]
        for bat, seq in zip(batched, sequential):
            assert [p.seconds for p in bat.phases] == [p.seconds for p in seq.phases]

    def test_per_segment_configs(self, cluster):
        sim = Simulator(cluster)
        schedule = build_schedule("regime_flip", seed=0, n_segments=4)
        base = PfsConfig(facts=cluster.config_facts(), backend=cluster.backend)
        spec = cluster.backend.writable_specs()[0]
        tuned = base.with_updates({spec.name: spec.default}).clipped()
        configs = [base, base, tuned, tuned]
        batched = sim.run_schedule(schedule, configs, seed=2)
        for i, (seg, cfg) in enumerate(zip(schedule, configs)):
            with RUN_CACHE.disabled():
                seq = sim.run(seg.workload, cfg, seed=RngStreams.rep_seed(2, i))
            assert batched[i].seconds == seq.seconds

    def test_config_count_mismatch_rejected(self, cluster):
        schedule = build_schedule("regime_flip", seed=0, n_segments=4)
        base = PfsConfig(facts=cluster.config_facts(), backend=cluster.backend)
        with pytest.raises(ValueError, match="pass one config"):
            schedule_items(schedule, [base, base], seed=0)

    def test_accepts_bare_workloads(self, cluster):
        from repro.workloads import get_workload

        sim = Simulator(cluster)
        base = PfsConfig(facts=cluster.config_facts(), backend=cluster.backend)
        runs = sim.run_schedule([get_workload("IOR_64K")], base, seed=4)
        with RUN_CACHE.disabled():
            reference = sim.run(
                get_workload("IOR_64K"), base, seed=RngStreams.rep_seed(4, 0)
            )
        assert runs[0].seconds == reference.seconds


class TestDriftDetector:
    def _sample(self, data_rate: float, meta_rate: float = 1000.0) -> MonitorSample:
        return MonitorSample(seconds=1.0, data_rate=data_rate, meta_rate=meta_rate)

    def test_first_sample_becomes_reference(self):
        detector = DriftDetector(band=0.5)
        assert not detector.observe(self._sample(1e9))
        assert detector.reference is not None

    def test_no_retune_inside_band(self):
        """Hysteresis: fluctuations within the band never trigger."""
        detector = DriftDetector(band=0.5)
        detector.observe(self._sample(1e9))
        for factor in (0.8, 1.1, 1.3, 0.7, 1.45):
            assert not detector.observe(self._sample(1e9 * factor))

    def test_drift_outside_band_triggers(self):
        detector = DriftDetector(band=0.5)
        detector.observe(self._sample(1e9))
        assert detector.observe(self._sample(1e9 * 2.0))
        assert detector.observe(self._sample(1e9 * 0.3))

    def test_meta_signal_triggers_independently(self):
        detector = DriftDetector(band=0.5)
        detector.observe(self._sample(1e9, meta_rate=1000.0))
        assert detector.observe(self._sample(1e9, meta_rate=50_000.0))

    def test_rebase_resets_reference(self):
        detector = DriftDetector(band=0.5)
        detector.observe(self._sample(1e9))
        detector.rebase()
        # First post-rebase sample is the new reference, not a drift.
        assert not detector.observe(self._sample(1e5))
        assert not detector.observe(self._sample(1e5 * 1.2))

    def test_sample_from_run(self, cluster):
        sim = Simulator(cluster)
        from repro.workloads import get_workload

        base = PfsConfig(facts=cluster.config_facts(), backend=cluster.backend)
        run = sim.run(get_workload("MDWorkbench_2K"), base, seed=0)
        sample = MonitorSample.from_run(run)
        assert sample.meta_rate > 0
        assert sample.seconds == pytest.approx(run.seconds)


class TestOnlineController:
    def _controller(self, cluster, **kwargs) -> OnlineController:
        engine = Stellar(
            cluster=cluster,
            model="claude-3.7-sonnet",
            extraction=shared_extraction(cluster),
            seed=0,
        )
        return OnlineController(engine, **kwargs)

    def _drive(self, cluster, schedule, controller) -> list[int]:
        sim = Simulator(cluster)
        base = PfsConfig(facts=cluster.config_facts(), backend=cluster.backend)
        controller.start(schedule[0].workload)
        for segment in schedule:
            run = sim.run(
                segment.workload, controller.config(base), seed=7 + segment.index
            )
            controller.observe(segment.index, run, segment.workload)
        return [event.segment_index for event in controller.retunes]

    def test_static_schedule_never_retunes(self, cluster):
        """No thrash: a steady workload stays inside the band forever."""
        schedule = build_schedule("regime_flip", seed=0, n_segments=8)
        steady = [schedule[0]] * 8  # the pre-flip segment repeated
        controller = self._controller(cluster)
        retuned_at = self._drive(cluster, steady, controller)
        assert retuned_at == []
        assert len(controller.sessions) == 1  # only the initial tune

    def test_regime_flip_triggers_bounded_retunes(self, cluster):
        schedule = build_schedule("regime_flip", seed=0, n_segments=8)
        controller = self._controller(cluster, max_retunes=2)
        retuned_at = self._drive(cluster, schedule, controller)
        assert 1 <= len(retuned_at) <= 2
        # The flip lives in the middle third; the re-tune happens at it.
        flip_segment = next(
            i for i, seg in enumerate(schedule) if "metadata" in seg.label
        )
        assert retuned_at[0] == flip_segment
        assert controller.tuning_executions > 0

    def test_retune_budget_respected(self, cluster):
        schedule = build_schedule("xfer_drift", seed=0, n_segments=8)
        controller = self._controller(cluster, max_retunes=1)
        retuned_at = self._drive(cluster, schedule, controller)
        assert len(retuned_at) <= 1
        assert len(controller.sessions) <= 2

    def test_retuned_config_differs_after_flip(self, cluster):
        schedule = build_schedule("regime_flip", seed=0, n_segments=8)
        controller = self._controller(cluster)
        base = PfsConfig(facts=cluster.config_facts(), backend=cluster.backend)
        initial = controller.start(schedule[0].workload)
        self._drive_from(cluster, schedule, controller, base)
        assert controller.updates != initial

    def _drive_from(self, cluster, schedule, controller, base) -> None:
        sim = Simulator(cluster)
        for segment in schedule:
            run = sim.run(
                segment.workload, controller.config(base), seed=7 + segment.index
            )
            controller.observe(segment.index, run, segment.workload)


class TestDriftExperiment:
    def test_online_beats_static_everywhere(self):
        """The acceptance cell check on a reduced grid (both backends)."""
        result = drift.run(reps=2, seed=0, n_segments=6)
        assert len(result.cells) == len(drift.BACKENDS) * len(SCHEDULE_KINDS)
        for cell in result.cells:
            assert cell.online_speedup > 1.0, (
                f"online lost on ({cell.backend}, {cell.schedule.name}): "
                f"{cell.online_speedup:.3f}x"
            )
            assert cell.retunes <= 3
        rendered = result.render()
        assert "online re-tuning beats the static tune" in rendered

    def test_cell_measurements_are_deterministic(self):
        cluster = make_cluster(seed=0)
        schedule = build_schedule("regime_flip", seed=0, n_segments=5)
        a = drift.run_cell(cluster, schedule, reps=2, seed=0)
        b = drift.run_cell(cluster, schedule, reps=2, seed=0)
        assert a.static.times == b.static.times
        assert a.online.times == b.online.times
        assert a.retune_segments == b.retune_segments

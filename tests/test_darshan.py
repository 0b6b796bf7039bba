"""Tests for the Darshan tracing substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import make_cluster
from repro.darshan import DarshanLog, parse_log, trace_run, truncate_log
from repro.pfs import PfsConfig, Simulator
from repro.workloads import get_workload

MiB = 1024 * 1024


@pytest.fixture(scope="module")
def cluster():
    return make_cluster()


@pytest.fixture(scope="module")
def sim(cluster):
    return Simulator(cluster)


def _log(sim, name="IOR_16M", seed=5):
    workload = get_workload(name)
    result = sim.run(workload, PfsConfig.default(), seed=seed)
    return trace_run(result, n_ranks=workload.n_ranks)


class TestTracer:
    def test_header_facts(self, sim):
        log = _log(sim)
        assert log.exe == "IOR_16M"
        assert log.nprocs == 50
        assert log.run_time > 0

    def test_byte_conservation_data(self, sim):
        log = _log(sim)
        per_rank = [
            r for r in log.module_records("POSIX") if r.rank >= 0
        ]
        written = sum(r.get("POSIX_BYTES_WRITTEN") for r in per_rank)
        assert written == 50 * 3 * 128 * MiB

    def test_shared_record_reduction(self, sim):
        log = _log(sim)
        shared = [r for r in log.module_records("POSIX") if r.rank == -1]
        assert len(shared) == 1
        per_rank_total = sum(
            r.get("POSIX_BYTES_WRITTEN")
            for r in log.module_records("POSIX")
            if r.rank >= 0
        )
        assert shared[0].get("POSIX_BYTES_WRITTEN") == per_rank_total

    def test_sequentiality_counters(self, sim):
        seq_log = _log(sim, "IOR_16M")
        rnd_log = _log(sim, "IOR_64K")
        seq_rec = next(r for r in seq_log.module_records("POSIX") if r.rank == 0)
        rnd_rec = next(r for r in rnd_log.module_records("POSIX") if r.rank == 0)
        assert seq_rec.get("POSIX_CONSEC_WRITES") > 0
        assert seq_rec.get("POSIX_SEEKS") == 0
        assert rnd_rec.get("POSIX_CONSEC_WRITES") == 0
        assert rnd_rec.get("POSIX_SEEKS") > 0

    def test_access_size_recorded(self, sim):
        log = _log(sim, "IOR_64K")
        record = next(r for r in log.module_records("POSIX") if r.rank == 0)
        assert record.get("POSIX_ACCESS1_ACCESS") == 64 * 1024

    def test_mpiio_module_present_for_data(self, sim):
        log = _log(sim)
        assert "MPIIO" in log.modules
        mpiio_written = sum(
            r.get("MPIIO_BYTES_WRITTEN")
            for r in log.module_records("MPIIO")
            if r.rank >= 0
        )
        assert mpiio_written == 50 * 3 * 128 * MiB

    def test_metadata_workload_counters(self, sim):
        log = _log(sim, "MDWorkbench_8K")
        rank0 = [r for r in log.module_records("POSIX") if r.rank == 0]
        files_rec = next(r for r in rank0 if "files" in r.file)
        # 3 rounds x 4000 files: creates + opens = 2 opens per file per round
        assert files_rec.get("POSIX_OPENS") == 3 * 4000 * 2
        assert files_rec.get("POSIX_STATS") == 3 * 4000
        assert files_rec.get("POSIX_UNLINKS") == 3 * 4000
        assert files_rec.get("POSIX_F_META_TIME") > 0
        assert files_rec.record_type == "file_group"

    def test_meta_time_dominates_for_mdworkbench(self, sim):
        log = _log(sim, "MDWorkbench_8K")
        meta = log.total("POSIX_F_META_TIME")
        data = log.total("POSIX_F_READ_TIME") + log.total("POSIX_F_WRITE_TIME")
        assert meta > 10 * max(data, 1e-9)

    def test_data_time_dominates_for_ior(self, sim):
        log = _log(sim, "IOR_16M")
        meta = log.total("POSIX_F_META_TIME")
        data = log.total("POSIX_F_READ_TIME") + log.total("POSIX_F_WRITE_TIME")
        assert data > 10 * meta


class TestLogSerialization:
    def test_round_trip(self, sim):
        log = _log(sim)
        text = log.dumps()
        parsed = DarshanLog.loads(text)
        assert parsed.exe == log.exe
        assert parsed.nprocs == log.nprocs
        assert parsed.run_time == pytest.approx(log.run_time)
        assert len(parsed.records) == len(log.records)
        orig = {(r.module, r.rank, r.file): r.counters for r in log.records}
        for record in parsed.records:
            for counter, value in record.counters.items():
                assert value == pytest.approx(
                    orig[(record.module, record.rank, record.file)][counter],
                    rel=1e-5,
                )

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            DarshanLog.loads("POSIX\t0\tbad line\n")

    def test_header_text(self, sim):
        log = _log(sim)
        text = log.header_text()
        assert "IOR_16M" in text
        assert "nprocs: 50" in text


#: Field text: valid numbers, near misses and arbitrary strings.
_fields = st.one_of(
    st.integers(-3, 60).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", " ", "1.5", "0x10", "1e3", "nan", "-inf", "12abc", "٣"]),
    st.text(max_size=8),
)
_header_keys = st.sampled_from(
    ["exe", "jobid", "nprocs", "start_time", "run time", "lost ranks", "other"]
)
_lines = st.one_of(
    st.builds(lambda key, value: f"# {key}: {value}", _header_keys, _fields),
    st.lists(_fields, min_size=4, max_size=7).map("\t".join),
    st.text(max_size=20),
)


class TestLogRobustness:
    """The parser is a trust boundary: valid logs load, anything else raises
    the descriptive error."""

    @pytest.mark.parametrize("backend", ["lustre", "beegfs"])
    @pytest.mark.parametrize("keep_ranks", [None, 7])
    def test_traced_logs_round_trip(self, backend, keep_ranks):
        """A traced log (whole or truncated) survives ``dumps``/``loads``: the
        reloaded log dumps to the same text and keeps every record."""
        cluster = make_cluster(seed=0, backend=backend)
        workload = get_workload("IOR_64K")
        run = Simulator(cluster).run(
            workload, PfsConfig(facts=cluster.config_facts(), backend=backend), seed=2
        )
        log = trace_run(run, n_ranks=workload.n_ranks)
        if keep_ranks is not None:
            truncate_log(log, keep_ranks)
        text = log.dumps()
        loaded = DarshanLog.loads(text)
        assert loaded.dumps() == text
        assert (loaded.exe, loaded.nprocs, loaded.run_time, loaded.lost_ranks) == (
            log.exe, log.nprocs, log.run_time, log.lost_ranks
        )
        assert [(r.module, r.rank, r.file, r.record_type) for r in loaded.records] == [
            (r.module, r.rank, r.file, r.record_type) for r in log.records
        ]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_lines, max_size=8))
    def test_drawn_text_loads_or_raises_malformed(self, lines):
        """Any text loads, or raises ``ValueError("malformed darshan ...")``;
        nothing else escapes, and a loaded log reports a coverage in [0, 1]."""
        text = "\n".join(lines)
        try:
            log = DarshanLog.loads(text)
        except ValueError as exc:
            assert str(exc).startswith("malformed darshan "), exc
            return
        assert 0 <= log.lost_ranks <= max(log.nprocs, 0)
        assert 0.0 <= log.coverage <= 1.0
        log.header_text()

    @pytest.mark.parametrize(
        "text",
        [
            "POSIX\tx\tf\tfile\tPOSIX_READS\t1\n",  # non-integer rank
            "POSIX\t0\tf\tfile\tPOSIX_READS\tmany\n",  # non-numeric value
            "# nprocs: fifty\n",
            "# jobid: 1.5\n",
            "# lost ranks: one\n",
            "# nprocs: 0\n# lost ranks: 3\n",  # more lost than ran
            "# nprocs: 4\n# lost ranks: -1\n",
            # A negative process count beside a rank-3 record (the header
            # is read wherever it sits; the named line comes last here).
            "POSIX\t3\tf\tfile\tPOSIX_READS\t1\n# nprocs: -5\n",
        ],
    )
    def test_rejected_naming_the_line(self, text):
        with pytest.raises(ValueError, match="malformed darshan") as info:
            DarshanLog.loads(text)
        assert repr(text.splitlines()[-1]) in str(info.value)


class TestParser:
    def test_frames_per_module(self, sim):
        parsed = parse_log(_log(sim))
        assert set(parsed.frames) == {"POSIX", "MPIIO"}
        posix = parsed.frames["POSIX"]
        assert len(posix) == 51  # 50 ranks + shared record
        assert "POSIX_BYTES_WRITTEN" in posix

    def test_descriptions_cover_columns(self, sim):
        parsed = parse_log(_log(sim))
        for module, frame in parsed.frames.items():
            for column in frame.columns:
                assert column in parsed.descriptions[module], (module, column)

    def test_namespace_variables(self, sim):
        parsed = parse_log(_log(sim))
        ns = parsed.namespace()
        assert "posix" in ns and "mpiio" in ns
        assert "posix_columns" in ns
        assert "header" in ns

    def test_frame_totals_match_log(self, sim):
        log = _log(sim)
        parsed = parse_log(log)
        posix = parsed.frames["POSIX"]
        per_rank = posix[np.asarray(posix["rank"]) >= 0]
        assert per_rank.agg({"POSIX_BYTES_WRITTEN": "sum"})[
            "POSIX_BYTES_WRITTEN"
        ] == pytest.approx(50 * 3 * 128 * MiB)

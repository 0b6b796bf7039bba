"""Tests for striping math and the proc tree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import make_cluster
from repro.pfs.proctree import build_proc_tree, writable_parameter_names
from repro.pfs.striping import (
    Layout,
    bytes_per_ost,
    objects_touched,
    ost_of_offset,
    resolve_stripe_count,
    round_robin_start,
)

MiB = 1024 * 1024


class TestResolve:
    def test_minus_one_means_all(self):
        assert resolve_stripe_count(-1, 5) == 5

    def test_clamped_to_pool(self):
        assert resolve_stripe_count(8, 5) == 5

    def test_passthrough(self):
        assert resolve_stripe_count(3, 5) == 3

    def test_invalid(self):
        with pytest.raises(ValueError):
            resolve_stripe_count(0, 5)
        with pytest.raises(ValueError):
            resolve_stripe_count(-2, 5)


class TestLayout:
    def test_validation(self):
        with pytest.raises(ValueError):
            Layout(stripe_size=0, stripe_count=1)
        with pytest.raises(ValueError):
            Layout(stripe_size=MiB, stripe_count=0)

    def test_ost_of_offset_round_robin(self):
        layout = Layout(stripe_size=MiB, stripe_count=3, ost_offset=0)
        assert ost_of_offset(layout, 0, 5) == 0
        assert ost_of_offset(layout, MiB, 5) == 1
        assert ost_of_offset(layout, 2 * MiB, 5) == 2
        assert ost_of_offset(layout, 3 * MiB, 5) == 0  # wraps at stripe_count

    def test_ost_offset_shifts_start(self):
        layout = Layout(stripe_size=MiB, stripe_count=2, ost_offset=3)
        assert ost_of_offset(layout, 0, 5) == 3
        assert ost_of_offset(layout, MiB, 5) == 4

    def test_bytes_per_ost_exact_small(self):
        layout = Layout(stripe_size=4, stripe_count=2)
        out = bytes_per_ost(layout, offset=2, length=8, n_ost=5)
        # bytes 2..9: stripes [2,3]->obj0, [4..7]->obj1, [8,9]->obj0
        assert out[0] == 4 and out[1] == 4
        assert out.sum() == 8

    def test_bytes_per_ost_zero_length(self):
        layout = Layout(stripe_size=4, stripe_count=2)
        assert bytes_per_ost(layout, 0, 0, 5).sum() == 0

    def test_objects_touched(self):
        layout = Layout(stripe_size=MiB, stripe_count=4)
        assert objects_touched(layout, 0, MiB) == 1
        assert objects_touched(layout, 0, 4 * MiB) == 4
        assert objects_touched(layout, 0, 100 * MiB) == 4  # capped at count
        assert objects_touched(layout, MiB - 1, 2) == 2
        assert objects_touched(layout, 0, 0) == 0

    def test_round_robin_start(self):
        assert [round_robin_start(i, 5) for i in range(7)] == [0, 1, 2, 3, 4, 0, 1]

    @settings(max_examples=100, deadline=None)
    @given(
        stripe_size=st.sampled_from([4096, 65536, MiB, 4 * MiB]),
        stripe_count=st.integers(min_value=1, max_value=5),
        offset=st.integers(min_value=0, max_value=64 * MiB),
        length=st.integers(min_value=0, max_value=64 * MiB),
    )
    def test_bytes_conserved_and_consistent(self, stripe_size, stripe_count, offset, length):
        """Property: per-OST bytes sum to the range length; fast path agrees
        with a brute-force stripe walk."""
        layout = Layout(stripe_size=stripe_size, stripe_count=stripe_count)
        out = bytes_per_ost(layout, offset, length, n_ost=5)
        assert out.sum() == length
        if length:
            brute = np.zeros(5, dtype=np.int64)
            first = offset // stripe_size
            last = (offset + length - 1) // stripe_size
            for stripe in range(first, last + 1):
                lo = max(stripe * stripe_size, offset)
                hi = min((stripe + 1) * stripe_size, offset + length)
                brute[(stripe % stripe_count) % 5] += hi - lo
            assert np.array_equal(out, brute)


class TestProcTree:
    def test_per_device_instantiation(self):
        cluster = make_cluster()
        entries = build_proc_tree(cluster)
        osc_rpc = [e for e in entries if e.param == "osc.max_rpcs_in_flight"]
        assert len(osc_rpc) == 5  # one per OST
        mdc_rpc = [e for e in entries if e.param == "mdc.max_rpcs_in_flight"]
        assert len(mdc_rpc) == 1

    def test_paths_look_like_proc(self):
        entries = build_proc_tree(make_cluster())
        sample = next(e for e in entries if e.param == "llite.statahead_max")
        assert sample.path == "/proc/fs/lustre/llite/testfs/statahead_max"

    def test_rough_filter_keeps_writable_only(self):
        entries = build_proc_tree(make_cluster())
        names = writable_parameter_names(entries)
        assert "lov.version" not in names
        assert "llite.stats" not in names
        assert "osc.max_rpcs_in_flight" in names
        # Every selected parameter must survive the rough filter.
        from repro.backends import get_backend

        for name in get_backend("lustre").selected_parameter_names():
            assert name in names

    def test_tree_is_realistically_large(self):
        entries = build_proc_tree(make_cluster())
        assert len(entries) >= 50

"""Unit and property tests for the columnar Frame substrate."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frame import Frame, concat, merge_columns


class TestConstruction:
    def test_empty_frame(self):
        frame = Frame()
        assert len(frame) == 0
        assert frame.columns == []
        assert frame.shape == (0, 0)

    def test_from_lists(self):
        frame = Frame({"a": [1, 2, 3], "b": [1.5, 2.5, 3.5]})
        assert frame.shape == (3, 2)
        assert frame["a"].dtype.kind == "i"
        assert frame["b"].dtype.kind == "f"

    def test_string_columns_are_object(self):
        frame = Frame({"name": ["x", "y"]})
        assert frame["name"].dtype == object

    def test_scalar_broadcast(self):
        frame = Frame({"a": [1, 2, 3], "flag": 7})
        assert list(frame["flag"]) == [7, 7, 7]

    def test_scalar_only_raises(self):
        with pytest.raises(ValueError):
            Frame({"a": 1})

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            Frame({"a": [1, 2], "b": [1, 2, 3]})

    def test_2d_column_raises(self):
        with pytest.raises(ValueError):
            Frame({"a": np.zeros((2, 2))})

    def test_from_records_union_of_keys(self):
        frame = Frame.from_records([{"a": 1}, {"a": 2, "b": 3}])
        assert frame.columns == ["a", "b"]
        assert frame.to_records()[0]["b"] is None

    def test_from_records_empty(self):
        assert len(Frame.from_records([])) == 0


class TestAccess:
    def setup_method(self):
        self.frame = Frame({"a": [3, 1, 2], "b": [30.0, 10.0, 20.0], "c": ["x", "y", "z"]})

    def test_missing_column_keyerror_names_available(self):
        with pytest.raises(KeyError, match="available"):
            self.frame["nope"]

    def test_boolean_mask(self):
        out = self.frame[np.asarray(self.frame["a"]) > 1]
        assert len(out) == 2
        assert set(out["c"]) == {"x", "z"}

    def test_mask_length_mismatch(self):
        with pytest.raises(ValueError):
            self.frame[np.array([True])]

    def test_column_subset(self):
        out = self.frame[["a", "c"]]
        assert out.columns == ["a", "c"]

    def test_index_array(self):
        out = self.frame[np.array([2, 0])]
        assert list(out["a"]) == [2, 3]

    def test_setitem_and_contains(self):
        self.frame["d"] = [1, 2, 3]
        assert "d" in self.frame
        with pytest.raises(ValueError):
            self.frame["e"] = [1, 2]

    def test_equality(self):
        other = Frame({"a": [3, 1, 2], "b": [30.0, 10.0, 20.0], "c": ["x", "y", "z"]})
        assert self.frame == other
        other["a"] = [9, 9, 9]
        assert self.frame != other

    def test_copy_is_deep_for_columns(self):
        clone = self.frame.copy()
        clone["a"][0] = 99
        assert self.frame["a"][0] == 3


class TestTransform:
    def setup_method(self):
        self.frame = Frame({"k": ["a", "b", "a", "b"], "v": [1.0, 2.0, 3.0, 4.0]})

    def test_sort_values(self):
        out = self.frame.sort_values("v", ascending=False)
        assert list(out["v"]) == [4.0, 3.0, 2.0, 1.0]

    def test_head(self):
        assert len(self.frame.head(2)) == 2
        assert len(self.frame.head(10)) == 4

    def test_filter_predicate(self):
        out = self.frame.filter(lambda row: row["k"] == "a")
        assert list(out["v"]) == [1.0, 3.0]

    def test_rename_and_drop(self):
        out = self.frame.rename({"v": "value"})
        assert "value" in out and "v" not in out
        out = self.frame.drop(["k"])
        assert out.columns == ["v"]


class TestAggregation:
    def setup_method(self):
        self.frame = Frame(
            {
                "rank": [0, 0, 1, 1, 2],
                "file": ["f0", "f1", "f0", "f1", "f0"],
                "bytes": [10.0, 20.0, 30.0, 40.0, 50.0],
            }
        )

    def test_agg(self):
        out = self.frame.agg({"bytes": "sum"})
        assert out["bytes"] == 150.0

    def test_agg_unknown(self):
        with pytest.raises(ValueError):
            self.frame.agg({"bytes": "frobnicate"})

    def test_agg_empty(self):
        empty = self.frame[np.zeros(5, dtype=bool)]
        assert empty.agg({"bytes": "sum"})["bytes"] == 0
        assert np.isnan(empty.agg({"bytes": "mean"})["bytes"])

    def test_groupby_single_key(self):
        out = self.frame.groupby("file", {"bytes": "sum"})
        assert len(out) == 2
        rows = {r["file"]: r["bytes"] for r in out.to_records()}
        assert rows == {"f0": 90.0, "f1": 60.0}

    def test_groupby_multi_key(self):
        out = self.frame.groupby(["rank", "file"], {"bytes": "sum"})
        assert len(out) == 5

    def test_groupby_count_and_nunique(self):
        out = self.frame.groupby("file", {"bytes": "count"})
        rows = {r["file"]: r["bytes"] for r in out.to_records()}
        assert rows == {"f0": 3, "f1": 2}
        out2 = self.frame.groupby("file", {"rank": "nunique"})
        rows2 = {r["file"]: r["rank_nunique"] if "rank_nunique" in out2 else r["rank"] for r in out2.to_records()}
        assert rows2["f0"] == 3

    def test_groupby_requires_key(self):
        with pytest.raises(ValueError):
            self.frame.groupby([], {"bytes": "sum"})

    def test_groupby_empty_frame(self):
        empty = self.frame[np.zeros(5, dtype=bool)]
        out = empty.groupby("file", {"bytes": "sum"})
        assert len(out) == 0

    def test_describe(self):
        stats = self.frame.describe("bytes")
        assert stats["count"] == 5.0
        assert stats["mean"] == 30.0
        assert stats["min"] == 10.0
        assert stats["max"] == 50.0
        assert stats["p50"] == 30.0

    def test_describe_empty(self):
        empty = self.frame[np.zeros(5, dtype=bool)]
        assert np.isnan(empty.describe("bytes")["mean"])


class TestSerialization:
    def test_csv_roundtrip(self):
        frame = Frame({"a": [1, 2], "b": [1.5, 2.5], "s": ["x", "y"]})
        parsed = Frame.from_csv(frame.to_csv())
        assert parsed.columns == frame.columns
        assert list(parsed["a"]) == [1, 2]
        assert list(parsed["s"]) == ["x", "y"]

    def test_from_csv_empty(self):
        assert len(Frame.from_csv("")) == 0

    def test_from_csv_malformed(self):
        with pytest.raises(ValueError):
            Frame.from_csv("a,b\n1\n")


class TestOps:
    def test_concat(self):
        one = Frame({"a": [1.0], "b": [2.0]})
        two = Frame({"a": [3.0], "c": [4.0]})
        out = concat([one, two])
        assert out.columns == ["a", "b", "c"]
        assert len(out) == 2
        assert out.to_records()[1]["b"] is None

    def test_concat_empty_input(self):
        assert len(concat([])) == 0
        assert len(concat([Frame()])) == 0

    def test_merge_columns_inner(self):
        left = Frame({"k": ["a", "b", "c"], "x": [1, 2, 3]})
        right = Frame({"k": ["b", "c", "d"], "y": [20, 30, 40]})
        out = merge_columns(left, right, on="k")
        assert len(out) == 2
        assert out.to_records()[0] == {"k": "b", "x": 2, "y": 20}


@settings(max_examples=50, deadline=None)
@given(
    values=st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=1, max_size=60),
    keys=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=60),
)
def test_groupby_sum_conserves_total(values, keys):
    """Property: group sums add up to the whole-column sum."""
    n = min(len(values), len(keys))
    frame = Frame({"k": keys[:n], "v": values[:n]})
    grouped = frame.groupby("k", {"v": "sum"})
    assert np.isclose(sum(grouped["v"]), sum(values[:n]), rtol=1e-9, atol=1e-6)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=80))
def test_sort_is_permutation_and_ordered(values):
    frame = Frame({"v": values})
    out = frame.sort_values("v")
    assert sorted(values) == list(out["v"])


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.floats(0, 100)), min_size=0, max_size=40
    )
)
def test_csv_roundtrip_property(pairs):
    frame = Frame({"k": [p[0] for p in pairs], "v": [p[1] for p in pairs]})
    if len(frame) == 0:
        return
    parsed = Frame.from_csv(frame.to_csv())
    assert list(parsed["k"]) == [p[0] for p in pairs]
    assert np.allclose(parsed["v"], [p[1] for p in pairs])


# ---------------------------------------------------------------------------
# Derived frames skip the constructor's checks; they must still equal what
# the validating path builds, and the column-wise CSV the per-row one.
# ---------------------------------------------------------------------------
#: Cell values per column kind; object columns mix strings, ``None`` and
#: numpy scalars, whose CSV cell is ``str`` of the Python value.
CELLS = {
    "int": (np.int64, st.integers(-(2**40), 2**40)),
    "float": (np.float64, st.floats(allow_nan=True, allow_infinity=True)),
    "bool": (bool, st.booleans()),
    "object": (
        object,
        st.one_of(
            st.text(max_size=4),
            st.none(),
            st.integers(-99, 99),
            st.floats(-1e6, 1e6).map(np.float32),
            st.integers(-99, 99).map(np.int64),
            st.booleans().map(np.bool_),
        ),
    ),
}


@st.composite
def frames(draw):
    """A valid frame: 0-8 rows of up to four int, float, bool or object
    columns (no columns at all included)."""
    rows = draw(st.integers(0, 8))
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), max_size=4))
    data = {}
    for i, kind in enumerate(kinds):
        dtype, cells = CELLS[kind]
        values = draw(st.lists(cells, min_size=rows, max_size=rows))
        column = np.empty(rows, dtype=dtype)
        column[:] = values
        data[f"{kind}{i}"] = column
    return Frame(data)


def validating_getitem(frame, key):
    """``frame[key]`` for a non-string key with every result built by the
    validating constructor, as the indexer did before derived frames."""
    columns = {name: frame[name] for name in frame.columns}
    if isinstance(key, (list, tuple)) and all(isinstance(k, str) for k in key):
        if key or len(frame):
            return Frame({k: columns[k] for k in key})
        key = np.zeros(0, dtype=bool)  # a zero-row frame's empty row mask
    mask = np.asarray(key)
    if mask.dtype == bool:
        if mask.shape[0] != len(frame):
            raise ValueError("boolean mask length mismatch")
        return Frame({n: c[mask] for n, c in columns.items()})
    return Frame({n: c[mask] for n, c in columns.items()})


def per_record_csv(frame):
    """``Frame.to_csv`` as the per-row loop over ``to_records()`` it was."""
    buf = io.StringIO()
    buf.write(",".join(frame.columns) + "\n")
    for row in frame.to_records():
        buf.write(",".join(str(row[c]) for c in frame.columns) + "\n")
    return buf.getvalue()


def outcome(fn):
    """``fn()``, or the type of the exception it raised."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)


def assert_same_frame(got, want):
    """Same columns in the same order, same dtypes and shapes, same values
    (compared by ``repr``, so NaN equals NaN and -0.0 differs from 0.0)."""
    if not isinstance(want, Frame):
        assert got is want
        return
    assert type(got) is Frame
    assert got.columns == want.columns
    assert len(got) == len(want) and got.shape == want.shape
    for name in want.columns:
        a, b = got[name], want[name]
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert [repr(v) for v in a.tolist()] == [repr(v) for v in b.tolist()], name
    assert got.to_csv() == per_record_csv(want)


@st.composite
def indexers(draw, frame):
    """A key for ``frame[key]``: a 1-D mask, a 1-D integer index (negatives
    included, as an array or a list), a column list or tuple, or a key the
    validating path must refuse or handle (a 2-D or wrong-length mask, a
    2-D index, a scalar, a float array)."""
    n = len(frame)
    names = frame.columns
    choices = [
        st.lists(st.booleans(), min_size=n, max_size=n).map(
            lambda m: np.array(m, dtype=bool)
        ),
        st.integers(0, 3).filter(lambda k: k != n).map(lambda k: np.ones(k, bool)),
        st.integers(1, 3).map(lambda k: np.ones((n, k), dtype=bool)),
        st.integers(1, 3).map(lambda k: np.zeros((k, 2), dtype=np.int64)),
        st.integers(-3, 3),
        st.just(np.zeros(2)),
        st.just(np.array([], dtype=np.int64)),
    ]
    if n or not names:
        # In range for every column (any integer when there is none).
        ints = st.integers(-n, n - 1) if n else st.integers(-3, 3)
        choices.append(
            st.lists(ints, max_size=10).map(lambda i: np.array(i, dtype=np.int64))
        )
        choices.append(st.lists(ints, min_size=1, max_size=10))
    if names:
        choices.append(st.lists(st.sampled_from(names), max_size=5))
        choices.append(st.lists(st.sampled_from(names), max_size=5).map(tuple))
    return draw(st.one_of(choices))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_indexing_matches_validating_path(data):
    frame = data.draw(frames())
    key = data.draw(indexers(frame))
    got = outcome(lambda: frame[key])
    want = outcome(lambda: validating_getitem(frame, key))
    assert_same_frame(got, want)
    # A Python list or tuple of booleans filters rows like the numpy mask.
    mask = data.draw(st.lists(st.booleans(), min_size=len(frame), max_size=len(frame)))
    want = validating_getitem(frame, np.array(mask, dtype=bool))
    assert_same_frame(frame[mask], want)
    assert_same_frame(frame[tuple(mask)], want)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_derived_operations_match_constructor(data):
    """``head``, ``sort_values``, ``rename``, ``drop`` and ``copy`` equal
    what ``Frame({...})`` builds from the same columns."""
    frame = data.draw(frames())
    names = frame.columns
    columns = {name: frame[name] for name in names}
    n = data.draw(st.integers(-3, len(frame) + 3))
    assert_same_frame(
        frame.head(n), validating_getitem(frame, np.arange(min(n, len(frame))))
    )
    sortable = [name for name in names if columns[name].dtype != object]
    if sortable:
        by = data.draw(st.sampled_from(sortable))
        ascending = data.draw(st.booleans())
        order = np.argsort(columns[by], kind="stable")
        if not ascending:
            order = order[::-1]
        assert_same_frame(
            frame.sort_values(by, ascending=ascending),
            Frame({name: column[order] for name, column in columns.items()}),
        )
    targets = st.sampled_from(names + ["x", "y"]) if names else st.just("x")
    mapping = data.draw(
        st.dictionaries(st.sampled_from(names + ["absent"]), targets, max_size=4)
    )
    assert_same_frame(
        frame.rename(mapping),
        Frame({mapping.get(name, name): c for name, c in columns.items()}),
    )
    gone = data.draw(st.lists(st.sampled_from(names + ["absent"]), max_size=4))
    assert_same_frame(
        frame.drop(gone),
        Frame({name: c for name, c in columns.items() if name not in gone}),
    )
    copied = frame.copy()
    assert_same_frame(copied, Frame({name: c.copy() for name, c in columns.items()}))
    assert all(copied[name] is not columns[name] for name in names)


@settings(max_examples=100, deadline=None)
@given(frame=frames())
def test_to_csv_matches_per_record_loop(frame):
    assert frame.to_csv() == per_record_csv(frame)

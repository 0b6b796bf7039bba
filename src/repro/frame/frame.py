"""The :class:`Frame` columnar table.

A ``Frame`` is an ordered mapping of column name -> 1-D :class:`numpy.ndarray`,
all of equal length.  String columns are stored as object arrays.  The API is
deliberately a small, predictable subset of pandas: the Analysis Agent's
generated code runs against it inside a sandbox, so every operation must be
side-effect free and raise clear errors.

Trusted derived frames
----------------------
External input is validated: the constructor, :meth:`Frame.from_records`,
:meth:`Frame.from_csv`, :meth:`Frame.groupby` and ``__setitem__`` coerce
every column through :func:`_as_column`, which checks that it is 1-D and of
the frame's length.  A frame *derived* from a valid frame already meets
both, so it is built from its columns without the checks (:func:`_derived`):
a 1-D boolean mask of the frame's length, a 1-D integer index (``head`` and
``sort_values`` use one), a column list, ``copy``, ``rename`` and ``drop``.
Any other indexer (a 2-D or wrong-length mask, a scalar, a slice, a float
array) takes the validating path and raises as the constructor would.
The Analysis Agent's sandbox filters and its frame preview take these
paths in every session.  :meth:`Frame.to_csv` reads whole columns through
``tolist()`` rather than materializing one dict per row.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

_AGGS: dict[str, Callable[[np.ndarray], Any]] = {
    "sum": lambda a: a.sum(),
    "mean": lambda a: a.mean(),
    "min": lambda a: a.min(),
    "max": lambda a: a.max(),
    "std": lambda a: a.std(ddof=0),
    "median": lambda a: np.median(a),
    "count": lambda a: a.size,
    "first": lambda a: a[0],
    "last": lambda a: a[-1],
    "nunique": lambda a: np.unique(a).size,
}


def _as_column(values: Any, length: int | None = None) -> np.ndarray:
    """Coerce ``values`` to a 1-D column array, broadcasting scalars."""
    if isinstance(values, np.ndarray):
        arr = values
    elif np.isscalar(values) or values is None:
        if length is None:
            raise ValueError("cannot broadcast a scalar without a known length")
        arr = np.full(length, values)
    else:
        values = list(values)
        if values and isinstance(values[0], str):
            arr = np.array(values, dtype=object)
        else:
            arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"columns must be 1-D, got shape {arr.shape}")
    if length is not None and arr.shape[0] != length:
        raise ValueError(f"column length {arr.shape[0]} != frame length {length}")
    return arr


def _derived(columns: dict[str, np.ndarray]) -> "Frame":
    """A frame over ``columns`` taken from a valid frame, without the
    constructor's checks: each is a 1-D array and all share one length."""
    frame = object.__new__(Frame)
    frame._columns = columns
    return frame


class Frame:
    """An immutable-length, mutable-content columnar table.

    The constructor validates its input; frames derived from a valid frame
    skip the checks (see the module docstring).

    Parameters
    ----------
    data:
        Mapping of column name to column values (arrays, sequences, or
        scalars broadcast to the frame length).
    """

    def __init__(self, data: Mapping[str, Any] | None = None):
        self._columns: dict[str, np.ndarray] = {}
        if data:
            length: int | None = None
            for name, values in data.items():
                if length is None and not (np.isscalar(values) or values is None):
                    candidate = _as_column(values)
                    length = candidate.shape[0]
            for name, values in data.items():
                self._columns[name] = _as_column(values, length)

    # -- basic protocol -------------------------------------------------
    @property
    def columns(self) -> list[str]:
        """Column names in insertion order."""
        return list(self._columns)

    def __len__(self) -> int:
        if not self._columns:
            return 0
        return next(iter(self._columns.values())).shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self), len(self._columns))

    def __contains__(self, name: object) -> bool:
        return name in self._columns

    def __getitem__(self, key):
        """``frame[col]`` -> column; ``frame[mask]`` -> filtered Frame."""
        if isinstance(key, str):
            try:
                return self._columns[key]
            except KeyError:
                raise KeyError(
                    f"no column {key!r}; available: {sorted(self._columns)}"
                ) from None
        if isinstance(key, (list, tuple)) and all(isinstance(k, str) for k in key):
            if key or len(self):
                return _derived({k: self._columns[k] for k in key})
            key = np.zeros(0, dtype=bool)  # a zero-row frame's empty row mask
        mask = np.asarray(key)
        if mask.dtype == bool and mask.shape[0] != len(self):
            raise ValueError("boolean mask length mismatch")
        if mask.ndim == 1 and mask.dtype.kind in "biu":
            # A 1-D mask or integer index leaves every column 1-D and equal.
            return _derived({n: c[mask] for n, c in self._columns.items()})
        return Frame({n: c[mask] for n, c in self._columns.items()})

    def __setitem__(self, name: str, values: Any) -> None:
        length = len(self) if self._columns else None
        self._columns[name] = _as_column(values, length)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Frame):
            return NotImplemented
        if self.columns != other.columns or len(self) != len(other):
            return False
        return all(
            np.array_equal(self._columns[c], other._columns[c]) for c in self.columns
        )

    __hash__ = None  # mutable container

    # -- construction helpers -------------------------------------------
    @classmethod
    def from_records(cls, records: Iterable[Mapping[str, Any]]) -> "Frame":
        """Build a Frame from an iterable of dict rows (union of keys)."""
        rows = list(records)
        if not rows:
            return cls()
        names: list[str] = []
        for row in rows:
            for key in row:
                if key not in names:
                    names.append(key)
        data = {n: [row.get(n) for row in rows] for n in names}
        return cls(data)

    def to_records(self) -> list[dict[str, Any]]:
        """Materialize rows as dicts (python scalars where possible)."""
        out = []
        for i in range(len(self)):
            row = {}
            for name, col in self._columns.items():
                value = col[i]
                if isinstance(value, np.generic):
                    value = value.item()
                row[name] = value
            out.append(row)
        return out

    def copy(self) -> "Frame":
        return _derived({n: c.copy() for n, c in self._columns.items()})

    # -- transformation --------------------------------------------------
    def filter(self, predicate: Callable[[dict[str, Any]], bool]) -> "Frame":
        """Row filter by a per-row dict predicate (slow path, convenience)."""
        mask = np.fromiter(
            (bool(predicate(row)) for row in self.to_records()),
            dtype=bool,
            count=len(self),
        )
        return self[mask]

    def sort_values(self, by: str, ascending: bool = True) -> "Frame":
        order = np.argsort(self._columns[by], kind="stable")
        if not ascending:
            order = order[::-1]
        return self[order]

    def head(self, n: int = 5) -> "Frame":
        return self[np.arange(min(n, len(self)))]

    def rename(self, mapping: Mapping[str, str]) -> "Frame":
        return _derived({mapping.get(n, n): c for n, c in self._columns.items()})

    def drop(self, names: Sequence[str]) -> "Frame":
        gone = set(names)
        return _derived({n: c for n, c in self._columns.items() if n not in gone})

    # -- aggregation -----------------------------------------------------
    def agg(self, spec: Mapping[str, str]) -> dict[str, Any]:
        """Aggregate columns: ``{"bytes": "sum", "time": "max"}``."""
        out: dict[str, Any] = {}
        for name, how in spec.items():
            col = self._columns[name]
            try:
                fn = _AGGS[how]
            except KeyError:
                raise ValueError(f"unknown aggregation {how!r}") from None
            if col.size == 0:
                out[name] = 0 if how in ("sum", "count") else float("nan")
            else:
                value = fn(col)
                out[name] = value.item() if isinstance(value, np.generic) else value
        return out

    def groupby(self, by: str | Sequence[str], spec: Mapping[str, str]) -> "Frame":
        """Group rows by key column(s) and aggregate the rest per ``spec``.

        Returns a new Frame with one row per distinct key, key columns first.
        """
        keys = [by] if isinstance(by, str) else list(by)
        if not keys:
            raise ValueError("groupby requires at least one key column")
        if len(self) == 0:
            return Frame({k: np.array([]) for k in keys})
        # Build a composite key via lexicographic encoding of per-key codes.
        codes = np.zeros(len(self), dtype=np.int64)
        uniques_per_key: list[np.ndarray] = []
        for key in keys:
            uniq, inv = np.unique(self._columns[key], return_inverse=True)
            uniques_per_key.append(uniq)
            codes = codes * (uniq.size + 1) + inv
        group_codes, first_idx, inv = np.unique(
            codes, return_index=True, return_inverse=True
        )
        order = np.argsort(inv, kind="stable")
        boundaries = np.searchsorted(inv[order], np.arange(group_codes.size))
        data: dict[str, Any] = {}
        for key in keys:
            data[key] = self._columns[key][first_idx]
        for name, how in spec.items():
            col = self._columns[name]
            fn = _AGGS.get(how)
            if fn is None:
                raise ValueError(f"unknown aggregation {how!r}")
            values = []
            for g in range(group_codes.size):
                start = boundaries[g]
                stop = boundaries[g + 1] if g + 1 < group_codes.size else len(self)
                values.append(fn(col[order[start:stop]]))
            out_name = name if name not in keys else f"{name}_{how}"
            data[out_name] = values
        return Frame(data)

    def describe(self, column: str) -> dict[str, float]:
        """Summary statistics for one numeric column."""
        col = np.asarray(self._columns[column], dtype=float)
        if col.size == 0:
            return {k: float("nan") for k in ("count", "mean", "std", "min", "p25", "p50", "p75", "max")}
        return {
            "count": float(col.size),
            "mean": float(col.mean()),
            "std": float(col.std(ddof=0)),
            "min": float(col.min()),
            "p25": float(np.percentile(col, 25)),
            "p50": float(np.percentile(col, 50)),
            "p75": float(np.percentile(col, 75)),
            "max": float(col.max()),
        }

    # -- serialization ----------------------------------------------------
    def to_csv(self) -> str:
        """Serialize to a simple CSV string (no quoting of commas needed).

        Each cell is ``str`` of the value :meth:`to_records` holds for it,
        read column-wise: ``tolist()`` gives a typed column's Python
        scalars, and an object column's numpy scalars become Python ones.
        """
        columns = [_python_values(c) for c in self._columns.values()]
        lines = [",".join(self.columns)]
        lines.extend(",".join(map(str, row)) for row in zip(*columns))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "Frame":
        """Parse the output of :meth:`to_csv` (numbers auto-coerced)."""
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            return cls()
        names = lines[0].split(",")
        raw: dict[str, list[str]] = {n: [] for n in names}
        for line in lines[1:]:
            parts = line.split(",")
            if len(parts) != len(names):
                raise ValueError(f"malformed CSV row: {line!r}")
            for name, part in zip(names, parts):
                raw[name].append(part)
        data: dict[str, Any] = {}
        for name, parts in raw.items():
            data[name] = _coerce_strings(parts)
        return cls(data)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"Frame(rows={len(self)}, columns={self.columns})"


def _python_values(column: np.ndarray) -> list:
    """``column``'s values as :meth:`Frame.to_records` materializes them."""
    values = column.tolist()
    if column.dtype == object:
        values = [v.item() if isinstance(v, np.generic) else v for v in values]
    return values


def _coerce_strings(parts: list[str]) -> Any:
    """Best-effort typed parse of a string column: int, then float, else str."""
    try:
        return [int(p) for p in parts]
    except ValueError:
        pass
    try:
        return [float(p) for p in parts]
    except ValueError:
        return parts

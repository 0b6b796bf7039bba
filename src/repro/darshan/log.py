"""Darshan log container and text serialization.

The text format mirrors ``darshan-parser`` output closely enough to feel
familiar: a header block of ``# key: value`` lines followed by one line per
(module, record, counter) triple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class DarshanRecord:
    """One instrumented record (a file, or an aggregated file group)."""

    module: str  # "POSIX" | "MPIIO"
    file: str
    rank: int  # -1 for shared records
    counters: dict[str, float] = field(default_factory=dict)
    record_type: str = "file"

    def get(self, counter: str, default: float = 0.0) -> float:
        return self.counters.get(counter, default)


@dataclass
class DarshanLog:
    """A complete log for one application execution.

    ``lost_ranks`` is nonzero when the capture was truncated (e.g. by an
    injected ``darshan.truncate`` fault): the tail ranks' records are
    missing, the shared ``rank=-1`` reduction records and a prefix of
    per-rank records survive, and ``coverage`` says how much of the job
    the surviving records describe.
    """

    exe: str
    nprocs: int
    run_time: float
    jobid: int = 0
    start_time: float = 0.0
    records: list[DarshanRecord] = field(default_factory=list)
    lost_ranks: int = 0

    @property
    def coverage(self) -> float:
        """Fraction of ranks whose records survive in this log."""
        if self.nprocs <= 0:
            return 1.0
        return (self.nprocs - self.lost_ranks) / self.nprocs

    def module_records(self, module: str) -> list[DarshanRecord]:
        return [r for r in self.records if r.module == module]

    @property
    def modules(self) -> list[str]:
        seen: list[str] = []
        for record in self.records:
            if record.module not in seen:
                seen.append(record.module)
        return seen

    def total(self, counter: str) -> float:
        return sum(r.get(counter) for r in self.records)

    # -- text round trip ---------------------------------------------------
    def dumps(self) -> str:
        lines = [
            "# darshan log version: 3.41 (simulated)",
            f"# exe: {self.exe}",
            f"# jobid: {self.jobid}",
            f"# nprocs: {self.nprocs}",
            f"# start_time: {self.start_time}",
            f"# run time: {self.run_time}",
        ]
        if self.lost_ranks:
            # Only truncated captures carry the marker, so untruncated
            # logs serialize byte-identically to the pre-fault format.
            lines.append(f"# lost ranks: {self.lost_ranks}")
        for record in self.records:
            for counter, value in record.counters.items():
                lines.append(
                    f"{record.module}\t{record.rank}\t{record.file}\t"
                    f"{record.record_type}\t{counter}\t{value:g}"
                )
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text: str) -> "DarshanLog":
        """Parse :meth:`dumps` text.

        Malformed input raises ``ValueError("malformed darshan ...")``
        naming the offending line: a record line without six tab-separated
        fields, a non-integer rank, a non-numeric counter value, a numeric
        header that does not convert, a negative ``nprocs``, or ``lost
        ranks`` outside ``[0, nprocs]``.
        """
        header: dict[str, tuple[str, str]] = {}  # key -> (value, line)
        records: dict[tuple[str, int, str, str], DarshanRecord] = {}
        for line in text.splitlines():
            line = line.rstrip()
            if not line:
                continue
            if line.startswith("#"):
                if ":" in line:
                    key, _, value = line[1:].partition(":")
                    header[key.strip()] = (value.strip(), line)
                continue
            parts = line.split("\t")
            if len(parts) != 6:
                raise ValueError(f"malformed darshan line: {line!r}")
            module, rank, path, rtype, counter, value = parts
            try:
                rank_number, reading = int(rank), float(value)
            except ValueError:
                raise ValueError(f"malformed darshan line: {line!r}") from None
            key = (module, rank_number, path, rtype)
            record = records.get(key)
            if record is None:
                record = DarshanRecord(
                    module=module, file=path, rank=rank_number, record_type=rtype
                )
                records[key] = record
            record.counters[counter] = reading

        def number(key: str, convert):
            value, line = header.get(key, ("0", ""))
            try:
                return convert(value)
            except ValueError:
                raise ValueError(f"malformed darshan header: {line!r}") from None

        nprocs, lost_ranks = number("nprocs", int), number("lost ranks", int)
        if nprocs < 0:
            raise ValueError(f"malformed darshan header: {header['nprocs'][1]!r}")
        if not 0 <= lost_ranks <= nprocs:
            raise ValueError(
                f"malformed darshan header: {header['lost ranks'][1]!r} "
                f"(nprocs: {nprocs})"
            )
        return cls(
            exe=header.get("exe", ("unknown", ""))[0],
            nprocs=nprocs,
            run_time=number("run time", float),
            jobid=number("jobid", int),
            start_time=number("start_time", float),
            records=list(records.values()),
            lost_ranks=lost_ranks,
        )

    def header_text(self) -> str:
        """The header string handed to the Analysis Agent."""
        text = (
            f"exe: {self.exe}; nprocs: {self.nprocs}; "
            f"run time: {self.run_time:.3f} s; modules: {', '.join(self.modules)}"
        )
        if self.lost_ranks:
            text += (
                f"; TRUNCATED capture: {self.lost_ranks} rank(s) lost "
                f"({self.coverage:.0%} coverage)"
            )
        return text

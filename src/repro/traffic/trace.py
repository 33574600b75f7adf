"""Memory-reference trace format.

The paper's system-level evaluation is trace driven: "Our trace format
consists of load/stores and the number of non-memory instructions between
them" (Section 5.2).  This module defines that record, an in-memory
iterator protocol used by the CMP core model, and a simple line-oriented
text serialization (one record per line: ``<gap> <L|S> <hex address>``)
so traces can be saved and replayed.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, List, Union


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One memory operation and the instruction gap preceding it.

    Attributes:
        gap: count of non-memory instructions executed before this access.
        is_write: True for a store, False for a load.
        address: byte address of the access.
    """

    gap: int
    is_write: bool
    address: int

    def __post_init__(self) -> None:
        if self.gap < 0:
            raise ValueError(f"gap must be non-negative, got {self.gap}")
        if self.address < 0:
            raise ValueError(f"address must be non-negative, got {self.address}")

    @property
    def instructions(self) -> int:
        """Instructions this record represents (gap plus the access)."""
        return self.gap + 1


class TraceWriter:
    """Writes trace records to a text stream."""

    def __init__(self, stream: IO[str]) -> None:
        self._stream = stream
        self.records_written = 0

    def write(self, record: TraceRecord) -> None:
        kind = "S" if record.is_write else "L"
        self._stream.write(f"{record.gap} {kind} {record.address:x}\n")
        self.records_written += 1

    def write_all(self, records: Iterable[TraceRecord]) -> int:
        for record in records:
            self.write(record)
        return self.records_written


class TraceReader:
    """Iterates trace records from a text stream or a string."""

    def __init__(self, source: Union[IO[str], str]) -> None:
        if isinstance(source, str):
            source = io.StringIO(source)
        self._stream = source

    def __iter__(self) -> Iterator[TraceRecord]:
        for line_number, line in enumerate(self._stream, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3 or parts[1] not in ("L", "S"):
                raise ValueError(
                    f"malformed trace record on line {line_number}: {line!r}"
                )
            yield TraceRecord(
                gap=int(parts[0]),
                is_write=parts[1] == "S",
                address=int(parts[2], 16),
            )

    def read_all(self) -> List[TraceRecord]:
        return list(self)


def roundtrip(records: Iterable[TraceRecord]) -> List[TraceRecord]:
    """Serialize and re-parse records (used by tests as a format check)."""
    buffer = io.StringIO()
    TraceWriter(buffer).write_all(records)
    buffer.seek(0)
    return TraceReader(buffer).read_all()

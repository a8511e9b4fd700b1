"""Trace records and containers.

A trace is the stream of L1 data-cache misses feeding the simulated LLC,
mirroring the paper's methodology (Pin traces of SPEC CPU2017 / PARSEC
covering 2M L1 misses).  Each record carries the number of instructions
executed since the previous record, the 64-byte block address (in user
block numbers), and whether the access is a write.

A :class:`Trace` keeps its records once, packed into one flat
``array('q')`` of three items per record (gap, block, is_write as 0 or
1), which the C front end reads in place.  :attr:`Trace.records` is a
read-only view of that array yielding ``(gap, block, is_write)`` tuples.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Sequence
from itertools import chain
from typing import Iterable, Iterator, Tuple, Union

from ..errors import TraceError

#: (instruction_gap, block, is_write)
TraceRecord = Tuple[int, int, bool]

#: The byte of each packed int64 that holds its sign bit.
_SIGN_BYTE = 7 if sys.byteorder == "little" else 0


def _pack(records: Iterable[TraceRecord]) -> "array[int]":
    """Flatten ``(gap, block, is_write)`` records into an ``array('q')``."""
    if not isinstance(records, (list, tuple)):
        records = list(records)
    try:
        if set(map(len, records)) - {3}:
            raise TypeError("a trace record is (gap, block, is_write)")
        return array("q", list(chain.from_iterable(records)))
    except (TypeError, OverflowError) as exc:
        raise TraceError(f"malformed trace record: {exc}") from None


class RecordView(Sequence):
    """The records of a :class:`Trace` as ``(gap, block, is_write)``
    tuples, read from its packed array."""

    __slots__ = ("_data",)

    def __init__(self, data: "array[int]") -> None:
        self._data = data

    def __len__(self) -> int:
        return len(self._data) // 3

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        count = len(self)
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise IndexError("trace record index out of range")
        at = 3 * index
        data = self._data
        return data[at], data[at + 1], data[at + 2] != 0

    def __iter__(self) -> Iterator[TraceRecord]:
        data = self._data
        return zip(data[0::3], data[1::3], map(bool, data[2::3]))

    def __eq__(self, other) -> bool:
        if isinstance(other, RecordView):
            return self._data == other._data
        if isinstance(other, Sequence) and not isinstance(other, str):
            return len(self) == len(other) and all(
                mine == theirs for mine, theirs in zip(self, other)
            )
        return NotImplemented

    def __repr__(self) -> str:
        return f"RecordView({list(self)!r})"


class Trace:
    """A named sequence of memory-access records.

    ``records`` is a list (or any iterable) of ``(gap, block, is_write)``
    tuples, packed once, or an ``array('q')`` already in the packed
    layout, which the trace takes as it is.  Every gap and block must be
    non-negative.
    """

    def __init__(
        self,
        name: str,
        records: Union[Iterable[TraceRecord], "array[int]"] = (),
    ) -> None:
        if isinstance(records, array) and records.typecode == "q":
            data = records
            if len(data) % 3:
                raise TraceError(f"trace {name!r} is not whole records")
        else:
            data = _pack(records)
        # Every word's sign byte below 0x80: no negative gap, block or flag.
        if not memoryview(data).cast("B")[_SIGN_BYTE::8].tobytes().isascii():
            raise TraceError(f"malformed record in trace {name!r}")
        self.name = name
        self._data = data

    @property
    def packed(self) -> "array[int]":
        """The flat ``array('q')``: gap, block, is_write (0 or 1) per
        record.  Read it, do not write it."""
        return self._data

    @property
    def records(self) -> RecordView:
        return RecordView(self._data)

    def __len__(self) -> int:
        return len(self._data) // 3

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return self.name == other.name and self._data == other._data

    def __repr__(self) -> str:
        return f"Trace(name={self.name!r}, records={len(self)})"

    # -- summary statistics --------------------------------------------------
    def instructions(self) -> int:
        return sum(self._data[0::3])

    def writes(self) -> int:
        flags = self._data[2::3]
        return len(flags) - flags.count(0)

    def reads(self) -> int:
        return len(self) - self.writes()

    def footprint(self) -> int:
        """Distinct blocks touched."""
        return len(set(self._data[1::3]))

    def mpki(self) -> Tuple[float, float]:
        """(read, write) misses per kilo-instruction of this stream."""
        insts = self.instructions()
        if insts == 0:
            return 0.0, 0.0
        return 1000 * self.reads() / insts, 1000 * self.writes() / insts

    def max_block(self) -> int:
        if not self._data:
            raise TraceError("empty trace")
        return max(self._data[1::3])

    def slice(self, count: int, name: str = "") -> "Trace":
        return Trace(name or f"{self.name}[:{count}]", self._data[: 3 * count])


def concat(name: str, traces: Sequence[Trace]) -> Trace:
    """Concatenate traces end-to-end (used for mix + random tails, Fig. 3)."""
    data = array("q")
    for trace in traces:
        data += trace.packed
    return Trace(name, data)

"""Set-associative caches and miss-status handling registers.

Timing-model caches: they track tags, per-line coherence state and LRU
order, but no data values (the workloads are synthetic address streams).
Used for both the private L1s and the shared L2 banks (Table 2: 32 KB
4-way L1, 1 MB 16-way L2 bank, 128 B lines).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

# MESI stability states for cached lines.
MODIFIED = "M"
EXCLUSIVE = "E"
SHARED = "S"
INVALID = "I"


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache (Table 2 values as defaults)."""

    size_bytes: int = 32 * 1024
    associativity: int = 4
    block_bytes: int = 128
    latency: int = 2
    # For banked caches: number of low block-number bits consumed by the
    # bank interleave.  The set index is taken from the bits *above* the
    # interleave, else every bank would only ever use 1/2^shift of its
    # sets (all blocks homed to one bank share the interleave residue).
    interleave_shift: int = 0

    def __post_init__(self) -> None:
        if self.size_bytes % (self.associativity * self.block_bytes):
            raise ValueError(
                "cache size must be a multiple of associativity x block size"
            )
        if self.latency < 0:
            raise ValueError(f"latency must be >= 0, got {self.latency}")
        if self.interleave_shift < 0:
            raise ValueError("interleave_shift must be >= 0")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.associativity * self.block_bytes)

    def set_index(self, address: int) -> int:
        block_number = address // self.block_bytes
        return (block_number >> self.interleave_shift) % self.num_sets

    def block_address(self, address: int) -> int:
        return address - (address % self.block_bytes)


@dataclass(slots=True)
class CacheLine:
    """One resident block."""

    block: int
    state: str = INVALID
    dirty: bool = False


class SetAssociativeCache:
    """LRU set-associative tag store with per-line coherence state."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        # The geometry every operation needs, read once.
        self._block_bytes = config.block_bytes
        self._interleave_shift = config.interleave_shift
        self._num_sets = config.num_sets
        self._associativity = config.associativity
        # One LRU-ordered map per set, by set index: block address ->
        # CacheLine.  A set exists from its first touch on: a run reaches
        # a small fraction of the sets a bank has.
        self._sets: Dict[int, OrderedDict] = {}
        self.hits = 0
        self.misses = 0

    def _locate(self, address: int) -> Tuple[int, OrderedDict]:
        """Block address of ``address`` and the set it maps to."""
        block_bytes = self._block_bytes
        number = address // block_bytes
        index = (number >> self._interleave_shift) % self._num_sets
        cache_set = self._sets.get(index)
        if cache_set is None:
            cache_set = self._sets[index] = OrderedDict()
        return number * block_bytes, cache_set

    def lookup(self, address: int, touch: bool = True) -> Optional[CacheLine]:
        """Line holding ``address`` (in any valid state), or None."""
        block, cache_set = self._locate(address)
        entry = cache_set.get(block)
        if entry is not None and touch:
            cache_set.move_to_end(block)
        return entry

    def probe(self, address: int) -> Optional[CacheLine]:
        """Lookup without disturbing LRU order (for diagnostics/tests)."""
        return self.lookup(address, touch=False)

    def access(self, address: int) -> Tuple[bool, Optional[CacheLine]]:
        """Demand lookup, counting hit/miss statistics."""
        line = self.lookup(address)
        if line is not None:
            self.hits += 1
            return True, line
        self.misses += 1
        return False, None

    def victim_for(self, address: int) -> Optional[CacheLine]:
        """Line that :meth:`insert` would evict for ``address``."""
        block, cache_set = self._locate(address)
        if block in cache_set or len(cache_set) < self._associativity:
            return None
        return next(iter(cache_set.values()))

    def insert(self, address: int, state: str) -> Optional[CacheLine]:
        """Install a block; returns the evicted line, if any.

        Inserting a block that is already resident updates its state
        instead of evicting.
        """
        block, cache_set = self._locate(address)
        line = cache_set.get(block)
        if line is not None:
            line.state = state
            cache_set.move_to_end(block)
            return None
        victim = None
        if len(cache_set) >= self._associativity:
            _, victim = cache_set.popitem(last=False)
        cache_set[block] = CacheLine(block=block, state=state)
        return victim

    def invalidate(self, address: int) -> Optional[CacheLine]:
        """Drop a block; returns the removed line, if it was present."""
        block, cache_set = self._locate(address)
        return cache_set.pop(block, None)

    def lines(self) -> Iterator[CacheLine]:
        """Every resident line, sets in ascending index order."""
        for index in sorted(self._sets):
            yield from self._sets[index].values()

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets.values())

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class MSHREntry:
    """One outstanding miss and its merged waiters."""

    block: int
    is_write: bool
    issued_at: int
    waiters: List[object] = field(default_factory=list)
    # Set when an invalidation arrives while the fill is still in flight
    # (the INV overtook the DATA on a different virtual channel): the line
    # is installed, consumed by the waiters, then dropped immediately.
    invalidate_on_fill: bool = False
    # A FWD_GETS/FWD_GETX that overtook our own grant (the home granted us
    # ownership and immediately forwarded the next requester; the forward
    # won the race through the network).  Serviced right after the fill.
    pending_forward: Optional[object] = None


class MSHRFile:
    """Miss-status holding registers: merge and bound outstanding misses."""

    def __init__(self, capacity: int = 16) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: Dict[int, MSHREntry] = {}

    def lookup(self, block: int) -> Optional[MSHREntry]:
        return self._entries.get(block)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    @property
    def outstanding(self) -> int:
        return len(self._entries)

    def blocks(self) -> List[int]:
        """The blocks with an outstanding miss, oldest first."""
        return list(self._entries)

    def allocate(self, block: int, is_write: bool, cycle: int) -> MSHREntry:
        if block in self._entries:
            raise ValueError(f"MSHR already holds block {block:#x}")
        if self.full:
            raise RuntimeError("MSHR file is full")
        entry = MSHREntry(block=block, is_write=is_write, issued_at=cycle)
        self._entries[block] = entry
        return entry

    def release(self, block: int) -> MSHREntry:
        try:
            return self._entries.pop(block)
        except KeyError:
            raise KeyError(f"no MSHR entry for block {block:#x}") from None

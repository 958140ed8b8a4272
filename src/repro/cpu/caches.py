"""The memory hierarchy of Table 1.

- L1 data: 64 KB, 2-way, 64 B lines, 2 ports, 12 MSHRs, 2-cycle hit
- L1 instruction: 32 KB, 2-way, 64 B lines
- L2 unified: 1 MB, 4-way, 64 B lines, 1 port, 12 MSHRs, 20-cycle hit
  (off chip)
- Main memory: 102 cycles (off chip)

Latencies are contentionless and *total* from the core's point of view
(an L2 hit costs 20 cycles, not 2+20).  They are quoted in cycles at the
base 4 GHz clock; the off-chip ones are fixed in nanoseconds, which is
what :mod:`repro.cpu.analytical` uses to rescale performance under DVS.
"""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass

from repro.errors import ConfigurationError, SimulationError


class Level(enum.IntEnum):
    """The level of the hierarchy that serviced an access."""

    L1 = 0
    L2 = 1
    MEM = 2


@dataclass(frozen=True)
class AccessResult:
    """Outcome of a memory access.

    Attributes:
        level: hierarchy level that supplied the data.
        latency: total cycles from access start to data return.
    """

    level: Level
    latency: int

    @property
    def off_chip(self) -> bool:
        """Whether the access left the core die (L2 and memory both do;
        the paper's Table 1 marks the L2 as off chip)."""
        return self.level != Level.L1


class Cache:
    """A set-associative, write-back, write-allocate cache with LRU.

    Tag storage is one list per set ordered by recency (most recent
    last).  Dirty state is tracked for statistics; write-back traffic does
    not add latency in this model (drained by a write buffer), matching
    the contentionless-latency abstraction of Table 1.

    Args:
        name: label for error messages and stats.
        size_bytes / assoc / block_bytes: geometry; size must divide evenly
            into sets.
    """

    def __init__(self, name: str, size_bytes: int, assoc: int, block_bytes: int = 64) -> None:
        if size_bytes <= 0 or assoc <= 0 or block_bytes <= 0:
            raise ConfigurationError(f"{name}: cache geometry must be positive")
        n_blocks, rem = divmod(size_bytes, block_bytes)
        if rem or n_blocks % assoc:
            raise ConfigurationError(f"{name}: size/assoc/block mismatch")
        self.name = name
        self.assoc = assoc
        self.block_bytes = block_bytes
        self.n_sets = n_blocks // assoc
        self._tags: list[list[int]] = [[] for _ in range(self.n_sets)]
        #: Block addresses of the dirty resident blocks.
        self._dirty: set[int] = set()
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    def copy(self) -> "Cache":
        """An independent cache with the same contents and counters."""
        twin = copy.copy(self)
        twin._tags = [ways.copy() for ways in self._tags]
        twin._dirty = set(self._dirty)
        return twin

    def _set_index(self, block_addr: int) -> int:
        return block_addr % self.n_sets

    def touch(self, block_addr: int, *, write: bool = False) -> bool:
        """Access a block only if it is resident; returns True on a hit.

        A hit counts and becomes most-recently-used, exactly as in
        :meth:`lookup`; a miss leaves the cache and its counters alone,
        so a caller can decide whether the miss may start at all.
        """
        ways = self._tags[block_addr % self.n_sets]
        tag = block_addr // self.n_sets
        if tag not in ways:
            return False
        ways.remove(tag)
        ways.append(tag)
        if write:
            self._dirty.add(block_addr)
        self.hits += 1
        return True

    def lookup(self, block_addr: int, *, write: bool = False) -> bool:
        """Access a block; returns True on hit.

        On a hit the block becomes most-recently-used.  On a miss the
        block is filled, evicting the LRU way (counting a writeback if the
        victim was dirty).
        """
        if self.touch(block_addr, write=write):
            return True
        s = block_addr % self.n_sets
        ways = self._tags[s]
        tag = block_addr // self.n_sets
        self.misses += 1
        if len(ways) >= self.assoc:
            victim = ways.pop(0) * self.n_sets + s
            if victim in self._dirty:
                self._dirty.discard(victim)
                self.writebacks += 1
        ways.append(tag)
        if write:
            self._dirty.add(block_addr)
        return False

    def contains(self, block_addr: int) -> bool:
        """Non-destructive presence check (no LRU update, no fill)."""
        s = self._set_index(block_addr)
        return (block_addr // self.n_sets) in self._tags[s]

    @property
    def accesses(self) -> int:
        """Total lookups performed."""
        return self.hits + self.misses


#: Completion cycle of "no miss outstanding".
_NEVER = float("inf")


class MSHRFile:
    """Miss-status-holding registers for an L1 cache (Table 1: 12).

    An outstanding miss occupies one MSHR from allocation until its fill
    completes.  Misses to a block that already has an MSHR merge into it
    and share its completion time.
    """

    def __init__(self, n_entries: int = 12) -> None:
        if n_entries <= 0:
            raise ConfigurationError("MSHR count must be positive")
        self.n_entries = n_entries
        self._outstanding: dict[int, int] = {}
        #: Earliest completion among the outstanding misses: nothing
        #: expires before it, so most calls skip :meth:`_expire`.
        self._earliest = _NEVER
        self.allocations = 0
        self.merges = 0
        self.full_stalls = 0

    def copy(self) -> "MSHRFile":
        """An independent MSHR file with the same misses in flight."""
        twin = copy.copy(self)
        twin._outstanding = dict(self._outstanding)
        return twin

    def _expire(self, cycle: int) -> None:
        outstanding = self._outstanding
        for b in [b for b, t in outstanding.items() if t <= cycle]:
            del outstanding[b]
        self._earliest = min(outstanding.values(), default=_NEVER)

    def occupancy(self, cycle: int) -> int:
        """Number of live MSHRs at ``cycle``."""
        if cycle >= self._earliest:
            self._expire(cycle)
        return len(self._outstanding)

    def lookup(self, block_addr: int, cycle: int) -> int | None:
        """Completion cycle of an in-flight miss to this block, if any."""
        if cycle >= self._earliest:
            self._expire(cycle)
        return self._outstanding.get(block_addr)

    def try_allocate(self, block_addr: int, cycle: int, completion: int) -> int | None:
        """Allocate (or merge into) an MSHR for a miss.

        Returns the completion cycle of the miss, or None if all MSHRs are
        busy with other blocks (a structural stall the pipeline must
        retry).

        Raises:
            SimulationError: if ``completion`` is not after ``cycle``.
        """
        if completion <= cycle:
            raise SimulationError("miss completion must be in the future")
        if cycle >= self._earliest:
            self._expire(cycle)
        existing = self._outstanding.get(block_addr)
        if existing is not None:
            self.merges += 1
            return existing
        if len(self._outstanding) >= self.n_entries:
            self.full_stalls += 1
            return None
        self._outstanding[block_addr] = completion
        self._earliest = min(self._earliest, completion)
        self.allocations += 1
        return completion


@dataclass(frozen=True)
class HierarchyLatencies:
    """Contentionless access latencies in core cycles at the base clock."""

    l1_hit: int = 2
    l2_hit: int = 20
    memory: int = 102

    def __post_init__(self) -> None:
        if not 0 < self.l1_hit < self.l2_hit < self.memory:
            raise ConfigurationError("latencies must satisfy l1 < l2 < mem")


class MemoryHierarchy:
    """L1I + L1D + unified L2 + main memory, with L1D MSHRs.

    Args:
        latencies: contentionless latencies (Table 1 defaults).
        mshr_entries: L1D miss-status registers (12).
    """

    def __init__(
        self,
        latencies: HierarchyLatencies | None = None,
        mshr_entries: int = 12,
    ) -> None:
        self.latencies = latencies or HierarchyLatencies()
        self.l1i = Cache("l1i", size_bytes=32 * 1024, assoc=2)
        self.l1d = Cache("l1d", size_bytes=64 * 1024, assoc=2)
        self.l2 = Cache("l2", size_bytes=1024 * 1024, assoc=4)
        self.dmshr = MSHRFile(mshr_entries)
        # The fixed-latency outcomes, built once (results are immutable).
        self._l1_hit = AccessResult(Level.L1, self.latencies.l1_hit)
        self._l2_hit = AccessResult(Level.L2, self.latencies.l2_hit)
        self._memory = AccessResult(Level.MEM, self.latencies.memory)

    def copy(self) -> "MemoryHierarchy":
        """An independent hierarchy with the same contents and counters.

        What a run does to the copy never reaches the original, so one
        preloaded hierarchy can seed many runs.
        """
        twin = copy.copy(self)
        twin.l1i = self.l1i.copy()
        twin.l1d = self.l1d.copy()
        twin.l2 = self.l2.copy()
        twin.dmshr = self.dmshr.copy()
        return twin

    def inst_access(self, addr: int) -> AccessResult:
        """Fetch the instruction block containing ``addr``."""
        block = addr // self.l1d.block_bytes
        if self.l1i.lookup(block):
            return self._l1_hit
        if self.l2.lookup(block):
            return self._l2_hit
        return self._memory

    def data_access(self, addr: int, cycle: int, *, write: bool = False) -> AccessResult | None:
        """Access the data block containing ``addr`` at ``cycle``.

        Returns None when the access misses L1 but no MSHR is available —
        the caller must retry on a later cycle; in that case no cache
        state is mutated, so the retry behaves like a fresh access.  A
        miss to a block with an in-flight MSHR merges into it and returns
        the remaining latency of that miss.
        """
        block = addr // self.l1d.block_bytes
        in_flight = self.dmshr.lookup(block, cycle)
        if in_flight is not None:
            # Merge with the outstanding miss: data arrives when it does.
            self.dmshr.merges += 1
            return AccessResult(Level.L2, max(1, in_flight - cycle))
        if self.l1d.touch(block, write=write):
            return self._l1_hit
        # L1 miss: an MSHR must be free before the miss can even start.
        if self.dmshr.occupancy(cycle) >= self.dmshr.n_entries:
            self.dmshr.full_stalls += 1
            return None
        self.l1d.lookup(block, write=write)  # fill L1 (counts the miss)
        result = self._l2_hit if self.l2.lookup(block) else self._memory
        self.dmshr.try_allocate(block, cycle, cycle + result.latency)
        return result

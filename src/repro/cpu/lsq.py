"""The 32-entry memory queue (load/store queue) of Table 1.

The queue holds every in-flight memory instruction from dispatch to
retire.  It provides the two behaviours that matter for timing:

- **structural stalls**: dispatch blocks when the queue is full;
- **store-to-load forwarding**: a load whose address matches an older,
  not-yet-retired store receives its data from the queue at ALU speed
  instead of accessing the cache.
"""

from __future__ import annotations

from repro.errors import ConfigurationError, SimulationError


class LoadStoreQueue:
    """In-order queue of in-flight memory operations.

    Entries are kept by sequence number, and the stores whose addresses
    are known are also indexed by address, so a forwarding check looks at
    the stores to one address instead of scanning the whole queue.

    Args:
        capacity: maximum in-flight memory instructions (Table 1: 32).
    """

    def __init__(self, capacity: int = 32) -> None:
        if capacity <= 0:
            raise ConfigurationError("LSQ capacity must be positive")
        self.capacity = capacity
        #: seq -> [is_store, address or None until generated].
        self._entries: dict[int, list] = {}
        #: address -> sequence numbers of the queued stores to it.
        self._stores: dict[int, list[int]] = {}
        self.inserts = 0
        self.searches = 0
        self.forwards = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        """Whether dispatch of another memory op must stall."""
        return len(self._entries) >= self.capacity

    def insert(self, seq: int, is_store: bool) -> None:
        """Add a memory instruction at dispatch.

        Raises:
            SimulationError: if the queue is full or ``seq`` is already
                present — both indicate a pipeline bookkeeping bug.
        """
        if self.full:
            raise SimulationError("LSQ insert while full")
        if seq in self._entries:
            raise SimulationError(f"duplicate LSQ entry {seq}")
        self._entries[seq] = [is_store, None]
        self.inserts += 1

    def set_address(self, seq: int, addr: int) -> None:
        """Record the generated address for an entry."""
        try:
            entry = self._entries[seq]
        except KeyError:
            raise SimulationError(f"no LSQ entry {seq}") from None
        if entry[0]:
            self._unindex(seq, entry[1])
            self._stores.setdefault(addr, []).append(seq)
        entry[1] = addr

    def forwarding_store(self, seq: int, addr: int) -> bool:
        """Check store-to-load forwarding for the load ``seq`` at ``addr``.

        Returns True when an older store with a known matching address is
        still in the queue (its data can be forwarded).  A conservative
        real pipeline would also stall on older stores with *unknown*
        addresses; we resolve addresses at issue so the window for that is
        small, and we ignore it — the approximation is noted in DESIGN.md.
        """
        self.searches += 1
        match = any(store < seq for store in self._stores.get(addr, ()))
        if match:
            self.forwards += 1
        return match

    def remove(self, seq: int) -> None:
        """Drop an entry at retire.

        Raises:
            SimulationError: if ``seq`` is not present.
        """
        entry = self._entries.pop(seq, None)
        if entry is None:
            raise SimulationError(f"retiring unknown LSQ entry {seq}")
        if entry[0]:
            self._unindex(seq, entry[1])

    def _unindex(self, seq: int, addr: int | None) -> None:
        """Drop a store from the address index (no-op before its agen)."""
        if addr is None:
            return
        stores = self._stores[addr]
        stores.remove(seq)
        if not stores:
            del self._stores[addr]

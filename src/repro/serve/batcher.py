"""Size- and deadline-triggered micro-batching for concurrent requests.

The serving problem: decisions are cheapest computed in groups (grid
evaluations shared across requests, one thread-pool crossing per batch
instead of per request), but requests arrive one at a time.  The
:class:`MicroBatcher` sits between the two — concurrent ``submit`` calls
are coalesced into one flush when either

- the pending weight reaches ``max_batch`` (**size trigger**), or
- ``max_delay_s`` elapses after the oldest pending item arrived
  (**deadline trigger** — bounds the latency a lone request pays for
  batching).

Robustness properties (each has a dedicated test):

- an **empty flush tick** (the deadline timer firing after a size
  trigger already drained the queue) is a recorded no-op;
- a request **cancelled mid-batch** (client disconnect, timeout) never
  blocks the flush — remaining requests complete normally and the
  cancelled slot's result is discarded;
- an **oversized item** (``weight > max_batch``, e.g. a multi-query
  request bigger than the batch cap) is flushed in a batch of its own
  without stalling the queue: flushes run concurrently, so items queued
  behind it depart on their own triggers.

The batcher is transport-agnostic: ``flush`` receives the batched items
and returns one result per item (an ``Exception`` instance marks that
slot as failed).  The decision service's flush callback runs the batch
on its worker pool.
"""

from __future__ import annotations

import asyncio
import dataclasses
from typing import Any, Awaitable, Callable, Sequence

#: ``flush`` callback signature: items in, one result per item out.
FlushCallback = Callable[[Sequence[Any]], Awaitable[Sequence[Any]]]


@dataclasses.dataclass
class BatcherStats:
    """Counters for one :class:`MicroBatcher` instance."""

    submitted: int = 0
    flushes: int = 0
    flushed_items: int = 0
    size_triggered: int = 0
    deadline_triggered: int = 0
    empty_ticks: int = 0
    cancelled: int = 0
    oversized: int = 0
    max_batch_items: int = 0

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class _Pending:
    item: Any
    weight: int
    future: asyncio.Future


class MicroBatcher:
    """Coalesce awaitable submissions into bounded flushes.

    Args:
        flush: async callback computing a batch (see module docstring).
        max_batch: flush when pending weight reaches this (and cap the
            weight drained into one flush, oversized items excepted).
        max_delay_s: deadline after the first pending submission.
    """

    def __init__(
        self,
        flush: FlushCallback,
        *,
        max_batch: int = 64,
        max_delay_s: float = 0.005,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_delay_s < 0.0:
            raise ValueError("max_delay_s must be >= 0")
        self._flush_cb = flush
        self.max_batch = max_batch
        self.max_delay_s = max_delay_s
        self.stats = BatcherStats()
        self._pending: list[_Pending] = []
        self._pending_weight = 0
        self._timer: asyncio.TimerHandle | None = None
        self._flush_tasks: set[asyncio.Task] = set()
        self._closed = False

    # ---- submission ----------------------------------------------------

    async def submit(self, item: Any, *, weight: int = 1) -> Any:
        """Enqueue ``item`` and wait for its slot of the flush result.

        Raises whatever exception the flush recorded for this slot, and
        :class:`RuntimeError` after :meth:`close`.
        """
        if self._closed:
            raise RuntimeError("batcher is closed")
        if weight < 1:
            raise ValueError("weight must be >= 1")
        loop = asyncio.get_running_loop()
        pending = _Pending(item=item, weight=weight, future=loop.create_future())
        self._pending.append(pending)
        self._pending_weight += weight
        self.stats.submitted += 1
        if weight > self.max_batch:
            self.stats.oversized += 1
        if self._pending_weight >= self.max_batch:
            self._start_flush("size")
        elif self._timer is None:
            self._timer = loop.call_later(self.max_delay_s, self._on_deadline)
        return await pending.future

    # ---- triggers ------------------------------------------------------

    def _on_deadline(self) -> None:
        self._timer = None
        if not self._pending:
            # Deadline fired after a size trigger already drained the
            # queue: a recorded no-op, never an error.
            self.stats.empty_ticks += 1
            return
        self._start_flush("deadline")

    def _start_flush(self, trigger: str) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        batch: list[_Pending] = []
        weight = 0
        # Drain up to max_batch of weight, but always at least one item,
        # so an oversized item departs (alone) instead of wedging.
        while self._pending:
            nxt = self._pending[0]
            if batch and weight + nxt.weight > self.max_batch:
                break
            batch.append(self._pending.pop(0))
            weight += nxt.weight
        self._pending_weight -= weight
        if not batch:
            return
        if trigger == "size":
            self.stats.size_triggered += 1
        else:
            self.stats.deadline_triggered += 1
        task = asyncio.get_running_loop().create_task(self._run_flush(batch))
        self._flush_tasks.add(task)
        task.add_done_callback(self._flush_tasks.discard)
        # Items can remain (e.g. the drain stopped at the weight cap);
        # they depart on their own trigger.
        if self._pending and self._pending_weight >= self.max_batch:
            self._start_flush("size")
        elif self._pending and self._timer is None:
            self._timer = asyncio.get_running_loop().call_later(
                self.max_delay_s, self._on_deadline
            )

    # ---- the flush -----------------------------------------------------

    async def _run_flush(self, batch: list[_Pending]) -> None:
        # A slot cancelled while queued is dropped before computing;
        # one cancelled mid-flush is skipped at delivery.  Either way
        # the other slots complete normally.
        live = [p for p in batch if not p.future.cancelled()]
        self.stats.cancelled += len(batch) - len(live)
        if not live:
            return
        self.stats.flushes += 1
        self.stats.flushed_items += len(live)
        self.stats.max_batch_items = max(self.stats.max_batch_items, len(live))
        try:
            results = await self._flush_cb([p.item for p in live])
        # repro: ignore[RPR006] fault isolation: whatever the flush
        # callback raises must fan out to the waiting futures, never
        # kill the batcher's flush task silently.
        except Exception as exc:
            for pending in live:
                if not pending.future.done():
                    pending.future.set_exception(exc)
            return
        if len(results) != len(live):
            mismatch = RuntimeError(
                f"flush returned {len(results)} results for {len(live)} items"
            )
            for pending in live:
                if not pending.future.done():
                    pending.future.set_exception(mismatch)
            return
        for pending, result in zip(live, results):
            if pending.future.done():
                self.stats.cancelled += 1
                continue
            if isinstance(result, Exception):
                pending.future.set_exception(result)
            else:
                pending.future.set_result(result)

    # ---- lifecycle -----------------------------------------------------

    async def drain(self) -> None:
        """Flush whatever is pending and wait for in-flight flushes."""
        if self._pending:
            self._start_flush("deadline")
        while self._flush_tasks:
            await asyncio.gather(*tuple(self._flush_tasks), return_exceptions=True)

    async def close(self) -> None:
        """Drain and refuse further submissions."""
        self._closed = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        await self.drain()

"""Span tracing of the repro layers, installed from outside the package.

A traced run replaces a fixed list of public functions (:data:`LAYERS`)
with thin wrappers that record one span per call: the layer name,
``perf_counter_ns`` start and end, the enclosing span and the thread.
Nothing under ``src/`` changes; :meth:`Tracer.restore` puts every
original back.

The enclosing span is tracked in a :class:`contextvars.ContextVar`, which
behaves as a thread-local stack for worker threads and as a task-local
one for asyncio tasks, so concurrent requests on one event loop do not
interleave their stacks.

Spans are kept in memory in flat arrays and written out once, at the end
of the run (:meth:`Tracer.write`).  :func:`layer_table` folds them into
per-layer count, total, self time (duration minus the part covered by
child spans), p50/p99 and share of the workload's wall time.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import math
import os
import threading
import time
from array import array
from pathlib import Path
from typing import Any, Callable

#: ``(module, attribute path, span name)`` for every traced layer.  A
#: function imported by name into another module is patched where it is
#: called (``preload_hierarchy`` and ``wear_rate_fields``).
LAYERS: tuple[tuple[str, str, str], ...] = (
    ("repro.workloads.generator", "TraceGenerator.phase_trace", "workloads.phase_trace"),
    ("repro.cpu.simulator", "preload_hierarchy", "workloads.preload"),
    ("repro.cpu.simulator", "CycleSimulator.run", "cpu.simulate"),
    ("repro.cpu.pipeline", "PipelineEngine.run", "cpu.pipeline"),
    ("repro.harness.sweep", "SimulationCache.run", "sweep.run"),
    ("repro.engine.store", "ResultStore.get", "store.get"),
    ("repro.engine.store", "ResultStore.put", "store.put"),
    ("repro.kernels.batch", "BatchKernel.evaluate", "kernels.evaluate"),
    ("repro.thermal.solver", "SteadyStateSolver.solve_many", "thermal.solve_many"),
    ("repro.core.ramp", "RampModel.application_fit_batch", "ramp.fit_batch"),
    ("repro.core.ramp", "RampModel.application_fit_fields_batch", "ramp.fit_fields"),
    ("repro.core.drm", "DRMOracle.best", "oracle.drm"),
    ("repro.core.dtm", "DTMOracle.best", "oracle.dtm"),
    ("repro.core.combined", "JointOracle.best", "oracle.joint"),
    ("repro.core.intra", "IntraAppOracle.best", "oracle.intra"),
    ("repro.serve.service", "DecisionService.decide", "serve.decide"),
    ("repro.serve.state", "ChipStateStore.record", "serve.chip_record"),
    ("repro.workloads.generator", "MissionSchedule.digest", "lifetime.schedule_digest"),
    ("repro.core.controllers", "WearAwareController.decide", "controllers.decide"),
    ("repro.telemetry.stream", "TelemetryWriter.append", "telemetry.append"),
    ("repro.lifetime.simulator", "RateTable.rates_for", "lifetime.rates_for"),
    ("repro.lifetime.damage", "WearState.accrue", "lifetime.accrue"),
    ("repro.lifetime.simulator", "wear_rate_fields", "kernels.wear_rate_fields"),
)

_NO_SPAN = -1


class Tracer:
    """In-memory span recorder with patch/restore of :data:`LAYERS`.

    Spans are only recorded while :attr:`recording` is set, so set-up can
    run through the wrappers without being counted.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.thread = array("q")
        #: Per-span integer outcome set by a layer hook (store hit = 1).
        self.tag = array("q")
        #: Counters that hooks add to (candidates, bytes, iterations...),
        #: per phase of the run (the label of the latest :meth:`mark`).
        self.counters: dict[str, dict[str, float]] = {}
        self.recording = False
        self.marks: dict[str, int] = {}
        self.phase = ""
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "repro_e2e_span", default=_NO_SPAN
        )
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    # ---- recording ------------------------------------------------------

    def mark(self, label: str) -> None:
        """Record a named instant that starts a new phase of the run."""
        self.marks[label] = time.perf_counter_ns()
        self.phase = label

    def count(self, counter: str, amount: float) -> None:
        with self._lock:
            phase = self.counters.setdefault(self.phase, {})
            phase[counter] = phase.get(counter, 0.0) + amount

    def _open(self, name_id: int) -> int:
        with self._lock:
            index = len(self.start)
            self.name.append(name_id)
            self.parent.append(self._current.get())
            self.thread.append(threading.get_ident())
            self.tag.append(0)
            self.end.append(0)
            self.start.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()

    def name_id(self, name: str) -> int:
        """The index of a span name in :attr:`names` (added if new)."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn: Callable, name: str, hook: Callable | None) -> Callable:
        name_id = self.name_id(name)
        tracer = self

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                if not tracer.recording:
                    return await fn(*args, **kwargs)
                index = tracer._open(name_id)
                token = tracer._current.set(index)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    tracer._close(index)
                    tracer._current.reset(token)
                if hook is not None:
                    hook(tracer, index, result, args, kwargs)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            index = tracer._open(name_id)
            token = tracer._current.set(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
                tracer._current.reset(token)
            if hook is not None:
                hook(tracer, index, result, args, kwargs)
            return result

        return wrapper

    # ---- patching -------------------------------------------------------

    def install(self, hooks: dict[str, Callable] | None = None) -> None:
        """Wrap every layer in :data:`LAYERS`; :meth:`restore` undoes it."""
        hooks = hooks or {}
        for module_name, path, name in LAYERS:
            owner: Any = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hooks.get(name)))

    def restore(self) -> None:
        """Put every original function back, in reverse patch order."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ---- output ---------------------------------------------------------

    def write(self, path: Path, extra: dict[str, Any]) -> None:
        """Write every span, column-wise, plus ``extra`` as one JSON file.

        Columns are written one at a time: a mission run records over a
        million spans, and a whole-document ``json.dump`` would hold
        every one of them as a Python object at once.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        head = {**extra, "names": self.names, "marks_ns": self.marks}
        columns = {
            "name": self.name,
            "start_ns": self.start,
            "end_ns": self.end,
            "parent": self.parent,
            "thread": self.thread,
            "tag": self.tag,
        }
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w") as handle:
            handle.write(json.dumps(head, separators=(",", ":"))[:-1] + ',"spans":{')
            for i, (column, values) in enumerate(columns.items()):
                handle.write(f'{"," if i else ""}"{column}":[')
                handle.write(",".join(map(str, values)))
                handle.write("]")
            handle.write("}}")
        os.replace(tmp, path)


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    """Total length covered by possibly overlapping intervals."""
    covered = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


def nearest_rank(sorted_values: list[float], q: float) -> float:
    """The ``q`` quantile of ascending ``sorted_values`` (nearest rank)."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values), max(1, math.ceil(q * len(sorted_values))))
    return sorted_values[rank - 1]


def layer_table(
    tracer: Tracer, window: tuple[int, int]
) -> dict[str, dict[str, float]]:
    """Per-layer count, total, self, p50/p99 and share for one window.

    Only spans that start inside ``window`` (``perf_counter_ns`` bounds)
    count.  A span nested in another span of the same layer (a layer
    that recurses, such as the kernel's salvage re-run) adds to the count
    but not to the total, so totals never double-count time.
    """
    lo, hi = window
    n = len(tracer.start)
    names = tracer.names
    children: dict[int, list[int]] = {}
    for i in range(n):
        p = tracer.parent[i]
        if p != _NO_SPAN:
            children.setdefault(p, []).append(i)
    wall_s = (hi - lo) / 1e9
    durations: dict[str, list[float]] = {}
    totals: dict[str, int] = {}
    selfs: dict[str, int] = {}
    for i in range(n):
        start = tracer.start[i]
        if not lo <= start < hi:
            continue
        end = tracer.end[i]
        if end == 0:  # still open when the window closed
            continue
        name_id = tracer.name[i]
        name = names[name_id]
        duration = end - start
        durations.setdefault(name, []).append(duration / 1e9)
        kids = [
            (max(tracer.start[c], start), min(tracer.end[c] or end, end))
            for c in children.get(i, ())
        ]
        selfs[name] = selfs.get(name, 0) + duration - _union_ns(
            [k for k in kids if k[1] > k[0]]
        )
        ancestor = tracer.parent[i]
        nested = False
        while ancestor != _NO_SPAN:
            if tracer.name[ancestor] == name_id:
                nested = True
                break
            ancestor = tracer.parent[ancestor]
        if not nested:
            totals[name] = totals.get(name, 0) + duration
    table = {}
    for name, values in durations.items():
        values.sort()
        total_s = totals.get(name, 0) / 1e9
        table[name] = {
            "count": len(values),
            "total_s": total_s,
            "self_s": selfs.get(name, 0) / 1e9,
            "p50_ms": nearest_rank(values, 0.50) * 1e3,
            "p99_ms": nearest_rank(values, 0.99) * 1e3,
            "share": total_s / wall_s if wall_s > 0 else 0.0,
        }
    return table


def render_table(table: dict[str, dict[str, float]], wall_s: float) -> str:
    """The per-layer table as aligned text, heaviest layer first."""
    header = (
        f"{'layer':28s} {'count':>9s} {'total_s':>9s} {'self_s':>9s} "
        f"{'p50_ms':>9s} {'p99_ms':>9s} {'share':>7s}"
    )
    lines = [f"layer breakdown over {wall_s:.3f} s of workload wall time", header]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["total_s"]):
        lines.append(
            f"{name:28s} {row['count']:9d} {row['total_s']:9.3f} "
            f"{row['self_s']:9.3f} {row['p50_ms']:9.3f} {row['p99_ms']:9.3f} "
            f"{row['share'] * 100:6.1f}%"
        )
    return "\n".join(lines)

"""The out-of-order pipeline engine.

A trace-driven cycle loop with the classic three-stage skeleton:

1. **retire** — in-order, up to ``retire_width`` completed entries per
   cycle; stores write the D-cache at retire (write-buffer style).
2. **issue** — oldest-first over the window entries whose register
   sources are complete; an entry issues when a functional unit is free,
   bounded by the issue width (= Σ active functional units, per the
   paper).  Loads generate their address (1 cycle on an AGEN unit), check
   store-to-load forwarding, then access the hierarchy; MSHR exhaustion
   makes them retry.
3. **fetch/dispatch** — up to ``fetch_width`` per cycle into the window
   and LSQ, with I-cache misses, a taken-branch fetch break, and
   mispredicted branches blocking fetch until they resolve plus a
   redirect penalty.

Stall cycles where nothing retires are attributed to *memory* when the
window head (or the starving fetch unit) is waiting on an off-chip
access, else to the *core*; this decomposition drives the DVS
frequency-scaling model.
"""

from __future__ import annotations

from bisect import insort

from repro.config.microarch import MicroarchConfig
from repro.config.technology import STRUCTURE_NAMES
from repro.cpu.branch import BimodalAgreePredictor, ReturnAddressStack
from repro.cpu.caches import MemoryHierarchy
from repro.cpu.functional_units import FunctionalUnits
from repro.cpu.isa import MISPREDICT_REDIRECT_PENALTY, OP_TIMING, FuKind
from repro.cpu.lsq import LoadStoreQueue
from repro.cpu.regfile import RegisterFileModel
from repro.cpu.stats import SimulationStats
from repro.cpu.window import InstructionWindow
from repro.errors import SimulationError
from repro.workloads.trace import OpClass, Trace

#: Completion cycle of an instruction that has not issued: beyond any
#: cycle the deadlock guard lets a run reach.
NOT_DONE = 1 << 60

_LOAD = int(OpClass.LOAD)
_STORE = int(OpClass.STORE)
_BRANCH = int(OpClass.BRANCH)
_CALL = int(OpClass.CALL)
_RETURN = int(OpClass.RETURN)
_CONTROL = frozenset((_BRANCH, _CALL, _RETURN))

#: Deadlock guard: no real run needs this many cycles per instruction.
_MAX_CPI = 400


class PipelineEngine:
    """One simulation of one trace on one microarchitecture.

    Args:
        trace: the dynamic instruction stream.
        config: microarchitectural configuration (base or adapted).
        hierarchy: memory hierarchy; a fresh (cold) one is built if not
            supplied.  Passing a warmed hierarchy lets callers chain
            phases of the same application.
        predictor: branch predictor, likewise chainable across phases.
    """

    def __init__(
        self,
        trace: Trace,
        config: MicroarchConfig,
        hierarchy: MemoryHierarchy | None = None,
        predictor: BimodalAgreePredictor | None = None,
        record_timeline: bool = False,
    ) -> None:
        self.trace = trace
        self.config = config
        self.hierarchy = hierarchy or MemoryHierarchy()
        self.predictor = predictor or BimodalAgreePredictor(config.bpred_bytes)
        self.ras = ReturnAddressStack(config.ras_entries)
        self.window = InstructionWindow(config.window_size)
        self.lsq = LoadStoreQueue(config.memory_queue_size)
        self.fus = FunctionalUnits(config)
        self.regfile = RegisterFileModel(config)
        # Per-instruction completion cycles (value-ready times).
        self._comp = [NOT_DONE] * len(trace)
        self._bpred_accesses = 0
        self._ras_mispredicts = 0
        self._mem_stall_cycles = 0
        self._final_cycles = 0
        if record_timeline:
            import numpy as np

            n = len(trace)
            self._tl = {
                "fetch": np.full(n, -1, dtype=np.int64),
                "issue": np.full(n, -1, dtype=np.int64),
                "complete": np.full(n, -1, dtype=np.int64),
                "retire": np.full(n, -1, dtype=np.int64),
            }
        else:
            self._tl = None
        # Shared components (hierarchy, predictor) may be warm from earlier
        # phases; snapshot their counters so stats report this run only.
        self._base_counts = {
            "l1d_acc": self.hierarchy.l1d.accesses,
            "l1d_miss": self.hierarchy.l1d.misses,
            "l1i_acc": self.hierarchy.l1i.accesses,
            "l1i_miss": self.hierarchy.l1i.misses,
            "l2_acc": self.hierarchy.l2.accesses,
            "l2_miss": self.hierarchy.l2.misses,
            "bp_lookups": self.predictor.lookups,
            "bp_miss": self.predictor.mispredicts,
        }

    # ------------------------------------------------------------------

    def run(self) -> SimulationStats:
        """Execute the whole trace and return its statistics.

        Raises:
            SimulationError: if the pipeline exceeds the deadlock guard.
        """
        trace, config = self.trace, self.config
        n = len(trace)
        # The trace columns as Python lists: indexing a numpy array boxes
        # a new numpy scalar on every access.
        ops = trace.op.tolist()
        dep1 = trace.dep1.tolist()
        dep2 = trace.dep2.tolist()
        addrs = trace.addr.tolist()
        pcs = trace.pc.tolist()
        takens = trace.taken.tolist()

        hierarchy, lsq, predictor, ras = self.hierarchy, self.lsq, self.predictor, self.ras
        data_access = hierarchy.data_access
        l1_hit = hierarchy.latencies.l1_hit
        tl = self._tl
        retire_width, fetch_width = config.retire_width, config.fetch_width
        issue_width = config.issue_width
        # (latency, unit occupancy, functional-unit pool) per op value.
        pools = self.fus.pools
        issue_table = [
            (t.latency, 1 if t.pipelined else t.latency, pools[t.fu]) for t in OP_TIMING
        ]

        # Per-instruction state, indexed by trace position: the window
        # holds those indices in program order.  ``comp`` is NOT_DONE
        # until the instruction issues.
        window = self.window.entries
        window_capacity = self.window.capacity
        comp = self._comp
        offchip = bytearray(n)  # a load's data came from off chip
        # Issue scheduling.  An instruction can issue from the cycle its
        # register sources complete, which is known once they have all
        # issued.  Until then it waits in ``consumers`` under a source
        # that has not; then in ``wake`` under that cycle; then in
        # ``ready``, kept in program order, until it issues.  The issue
        # stage scans ``ready`` only: exactly the waiting instructions
        # whose sources are complete, oldest first.
        consumers: dict[int, list[int]] = {}
        wake: dict[int, list[int]] = {}
        ready: list[int] = []

        cycle = 0
        retired = 0
        fetch_idx = 0
        fetch_blocked_until = 0
        fetch_block_offchip_until = -1
        blocking_branch = -1  # the mispredicted transfer fetch waits on
        last_fetch_block = -1
        mem_stall_cycles = 0
        max_cycles = _MAX_CPI * n + 10_000

        while retired < n:
            if cycle > max_cycles:
                raise SimulationError(
                    f"deadlock guard tripped at cycle {cycle} "
                    f"({retired}/{n} retired) on {trace.name!r}"
                )

            # ---- retire ------------------------------------------------
            n_retired = 0
            while n_retired < retire_width and window:
                i = window[0]
                if comp[i] > cycle:
                    break
                op = ops[i]
                if op == _STORE:
                    if data_access(addrs[i], cycle, write=True) is None:
                        break  # MSHR full: retry next cycle
                    lsq.remove(i)
                elif op == _LOAD:
                    lsq.remove(i)
                if tl is not None:
                    tl["retire"][i] = cycle
                window.popleft()
                retired += 1
                n_retired += 1
            if n_retired == 0 and retired < n:
                # A zero-retire cycle is memory-bound when the window head
                # (or the starving fetch unit) waits on an off-chip access,
                # else core-bound (dependences, FU contention, dividers...).
                if window:
                    i = window[0]
                    if comp[i] != NOT_DONE and offchip[i]:
                        mem_stall_cycles += 1
                elif cycle < fetch_block_offchip_until:
                    mem_stall_cycles += 1

            # ---- issue ---------------------------------------------------
            due = wake.pop(cycle, None)
            if due is not None:
                for i in due:
                    insort(ready, i)
            if ready:
                issued = 0
                for i in ready:
                    if issued >= issue_width:
                        break
                    op = ops[i]
                    latency, occupancy, pool = issue_table[op]
                    # Claim the pool's first free unit (FunctionalUnitPool.try_issue).
                    free_at = pool.free_at
                    for unit, free in enumerate(free_at):
                        if free <= cycle:
                            break
                    else:
                        continue  # every unit busy: structural hazard
                    free_at[unit] = cycle + occupancy
                    pool.busy_cycles += occupancy
                    pool.issues += 1
                    if op == _LOAD:
                        addr = addrs[i]
                        lsq.set_address(i, addr)
                        if lsq.forwarding_store(i, addr):
                            done = cycle + latency + 1  # agen + forward
                        else:
                            res = data_access(addr, cycle + 1)
                            if res is None:
                                # MSHR full: the agen slot is wasted and the
                                # load replays — exactly what a real
                                # structural stall does.
                                continue
                            offchip[i] = res.off_chip
                            done = cycle + latency + res.latency
                    else:
                        if op == _STORE:
                            # The store completes once its address is
                            # generated; the cache write happens at retire
                            # through the write buffer.
                            lsq.set_address(i, addrs[i])
                        done = cycle + latency
                    comp[i] = done
                    if tl is not None:
                        tl["issue"][i] = cycle
                        tl["complete"][i] = done
                    issued += 1
                    if i == blocking_branch:
                        fetch_blocked_until = done + MISPREDICT_REDIRECT_PENALTY
                        blocking_branch = -1
                    for c in consumers.pop(i, ()):
                        d1, d2 = dep1[c], dep2[c]
                        t1 = comp[c - d1] if d1 else 0
                        t2 = comp[c - d2] if d2 else 0
                        at = t1 if t1 > t2 else t2
                        if at != NOT_DONE:  # else it waits on its other source
                            wake.setdefault(at, []).append(c)
                if issued:
                    ready = [i for i in ready if comp[i] == NOT_DONE]

            # ---- fetch / dispatch ---------------------------------------
            if blocking_branch < 0 and cycle >= fetch_blocked_until:
                fetched = 0
                while fetched < fetch_width and fetch_idx < n:
                    if len(window) >= window_capacity:
                        break
                    i = fetch_idx
                    op = ops[i]
                    is_mem = op == _LOAD or op == _STORE
                    if is_mem and lsq.full:
                        break
                    pc = pcs[i]
                    block = pc >> 6
                    if block != last_fetch_block:
                        res = hierarchy.inst_access(pc)
                        last_fetch_block = block
                        if res.latency > l1_hit:
                            fetch_blocked_until = cycle + res.latency
                            if res.off_chip:
                                fetch_block_offchip_until = fetch_blocked_until
                            break
                    stop_after = False
                    if is_mem:
                        lsq.insert(i, op == _STORE)
                    elif op in _CONTROL:
                        stop_after = True  # a taken transfer breaks fetch
                        if op == _BRANCH:
                            self._bpred_accesses += 2  # lookup + update
                            taken = takens[i]
                            if predictor.update(pc, taken):
                                blocking_branch = i
                            elif not taken:
                                stop_after = False
                        elif op == _CALL:
                            # Direct call: target known at fetch; push the
                            # return address for the matching RETURN.
                            self._bpred_accesses += 1
                            ras.push(pc + 4)
                        else:
                            self._bpred_accesses += 1
                            predicted = ras.pop()
                            actual = pcs[i + 1] if i + 1 < n else predicted
                            if predicted != actual:
                                self._ras_mispredicts += 1
                                blocking_branch = i
                    if tl is not None:
                        tl["fetch"][i] = cycle
                    window.append(i)
                    # Schedule the issue (see ``ready`` above); the new
                    # entry is first considered next cycle.
                    d1, d2 = dep1[i], dep2[i]
                    t1 = comp[i - d1] if d1 else 0
                    t2 = comp[i - d2] if d2 else 0
                    if t1 == NOT_DONE or t2 == NOT_DONE:
                        if t1 == NOT_DONE:
                            consumers.setdefault(i - d1, []).append(i)
                        if t2 == NOT_DONE and d2 != d1:
                            consumers.setdefault(i - d2, []).append(i)
                    else:
                        at = t1 if t1 > t2 else t2
                        if at <= cycle:
                            insort(ready, i)
                        else:
                            wake.setdefault(at, []).append(i)
                    fetch_idx += 1
                    fetched += 1
                    if stop_after:
                        break

            cycle += 1

        # Every instruction was dispatched and issued exactly once; charge
        # the register file's port traffic for the whole trace in one pass.
        self.window.dispatches += n
        self.window.issues += n
        self.regfile.record_trace(trace)
        self._mem_stall_cycles += mem_stall_cycles
        self._final_cycles = cycle
        return self._build_stats(cycle, n)

    # ------------------------------------------------------------------

    def timeline(self):
        """The recorded per-instruction timeline.

        Raises:
            SimulationError: if the engine was not constructed with
                ``record_timeline=True`` or has not run yet.
        """
        from repro.cpu.timeline import Timeline

        if self._tl is None:
            raise SimulationError("engine was not recording a timeline")
        if self._final_cycles == 0:
            raise SimulationError("run() has not completed yet")
        return Timeline(
            fetch=self._tl["fetch"],
            issue=self._tl["issue"],
            complete=self._tl["complete"],
            retire=self._tl["retire"],
            trace=self.trace,
            cycles=self._final_cycles,
        )

    # ------------------------------------------------------------------

    def _build_stats(self, cycles: int, instructions: int) -> SimulationStats:
        config = self.config
        h = self.hierarchy
        base = self._base_counts
        int_traffic, fp_traffic = self.regfile.traffic()
        issue_width = config.issue_width

        def clamp(x: float) -> float:
            return min(1.0, max(0.0, x))

        def rate(acc_key: str, miss_key: str) -> float:
            accesses = {
                "l1d_acc": h.l1d.accesses,
                "l1i_acc": h.l1i.accesses,
                "l2_acc": h.l2.accesses,
            }[acc_key] - base[acc_key]
            misses = {
                "l1d_miss": h.l1d.misses,
                "l1i_miss": h.l1i.misses,
                "l2_miss": h.l2.misses,
            }[miss_key] - base[miss_key]
            return misses / accesses if accesses else 0.0

        l1d_accesses = h.l1d.accesses - base["l1d_acc"]
        l1i_accesses = h.l1i.accesses - base["l1i_acc"]
        bp_lookups = self.predictor.lookups - base["bp_lookups"]
        bp_miss = self.predictor.mispredicts - base["bp_miss"]

        ipc = instructions / cycles
        activity = {
            "ialu": self.fus.utilization(FuKind.IALU, cycles),
            "fpu": self.fus.utilization(FuKind.FPU, cycles),
            "agen": self.fus.utilization(FuKind.AGEN, cycles),
            "l1i": clamp(l1i_accesses / cycles),
            "l1d": clamp(l1d_accesses / (2 * cycles)),
            "bpred": clamp(self._bpred_accesses / (2 * cycles)),
            "window": clamp(
                (self.window.dispatches + self.window.issues)
                / ((config.fetch_width + issue_width) * cycles)
            ),
            "intreg": clamp(int_traffic / (3 * issue_width * cycles)),
            "fpreg": clamp(fp_traffic / (3 * issue_width * cycles)),
            "lsq": clamp((self.lsq.inserts + self.lsq.searches) / (2 * cycles)),
            "other": clamp(1.5 * ipc / config.fetch_width),
        }
        assert set(activity) == set(STRUCTURE_NAMES)
        return SimulationStats(
            instructions=instructions,
            cycles=cycles,
            config=config,
            activity=activity,
            mem_stall_cycles=self._mem_stall_cycles,
            branch_mispredict_rate=(bp_miss / bp_lookups) if bp_lookups else 0.0,
            l1d_miss_rate=rate("l1d_acc", "l1d_miss"),
            l1i_miss_rate=rate("l1i_acc", "l1i_miss"),
            l2_miss_rate=rate("l2_acc", "l2_miss"),
            lsq_forwards=self.lsq.forwards,
            ras_mispredicts=self._ras_mispredicts,
        )

"""Cycle-level out-of-order timing simulator (the RSIM substitute).

Models the base non-adaptive processor of Table 1 — an 8-wide, 128-entry
window, MIPS R10000-like out-of-order core with the paper's functional
unit latencies and memory hierarchy — plus the shrunken configurations of
DRM's microarchitectural adaptation space.

The simulator is trace driven: it consumes the synthetic dynamic
instruction streams from :mod:`repro.workloads` and produces
:class:`~repro.cpu.stats.SimulationStats` (IPC, per-structure activity
factors, and a core/memory stall decomposition used by the analytical
frequency-scaling model).
"""

from repro.cpu.isa import OP_LATENCY, FuKind, fu_kind_for
from repro.cpu.branch import BimodalAgreePredictor, ReturnAddressStack
from repro.cpu.caches import Cache, MemoryHierarchy, AccessResult, MSHRFile
from repro.cpu.lsq import LoadStoreQueue
from repro.cpu.simulator import CycleSimulator, WorkloadPreparation, simulate_trace
from repro.cpu.stats import SimulationStats
from repro.cpu.analytical import FrequencyScalingModel

__all__ = [
    "OP_LATENCY",
    "FuKind",
    "fu_kind_for",
    "BimodalAgreePredictor",
    "ReturnAddressStack",
    "Cache",
    "MemoryHierarchy",
    "AccessResult",
    "MSHRFile",
    "LoadStoreQueue",
    "CycleSimulator",
    "WorkloadPreparation",
    "simulate_trace",
    "SimulationStats",
    "FrequencyScalingModel",
]

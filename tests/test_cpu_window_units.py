"""Unit tests for the instruction window, FU pools, and register file."""

import pytest

from repro.config.microarch import BASE_MICROARCH, MicroarchConfig
from repro.cpu.functional_units import FunctionalUnitPool, FunctionalUnits
from repro.cpu.isa import OP_LATENCY, FuKind
from repro.cpu.regfile import RegisterFileModel
from repro.cpu.window import InstructionWindow
from repro.errors import ConfigurationError
from repro.workloads.trace import OpClass


class TestWindow:
    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            InstructionWindow(0)


class TestFunctionalUnitPool:
    def test_pipelined_unit_accepts_every_cycle(self):
        pool = FunctionalUnitPool(FuKind.IALU, 1)
        t = OP_LATENCY[OpClass.IMUL]  # latency 7, pipelined
        assert pool.try_issue(0, t)
        assert pool.try_issue(1, t)

    def test_non_pipelined_blocks_for_latency(self):
        pool = FunctionalUnitPool(FuKind.FPU, 1)
        t = OP_LATENCY[OpClass.FDIV]  # latency 12, not pipelined
        assert pool.try_issue(0, t)
        assert not pool.try_issue(5, t)
        assert pool.try_issue(12, t)

    def test_pool_width_limits_same_cycle_issue(self):
        pool = FunctionalUnitPool(FuKind.IALU, 2)
        t = OP_LATENCY[OpClass.IALU]
        assert pool.try_issue(0, t)
        assert pool.try_issue(0, t)
        assert not pool.try_issue(0, t)

    def test_busy_cycles_track_occupancy(self):
        pool = FunctionalUnitPool(FuKind.FPU, 1)
        pool.try_issue(0, OP_LATENCY[OpClass.FDIV])
        assert pool.busy_cycles == 12
        pool.try_issue(12, OP_LATENCY[OpClass.FADD])
        assert pool.busy_cycles == 13

    def test_utilization_bounded(self):
        pool = FunctionalUnitPool(FuKind.IALU, 2)
        for c in range(10):
            pool.try_issue(c, OP_LATENCY[OpClass.IALU])
        assert 0.0 <= pool.utilization(10) <= 1.0
        assert pool.utilization(10) == pytest.approx(0.5)

    def test_available_counts_free_units(self):
        pool = FunctionalUnitPool(FuKind.AGEN, 2)
        pool.try_issue(0, OP_LATENCY[OpClass.LOAD])
        assert pool.available(0) == 1

    def test_zero_units_rejected(self):
        with pytest.raises(ConfigurationError):
            FunctionalUnitPool(FuKind.IALU, 0)


class TestFunctionalUnits:
    def test_pools_match_config(self):
        fus = FunctionalUnits(BASE_MICROARCH)
        assert fus.pools[FuKind.IALU].n_units == 6
        assert fus.pools[FuKind.FPU].n_units == 4
        assert fus.pools[FuKind.AGEN].n_units == 2

    def test_routes_by_op_kind(self):
        fus = FunctionalUnits(MicroarchConfig(n_fpu=1))
        t = OP_LATENCY[OpClass.FDIV]
        assert fus.try_issue(0, t)
        assert not fus.try_issue(1, t)  # the single FPU is busy
        assert fus.try_issue(1, OP_LATENCY[OpClass.IALU])  # ALUs unaffected


class TestRegisterFileModel:
    def test_counts_reads_and_writes(self):
        rf = RegisterFileModel(BASE_MICROARCH)
        rf.record_issue(int(OpClass.IALU), n_sources=2, fp_dest=False)
        assert rf.int_reads == 2
        assert rf.int_writes == 1

    def test_fp_ops_use_fp_file(self):
        rf = RegisterFileModel(BASE_MICROARCH)
        rf.record_issue(int(OpClass.FMUL), n_sources=2, fp_dest=True)
        assert rf.fp_reads == 2
        assert rf.fp_writes == 1
        assert rf.int_reads == 0

    def test_stores_and_branches_write_nothing(self):
        rf = RegisterFileModel(BASE_MICROARCH)
        rf.record_issue(int(OpClass.STORE), n_sources=2, fp_dest=False)
        rf.record_issue(int(OpClass.BRANCH), n_sources=1, fp_dest=False)
        assert rf.int_writes == 0

    def test_fp_load_writes_fp_file(self):
        rf = RegisterFileModel(BASE_MICROARCH)
        rf.record_issue(int(OpClass.LOAD), n_sources=1, fp_dest=True)
        assert rf.fp_writes == 1
        assert rf.int_reads == 1  # address operand

    def test_traffic_totals(self):
        rf = RegisterFileModel(BASE_MICROARCH)
        rf.record_issue(int(OpClass.IALU), 2, False)
        rf.record_issue(int(OpClass.FADD), 1, True)
        int_t, fp_t = rf.traffic()
        assert int_t == 3
        assert fp_t == 2

    def test_whole_trace_charge_equals_per_issue_charges(self):
        from repro.workloads.generator import TraceGenerator
        from repro.workloads.suite import workload_by_name

        profile = workload_by_name("equake")
        trace = TraceGenerator(profile, seed=5).phase_trace(profile.phases[0], 700)
        one_by_one = RegisterFileModel(BASE_MICROARCH)
        for i in range(len(trace)):
            n_sources = int(trace.dep1[i] != 0) + int(trace.dep2[i] != 0)
            one_by_one.record_issue(int(trace.op[i]), n_sources, bool(trace.fp_dest[i]))
        whole = RegisterFileModel(BASE_MICROARCH)
        whole.record_trace(trace)
        counts = ("int_reads", "int_writes", "fp_reads", "fp_writes")
        assert [getattr(whole, c) for c in counts] == [getattr(one_by_one, c) for c in counts]

    def test_regfile_must_cover_window(self):
        with pytest.raises(ConfigurationError):
            RegisterFileModel(MicroarchConfig(int_registers=64))

"""Behavioural tests for the out-of-order pipeline engine.

Each test builds a hand-crafted dynamic trace whose correct timing is easy
to reason about, runs it on a configurable machine, and checks the
emergent IPC or stall behaviour.  Instruction footprints are kept
to one I-cache block so cold-start misses do not swamp the timing.
"""

import hashlib

import numpy as np
import pytest

from repro.config.microarch import BASE_MICROARCH, MicroarchConfig
from repro.cpu.pipeline import PipelineEngine
from repro.cpu.simulator import simulate_trace, simulate_with_timeline
from repro.errors import SimulationError
from repro.workloads import microbench as ub
from repro.workloads.generator import TraceGenerator
from repro.workloads.suite import workload_by_name
from repro.workloads.trace import Instruction, OpClass, Trace


def uniform_trace(n, op=OpClass.IALU, dep=0, addr_fn=None):
    # The pc footprint is kept inside one I-cache block so a single cold
    # miss (102 cycles) is the only front-end artefact; anything larger
    # would swamp the steady-state timing these tests assert on.
    instrs = []
    for i in range(n):
        instrs.append(
            Instruction(
                op=op,
                dep1=min(dep, i),
                addr=addr_fn(i) if addr_fn else 0,
                pc=(i % 16) * 4,
            )
        )
    return Trace.from_instructions(instrs)


class TestThroughputLimits:
    def test_independent_alu_ops_bound_by_alu_count(self):
        stats = simulate_trace(uniform_trace(3000))
        # 6 ALUs, 8-wide fetch: steady IPC should approach 6.
        assert 4.5 < stats.ipc <= 6.5

    def test_serial_chain_runs_at_one_ipc(self):
        stats = simulate_trace(uniform_trace(2000, dep=1))
        assert 0.85 < stats.ipc <= 1.1

    def test_multiply_chain_runs_at_latency_reciprocal(self):
        stats = simulate_trace(uniform_trace(1000, op=OpClass.IMUL, dep=1))
        assert stats.ipc == pytest.approx(1.0 / 7.0, rel=0.15)

    def test_divider_not_pipelined(self):
        # Independent divides on one shared non-pipelined FPU quad: with 4
        # FPUs and 12-cycle occupancy, throughput caps at 4/12 per cycle.
        stats = simulate_trace(uniform_trace(600, op=OpClass.FDIV))
        assert stats.ipc == pytest.approx(4.0 / 12.0, rel=0.2)

    def test_fewer_alus_lower_ipc(self):
        wide = simulate_trace(uniform_trace(2000))
        narrow = simulate_trace(uniform_trace(2000), MicroarchConfig(n_ialu=2, n_fpu=1))
        assert narrow.ipc < wide.ipc

    def test_smaller_window_hurts_under_latency(self):
        # Loads that miss to memory need a big window to overlap.  MSHRs
        # are widened beyond Table 1 here so the window is the binding
        # limit on memory-level parallelism.
        from repro.cpu.caches import MemoryHierarchy

        def cold_addrs(i):
            return (1 << 30) + i * 64

        def run(window):
            trace = uniform_trace(800, op=OpClass.LOAD, addr_fn=cold_addrs)
            config = MicroarchConfig(window_size=window, memory_queue_size=128)
            engine = PipelineEngine(trace, config, MemoryHierarchy(mshr_entries=64))
            return engine.run()

        assert run(128).ipc > run(16).ipc * 1.5


class TestMemoryBehaviour:
    def test_hot_loads_hit_after_warmup(self):
        trace = uniform_trace(2000, op=OpClass.LOAD, addr_fn=lambda i: (i % 8) * 64)
        stats = simulate_trace(trace)
        assert stats.l1d_miss_rate < 0.05

    def test_streaming_cold_loads_miss(self):
        trace = uniform_trace(500, op=OpClass.LOAD, addr_fn=lambda i: i * 64)
        stats = simulate_trace(trace)
        assert stats.l1d_miss_rate > 0.9

    def test_memory_stalls_attributed_for_cold_loads(self):
        trace = uniform_trace(500, op=OpClass.LOAD, dep=1, addr_fn=lambda i: i * 64)
        stats = simulate_trace(trace)
        assert stats.cpi_mem > 0.5 * stats.cpi

    def test_alu_trace_has_no_memory_stalls(self):
        # The only memory stall is the single cold I-cache miss.
        stats = simulate_trace(uniform_trace(2000))
        assert stats.mem_stall_cycles <= 102

    def test_store_load_forwarding_counted(self):
        instrs = []
        for i in range(400):
            op = OpClass.STORE if i % 2 == 0 else OpClass.LOAD
            instrs.append(Instruction(op=op, addr=0x40, pc=(i % 16) * 4))
        stats = simulate_trace(Trace.from_instructions(instrs))
        assert stats.lsq_forwards > 0


class TestBranchBehaviour:
    def test_predictable_branches_cheap(self):
        instrs = []
        for i in range(1500):
            if i % 10 == 9:
                instrs.append(Instruction(op=OpClass.BRANCH, taken=False, pc=(i % 10) * 4))
            else:
                instrs.append(Instruction(op=OpClass.IALU, pc=(i % 10) * 4))
        stats = simulate_trace(Trace.from_instructions(instrs))
        assert stats.branch_mispredict_rate < 0.1
        assert stats.ipc > 3.0

    def test_random_branches_tank_ipc(self):
        rng = np.random.default_rng(0)
        instrs = []
        for i in range(1500):
            if i % 5 == 4:
                instrs.append(
                    Instruction(op=OpClass.BRANCH, taken=bool(rng.random() < 0.5), pc=44)
                )
            else:
                instrs.append(Instruction(op=OpClass.IALU, pc=(i % 10) * 4))
        stats = simulate_trace(Trace.from_instructions(instrs))
        assert stats.branch_mispredict_rate > 0.3
        assert stats.ipc < 2.0


class TestStatsIntegrity:
    def test_all_structures_have_activity(self):
        stats = simulate_trace(uniform_trace(500))
        from repro.config.technology import STRUCTURE_NAMES

        assert set(stats.activity) == set(STRUCTURE_NAMES)
        assert all(0.0 <= v <= 1.0 for v in stats.activity.values())

    def test_busy_alus_show_high_activity(self):
        stats = simulate_trace(uniform_trace(2000))
        assert stats.activity["ialu"] > 0.5
        assert stats.activity["fpu"] == pytest.approx(0.0)

    def test_fp_trace_heats_fpu_not_alu(self):
        stats = simulate_trace(uniform_trace(1000, op=OpClass.FADD))
        assert stats.activity["fpu"] > 0.3
        assert stats.activity["fpu"] > stats.activity["ialu"]

    def test_cpi_decomposition_sums(self):
        stats = simulate_trace(uniform_trace(800, op=OpClass.LOAD, addr_fn=lambda i: i * 64))
        assert stats.cpi_core + stats.cpi_mem == pytest.approx(stats.cpi)

    def test_every_instruction_retires(self):
        stats = simulate_trace(uniform_trace(1234))
        assert stats.instructions == 1234

    def test_deadlock_guard_message(self):
        # An impossible trace cannot be constructed through the public
        # API, so check the guard machinery directly.
        engine = PipelineEngine(uniform_trace(10), BASE_MICROARCH)
        import repro.cpu.pipeline as pl

        original = pl._MAX_CPI
        pl._MAX_CPI = -10_000
        try:
            with pytest.raises(SimulationError, match="deadlock"):
                engine.run()
        finally:
            pl._MAX_CPI = original


class TestCallReturn:
    def _call_ret_trace(self, n_pairs, body=3):
        """CALL -> function body -> RETURN, repeated; perfectly RAS-predictable."""
        instrs = []
        pc_main = 0
        fn_base = 4096  # separate code block for the function
        for _ in range(n_pairs):
            for k in range(body):
                instrs.append(Instruction(op=OpClass.IALU, pc=pc_main + 4 * k))
            instrs.append(
                Instruction(op=OpClass.CALL, taken=True, pc=pc_main + 4 * body)
            )
            call_pc = pc_main + 4 * body
            for k in range(body):
                instrs.append(Instruction(op=OpClass.IALU, pc=fn_base + 4 * k))
            instrs.append(
                Instruction(op=OpClass.RETURN, taken=True, pc=fn_base + 4 * body)
            )
            pc_main = call_pc + 4  # return target: fall-through after the call
        return Trace.from_instructions(instrs)

    def test_matched_calls_returns_never_mispredict(self):
        trace = self._call_ret_trace(40)
        stats = simulate_trace(trace)
        assert stats.ras_mispredicts == 0

    def test_unmatched_return_mispredicts(self):
        instrs = [Instruction(op=OpClass.IALU, pc=0) for _ in range(8)]
        # A RETURN with no preceding CALL: the RAS is empty.
        instrs.append(Instruction(op=OpClass.RETURN, taken=True, pc=32))
        instrs += [Instruction(op=OpClass.IALU, pc=100 + 4 * k) for k in range(8)]
        stats = simulate_trace(Trace.from_instructions(instrs))
        assert stats.ras_mispredicts == 1

    def test_wrong_return_target_mispredicts(self):
        instrs = [
            Instruction(op=OpClass.CALL, taken=True, pc=0),
            Instruction(op=OpClass.IALU, pc=256),
            # Returns to pc 400, but the RAS predicts 0+4 = 4.
            Instruction(op=OpClass.RETURN, taken=True, pc=260),
            Instruction(op=OpClass.IALU, pc=400),
            Instruction(op=OpClass.IALU, pc=404),
        ]
        stats = simulate_trace(Trace.from_instructions(instrs))
        assert stats.ras_mispredicts == 1

    def test_calls_execute_on_alu_and_retire(self):
        trace = self._call_ret_trace(10)
        stats = simulate_trace(trace)
        assert stats.instructions == len(trace)

    def test_nested_calls_predicted(self):
        # call A -> call B -> ret -> ret: LIFO order exercises RAS depth 2.
        instrs = [
            Instruction(op=OpClass.CALL, taken=True, pc=0),      # -> A
            Instruction(op=OpClass.CALL, taken=True, pc=1024),   # A -> B
            Instruction(op=OpClass.IALU, pc=2048),
            Instruction(op=OpClass.RETURN, taken=True, pc=2052), # B -> A+4
            Instruction(op=OpClass.IALU, pc=1028),
            Instruction(op=OpClass.RETURN, taken=True, pc=1032), # A -> 4
            Instruction(op=OpClass.IALU, pc=4),
            Instruction(op=OpClass.IALU, pc=8),
        ]
        stats = simulate_trace(Trace.from_instructions(instrs))
        assert stats.ras_mispredicts == 0


class TestStructuralStalls:
    def test_lsq_full_limits_inflight_memory_ops(self):
        # Cold loads back to back: a tiny LSQ throttles throughput harder
        # than the Table 1 queue.
        from repro.cpu.caches import MemoryHierarchy

        def run(queue):
            trace = uniform_trace(400, op=OpClass.LOAD, addr_fn=lambda i: (1 << 30) + i * 64)
            config = MicroarchConfig(memory_queue_size=queue)
            return PipelineEngine(trace, config, MemoryHierarchy(mshr_entries=64)).run()

        assert run(32).ipc > run(2).ipc * 2

    def test_window_full_blocks_fetch(self):
        # A long-latency head (cold load) with a tiny window stops fetch;
        # IPC collapses toward serialised misses.
        def cold(i):
            return (1 << 30) + i * 64

        trace = uniform_trace(300, op=OpClass.LOAD, addr_fn=cold)
        small = simulate_trace(trace, MicroarchConfig(window_size=8, memory_queue_size=8))
        assert small.ipc < 0.2

    def test_mshr_exhaustion_serialises_misses(self):
        from repro.cpu.caches import MemoryHierarchy

        def run(mshrs):
            trace = uniform_trace(300, op=OpClass.LOAD, addr_fn=lambda i: (1 << 30) + i * 64)
            config = MicroarchConfig(memory_queue_size=128)
            return PipelineEngine(trace, config, MemoryHierarchy(mshr_entries=mshrs)).run()

        assert run(32).ipc > run(1).ipc * 4

    def test_agen_contention(self):
        # All-load trace: with 2 AGEN units, issue cannot exceed 2 memory
        # ops per cycle even when everything hits.
        trace = uniform_trace(2000, op=OpClass.LOAD, addr_fn=lambda i: (i % 8) * 64)
        stats = simulate_trace(trace)
        assert stats.ipc <= 2.1

    def test_issue_width_tracks_active_fus(self):
        # With 2 ALUs + 1 FPU + 2 AGEN the issue width is 5; an ALU-only
        # stream is then bound by the 2 ALUs.
        stats = simulate_trace(uniform_trace(2000), MicroarchConfig(n_ialu=2, n_fpu=1))
        assert stats.ipc <= 2.2


class TestIssueOrder:
    def test_younger_independent_op_issues_past_fu_blocked_older_op(self):
        # One FPU: the first divide holds it for 12 cycles, so the second
        # (ready, independent) waits on the unit while the younger ALU op
        # issues in the very cycle the first divide did.
        instrs = [
            Instruction(op=OpClass.FDIV, pc=0, fp_dest=True),
            Instruction(op=OpClass.FDIV, pc=4, fp_dest=True),
            Instruction(op=OpClass.IALU, pc=8),
        ]
        config = MicroarchConfig(n_ialu=2, n_fpu=1)
        _, tl = simulate_with_timeline(Trace.from_instructions(instrs), config)
        assert tl.issue[2] == tl.issue[0]
        assert tl.issue[1] == tl.issue[0] + 12
        assert tl.ordered()

    def test_dependent_op_issues_when_its_producer_completes(self):
        instrs = [
            Instruction(op=OpClass.IMUL, pc=0),
            Instruction(op=OpClass.IALU, dep1=1, pc=4),
            Instruction(op=OpClass.IALU, pc=8),
        ]
        _, tl = simulate_with_timeline(Trace.from_instructions(instrs))
        assert tl.issue[1] == tl.complete[0]
        assert tl.issue[2] == tl.issue[0]


def timeline_digest(tl) -> str:
    h = hashlib.sha256()
    for stamps in (tl.fetch, tl.issue, tl.complete, tl.retire):
        h.update(np.ascontiguousarray(stamps, dtype=np.int64).tobytes())
    h.update(str(tl.cycles).encode())
    return h.hexdigest()


def _phase_trace(app):
    profile = workload_by_name(app)
    return TraceGenerator(profile, seed=3).phase_trace(profile.phases[0], 1500)


_SMALL = MicroarchConfig(window_size=16, n_ialu=2, n_fpu=1)


class TestTimelineGolden:
    """Per-instruction fetch/issue/complete/retire stamps, pinned bit for
    bit: any change to the pipeline's timing shows here first."""

    @pytest.mark.parametrize(
        "make, config, expected",
        [
            (lambda: ub.branchy(600), BASE_MICROARCH,
             "bb885afe46ef97cb2d9d9910add4aee8a8fe20744124833169ed325025acf3b8"),
            (lambda: ub.branchy(600), _SMALL,
             "e7199c946ff7a11a2315e545c2180f723b651acd0c78775485cbffcd002b1abf"),
            (lambda: ub.stream(400), BASE_MICROARCH,
             "b5b96f48d536ccf4e267894e0e23bcb99a9f95b8dd3b4e81e2f834cf56c7e544"),
            (lambda: ub.pointer_chase(300), _SMALL,
             "62e619641ecbde7850e2711af01d325bcdaf16813b009a98d6775674e2723990"),
            (lambda: ub.call_heavy(100), _SMALL,
             "4bf5b8a72bda19aa5f809d833a861e38d0eab28c24cb0c302c11c212c4aff7fe"),
            (lambda: ub.dependency_chain(300, OpClass.IMUL), BASE_MICROARCH,
             "e7d6fe9ec8f89906843d6a672d282b970effccf303490bf4dc624a7ba25fa5fd"),
            (lambda: _phase_trace("art"), BASE_MICROARCH,
             "b0d73e9ca6666e43a53cc53e8bc9044e0592e3c799f29a9c81a15a9d492f4623"),
            (lambda: _phase_trace("gzip"), BASE_MICROARCH,
             "14e114be5c0d951064e7994654ed9e629edeb8e8bde62d301a3b6f31a242305a"),
        ],
        ids=["branchy", "branchy-small", "stream", "pointer-chase-small",
             "call-heavy-small", "imul-chain", "art-phase", "gzip-phase"],
    )
    def test_timeline_unchanged(self, make, config, expected):
        _, tl = simulate_with_timeline(make(), config)
        assert timeline_digest(tl) == expected


def _stress_case(case):
    """A random trace and machine built to hit the pipeline's corner cases:
    stores and loads aliasing a few blocks, one or two MSHRs, a 2-entry
    LSQ, a 1-entry RAS, random calls/returns and taken branches."""
    from repro.cpu.caches import MemoryHierarchy

    rng = np.random.default_rng([7, case])
    n = int(rng.integers(200, 1200))
    mix = [0.3, 0.05, 0.02, 0.08, 0.05, 0.02, 0.2, 0.12, 0.1, 0.03, 0.03]
    op = rng.choice(len(OpClass), size=n, p=mix).astype(np.int8)
    positions = np.arange(n)
    dep1 = np.minimum(rng.geometric(0.3, size=n), positions) * (rng.random(n) < 0.8)
    dep2 = np.minimum(rng.geometric(0.3, size=n), positions) * (rng.random(n) < 0.4)
    near = rng.random(n) < 0.7
    addr = np.where(near, rng.integers(0, 8, n), rng.integers(0, 1 << 20, n)) * 64
    pc = (positions % int(rng.integers(8, 200))) * 4 + (rng.random(n) < 0.1) * 4096
    trace = Trace(op=op, dep1=dep1, dep2=dep2, addr=addr, taken=rng.random(n) < 0.5, pc=pc,
                  fp_dest=rng.random(n) < 0.3, name=f"stress-{case}")
    config = MicroarchConfig(
        window_size=int(rng.choice([16, 48, 128])),
        n_ialu=int(rng.choice([2, 4, 6])),
        n_fpu=int(rng.choice([1, 2, 4])),
        memory_queue_size=int(rng.choice([2, 8, 32])),
        ras_entries=int(rng.choice([1, 32])),
    )
    return trace, config, MemoryHierarchy(mshr_entries=int(rng.choice([1, 2, 12])))


#: Digest of each stress case's timeline and stats (see ``_stress_case``).
STRESS_DIGESTS = [
        "18da708e7a6f907d17cdb93749ac301bf4224ef45f8ccd3d4cfe8ccb24a5c1b9",
        "7859a6861eba8c72afffd5420e5efd65be0a67e78fd297f4b43efd4d8513fcf0",
        "acc3795b5d6707c0c94674ec895d1f9b617e104587ba7f1ece51d7c3162afa3d",
        "578ea0f15b3029ec0b9cb0da00768c07e4995efedba622a16eb2ed4ab905320c",
        "6acd50204fc5edafbc64f331181cd4c23b9132b333d0ff4dc9f27081be3f2975",
        "3c46893a85d3b5ab17c251699bb1d48b95f664c8f027a2618143219891a1f407",
        "d3c2ffd8e111e729ed086bcde0df6c333e238ce49e61ea1da11fd872709be21f",
        "5e2aaba73930a1b20ebc40b85aeb2457a74ae1b0ccf277923f605fb137ef9672",
        "f1ba192af415e877413c62568cf3bc983909b73c6a0a2f07dd9eae2c826d2e1c",
        "60f734ae096ff4d705288d8eedcf2b88bbc287b39c401859ca62f1ec2f08f9aa",
]


@pytest.mark.parametrize("case", range(len(STRESS_DIGESTS)))
def test_stress_trace_timeline_unchanged(case):
    trace, config, hierarchy = _stress_case(case)
    engine = PipelineEngine(trace, config, hierarchy, record_timeline=True)
    stats = engine.run()
    tl = engine.timeline()
    h = hashlib.sha256()
    for stamps in (tl.fetch, tl.issue, tl.complete, tl.retire):
        h.update(np.ascontiguousarray(stamps, dtype=np.int64).tobytes())
    h.update(repr((stats.cycles, stats.mem_stall_cycles, stats.lsq_forwards,
                   stats.ras_mispredicts, sorted(stats.activity.items()))).encode())
    assert h.hexdigest() == STRESS_DIGESTS[case]

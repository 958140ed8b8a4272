"""Tests for the CycleSimulator facade and whole-workload runs."""

import pytest

from repro.config.microarch import BASE_MICROARCH, MicroarchConfig
from repro.cpu.simulator import CycleSimulator, WorkloadPreparation
from repro.engine.store import encode_workload_run
from repro.errors import SimulationError
from repro.workloads.suite import workload_by_name

MPG = workload_by_name("MPGdec")
TWOLF = workload_by_name("twolf")


class TestCycleSimulator:
    def test_runs_every_phase(self, quick_simulator):
        run = quick_simulator.run(MPG)
        assert len(run.phases) == len(MPG.phases)
        assert [p.phase.name for p in run.phases] == [p.name for p in MPG.phases]

    def test_instruction_budget_respected(self, quick_simulator):
        run = quick_simulator.run(MPG)
        assert run.instructions == quick_simulator.instructions

    def test_deterministic(self):
        a = CycleSimulator(instructions=2000, warmup=500, seed=3).run(TWOLF)
        b = CycleSimulator(instructions=2000, warmup=500, seed=3).run(TWOLF)
        assert a.ipc == b.ipc
        assert a.phases[0].stats.activity == b.phases[0].stats.activity

    def test_seed_changes_results(self):
        a = CycleSimulator(instructions=2000, warmup=500, seed=3).run(TWOLF)
        b = CycleSimulator(instructions=2000, warmup=500, seed=4).run(TWOLF)
        assert a.ipc != b.ipc

    def test_media_faster_than_twolf(self, quick_simulator):
        assert quick_simulator.run(MPG).ipc > quick_simulator.run(TWOLF).ipc * 1.5

    def test_shrunken_machine_is_slower(self):
        small = CycleSimulator(
            config=MicroarchConfig(window_size=16, n_ialu=2, n_fpu=1),
            instructions=3000,
            warmup=500,
        )
        base = CycleSimulator(instructions=3000, warmup=500)
        assert small.run(MPG).ipc < base.run(MPG).ipc

    def test_phase_weights_preserved(self, quick_simulator):
        run = quick_simulator.run(MPG)
        assert sum(p.weight for p in run.phases) == pytest.approx(1.0)

    def test_warmup_zero_allowed(self):
        run = CycleSimulator(instructions=1500, warmup=0).run(TWOLF)
        assert run.instructions == 1500

    @pytest.mark.parametrize("kwargs", [{"instructions": 0}, {"warmup": -1}])
    def test_invalid_budgets_rejected(self, kwargs):
        with pytest.raises(SimulationError):
            CycleSimulator(**kwargs)

    def test_warm_caches_beat_cold_start(self):
        # The preload + warmup machinery must actually help.
        warm = CycleSimulator(instructions=2500, warmup=1500).run(MPG)
        cold_sim = CycleSimulator(instructions=2500, warmup=0)
        # Disable preloading by running the trace directly on a cold engine.
        from repro.cpu.pipeline import PipelineEngine
        from repro.workloads.generator import TraceGenerator

        gen = TraceGenerator(MPG, seed=cold_sim.seed)
        trace = gen.phase_trace(MPG.phases[0], 2500)
        cold_stats = PipelineEngine(trace, BASE_MICROARCH).run()
        assert warm.phases[0].stats.l1d_miss_rate < cold_stats.l1d_miss_rate


class TestWorkloadPreparation:
    def test_shared_preparation_is_bit_identical(self):
        configs = (BASE_MICROARCH, MicroarchConfig(window_size=16, n_ialu=2, n_fpu=1))
        shared = WorkloadPreparation(TWOLF, 1500, 300, seed=5, uses=len(configs))
        for config in configs:
            simulator = CycleSimulator(config, instructions=1500, warmup=300, seed=5)
            assert encode_workload_run(simulator.run(TWOLF, shared)) == encode_workload_run(
                simulator.run(TWOLF)
            )

    def test_used_up_preparation_is_rejected(self):
        simulator = CycleSimulator(instructions=1000, warmup=0)
        preparation = WorkloadPreparation(TWOLF, 1000, 0, seed=simulator.seed)
        simulator.run(TWOLF, preparation)
        with pytest.raises(SimulationError, match="used up"):
            simulator.run(TWOLF, preparation)

    @pytest.mark.parametrize(
        "profile, instructions, warmup, seed",
        [(MPG, 1000, 0, 42), (TWOLF, 2000, 0, 42), (TWOLF, 1000, 100, 42), (TWOLF, 1000, 0, 7)],
    )
    def test_mismatched_preparation_is_rejected(self, profile, instructions, warmup, seed):
        preparation = WorkloadPreparation(profile, instructions, warmup, seed)
        with pytest.raises(SimulationError, match="does not match"):
            CycleSimulator(instructions=1000, warmup=0, seed=42).run(TWOLF, preparation)

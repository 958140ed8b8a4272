"""End-to-end engine behaviour: determinism, store reuse, CLI wiring."""

import dataclasses

import pytest

from repro.config.microarch import MicroarchConfig
from repro.engine import Engine
from repro.engine.jobs import Job

APPS = ("twolf", "art")
INSTR = 1000
WARMUP = 200


@dataclasses.dataclass(frozen=True)
class BoomJob(Job):
    """Valid spec, unconditional run-time failure."""

    kind = "fake"
    stage = "simulate"

    def payload(self):
        return {}

    def run(self, ctx):
        raise RuntimeError("boom")


def small_engine(tmp_path=None, **kw):
    return Engine(store_dir=tmp_path, **kw)


class TestDeterminism:
    def test_parallel_equals_serial(self, tmp_path):
        configs = [MicroarchConfig(), MicroarchConfig(window_size=32)]
        serial = small_engine(tmp_path / "s", max_workers=1).simulate_many(
            APPS, configs, instructions=INSTR, warmup=WARMUP
        )
        parallel = small_engine(tmp_path / "p", max_workers=2).simulate_many(
            APPS, configs, instructions=INSTR, warmup=WARMUP
        )
        # Bit-identical WorkloadRuns, not approximately equal.
        assert parallel == serial

    def test_warm_store_short_circuits(self, tmp_path):
        cold = small_engine(tmp_path, max_workers=2)
        first = cold.simulate_many(APPS, instructions=INSTR, warmup=WARMUP)
        warm = small_engine(tmp_path, max_workers=2)
        second = warm.simulate_many(APPS, instructions=INSTR, warmup=WARMUP)
        assert second == first
        assert warm.events.counters["run"] == 0
        assert warm.events.counters["cached"] == len(APPS)
        assert warm.events.accounted()

    def test_memory_only_engine_works(self):
        results = small_engine(max_workers=1).simulate_many(
            ["twolf"], instructions=INSTR, warmup=WARMUP
        )
        ((key, run),) = results.items()
        assert key[0] == "twolf"
        assert run.ipc > 0


class TestDRMSweep:
    def test_sweep_matches_serial_oracle(self, tmp_path):
        """The parallel engine reproduces the serial DRMOracle verdicts."""
        from repro.core.drm import AdaptationMode, DRMOracle
        from repro.harness.platform import Platform
        from repro.harness.sweep import SimulationCache
        from repro.workloads.suite import workload_by_name

        engine = small_engine(tmp_path, max_workers=2)
        sweep = engine.drm_sweep(
            APPS, [370.0], mode="dvs", instructions=INSTR, warmup=WARMUP
        )
        oracle = DRMOracle(
            Platform(), SimulationCache(instructions=INSTR, warmup=WARMUP)
        )
        for app in APPS:
            expected = oracle.best(
                workload_by_name(app), t_qual_k=370.0, mode=AdaptationMode.DVS
            )
            assert sweep[(app, 370.0)] == expected
        assert engine.events.accounted()

    def test_sweep_dedupes_shared_simulations(self, tmp_path):
        engine = small_engine(tmp_path, max_workers=1)
        engine.drm_sweep(
            APPS, [370.0, 380.0], mode="dvs", instructions=INSTR, warmup=WARMUP
        )
        c = engine.events.counters
        # Each of the 9 suite sims and 4 searches runs once; every later
        # reference to a simulation is answered by the store.
        assert c["run"] == 13
        assert c["failed"] == 0


class TestSimulationsRunOnce:
    """A sweep simulates each (application, configuration) pair once."""

    CLI_ARGS = [
        "engine", "--apps", "gzip,art", "--tquals", "370,380", "--mode", "dvs",
        "--workers", "1", "--instructions", "2000", "--warmup", "400",
    ]

    @pytest.fixture
    def simulations(self, monkeypatch):
        from repro.cpu.simulator import CycleSimulator

        calls = []
        real_run = CycleSimulator.run

        def counting_run(self, *args, **kwargs):
            calls.append(self.config)
            return real_run(self, *args, **kwargs)

        monkeypatch.setattr(CycleSimulator, "run", counting_run)
        return calls

    def test_engine_sweep(self, tmp_path, simulations):
        Engine(store_dir=tmp_path, max_workers=1).drm_sweep(
            ["gzip", "art"], [370.0, 380.0], mode="dvs",
            instructions=2000, warmup=400,
        )
        # The suite's 9 base runs; DVS mode needs no other configuration.
        assert len(simulations) == 9

    def test_engine_command_without_store(self, tmp_path, monkeypatch, simulations, capsys):
        import tempfile

        from repro.cli import main

        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        assert main(self.CLI_ARGS) == 0
        assert len(simulations) == 9
        # The temporary store is gone with the run.
        assert list(scratch.iterdir()) == []
        assert "gzip" in capsys.readouterr().out


class TestStoreRecovery:
    def test_corrupt_entry_mid_sweep_is_healed_and_rerun(self, tmp_path):
        engine = small_engine(tmp_path, max_workers=1)
        first = engine.simulate_many(APPS, instructions=INSTR, warmup=WARMUP)
        # Smash one store entry; the next engine must heal, not fail.
        victim = next((tmp_path / "objects").glob("*/*.json"))
        victim.write_text('{"schema": 1, "oops"')
        healed = small_engine(tmp_path, max_workers=1)
        second = healed.simulate_many(APPS, instructions=INSTR, warmup=WARMUP)
        assert second == first
        # First strike self-heals (recompute); nothing is quarantined yet.
        assert healed.store.stats.healed == 1
        assert healed.store.stats.quarantined == 0
        assert healed.events.counters["failed"] == 0
        assert healed.events.counters["run"] == 1  # only the victim re-ran
        assert healed.events.counters["cached"] == 1

    def test_failed_job_reported_as_none_not_exception(self, tmp_path):
        engine = small_engine(tmp_path, max_workers=1, retries=0)
        results = engine.run([BoomJob()])
        assert list(results.values()) == [None]
        assert engine.events.counters["failed"] == 1
        assert engine.events.accounted()


class TestHarnessWiring:
    def test_run_many_agrees_with_sequential_runs(self, tmp_path):
        from repro.harness.sweep import SimulationCache
        from repro.workloads.suite import workload_by_name

        profiles = [workload_by_name(a) for a in APPS]
        seq = SimulationCache(instructions=INSTR, warmup=WARMUP)
        expected = {
            (p.name, MicroarchConfig().describe()): seq.run(p) for p in profiles
        }
        cache = SimulationCache(
            instructions=INSTR, warmup=WARMUP, disk_dir=tmp_path
        )
        got = cache.run_many(profiles, max_workers=2)
        assert got == expected
        # run_many leaves the in-memory memo warm: no new simulation here.
        assert cache.run(profiles[0]) == expected[(APPS[0], MicroarchConfig().describe())]

    def test_run_many_without_store_stays_serial(self):
        from repro.harness.sweep import SimulationCache
        from repro.workloads.suite import workload_by_name

        cache = SimulationCache(instructions=INSTR, warmup=WARMUP)
        got = cache.run_many([workload_by_name("twolf")], max_workers=2)
        assert len(got) == 1


class TestCLI:
    def test_engine_command_renders_table_and_accounting(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(
            [
                "engine",
                "--apps", "twolf",
                "--tquals", "370",
                "--mode", "dvs",
                "--workers", "1",
                "--instructions", str(INSTR),
                "--warmup", str(WARMUP),
                "--cache-dir", str(tmp_path / "store"),
                "--events-jsonl", str(tmp_path / "events.jsonl"),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "twolf" in out
        assert "accounting" in out
        jsonl = (tmp_path / "events.jsonl").read_text().splitlines()
        assert jsonl

    def test_engine_command_rejects_unknown_app(self):
        from repro.cli import main
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="unknown workload"):
            main(["engine", "--apps", "nonesuch"])

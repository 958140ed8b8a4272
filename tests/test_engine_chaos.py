"""Chaos suite: injected faults traverse the production recovery paths.

Each test arms a :class:`~repro.resilience.FaultPlan` and asserts that
the stack *converges* — injected worker crashes, hangs, corrupt store
payloads, and poisoned kernel rows all degrade to retries, rebuilds,
self-heals, and salvages, and the final results are identical to a
fault-free run.  The fake jobs live at module level so pool workers can
unpickle them.
"""

import dataclasses
import time

import pytest

from repro.engine import Engine
from repro.engine.events import EventLog
from repro.engine.executor import ExecutorConfig, JobExecutor
from repro.engine.jobs import Job
from repro.engine.store import ResultStore
from repro.resilience import (
    CI_DEFAULT,
    STORE_CORRUPT,
    WORKER_CRASH,
    WORKER_HANG,
    FaultPlan,
    armed,
    install,
)

APPS = ("twolf", "art")
INSTR = 1000
WARMUP = 200


@pytest.fixture(autouse=True)
def disarm():
    """No fault plan leaks into (or out of) any test in this module."""
    install(None)
    yield
    install(None)


@dataclasses.dataclass(frozen=True)
class EchoJob(Job):
    """Instant success — every failure it suffers is injected."""

    name: str = "echo"

    kind = "fake"
    stage = "simulate"

    def payload(self):
        return {"name": self.name}

    def run(self, ctx):
        return f"{self.name}:ok"


@dataclasses.dataclass(frozen=True)
class QuickJob(Job):
    """Instant success with a tight wall-clock budget (hang bait)."""

    name: str = "quick"

    kind = "fake"
    stage = "simulate"
    timeout_s = 0.2

    def payload(self):
        return {"name": self.name, "quick": True}

    def run(self, ctx):
        return f"{self.name}:ok"


def make_executor(events=None, **overrides) -> JobExecutor:
    config = ExecutorConfig(**{"backoff_s": 0.0, **overrides})
    return JobExecutor(config=config, events=events)


class TestInjectedCrashes:
    def test_injected_pool_crashes_recover_to_clean_results(self):
        """Every worker dies on first attempt; the ladder still converges."""
        plan = FaultPlan(name="crashy", seed=1, rates={WORKER_CRASH: 1.0})
        jobs = [EchoJob(name=f"j{i}") for i in range(3)]
        events = EventLog()
        ex = make_executor(events, max_workers=2, retries=1)
        with armed(plan):
            outcomes = ex.execute(jobs)
        assert {o.status for o in outcomes.values()} == {"run"}
        assert {o.result for o in outcomes.values()} == {
            "j0:ok", "j1:ok", "j2:ok"
        }
        assert events.counters["degraded"] >= 1
        assert events.counters["failed"] == 0

    def test_injected_crash_in_serial_mode_retries_clean(self):
        """In-process the crash is an InjectedFault; retry runs clean."""
        plan = FaultPlan(name="crashy", seed=1, rates={WORKER_CRASH: 1.0})
        events = EventLog()
        ex = make_executor(events, max_workers=1, retries=1)
        with armed(plan):
            (outcome,) = ex.execute([EchoJob()]).values()
        assert outcome.status == "run"
        assert outcome.attempts == 2
        assert events.counters["retried"] == 1

    def test_every_attempt_crasher_exhausts_retries(self):
        plan = FaultPlan(
            name="relentless",
            seed=1,
            rates={WORKER_CRASH: 1.0},
            first_attempt_only=False,
        )
        ex = make_executor(max_workers=1, retries=1)
        with armed(plan):
            (outcome,) = ex.execute([EchoJob()]).values()
        assert outcome.status == "failed"
        assert "InjectedFault" in outcome.error
        assert outcome.attempts == 2


class TestInjectedHangs:
    def test_injected_hang_trips_timeout_then_recovers(self):
        plan = FaultPlan(
            name="hangy", seed=1, rates={WORKER_HANG: 1.0}, hang_s=1.0
        )
        events = EventLog()
        ex = make_executor(events, max_workers=2, retries=1)
        start = time.monotonic()
        with armed(plan):
            outcomes = ex.execute([QuickJob(), EchoJob(name="bystander")])
        elapsed = time.monotonic() - start
        quick = next(
            o for o in outcomes.values() if isinstance(o.job, QuickJob)
        )
        assert quick.status == "run"
        assert quick.attempts == 2  # timeout charged, retry ran clean
        assert events.counters["retried"] >= 1
        assert elapsed < 3.0  # never waited out the full hang


class TestFailureBudget:
    def test_budget_fails_fast_across_executions(self):
        plan = FaultPlan(
            name="relentless",
            seed=1,
            rates={WORKER_CRASH: 1.0},
            first_attempt_only=False,
        )
        events = EventLog()
        ex = make_executor(
            events, max_workers=1, retries=5, failure_budget=2
        )
        with armed(plan):
            (first,) = ex.execute([EchoJob()]).values()
            # Budget (2) cuts the retry ladder short of retries (5).
            assert first.status == "failed"
            assert first.attempts == 2
            # A later wave refuses to re-attempt the known-bad job.
            (second,) = ex.execute([EchoJob()]).values()
        assert second.status == "failed"
        assert second.attempts == 0
        assert "failure budget exhausted" in second.error
        assert events.counters["budget_exhausted"] == 1

    def test_budget_off_by_default(self):
        assert ExecutorConfig().failure_budget is None


class TestBackoff:
    def test_backoff_delays_are_deterministic_and_bounded(self):
        ex = make_executor(max_workers=1, backoff_s=0.01, jitter=0.25)
        start = time.monotonic()
        ex._backoff(1, salt="k")
        ex._backoff(2, salt="k")
        elapsed = time.monotonic() - start
        # 0.01 + 0.02, each stretched by at most +25% jitter.
        assert 0.03 <= elapsed < 0.3

    def test_zero_base_skips_sleeping(self):
        ex = make_executor(max_workers=1, backoff_s=0.0)
        start = time.monotonic()
        ex._backoff(5, salt="k")
        assert time.monotonic() - start < 0.05


class TestInjectedStoreCorruption:
    def test_corrupt_write_heals_and_converges(self, tmp_path):
        plan = FaultPlan(name="bitrot", seed=1, rates={STORE_CORRUPT: 1.0})
        store = ResultStore(tmp_path)
        key = "ab" + "0" * 62
        with armed(plan):
            store.put(key, "fake", {"value": 42})
            # The injected write was truncated: the read strikes it...
            assert store.get(key) is None
            assert store.stats.healed == 1
            # ...and the rewrite lands clean (corruption is once-per-key).
            store.put(key, "fake", {"value": 42})
            got = store.get(key)
        assert got == {"value": 42}
        assert store.stats.quarantined == 0

    def test_engine_converges_through_injected_corruption(self, tmp_path):
        """Simulations whose store entries rot still come back identical."""
        plan = FaultPlan(name="bitrot", seed=1, rates={STORE_CORRUPT: 1.0})
        with armed(plan):
            dirty = Engine(store_dir=tmp_path, max_workers=1)
            first = dirty.simulate_many(APPS, instructions=INSTR, warmup=WARMUP)
        # Every put was truncated once; a warm read heals and re-runs.
        rerun = Engine(store_dir=tmp_path, max_workers=1)
        second = rerun.simulate_many(APPS, instructions=INSTR, warmup=WARMUP)
        assert second == first
        assert rerun.store.stats.healed == len(APPS)
        assert rerun.store.stats.quarantined == 0
        assert rerun.events.counters["failed"] == 0
        # The healing re-run wrote clean entries: third time is all cache.
        warm = Engine(store_dir=tmp_path, max_workers=1)
        third = warm.simulate_many(APPS, instructions=INSTR, warmup=WARMUP)
        assert third == first
        assert warm.events.counters["cached"] == len(APPS)


class TestSweepBitIdentity:
    def test_drm_sweep_under_ci_plan_matches_fault_free(self, tmp_path):
        """The ISSUE acceptance property, at test scale: an armed sweep
        converges to results bit-identical to the fault-free run."""
        kwargs = dict(instructions=INSTR, warmup=WARMUP, mode="dvs")
        clean = Engine(store_dir=tmp_path / "clean", max_workers=1).drm_sweep(
            APPS, [370.0, 380.0], **kwargs
        )
        with armed(CI_DEFAULT):
            chaotic_engine = Engine(
                store_dir=tmp_path / "chaos", max_workers=1, retries=1
            )
            chaotic = chaotic_engine.drm_sweep(APPS, [370.0, 380.0], **kwargs)
        assert chaotic == clean
        assert chaotic_engine.events.counters["failed"] == 0

    @pytest.mark.slow
    def test_archdvs_sweep_under_ci_plan_matches_fault_free(self, tmp_path):
        kwargs = dict(
            instructions=INSTR, warmup=WARMUP, mode="archdvs", dvs_steps=6
        )
        clean = Engine(store_dir=tmp_path / "clean", max_workers=2).drm_sweep(
            ["twolf"], [370.0], **kwargs
        )
        with armed(CI_DEFAULT):
            chaotic = Engine(
                store_dir=tmp_path / "chaos", max_workers=2, retries=1
            ).drm_sweep(["twolf"], [370.0], **kwargs)
        assert chaotic == clean


class TestSweepResume:
    TQUALS = [370.0, 380.0]
    #: The stream identity of this sweep, as every earlier release
    #: wrote it: a stream left by a killed sweep must resume.
    RUN_ID = "sweep-db8060b15302e6f1"

    def run_sweep(self, store_dir, resume=False):
        engine = Engine(store_dir=store_dir, max_workers=1)
        decisions = engine.drm_sweep(
            APPS,
            self.TQUALS,
            mode="dvs",
            instructions=INSTR,
            warmup=WARMUP,
            resume=resume,
        )
        return engine, decisions

    @staticmethod
    def stream_root(engine):
        from repro.telemetry import STORE_DIRNAME

        return engine.store.root / STORE_DIRNAME

    def stream_frames(self, engine):
        """(segment paths, frame lines across all segments)."""
        from repro.telemetry import run_segments

        segments = run_segments(self.stream_root(engine), self.RUN_ID)
        frames = [
            line
            for path in segments
            for line in path.read_bytes().split(b"\n")
            if line
        ]
        return segments, frames

    def cell_records(self, engine):
        from repro.telemetry import read_stream

        return [
            r
            for r in read_stream(
                self.stream_root(engine),
                run_id=self.RUN_ID,
                kinds=("sweep.cell_done",),
            )
        ]

    def test_stream_identity_is_stable(self, tmp_path):
        from repro.engine import sweep_run_id
        from repro.telemetry import list_runs, read_stream

        engine, _ = self.run_sweep(tmp_path)
        root = self.stream_root(engine)
        assert [r for r in list_runs(root) if r.startswith("sweep-")] == [
            self.RUN_ID
        ]
        (spec,) = read_stream(root, run_id=self.RUN_ID, kinds=("sweep.spec",))
        assert sweep_run_id(spec.payload) == self.RUN_ID

    def test_sweep_needs_a_store(self):
        from repro.errors import SweepError

        with pytest.raises(SweepError, match="store directory"):
            Engine(max_workers=1).drm_sweep(APPS, self.TQUALS, mode="dvs")

    def test_resume_restores_streamed_cells_only(self, tmp_path):
        engine, first = self.run_sweep(tmp_path)
        assert len(self.cell_records(engine)) == 4
        segments, frames = self.stream_frames(engine)
        # Simulate kill -9 after two finished cells: keep the reset/spec
        # frames plus the first two cell_done frames intact, then half of
        # the third cell_done frame — exactly what a torn append leaves.
        cell_idx = [
            i for i, f in enumerate(frames) if b'"sweep.cell_done"' in f
        ]
        kept = frames[: cell_idx[1] + 1]
        torn = frames[cell_idx[2]][: len(frames[cell_idx[2]]) // 2]
        for path in segments[1:]:
            path.unlink()
        segments[0].write_bytes(b"\n".join(kept) + b"\n" + torn)

        resumed, second = self.run_sweep(tmp_path, resume=True)
        assert second == first
        events = resumed.events
        # Exactly the streamed cells were restored, and only the two
        # lost cells went back through the engine (as store hits).
        assert events.counters["resumed"] == 2
        assert events.counters["run"] == 0
        drm_submitted = sum(
            1
            for e in events.events
            if e.kind == "submitted" and e.stage == "drm"
        )
        assert drm_submitted == 2

    def test_resume_with_destroyed_stream_recomputes_everything(self, tmp_path):
        engine, first = self.run_sweep(tmp_path)
        segments, _ = self.stream_frames(engine)
        for path in segments:
            path.write_bytes(b"{broken garbage, no frames survive\n" * 3)
        resumed, second = self.run_sweep(tmp_path, resume=True)
        assert second == first
        assert resumed.events.counters["resumed"] == 0

    def test_resume_strikes_corrupt_streamed_decision(self, tmp_path):
        engine, first = self.run_sweep(tmp_path)
        victim_key = self.cell_records(engine)[0].payload["decision_key"]
        entry = engine.store._object_path(victim_key)
        entry.write_text('{"schema": 1, "oops"')

        resumed, second = self.run_sweep(tmp_path, resume=True)
        assert second == first
        assert resumed.events.counters["resumed"] == 3
        assert resumed.store.stats.healed == 1
        assert resumed.store.stats.quarantined == 0

    def test_without_resume_stream_is_reset(self, tmp_path):
        from repro.telemetry import build_report

        _, first = self.run_sweep(tmp_path)
        fresh, second = self.run_sweep(tmp_path, resume=False)
        assert second == first
        assert fresh.events.counters["resumed"] == 0
        # The stream keeps both histories, append-only: eight cell_done
        # records in total, but a replay honours the second run's reset
        # and sees exactly the four cells recorded after it...
        assert len(self.cell_records(fresh)) == 8
        report = build_report(self.stream_root(fresh), run_id=self.RUN_ID)
        assert report.sweeps[self.RUN_ID]["cells_done"] == 4
        # ...so a resume restores those four and runs nothing.
        resumed, third = self.run_sweep(tmp_path, resume=True)
        assert third == second
        assert resumed.events.counters["resumed"] == 4
        assert resumed.events.counters["submitted"] == 0

    def test_completed_sweep_compacts_to_one_segment(self, tmp_path):
        engine, _ = self.run_sweep(tmp_path)
        segments, _ = self.stream_frames(engine)
        assert len(segments) == 1

"""Executor fault tolerance: retries, crashes, timeouts, degradation.

The fake jobs live at module level so worker processes can unpickle
them; their state (attempt counters, crash markers) lives in files so
it survives process boundaries.
"""

import dataclasses
import json
import os
import time
from pathlib import Path

import pytest

from repro.engine.events import EventLog
from repro.engine.executor import ExecutorConfig, JobExecutor
from repro.engine.jobs import Job
from repro.engine.scheduler import JobGraph


@dataclasses.dataclass(frozen=True)
class FlakyJob(Job):
    """Fails ``fail_times`` times (counted in a file), then succeeds."""

    scratch: str
    fail_times: int = 0
    name: str = "flaky"

    kind = "fake"
    stage = "simulate"

    def payload(self):
        return {
            "scratch": self.scratch,
            "fail_times": self.fail_times,
            "name": self.name,
        }

    def run(self, ctx):
        counter = Path(self.scratch) / f"{self.name}.attempts"
        n = int(counter.read_text()) if counter.exists() else 0
        # Write-then-rename: a worker SIGTERMed when a crash breaks the
        # pool must never leave the counter truncated for the re-run.
        partial = counter.with_name(f"{counter.name}.{os.getpid()}.tmp")
        partial.write_text(str(n + 1))
        os.replace(partial, counter)
        if n < self.fail_times:
            raise RuntimeError(f"transient failure {n + 1}")
        return f"{self.name}:ok"


@dataclasses.dataclass(frozen=True)
class CrashJob(Job):
    """Kills its worker process once, then succeeds on the next attempt."""

    scratch: str

    kind = "fake"
    stage = "simulate"

    def payload(self):
        return {"scratch": self.scratch}

    def run(self, ctx):
        marker = Path(self.scratch) / "crashed.once"
        if not marker.exists():
            marker.touch()
            os._exit(3)  # simulate a segfault: no exception, no cleanup
        return "recovered"


@dataclasses.dataclass(frozen=True)
class AlwaysCrashJob(Job):
    """Kills its worker on every attempt; can never succeed."""

    kind = "fake"
    stage = "simulate"

    def payload(self):
        return {"always": True}

    def run(self, ctx):
        os._exit(3)


@dataclasses.dataclass(frozen=True)
class SleepJob(Job):
    """Sleeps far past its own per-job wall-clock budget."""

    duration_s: float

    kind = "fake"
    stage = "simulate"
    timeout_s = 0.4

    def payload(self):
        return {"duration_s": self.duration_s}

    def run(self, ctx):
        time.sleep(self.duration_s)
        return "slept"


def make_executor(events=None, **overrides) -> JobExecutor:
    config = ExecutorConfig(**{"backoff_s": 0.0, **overrides})
    return JobExecutor(config=config, events=events)


class TestSerialExecution:
    def test_retry_then_success(self, tmp_path):
        ex = make_executor(max_workers=1, retries=2)
        job = FlakyJob(str(tmp_path), fail_times=1)
        (outcome,) = ex.execute([job]).values()
        assert outcome.status == "run"
        assert outcome.result == "flaky:ok"
        assert outcome.attempts == 2
        assert ex.events.counters["retried"] == 1

    def test_exhausted_retries_fail(self, tmp_path):
        ex = make_executor(max_workers=1, retries=1)
        job = FlakyJob(str(tmp_path), fail_times=99)
        (outcome,) = ex.execute([job]).values()
        assert outcome.status == "failed"
        assert "transient failure" in outcome.error
        assert outcome.attempts == 2
        assert ex.events.counters["failed"] == 1
        assert ex.memory.get(job.cache_key) is None  # failures are never cached

    def test_second_execute_hits_memory(self, tmp_path):
        ex = make_executor(max_workers=1)
        job = FlakyJob(str(tmp_path))
        ex.execute([job])
        (outcome,) = ex.execute([job]).values()
        assert outcome.status == "cached"
        assert outcome.attempts == 0
        assert ex.events.counters["cached"] == 1


class TestParallelExecution:
    def test_results_match_serial(self, tmp_path):
        jobs = [
            FlakyJob(str(tmp_path), name=f"job{i}") for i in range(3)
        ]
        serial = {
            k: o.result
            for k, o in make_executor(max_workers=1).execute(jobs).items()
        }
        parallel = {
            k: o.result
            for k, o in make_executor(max_workers=2).execute(jobs).items()
        }
        assert parallel == serial

    def test_ordinary_exception_retries_on_healthy_pool(self, tmp_path):
        events = EventLog()
        ex = make_executor(events, max_workers=2, retries=1)
        jobs = [
            FlakyJob(str(tmp_path), fail_times=1, name="shaky"),
            FlakyJob(str(tmp_path), name="solid"),
        ]
        outcomes = ex.execute(jobs)
        assert {o.status for o in outcomes.values()} == {"run"}
        assert events.counters["retried"] == 1
        assert events.counters["degraded"] == 0  # the pool never broke

    def test_worker_crash_degrades_to_isolation_and_recovers(self, tmp_path):
        events = EventLog()
        ex = make_executor(events, max_workers=2, retries=1)
        crash = CrashJob(str(tmp_path))
        solid = FlakyJob(str(tmp_path), name="solid")
        outcomes = ex.execute([crash, solid])
        assert outcomes[crash.cache_key].status == "run"
        assert outcomes[crash.cache_key].result == "recovered"
        assert outcomes[solid.cache_key].status == "run"
        assert events.counters["degraded"] >= 1
        # The shared-pool casualty is uncharged; only the (successful)
        # isolation attempt counts against the crashing job.
        assert outcomes[crash.cache_key].attempts == 1

    def test_crash_once_recovers_even_without_retries(self, tmp_path):
        # A shared-pool casualty is not charged as an attempt, so a
        # transient crash heals in isolation even with retries=0.
        ex = make_executor(max_workers=2, retries=0)
        crash = CrashJob(str(tmp_path))
        solid = FlakyJob(str(tmp_path), name="solid")
        outcomes = ex.execute([crash, solid])
        assert outcomes[crash.cache_key].status == "run"
        assert outcomes[crash.cache_key].result == "recovered"
        assert outcomes[solid.cache_key].status == "run"

    def test_pool_broken_while_submitting_is_a_casualty(self, tmp_path):
        # The first job's worker dies before the second job is queued, so
        # submitting it raises: both are uncharged casualties and recover.
        import concurrent.futures
        from concurrent.futures.process import BrokenProcessPool

        class DiesOnFirstJob:
            def submit(self, *args):
                if hasattr(self, "dead"):
                    raise BrokenProcessPool("worker died")
                self.dead = concurrent.futures.Future()
                self.dead.set_exception(BrokenProcessPool("worker died"))
                return self.dead

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        ex = make_executor(max_workers=2, retries=0)
        real_pool = ex._new_pool
        pools = iter([DiesOnFirstJob()])
        ex._new_pool = lambda workers: next(pools, None) or real_pool(workers)
        first = FlakyJob(str(tmp_path), name="first")
        second = FlakyJob(str(tmp_path), name="second")
        outcomes = ex.execute([first, second])
        assert [outcomes[j.cache_key].status for j in (first, second)] == ["run", "run"]
        assert [outcomes[j.cache_key].attempts for j in (first, second)] == [1, 1]

    def test_persistent_crasher_fails_without_hanging(self, tmp_path):
        ex = make_executor(max_workers=2, retries=0)
        crash = AlwaysCrashJob()
        solid = FlakyJob(str(tmp_path), name="solid")
        outcomes = ex.execute([crash, solid])
        assert outcomes[crash.cache_key].status == "failed"
        assert "worker died" in outcomes[crash.cache_key].error
        assert outcomes[solid.cache_key].status == "run"

    def test_per_job_timeout_enforced(self, tmp_path):
        ex = make_executor(max_workers=2, retries=0)
        sleepy = SleepJob(duration_s=1.5)  # class timeout_s = 0.4
        solid = FlakyJob(str(tmp_path), name="solid")
        start = time.monotonic()
        outcomes = ex.execute([sleepy, solid])
        assert outcomes[sleepy.cache_key].status == "failed"
        assert "timed out" in outcomes[sleepy.cache_key].error
        assert outcomes[solid.cache_key].status == "run"
        # We must not have waited for the full sleep.
        assert time.monotonic() - start < 1.4


class TestEventLog:
    def test_accounting_invariant_with_failures(self, tmp_path):
        events = EventLog()
        graph = JobGraph(events)
        ok = graph.add(FlakyJob(str(tmp_path), name="good"))
        bad = graph.add(FlakyJob(str(tmp_path), fail_times=99, name="bad"))
        ex = make_executor(events, max_workers=1, retries=0)
        for wave in graph.waves():
            ex.execute(wave)
        assert events.counters["submitted"] == 2
        assert events.counters["run"] == 1
        assert events.counters["failed"] == 1
        assert events.accounted()
        # A re-run resubmits through a fresh graph (as Engine.run does);
        # the good job comes back cached and the books stay straight.
        rerun = JobGraph(events)
        rerun.add(ok)
        rerun.add(bad)
        for wave in rerun.waves():
            ex.execute(wave)
        assert events.counters["submitted"] == 4
        assert events.counters["cached"] == 1
        assert events.accounted()

    def test_jsonl_schema(self, tmp_path):
        events = EventLog()
        ex = make_executor(events, max_workers=1, retries=1)
        ex.execute([FlakyJob(str(tmp_path), fail_times=1)])
        lines = events.to_jsonl().splitlines()
        assert lines
        records = [json.loads(line) for line in lines]
        for record in records:
            assert set(record) == {
                "seq", "wall_s", "kind", "job_key", "stage", "detail", "data",
            }
        assert [r["seq"] for r in records] == list(range(len(records)))
        kinds = [r["kind"] for r in records]
        assert "retried" in kinds
        assert "run_finished" in kinds
        finished = next(r for r in records if r["kind"] == "run_finished")
        assert finished["data"]["attempts"] == 2
        assert finished["stage"] == "simulate"

    def test_render_mentions_accounting(self, tmp_path):
        events = EventLog()
        graph = JobGraph(events)
        job = graph.add(FlakyJob(str(tmp_path)))
        make_executor(events, max_workers=1).execute([job])
        text = events.render()
        assert "OK" in text
        assert "1 run" in text


class TestProgress:
    def test_progress_sink_called_per_outcome(self, tmp_path):
        lines = []
        events = EventLog(progress=lines.append)
        ex = make_executor(events, max_workers=1)
        ex.execute([FlakyJob(str(tmp_path), name=f"p{i}") for i in range(2)])
        assert len(lines) == 2
        assert "run 2" in lines[-1]


@pytest.mark.slow
@pytest.mark.skipif((os.cpu_count() or 1) < 4, reason="needs >=4 cores")
class TestSpeedup:
    def test_parallel_beats_serial_on_independent_sims(self):
        from repro.engine import Engine

        apps = ["twolf", "art", "bzip2", "gzip"]
        t0 = time.monotonic()
        serial = Engine(max_workers=1).simulate_many(apps)
        t_serial = time.monotonic() - t0
        t0 = time.monotonic()
        parallel = Engine(max_workers=4).simulate_many(apps)
        t_parallel = time.monotonic() - t0
        assert parallel == serial
        assert t_parallel < t_serial / 2

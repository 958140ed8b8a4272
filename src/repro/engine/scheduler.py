"""Dependency-aware DAG scheduling with content-hash deduplication.

The :class:`JobGraph` collects job specs, automatically pulls in their
``dependencies()`` (recursively), and dedupes everything by cache key —
submitting the same 162-simulation sweep twice costs nothing the second
time.  :meth:`JobGraph.waves` then topologically sorts the graph into
*waves*: lists of mutually independent jobs, each wave runnable with
arbitrary parallelism once the previous waves finished.  Within a wave,
jobs are ordered by (stage, cache key) so execution order — and therefore
the event log — is deterministic regardless of dict iteration or hash
randomisation.

Wave scheduling is what realises the stage ordering the harness needs
(simulate → drm) without hard-coding stages: the ordering falls out of
the declared dependencies.
"""

from __future__ import annotations

from repro.engine.events import EventLog
from repro.engine.jobs import EngineError, Job

#: Canonical stage order, used only to make intra-wave ordering stable
#: and human-friendly; correctness comes from the dependency edges.
_STAGE_ORDER = {
    "simulate": 0,
    "drm": 1,
}


def _sort_key(job: Job) -> tuple[int, str]:
    return (_STAGE_ORDER.get(job.stage, 99), job.cache_key)


class JobGraph:
    """A deduplicated DAG of job specs.

    Args:
        events: optional event log; records submissions and dedupes.
    """

    def __init__(self, events: EventLog | None = None) -> None:
        self._jobs: dict[str, Job] = {}
        self._deps: dict[str, set[str]] = {}
        self.events = events

    def __len__(self) -> int:
        return len(self._jobs)

    def __contains__(self, job: Job) -> bool:
        return job.cache_key in self._jobs

    @property
    def jobs(self) -> tuple[Job, ...]:
        return tuple(sorted(self._jobs.values(), key=_sort_key))

    def add(self, job: Job) -> Job:
        """Add a job (and, recursively, its dependencies).

        Returns the canonical instance for the job's cache key — the
        previously added spec when this one is a duplicate — so callers
        can use the return value as a result handle.
        """
        key = job.cache_key
        existing = self._jobs.get(key)
        if existing is not None:
            if self.events is not None:
                self.events.emit(
                    "deduped", job_key=key, stage=job.stage, detail=job.describe()
                )
            return existing
        self._jobs[key] = job
        if self.events is not None:
            self.events.emit(
                "submitted", job_key=key, stage=job.stage, detail=job.describe()
            )
        dep_keys = set()
        for dep in job.dependencies():
            canonical = self.add(dep)
            dep_keys.add(canonical.cache_key)
        self._deps[key] = dep_keys
        return job

    def waves(self) -> list[list[Job]]:
        """Topological sort into waves of mutually independent jobs.

        Raises:
            EngineError: if the graph has a dependency cycle.
        """
        remaining: dict[str, set[str]] = {
            key: set(deps) for key, deps in self._deps.items()
        }
        done: set[str] = set()
        waves: list[list[Job]] = []
        while remaining:
            ready = [
                key for key, deps in remaining.items() if deps.issubset(done)
            ]
            if not ready:
                cycle = ", ".join(
                    self._jobs[k].describe() for k in sorted(remaining)[:5]
                )
                raise EngineError(
                    f"dependency cycle among {len(remaining)} jobs "
                    f"(involving: {cycle})",
                    phase="schedule",
                    jobs_remaining=len(remaining),
                    jobs_done=len(done),
                )
            wave = sorted((self._jobs[k] for k in ready), key=_sort_key)
            waves.append(wave)
            done.update(j.cache_key for j in wave)
            for key in ready:
                del remaining[key]
        return waves

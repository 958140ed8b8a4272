"""The four end-to-end workloads; ``run.py`` starts one per fresh process.

Each workload sets up (several times, so set-up time can be reported as
a median), then repeats its operations in rounds — at least a minimum
number, more until ``--seconds`` have passed — then checks its own
outputs.  Every round does the same set of distinct operations, so each
one is timed several times over the run.  The result — per-operation
latencies, set-up times, peak RSS, failures and the golden digests — is
written as one JSON file for ``run.py``, which turns it into metrics.

Run by hand only to debug one workload::

    python3 benchmarks/e2e/workloads.py drm_warm --seed 0 --seconds 5 \\
        --work-dir benchmarks/e2e/.work/debug \\
        --result benchmarks/e2e/.work/debug/result.json

The simulation seed is fixed (:data:`SIM_SEED`) whatever ``--seed`` is:
host time of a cold simulation moves by up to 50 % between trace seeds,
which would swamp every bound.  ``--seed`` drives everything else — the
order of the cold applications, the T_qual shuffle, the serve traces and
arrival times, and the mission and adversary seeds.
"""

from __future__ import annotations

import time

T_START_NS = time.perf_counter_ns()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import repro  # noqa: E402

if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
    raise SystemExit(f"repro was imported from {repro.__file__}, not from {ROOT / 'src'}")

from repro import (  # noqa: E402
    AdaptationMode,
    DRMOracle,
    Platform,
    SimulationCache,
    arch_adaptation_space,
    workload_by_name,
)
from repro.core.controllers import WearAwareController  # noqa: E402
from repro.core.redundancy import RedundancyPlan  # noqa: E402
from repro.engine.store import encode_result, encode_workload_run  # noqa: E402
from repro.lifetime import AdversarySearch, LifetimeSimulator  # noqa: E402
from repro.serve import (  # noqa: E402
    DecisionService,
    RequestTraceGenerator,
    ServiceConfig,
    TrafficMix,
    encode_decision,
)
from repro.telemetry import read_stream  # noqa: E402
from repro.workloads.generator import random_mission  # noqa: E402
from repro.workloads.suite import SUITE_NAMES  # noqa: E402

from trace import LAYERS, Tracer, layer_table, nearest_rank, render_table  # noqa: E402

#: Trace seed of every cycle-level simulation (see the module docstring).
SIM_SEED = 42

#: The applications of the DRM workloads: the suite's slowest simulation
#: (art) and two cheaper ones; a cold decision takes about 0.5 s, 0.7 s
#: and 0.4 s on a calm 2-CPU VM.
DRM_APPS = ("gzip", "art", "MPGdec")

#: Cycle-level budget (instructions, warm-up) of every simulation.  The
#: paper's 24k + 4k makes one cold decision take 5–13 s, too long to time
#: it several times in a run; the kernel's tensor shapes depend on the
#: phase count, not on the budget, so warm work costs the same at both.
SIM_BUDGET = (2_000, 400)

#: Mode-dependent sizes.  ``*_rounds`` is the minimum number of rounds a
#: workload runs, whatever ``--seconds`` is.
SIZES = {
    "full": {
        "cold_rounds": 5,
        "warm_tquals": tuple(float(t) for t in range(345, 396, 7)),
        "warm_rounds": 8,
        "serve_phase_s": (2.0, 1.0),
        "serve_rounds": 3,
        "studies": 3,
        "study_rounds": 4,
        "mission_years": 30,
        "open_folds": 10,
        "adversary_epochs": 365,
        "adversary_anneal": 5_000,
    },
    "smoke": {
        "cold_rounds": 1,
        "warm_tquals": (345.0, 370.0, 395.0),
        "warm_rounds": 2,
        "serve_phase_s": (0.5, 0.25),
        "serve_rounds": 1,
        "studies": 2,
        "study_rounds": 1,
        "mission_years": 2,
        "open_folds": 2,
        "adversary_epochs": 48,
        "adversary_anneal": 200,
    },
}

COLD_T_QUAL_K = 370.0
SERVE_WORKERS = 2
SERVE_RATES = (100.0, 400.0)  # req/s of the two phases, as in ``serve_phase_s``
SERVE_PARAMETERS = {
    "apps": SUITE_NAMES,
    "t_qual_k_choices": (350.0, 360.0, 370.0, 380.0, 390.0),
    "t_limit_k_choices": (345.0, 350.0, 355.0, 360.0, 365.0),
}
MISSION_T_QUAL_K = 380.0
MISSION_FREQUENCIES = (3.0e9, 4.0e9, 5.0e9)
MISSION_EPOCH_HOURS = 168.0  # weekly epochs
ADVERSARY_EPOCH_HOURS = 24.0
HOURS_PER_YEAR = 8760.0

#: Layer families whose self time should account for a workload's
#: operation time (reported as ``trace.coverage_frac``).
COVERAGE_FAMILIES = {
    "drm_cold": ("cpu.", "workloads."),
    "drm_warm": ("kernels.", "thermal.", "ramp.", "oracle."),
    "serve_open": ("serve.", "oracle.", "kernels.", "thermal.", "ramp.", "sweep.", "store.",
                   "telemetry."),
    "lifetime_mission": ("lifetime.", "controllers.", "telemetry.", "kernels."),
}


def digest(obj) -> str:
    """SHA-256 of an object's canonical JSON (floats exact via repr)."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class Context:
    """What a workload reports through: operations, checks, windows.

    Every operation is recorded with a *key*: operations that repeat
    identical work share one (``run.py`` keeps the best latency per key,
    which filters the host's transient slowdowns).  Every operation and
    every check is one attempt; a raised operation or a failed check is
    one failure.
    """

    MAX_MESSAGES = 20

    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self.ops: list[tuple[str, float]] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.golden: dict[str, str] = {}
        #: Figures only this workload measures (per-rate serve latency,
        #: mission throughput...): printed, never gated.
        self.diagnostics: dict[str, float] = {}
        self.layer_counts: dict[str, float] = {}
        self.window_ns: tuple[int, int] = (0, 0)

    def op(self, key: str, latency_ns: int) -> None:
        self.attempted += 1
        self.ops.append((key, latency_ns / 1e6))

    def count(self, name: str, amount: float) -> None:
        """Add to a layer counter read off a public stats API."""
        self.layer_counts[name] = self.layer_counts.get(name, 0) + amount

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.failures) < self.MAX_MESSAGES:
            self.failures.append(message)

    def check(self, ok: bool, message: str) -> None:
        if ok:
            self.attempted += 1
        else:
            self.fail(message)

    @contextlib.contextmanager
    def unmeasured(self):
        """Pause span recording (checks must not count as layer work)."""
        recording = self.tracer is not None and self.tracer.recording
        if recording:
            self.tracer.recording = False
        try:
            yield
        finally:
            if recording:
                self.tracer.recording = True

    def begin(self) -> int:
        if self.tracer is not None:
            self.tracer.mark("measure")
        start = time.perf_counter_ns()
        self.window_ns = (start, start)
        return start

    def end(self) -> None:
        self.window_ns = (self.window_ns[0], time.perf_counter_ns())
        if self.tracer is not None:
            self.tracer.mark("end")


def host_probe_ms() -> float:
    """Best of 5 runs of a fixed pure-Python loop, in ms.

    Not a metric: a diagnostic that tells a slow host from slow code when
    two sets of runs are compared (see ``compare.py``).
    """
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter_ns()
        total = 0
        for i in range(200_000):
            total += i * i
        best = min(best, (time.perf_counter_ns() - t0) / 1e6)
    return best


def _fresh_dir(work: Path, prefix: str) -> Path:
    return Path(tempfile.mkdtemp(prefix=prefix, dir=work))


def _seeds(seed: int, n: int) -> list[int]:
    """``n`` independent 31-bit seeds derived from the run seed."""
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(n)]


def _rounds(start_ns: int, seconds: float, minimum: int):
    """Round numbers: at least ``minimum``, more until ``seconds`` have passed."""
    n = 0
    while n < minimum or time.perf_counter_ns() - start_ns < seconds * 1e9:
        yield n
        n += 1


class Workload:
    """Sizes, seed and scratch directory shared by the four workloads."""

    def __init__(self, mode: str, seed: int, work: Path) -> None:
        self.sizes = SIZES[mode]
        self.instructions, self.warmup = SIM_BUDGET
        self.seed = seed
        self.work = work

    def teardown(self, state) -> None:
        """Release what :meth:`setup` built (before the next set-up)."""

    def close(self) -> None:
        """Release what the workload holds across set-ups."""


# ---- drm_cold -------------------------------------------------------------


class DrmCold(Workload):
    """Cold ArchDVS decisions, each in a fresh store.

    Set-up builds the platform and kernel, simulates the nine base runs
    for p_qual and calibrates RAMP at 370 K.  Each measured operation is
    one ``DRMOracle.best(mode=ARCHDVS)`` with an empty disk-backed
    simulation cache: 18 simulations, 18 store writes, 18 grid
    evaluations and the selection.  A round decides the three
    applications once each, in an order the seed reshuffles every round.
    """

    def setup(self) -> DRMOracle:
        platform = Platform()
        platform.kernel
        oracle = DRMOracle(
            platform=platform,
            cache=SimulationCache(self.instructions, self.warmup, seed=SIM_SEED),
        )
        oracle.ramp_for(COLD_T_QUAL_K)
        return oracle

    def measure(self, oracle: DRMOracle, ctx: Context, seconds: float) -> None:
        qual_cache = oracle.cache
        order = list(DRM_APPS)
        rng = random.Random(self.seed)
        decisions: dict[str, str] = {}
        sweeps: list[float] = []
        start = ctx.begin()
        for _ in _rounds(start, seconds, self.sizes["cold_rounds"]):
            rng.shuffle(order)
            sweep_ns = 0
            for app in order:
                profile = workload_by_name(app)
                store_dir = _fresh_dir(self.work, f"cold-{app}-")
                oracle.cache = SimulationCache(
                    self.instructions, self.warmup, seed=SIM_SEED, disk_dir=store_dir
                )
                t0 = time.perf_counter_ns()
                try:
                    decision = oracle.best(
                        profile, t_qual_k=COLD_T_QUAL_K, mode=AdaptationMode.ARCHDVS
                    )
                except Exception as exc:  # counted, and the run goes on
                    ctx.fail(f"cold {app}: {exc!r}")
                    continue
                elapsed = time.perf_counter_ns() - t0
                ctx.op(app, elapsed)
                sweep_ns += elapsed
                with ctx.unmeasured():
                    self._check(oracle, profile, decision, decisions, ctx)
                shutil.rmtree(store_dir)
            sweeps.append(sweep_ns / 1e9)
        ctx.end()
        oracle.cache = qual_cache
        for profile in oracle.suite:
            ctx.golden[f"qual/{profile.name}"] = digest(
                encode_workload_run(qual_cache.run(profile))
            )
        ctx.golden["decisions"] = digest([decisions[app] for app in sorted(decisions)])
        ctx.diagnostics["oracle.drm.cold_sweep_s"] = float(np.median(sweeps))

    def _check(self, oracle, profile, decision, decisions, ctx) -> None:
        """Golden SimStats digests, plus a warm repeat of the decision."""
        encoded = json.dumps(encode_result("drm", decision), sort_keys=True)
        app = profile.name
        ctx.check(
            decisions.setdefault(app, encoded) == encoded,
            f"cold {app}: decision differs from an earlier round",
        )
        repeat = oracle.best(profile, t_qual_k=COLD_T_QUAL_K, mode=AdaptationMode.ARCHDVS)
        ctx.check(
            json.dumps(encode_result("drm", repeat), sort_keys=True) == encoded,
            f"cold {app}: warm repeat differs from the cold decision",
        )
        for config in arch_adaptation_space():
            run = oracle.cache.run(profile, config)
            ctx.golden[f"sim/{app}/{config.describe()}"] = digest(encode_workload_run(run))


# ---- drm_warm -------------------------------------------------------------


class DrmWarm(Workload):
    """Warm ArchDVS decisions: every simulation is already in memory.

    A round decides each of the 24 cells (3 applications × 8 T_qual
    values) once, in an order the seed reshuffles every round; at least
    8 rounds (192 decisions) run, and more until ``--seconds`` have
    passed.  Set-up simulates the 18 configurations of each application
    at the small budget and calibrates RAMP at every T_qual, so no
    decision does first-touch work.
    """

    def setup(self) -> DRMOracle:
        platform = Platform()
        platform.kernel
        cache = SimulationCache(self.instructions, self.warmup, seed=SIM_SEED)
        oracle = DRMOracle(platform=platform, cache=cache)
        for app in DRM_APPS:
            profile = workload_by_name(app)
            for config in arch_adaptation_space():
                cache.run(profile, config)
            oracle.base_evaluation(profile)
        for t_qual in self.sizes["warm_tquals"]:
            oracle.ramp_for(t_qual)
        return oracle

    def measure(self, oracle: DRMOracle, ctx: Context, seconds: float) -> None:
        cells = [(app, t) for app in DRM_APPS for t in self.sizes["warm_tquals"]]
        rng = random.Random(self.seed)
        seen: dict[tuple[str, float], str] = {}
        results = []
        start = ctx.begin()
        for _ in _rounds(start, seconds, self.sizes["warm_rounds"]):
            rng.shuffle(cells)
            for app, t_qual in cells:
                profile = workload_by_name(app)
                t0 = time.perf_counter_ns()
                try:
                    decision = oracle.best(profile, t_qual_k=t_qual, mode=AdaptationMode.ARCHDVS)
                except Exception as exc:  # counted, and the run goes on
                    ctx.fail(f"warm {app}@{t_qual}: {exc!r}")
                    continue
                ctx.op(f"{app}@{t_qual:g}", time.perf_counter_ns() - t0)
                results.append(((app, t_qual), decision))
        ctx.end()
        for cell, decision in results:
            encoded = json.dumps(encode_result("drm", decision), sort_keys=True)
            ctx.check(
                seen.setdefault(cell, encoded) == encoded,
                f"warm {cell}: repeated decision differs",
            )
        ctx.golden["decisions"] = digest([seen[cell] for cell in sorted(seen)])


# ---- serve_open -----------------------------------------------------------


class ServeOpen(Workload):
    """Open-loop Poisson traffic into in-process decision services.

    A round runs two phases, each on a fresh ``DecisionService`` (2
    workers, temp store, default batcher and caches, prewarmed for the
    9-app suite): 100 req/s for 2 s, then 400 req/s for 1 s.  The request
    traces and arrival times are drawn from the seed once, so every round
    sends the same requests on the same schedule, and request *i* of a
    phase is one operation, timed once per round.  One asyncio loop sends
    every request at its scheduled time; latency runs from that time, so
    a late generator counts.  Set-up builds the first round's services;
    each later round builds its own before its phases start.
    """

    def __init__(self, mode: str, seed: int, work: Path) -> None:
        super().__init__(mode, seed, work)
        self.loop = asyncio.new_event_loop()

    def _service(self) -> DecisionService:
        service = DecisionService(
            ServiceConfig(
                workers=SERVE_WORKERS,
                store_dir=str(_fresh_dir(self.work, "serve-")),
                instructions=self.instructions,
                warmup=self.warmup,
                sim_seed=SIM_SEED,
            )
        )
        service.prewarm()
        return service

    def setup(self) -> list[DecisionService]:
        return [self._service() for _ in SERVE_RATES]

    def teardown(self, services: list[DecisionService]) -> None:
        for service in services:
            self.loop.run_until_complete(service.close())
            shutil.rmtree(service.config.store_dir)

    def close(self) -> None:
        self.loop.close()

    async def _open_loop(self, service, requests, gaps: list[float]):
        outcomes: list = [None] * len(requests)
        late_ms: list[float] = []

        async def send(i: int, request, due: float) -> None:
            try:
                served = await service.decide(request)
            except Exception as exc:  # counted, and the run goes on
                outcomes[i] = exc
                return
            outcomes[i] = (served, time.perf_counter() - due)

        tasks = []
        due = time.perf_counter()
        for i, (request, gap) in enumerate(zip(requests, gaps)):
            due += gap
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            late_ms.append((time.perf_counter() - due) * 1e3)
            tasks.append(asyncio.create_task(send(i, request, due)))
        await asyncio.gather(*tasks)
        return outcomes, late_ms

    def measure(self, services, ctx: Context, seconds: float) -> None:
        *trace_seeds, arrival_seed = _seeds(self.seed, len(SERVE_RATES) + 1)
        arrivals = random.Random(arrival_seed)
        phases = []
        for rate, phase_s, trace_seed in zip(SERVE_RATES, self.sizes["serve_phase_s"], trace_seeds):
            generator = RequestTraceGenerator(
                mix=TrafficMix.DYNAMIC, parameters=SERVE_PARAMETERS, seed=trace_seed
            )
            requests = generator.generate(max(1, round(rate * phase_s)))
            phases.append((f"r{rate:g}", requests, [arrivals.expovariate(rate) for _ in requests]))
        #: Per phase and request: (latency ms, tier) of every round.
        samples = {tag: [[] for _ in requests] for tag, requests, _ in phases}
        late_all: list[float] = []
        direct: dict[str, str] = {}
        start = ctx.begin()
        for round_no in _rounds(start, seconds, self.sizes["serve_rounds"]):
            if round_no:
                services = self.setup()
            for service, (tag, requests, gaps) in zip(services, phases):
                outcomes, late_ms = self.loop.run_until_complete(
                    self._open_loop(service, requests, gaps)
                )
                late_all += late_ms
                for i, (request, outcome) in enumerate(zip(requests, outcomes)):
                    if isinstance(outcome, Exception):
                        ctx.fail(f"serve {tag} {request.kind}/{request.app}: {outcome!r}")
                        continue
                    served, latency_s = outcome
                    ctx.op(f"{tag}#{i}", round(latency_s * 1e9))
                    samples[tag][i].append((latency_s * 1e3, served.tier))
                    ctx.count(f"serve.tier.{served.tier}", 1)
                with ctx.unmeasured():
                    self._check(service, requests, outcomes, direct, ctx)
                stats = service.stats()
                ctx.count("serve.batcher.batches", stats["batcher"]["flushes"])
                ctx.count("serve.batcher.items", stats["batcher"]["flushed_items"])
                ctx.count("serve.eval_memo.hits", stats["evaluation_memo"]["hits"])
                ctx.count("serve.eval_memo.misses", stats["evaluation_memo"]["misses"])
            if round_no:  # the first round's services are the set-up's
                self.teardown(services)
        ctx.end()
        for tag, per_request in samples.items():
            best = [min(s) for s in per_request if s]
            latencies = sorted(ms for ms, _tier in best)
            misses = sorted(ms for ms, tier in best if tier == "computed")
            ctx.diagnostics[f"serve.p50_ms_{tag}"] = nearest_rank(latencies, 0.50)
            ctx.diagnostics[f"serve.p90_ms_{tag}"] = nearest_rank(latencies, 0.90)
            ctx.diagnostics[f"serve.p99_ms_{tag}"] = nearest_rank(latencies, 0.99)
            ctx.diagnostics[f"serve.miss_p50_ms_{tag}"] = nearest_rank(misses, 0.50)
        late_all.sort()
        ctx.diagnostics["serve.gen_late_p99_ms"] = nearest_rank(late_all, 0.99)

    def _check(self, service, requests, outcomes, direct: dict[str, str], ctx: Context) -> None:
        """Each served decision equals a direct call on a service's oracles.

        The direct call is made once per distinct question (cache key),
        with the oracle bundle of the first service that served it; the
        key covers every input that can change an answer.
        """
        bundle = service.oracle_bundle()
        for request, outcome in zip(requests, outcomes):
            if isinstance(outcome, Exception):
                continue
            served = outcome[0]
            expected = direct.get(served.cache_key)
            if expected is None:
                expected = json.dumps(
                    encode_decision(request.kind, bundle.best(request)), sort_keys=True
                )
                direct[served.cache_key] = expected
            got = json.dumps(encode_decision(request.kind, served.decision), sort_keys=True)
            ctx.check(
                got == expected,
                f"serve {request.kind}/{request.app}: served decision differs from direct",
            )
        ctx.check(service.healthy(), "serve: event accounting does not balance")


# ---- lifetime_mission -----------------------------------------------------


class LifetimeMission(Workload):
    """Wear studies: closed-loop mission, open-loop folds, adversary.

    Set-up qualifies RAMP at 380 K and builds the rate table for the
    9-app suite.  A study of one seeded 30-year mission of weekly epochs
    is one operation of three parts: a closed-loop ``simulate`` under a
    ``WearAwareController`` (15-year target, window and ialu spares)
    checkpointing every 32 epochs to a fresh telemetry stream, 10
    open-loop folds, and one ``AdversarySearch`` over one-year daily
    missions with a fixed budget.  The seed draws three missions and
    three adversary seeds; a round runs the three studies once each, in
    an order the seed reshuffles every round.
    """

    def __init__(self, mode: str, seed: int, work: Path) -> None:
        super().__init__(mode, seed, work)
        n = self.sizes["studies"]
        seeds = _seeds(seed, 2 * n + 1)
        self.mission_seeds, self.adversary_seeds = seeds[:n], seeds[n:2 * n]
        self.order_seed = seeds[-1]

    def setup(self):
        platform = Platform()
        cache = SimulationCache(self.instructions, self.warmup, seed=SIM_SEED)
        ramp = DRMOracle(platform=platform, cache=cache).ramp_for(MISSION_T_QUAL_K)
        simulator = LifetimeSimulator(
            platform=platform, cache=cache, ramp=ramp, checkpoint_every=32
        )
        for app in SUITE_NAMES:
            simulator.rate_table.candidates(app, simulator.base_config)
        controller = WearAwareController(
            platform,
            ramp,
            lifetime_target_years=15.0,
            redundancy_plan=RedundancyPlan.for_structures(("window", "ialu")),
        )
        schedules = [
            random_mission(
                apps=SUITE_NAMES,
                frequencies=MISSION_FREQUENCIES,
                n_epochs=round(self.sizes["mission_years"] * HOURS_PER_YEAR / MISSION_EPOCH_HOURS),
                epoch_hours=MISSION_EPOCH_HOURS,
                seed=mission_seed,
            )
            for mission_seed in self.mission_seeds
        ]
        return simulator, controller, schedules

    def _study(self, simulator, controller, schedule, adversary_seed: int, rates) -> tuple:
        """One study; returns its closed-loop result, folds and search."""
        years = schedule.total_hours / HOURS_PER_YEAR
        t0 = time.perf_counter_ns()
        closed = simulator.simulate(schedule, controller=controller)
        t1 = time.perf_counter_ns()
        folds = [simulator.open_loop(schedule) for _ in range(self.sizes["open_folds"])]
        t2 = time.perf_counter_ns()
        found = AdversarySearch(
            simulator,
            apps=SUITE_NAMES,
            frequencies=MISSION_FREQUENCIES,
            n_epochs=self.sizes["adversary_epochs"],
            epoch_hours=ADVERSARY_EPOCH_HOURS,
            seed=adversary_seed,
        ).search(n_random=10, greedy_passes=1, anneal_steps=self.sizes["adversary_anneal"])
        t3 = time.perf_counter_ns()
        rates["closed"].append(years / ((t1 - t0) / 1e9))
        rates["open"].append(years * len(folds) / ((t2 - t1) / 1e9))
        rates["adversary"].append(found.evaluations / ((t3 - t2) / 1e9))
        return closed, folds, found

    def measure(self, state, ctx: Context, seconds: float) -> None:
        simulator, controller, schedules = state
        rates: dict[str, list[float]] = {"closed": [], "open": [], "adversary": []}
        first: dict[str, object] = {}
        evaluations = 0
        order = list(range(len(schedules)))
        rng = random.Random(self.order_seed)
        start = ctx.begin()
        for _ in _rounds(start, seconds, self.sizes["study_rounds"]):
            rng.shuffle(order)
            for j in order:
                stream = _fresh_dir(self.work, "lifetime-")
                simulator.telemetry_root = stream
                t0 = time.perf_counter_ns()
                try:
                    closed, folds, found = self._study(
                        simulator, controller, schedules[j], self.adversary_seeds[j], rates
                    )
                except Exception as exc:  # counted, and the run goes on
                    ctx.fail(f"lifetime study {j}: {exc!r}")
                else:
                    ctx.op(f"study{j}", time.perf_counter_ns() - t0)
                    evaluations += found.evaluations
                    with ctx.unmeasured():
                        self._check(j, closed, folds, found, stream, first, ctx)
                shutil.rmtree(stream)
        ctx.end()
        simulator.telemetry_root = None
        for key, value in first.items():
            if key.startswith("final_wear/"):
                ctx.golden[f"{key}@seed{self.seed}"] = value
        ctx.count("lifetime.adversary.evaluations", evaluations)
        for part, name in (
            ("closed", "lifetime.closed_loop_years_per_s"),
            ("open", "lifetime.open_loop_years_per_s"),
            ("adversary", "lifetime.adversary_evals_per_s"),
        ):
            if rates[part]:
                ctx.diagnostics[name] = float(np.median(rates[part]))

    def _check(self, j, closed, folds, found, stream, first, ctx: Context) -> None:
        """Studies repeat bit-identically; the stream holds the final wear."""
        final_wear = "final-wear " + json.dumps(
            closed.state.by_structure(), sort_keys=True, separators=(",", ":")
        )
        ctx.check(
            first.setdefault(f"final_wear/{j}", final_wear) == final_wear,
            f"lifetime study {j}: closed-loop final wear differs between rounds",
        )
        newest = None
        for record in read_stream(
            stream, run_id=closed.run_id, kinds=("lifetime.checkpoint",)
        ):
            if newest is None or record.payload["epoch"] >= newest["epoch"]:
                newest = record.payload
        ctx.check(
            newest is not None and newest["wear"] == closed.state.as_payload(),
            f"lifetime study {j}: newest checkpoint on the stream is not the final wear",
        )
        ctx.check(
            all(np.array_equal(f.damage, folds[0].damage) for f in folds),
            f"lifetime study {j}: open-loop folds of one schedule differ",
        )
        ctx.check(
            first.setdefault(f"adversary/{j}", found.best_wear) == found.best_wear
            and found.improvement > 0.0,
            f"lifetime study {j}: adversary search is not deterministic or found no gain",
        )


WORKLOADS = {
    "drm_cold": DrmCold,
    "drm_warm": DrmWarm,
    "serve_open": ServeOpen,
    "lifetime_mission": LifetimeMission,
}


# ---- tracing ----------------------------------------------------------------


def _hooks() -> dict:
    """Per-layer counters read off each call's arguments and result."""

    def pipeline(tracer, index, result, args, kwargs):
        tracer.count("cpu.instructions", result.instructions)

    def store_get(tracer, index, result, args, kwargs):
        tracer.tag[index] = int(result is not None)

    def store_put(tracer, index, result, args, kwargs):
        store, key = args[0], args[1]
        tracer.count("store.put.bytes", os.path.getsize(store._object_path(key)))

    def kernel(tracer, index, result, args, kwargs):
        parent = tracer.parent[index]
        if parent != -1 and tracer.names[tracer.name[parent]] == "kernels.evaluate":
            return  # a salvage re-run inside the outer call
        tracer.count("kernels.candidates", result.n_candidates)
        tracer.count("kernels.fp_iters", float(np.sum(result.iterations)))
        if result.salvage is not None:
            s = result.salvage
            tracer.count("kernels.salvaged_rows", len(s.salvaged) + len(s.rescued) + len(s.masked))

    return {
        "cpu.pipeline": pipeline,
        "store.get": store_get,
        "store.put": store_put,
        "kernels.evaluate": kernel,
    }


def layer_metrics(tracer: Tracer, ctx: Context, workload: str) -> tuple[dict, dict]:
    """The per-layer metrics of one traced run, plus its layer table."""
    window = ctx.window_ns
    table = layer_table(tracer, window)
    setup_table = layer_table(tracer, (tracer.marks["setup"], window[0]))
    counters = tracer.counters.get("measure", {})

    wall_s = (window[1] - window[0]) / 1e9

    def row(name: str, field: str) -> float:
        return float(table.get(name, {}).get(field, 0.0))

    # Busy and self time are shares of the measured wall time, so a layer
    # a workload never calls reads 0 as a share, not as a time.
    metrics: dict[str, float] = {}
    for _module, _path, name in LAYERS:
        metrics[f"{name}.calls"] = row(name, "count")
        metrics[f"{name}.busy_share"] = row(name, "total_s") / wall_s
        metrics[f"{name}.self_share"] = row(name, "self_s") / wall_s

    # sweep.run outcome: a simulation child means simulated, a store.get
    # child that hit means a store hit, anything else a memory hit.
    lo, hi = window
    sim_id = tracer.name_id("cpu.simulate")
    get_id = tracer.name_id("store.get")
    run_id = tracer.name_id("sweep.run")
    outcome: dict[int, str] = {}
    for i in range(len(tracer.start)):
        parent = tracer.parent[i]
        if parent == -1 or tracer.name[parent] != run_id or not lo <= tracer.start[parent] < hi:
            continue
        if tracer.name[i] == sim_id:
            outcome[parent] = "simulated"
        elif tracer.name[i] == get_id and tracer.tag[i] and outcome.get(parent) != "simulated":
            outcome[parent] = "store"
    runs = int(metrics["sweep.run.calls"])
    simulated = sum(1 for v in outcome.values() if v == "simulated")
    store_hits = sum(1 for v in outcome.values() if v == "store")
    metrics["sweep.run.simulated"] = simulated
    metrics["sweep.run.store_hits"] = store_hits
    metrics["sweep.run.memory_hits"] = runs - simulated - store_hits
    metrics["sweep.hit_ratio"] = (runs - simulated) / runs if runs else 0.0

    pipeline_ms = row("cpu.pipeline", "total_s") * 1e3
    metrics["cpu.sim_kips"] = counters.get("cpu.instructions", 0.0) / pipeline_ms if pipeline_ms else 0.0
    metrics["store.put.bytes"] = counters.get("store.put.bytes", 0.0)
    candidates = counters.get("kernels.candidates", 0.0)
    metrics["kernels.candidates"] = candidates
    busy = row("kernels.evaluate", "total_s")
    metrics["kernels.candidates_per_s"] = candidates / busy if busy else 0.0
    metrics["kernels.fp_iters_mean"] = (
        counters.get("kernels.fp_iters", 0.0) / candidates if candidates else 0.0
    )
    metrics["kernels.salvaged_rows"] = counters.get("kernels.salvaged_rows", 0.0)

    counts = ctx.layer_counts
    for tier in ("memory", "store", "deduped", "computed"):
        metrics[f"serve.tier.{tier}"] = counts.get(f"serve.tier.{tier}", 0)
    served = sum(metrics[f"serve.tier.{t}"] for t in ("memory", "store", "deduped", "computed"))
    metrics["serve.cache_hit_ratio"] = (
        (served - metrics["serve.tier.computed"]) / served if served else 0.0
    )
    batches = counts.get("serve.batcher.batches", 0)
    metrics["serve.batcher.batches"] = batches
    metrics["serve.batcher.mean_batch"] = (
        counts.get("serve.batcher.items", 0) / batches if batches else 0.0
    )
    memo = counts.get("serve.eval_memo.hits", 0) + counts.get("serve.eval_memo.misses", 0)
    metrics["serve.eval_memo.hit_ratio"] = (
        counts.get("serve.eval_memo.hits", 0) / memo if memo else 0.0
    )
    metrics["lifetime.adversary.evaluations"] = counts.get("lifetime.adversary.evaluations", 0)

    setup_wall_s = (window[0] - tracer.marks["setup"]) / 1e9
    for name in ("cpu.simulate", "kernels.evaluate", "kernels.wear_rate_fields"):
        busy = float(setup_table.get(name, {}).get("total_s", 0.0))
        metrics[f"setup.{name}.busy_share"] = busy / setup_wall_s

    families = COVERAGE_FAMILIES[workload]
    covered = sum(r["self_s"] for n, r in table.items() if n.startswith(families))
    op_total_s = sum(ms for _key, ms in ctx.ops) / 1e3
    metrics["trace.coverage_frac"] = covered / op_total_s if op_total_s else 0.0
    return metrics, table


# ---- entry point ------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setups", type=int, default=1)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace-file", type=Path)
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    args.work_dir.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(args.work_dir)
    mode = "smoke" if args.smoke else "full"
    workload = WORKLOADS[args.workload](mode, args.seed, args.work_dir)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(_hooks())
        tracer.recording = True
        tracer.mark("setup")
    ctx = Context(tracer)

    import_s = (time.perf_counter_ns() - T_START_NS) / 1e9
    probe_ms = host_probe_ms()
    setup_s: list[float] = []
    state = None
    for _ in range(max(1, args.setups)):
        if state is not None:
            workload.teardown(state)
        t0 = time.perf_counter_ns()
        state = workload.setup()
        setup_s.append((time.perf_counter_ns() - t0) / 1e9)
    workload.measure(state, ctx, args.seconds)
    workload.teardown(state)
    workload.close()
    ctx.diagnostics["host.probe_ms"] = min(probe_ms, host_probe_ms())
    if tracer is not None:
        tracer.recording = False
        tracer.restore()

    result = {
        "workload": args.workload,
        "mode": mode,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": args.trace,
        "numpy": np.__version__,
        "import_s": import_s,
        "setup_s": setup_s,
        "measured_s": (ctx.window_ns[1] - ctx.window_ns[0]) / 1e9,
        "ops": ctx.ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "failures": ctx.failures,
        "golden": ctx.golden,
        "diagnostics": ctx.diagnostics,
    }
    if tracer is not None:
        metrics, table = layer_metrics(tracer, ctx, args.workload)
        result["layers"] = metrics
        result["layer_table"] = render_table(table, result["measured_s"])
        if args.trace_file is not None:
            tracer.write(
                args.trace_file,
                {"workload": args.workload, "seed": args.seed, "mode": mode, "table": table},
            )
    args.result.parent.mkdir(parents=True, exist_ok=True)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)

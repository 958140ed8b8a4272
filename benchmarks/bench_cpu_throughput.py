"""The cycle-level simulator's throughput on cold DRM decisions.

A cold ArchDVS decision simulates its application on all 18
microarchitectural configurations before any reliability math runs, so
at the paper's budget (24k measured + 4k warm-up instructions per
simulation) nearly all of its time is the CPU simulator.  This bench
times one cold ``DRMOracle.best(mode=ARCHDVS)`` for each application of
the end-to-end ``drm_cold`` workload (gzip, art, MPGdec), every one with
an empty simulation cache, and reports the headline **simulated
instructions per host second**: every instruction the pipeline ran
(warm-up included) over the decisions' wall time, which also covers
trace synthesis, cache preloading, evaluation and selection.

Results land in ``BENCH_cpu.json`` at the repository root, and the
per-application table in ``benchmarks/out/cpu_throughput.txt`` (a timing
table, so not tracked).  Set ``REPRO_BENCH_SMOKE=1`` for a reduced
budget; the floor is only asserted on the full run.
"""

from __future__ import annotations

import os
import time

from repro import AdaptationMode, DRMOracle, Platform, SimulationCache, workload_by_name
from repro.config.microarch import arch_adaptation_space

from _bench_utils import run_once, write_bench_result
from conftest import BENCH_DIR

RESULT_PATH = BENCH_DIR.parent / "BENCH_cpu.json"

#: Acceptance floor (simulated instructions per host second) on the full
#: run: the simulator's throughput before each workload was prepared once
#: per decision and the pipeline's per-cycle cost cut — the median of
#: four runs of this bench on a 2-CPU x86-64 VM (Python 3.11), which read
#: 44.2–59.2 k/s.  A change that falls below it has lost those gains.
MIN_INSTRUCTIONS_PER_S = 47_900.0

APPS = ("gzip", "art", "MPGdec")
T_QUAL_K = 370.0
TRACE_SEED = 42

#: Medians (before, after) from ``benchmarks/e2e/compare.py`` over 10
#: alternating seed-paired runs (seeds 21–30) of the end-to-end benchmark
#: on the same VM, before and after that change.  ``drm_cold`` decides at
#: 2k + 0.4k instructions per simulation; its p50/p90 won 10 of 10 pairs.
E2E_BEFORE_AFTER = {
    "drm_cold": {
        "setup_s": [1.139, 0.824],
        "peak_rss_mb": [49.0, 48.1],
        "p50_ms": [1153.5, 322.6],
        "p90_ms": [1385.9, 357.3],
    },
    "drm_warm": {
        "setup_s": [4.542, 2.724],
        "peak_rss_mb": [48.4, 47.4],
        "p50_ms": [24.8, 23.6],
        "p90_ms": [28.5, 29.5],
    },
    "serve_open": {
        "setup_s": [1.796, 1.243],
        "peak_rss_mb": [59.8, 59.8],
        "p50_ms": [1.1, 1.1],
        "p90_ms": [24.5, 20.0],
    },
    "lifetime_mission": {
        "setup_s": [1.215, 0.862],
        "peak_rss_mb": [49.1, 48.5],
        "p50_ms": [809.1, 862.7],
        "p90_ms": [895.9, 896.2],
    },
}


def _smoke() -> bool:
    return bool(os.environ.get("REPRO_BENCH_SMOKE"))


def _budget() -> tuple[int, int]:
    """(measured instructions, warm-up) per simulation."""
    return (4_000, 1_000) if _smoke() else (24_000, 4_000)


def measure_cpu_throughput():
    instructions, warmup = _budget()
    oracle = DRMOracle(
        platform=Platform(),
        cache=SimulationCache(instructions, warmup, seed=TRACE_SEED),
    )
    oracle.ramp_for(T_QUAL_K)  # p_qual: the suite's base runs, untimed
    n_configs = len(arch_adaptation_space())
    per_app = {}
    for app in APPS:
        oracle.cache = SimulationCache(instructions, warmup, seed=TRACE_SEED)
        start = time.perf_counter()
        decision = oracle.best(
            workload_by_name(app), t_qual_k=T_QUAL_K, mode=AdaptationMode.ARCHDVS
        )
        wall_s = time.perf_counter() - start
        simulated = n_configs * (instructions + warmup)
        per_app[app] = {
            "wall_s": wall_s,
            "simulated_instructions": simulated,
            "instructions_per_s": simulated / wall_s,
            "config": decision.config.describe(),
            "performance": decision.performance,
        }
    total_s = sum(row["wall_s"] for row in per_app.values())
    total_instructions = sum(row["simulated_instructions"] for row in per_app.values())
    return {
        "mode": "smoke" if _smoke() else "full",
        "headline": {"simulated_instructions_per_s": total_instructions / total_s},
        "timings": {f"{app}_decision_s": row["wall_s"] for app, row in per_app.items()},
        "details": {
            "budget": {"instructions": instructions, "warmup": warmup},
            "t_qual_k": T_QUAL_K,
            "trace_seed": TRACE_SEED,
            "configs_per_decision": n_configs,
            "apps": per_app,
            "e2e_before_after": E2E_BEFORE_AFTER,
        },
    }


def test_cpu_throughput(benchmark, emit):
    result = run_once(benchmark, measure_cpu_throughput)
    write_bench_result(
        RESULT_PATH,
        name="cpu_throughput",
        mode=result["mode"],
        headline=result["headline"],
        floor=MIN_INSTRUCTIONS_PER_S,
        timings=result["timings"],
        details=result["details"],
    )
    details = result["details"]
    budget = details["budget"]
    lines = [
        "Cold ArchDVS decisions ({mode}), {instructions}+{warmup} instructions "
        "x {configs} configs:".format(
            mode=result["mode"], configs=details["configs_per_decision"], **budget
        )
    ]
    for app, row in details["apps"].items():
        lines.append(
            "  {app:<8} {wall_s:7.2f} s  {kips:7.1f} k instr/s  -> {config}".format(
                app=app, kips=row["instructions_per_s"] / 1e3, **row
            )
        )
    throughput = result["headline"]["simulated_instructions_per_s"]
    lines.append(f"  overall  {throughput / 1e3:.1f} k simulated instructions per second")
    emit("cpu_throughput", "\n".join(lines))

    assert throughput > 0.0
    if not _smoke():
        assert throughput >= MIN_INSTRUCTIONS_PER_S

"""Command-line interface: ``python -m repro <command>``.

A thin, scriptable front end over the library for the common questions a
user asks of this reproduction:

- ``table2``            regenerate Table 2 (suite IPC/power/temperature)
- ``reliability``       RAMP FIT report for one application
- ``drm``               the DRM oracle's decision for one (app, T_qual)
- ``dtm``               the DTM decision for one (app, T_limit)
- ``sweep``             DRM performance across T_qual values for one app
                        (checkpointed when ``--cache-dir`` is given;
                        ``--resume`` restores finished cells)
- ``engine``            parallel DRM sweep through the job engine
                        (``--resume`` to continue a killed sweep,
                        ``--fault-plan`` to arm chaos injection,
                        ``--failure-budget`` to fail poisonous jobs fast)
- ``suite``             list the workload suite
- ``validate``          run the stack's self-audits
- ``map``               ASCII thermal map of an application on the die
- ``analyze``           physics-aware static analysis (units, determinism,
                        pool safety, float equality, constants audit)
- ``serve``             long-running HTTP decision service (micro-batched
                        DRM/DTM/joint/intra answers with hot-decision
                        caching; ``--fault-plan`` arms network chaos)
- ``loadgen``           seeded traffic replay against a running service,
                        reporting p50/p99 latency and sustained QPS
- ``report``            render a telemetry stream (engine / sweep /
                        chaos / fleet / bench / lifetime history) or
                        audit it with ``--check``
- ``lifetime``          integrate a multi-year mission schedule into
                        cumulative wear, closed-loop against the
                        wear-aware degradation ladder (checkpointed when
                        ``--telemetry-dir`` is given; ``--resume``
                        continues a killed run bit-identically)
- ``redteam``           seeded adversarial search for wear-maximizing
                        schedules; ``--verify-controller`` gates on the
                        controller surviving the found attack

Every command accepts ``--instructions/--warmup/--seed`` to trade speed
for fidelity, and ``--dvs-steps`` for grid resolution.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.drm import AdaptationMode, DRMOracle
from repro.core.dtm import DTMOracle
from repro.harness.platform import Platform
from repro.harness.reporting import format_series, format_table
from repro.harness.sweep import SimulationCache
from repro.workloads.suite import SUITE_NAMES, WORKLOAD_SUITE, workload_by_name


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--instructions", type=int, default=24_000,
                        help="instruction budget per simulation (default 24000)")
    parser.add_argument("--warmup", type=int, default=4_000,
                        help="warmup instructions (default 4000)")
    parser.add_argument("--seed", type=int, default=42, help="trace seed")
    parser.add_argument("--dvs-steps", type=int, default=11,
                        help="DVS grid resolution (default 11 = 0.25 GHz)")
    parser.add_argument("--cache-dir", default=None,
                        help="optional directory for the simulation cache")


def _oracle(args: argparse.Namespace) -> DRMOracle:
    cache = SimulationCache(
        instructions=args.instructions,
        warmup=args.warmup,
        seed=args.seed,
        disk_dir=args.cache_dir,
    )
    return DRMOracle(platform=Platform(), cache=cache, dvs_steps=args.dvs_steps)


def _cmd_suite(args: argparse.Namespace) -> int:
    rows = [
        [p.name, p.category, p.table2_ipc, p.table2_power_w]
        for p in WORKLOAD_SUITE
    ]
    print(format_table(
        ["App", "Type", "IPC (paper)", "Power W (paper)"], rows,
        title="Workload suite (paper Table 2 targets)",
    ))
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    oracle = _oracle(args)
    rows = []
    for profile in WORKLOAD_SUITE:
        run = oracle.cache.run(profile)
        evaluation = oracle.base_evaluation(profile)
        rows.append([
            profile.name, run.ipc, profile.table2_ipc,
            evaluation.avg_power_w, profile.table2_power_w,
            evaluation.peak_temperature_k,
        ])
    print(format_table(
        ["App", "IPC", "IPC (paper)", "Power W", "Power W (paper)", "Peak T (K)"],
        rows, title="Table 2 (regenerated)",
    ))
    return 0


def _cmd_reliability(args: argparse.Namespace) -> int:
    oracle = _oracle(args)
    profile = workload_by_name(args.app)
    ramp = oracle.ramp_for(args.tqual)
    rel = ramp.application_reliability(oracle.base_evaluation(profile))
    print(f"{profile.name} @ base operating point, qualified at {args.tqual:.0f} K")
    print(f"  total FIT : {rel.total_fit:.1f}  (target {oracle.fit_target:.0f})")
    print(f"  MTTF      : {rel.mttf_years:.1f} years")
    print(f"  meets     : {rel.meets_target}")
    print("  by mechanism:")
    for mech, fit in sorted(rel.account.by_mechanism().items(), key=lambda kv: -kv[1]):
        print(f"    {mech:5s} {fit:10.2f}")
    print("  hottest structures:")
    by_struct = rel.account.by_structure()
    for name, fit in sorted(by_struct.items(), key=lambda kv: -kv[1])[:5]:
        print(f"    {name:8s} {fit:10.2f}")
    return 0


def _cmd_drm(args: argparse.Namespace) -> int:
    oracle = _oracle(args)
    profile = workload_by_name(args.app)
    mode = AdaptationMode(args.mode)
    decision = oracle.best(profile, t_qual_k=args.tqual, mode=mode)
    print(f"DRM decision for {profile.name} at T_qual={args.tqual:.0f} K ({mode.value}):")
    print(f"  config      : {decision.config.describe()}")
    print(f"  frequency   : {decision.op.frequency_ghz:.2f} GHz")
    print(f"  voltage     : {decision.op.voltage_v:.3f} V")
    print(f"  performance : {decision.performance:.3f}x vs base")
    print(f"  FIT         : {decision.fit:.1f} (meets target: {decision.meets_target})")
    return 0 if decision.meets_target else 2


def _cmd_dtm(args: argparse.Namespace) -> int:
    oracle = _oracle(args)
    dtm = DTMOracle(
        platform=oracle.platform, cache=oracle.cache, dvs_steps=args.dvs_steps
    )
    profile = workload_by_name(args.app)
    decision = dtm.best(profile, t_limit_k=args.tlimit)
    print(f"DTM decision for {profile.name} at T_limit={args.tlimit:.0f} K:")
    print(f"  frequency   : {decision.op.frequency_ghz:.2f} GHz")
    print(f"  performance : {decision.performance:.3f}x vs base")
    print(f"  peak T      : {decision.peak_temperature_k:.1f} K "
          f"(meets limit: {decision.meets_target})")
    return 0 if decision.meets_target else 2


def _cmd_sweep(args: argparse.Namespace) -> int:
    profile = workload_by_name(args.app)
    tquals = [float(t) for t in args.tquals.split(",")]
    mode = AdaptationMode(args.mode)
    if args.cache_dir is not None:
        # Checkpointed path: each finished cell lands on the store's
        # telemetry stream, so a killed sweep resumes where it left off.
        from repro.engine import Engine

        engine = Engine(store_dir=args.cache_dir)
        decisions = engine.drm_sweep(
            [profile.name],
            tquals,
            mode=mode.value,
            dvs_steps=args.dvs_steps,
            instructions=args.instructions,
            warmup=args.warmup,
            seed=args.seed,
            resume=args.resume,
        )
        cells = [decisions[(profile.name, t)] for t in tquals]
        if any(d is None for d in cells):
            print("sweep incomplete: some cells failed "
                  "(re-run with --resume to retry only those)", file=sys.stderr)
            return 1
        resumed = engine.events.counters["resumed"]
        if resumed:
            print(f"resumed: {resumed} cell(s) restored from the telemetry stream",
                  file=sys.stderr)
    elif args.resume:
        print("sweep: --resume needs --cache-dir (the stream lives in "
              "the result store)", file=sys.stderr)
        return 2
    else:
        # No store: one in-process oracle keeps every run in memory and
        # prepares the profile once for all of its configurations.
        oracle = _oracle(args)
        cells = [oracle.best(profile, t_qual_k=t, mode=mode) for t in tquals]
    print(format_series(
        "Tqual (K)", tquals,
        {
            "performance": [d.performance for d in cells],
            "frequency GHz": [d.op.frequency_ghz for d in cells],
            "FIT": [d.fit for d in cells],
        },
        title=f"DRM ({mode.value}) sweep for {profile.name}",
    ))
    return 0


def _cmd_engine(args: argparse.Namespace) -> int:
    import contextlib
    import tempfile

    from repro.engine import Engine, stderr_progress

    if args.fault_plan:
        # Arm deterministic fault injection for the whole sweep.  The
        # environment export makes pool workers resolve the same plan
        # (the spec is already a name or a plan-file path).
        import os

        from repro.resilience import PLAN_ENV, FaultPlan, install

        install(FaultPlan.resolve(args.fault_plan))
        os.environ[PLAN_ENV] = args.fault_plan
    apps = list(SUITE_NAMES) if args.apps == "all" else _parse_apps(args.apps)
    tquals = [float(t) for t in args.tquals.split(",")]
    if args.resume and args.cache_dir is None:
        print("engine: --resume needs --cache-dir (the stream lives in "
              "the result store)", file=sys.stderr)
        return 2
    # The sweep journals its cells in a result store; without
    # --cache-dir it gets a temporary one for this run alone.
    store_root = (
        contextlib.nullcontext(args.cache_dir)
        if args.cache_dir is not None
        else tempfile.TemporaryDirectory(prefix="repro-engine-")
    )
    with store_root as store_dir:
        engine = Engine(
            store_dir=store_dir,
            max_workers=args.workers,
            timeout_s=args.timeout,
            retries=args.retries,
            failure_budget=args.failure_budget,
            progress=stderr_progress if args.progress else None,
        )
        decisions = engine.drm_sweep(
            apps,
            tquals,
            mode=args.mode,
            dvs_steps=args.dvs_steps,
            instructions=args.instructions,
            warmup=args.warmup,
            seed=args.seed,
            resume=args.resume,
        )
    if args.progress:
        print(file=sys.stderr)
    rows = []
    failed = 0
    for app in apps:
        for t_qual in tquals:
            d = decisions[(app, t_qual)]
            if d is None:
                failed += 1
                rows.append([app, t_qual, "FAILED", "-", "-", "-"])
                continue
            rows.append([
                app, t_qual, d.config.describe(),
                d.op.frequency_ghz, d.performance, d.fit,
            ])
    print(format_table(
        ["App", "Tqual (K)", "Config", "f (GHz)", "Perf vs base", "FIT"],
        rows,
        title=f"DRM ({args.mode}) sweep via repro.engine "
              f"({len(apps)} apps x {len(tquals)} T_qual)",
    ))
    print()
    print(engine.events.render())
    store = engine.store
    if store.stats.quarantined > engine.events.counters["quarantined"]:
        # Corruption caught at the JSON-parse layer never reaches the
        # event log; surface the store's own count.
        print(
            f"store: {store.stats.quarantined} corrupt entries quarantined "
            f"(kept in {store.quarantine_dir})"
        )
    if args.events_jsonl:
        from pathlib import Path

        Path(args.events_jsonl).write_text(engine.events.to_jsonl() + "\n")
        print(f"event log written to {args.events_jsonl}")
    return 1 if failed else 0


def _cmd_map(args: argparse.Namespace) -> int:
    from repro.thermal.report import render_thermal_map

    oracle = _oracle(args)
    profile = workload_by_name(args.app)
    evaluation = oracle.base_evaluation(profile)
    hottest = max(
        evaluation.intervals,
        key=lambda iv: max(iv.temperatures.values()),
    )
    print(f"{profile.name}: hottest interval at the base operating point")
    print(render_thermal_map(oracle.platform.floorplan, hottest.temperatures))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.harness.validation import validate_stack

    cache = SimulationCache(
        instructions=args.instructions,
        warmup=args.warmup,
        seed=args.seed,
        disk_dir=args.cache_dir,
    )
    report = validate_stack(cache=cache, t_qual_k=args.tqual)
    print(report.render())
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import DecisionService, HttpServer, ServiceConfig

    if args.fault_plan:
        from repro.resilience import FaultPlan, install

        install(FaultPlan.resolve(args.fault_plan))
    config = ServiceConfig(
        dvs_steps=args.dvs_steps,
        intra_grid_steps=args.intra_grid_steps,
        instructions=args.instructions,
        warmup=args.warmup,
        sim_seed=args.seed,
        max_batch=args.max_batch,
        max_delay_s=args.max_delay_ms / 1e3,
        batching=not args.no_batching,
        cache_capacity=args.cache_capacity,
        store_dir=args.cache_dir,
        workers=args.workers,
    )
    service = DecisionService(config)
    if args.prewarm:
        print("prewarming simulations ...", file=sys.stderr)
        service.prewarm()
    server = HttpServer(service, host=args.host, port=args.port)

    async def _run() -> None:
        await server.start()
        print(f"repro serve listening on http://{args.host}:{server.port}",
              file=sys.stderr)
        await server.serve_forever()

    try:
        asyncio.run(_run())
    # repro: ignore[RPR007] top-level CLI loop: Ctrl-C is the documented
    # way to stop the server; asyncio.run has already unwound and
    # cancelled every task by the time this handler runs.
    except KeyboardInterrupt:
        print("\nrepro serve: shutting down", file=sys.stderr)
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.serve import LoadHarness, RequestTraceGenerator, TrafficMix

    generator = RequestTraceGenerator(
        mix=TrafficMix(args.mix),
        parameters={"apps": tuple(a.strip() for a in args.apps.split(","))},
        seed=args.seed,
    )
    trace = generator.generate(args.requests)
    harness = LoadHarness(concurrency=args.concurrency)
    result = asyncio.run(
        harness.run_http(args.host, args.port, trace, mix=args.mix)
    )
    print(json.dumps(result.as_dict(), indent=2))
    return 0 if result.errors == 0 else 1


def _parse_apps(spec: str) -> list[str]:
    return [workload_by_name(a.strip()).name for a in spec.split(",")]


def _parse_frequencies(spec: str) -> list[float]:
    return [float(f) * 1e9 for f in spec.split(",")]


def _wear_controller(args: argparse.Namespace, oracle: DRMOracle, ramp):
    from repro.core.controllers import WearAwareController
    from repro.core.redundancy import RedundancyPlan

    plan = None
    if args.spares:
        plan = RedundancyPlan.for_structures(
            tuple(s.strip() for s in args.spares.split(","))
        )
    return WearAwareController(
        oracle.platform,
        ramp,
        lifetime_target_years=args.target_years,
        redundancy_plan=plan,
    )


def _cmd_lifetime(args: argparse.Namespace) -> int:
    import json

    from repro.lifetime import LifetimeSimulator
    from repro.workloads.generator import random_mission

    if args.fault_plan:
        from repro.resilience import FaultPlan, install

        install(FaultPlan.resolve(args.fault_plan))
    if args.resume and args.telemetry_dir is None:
        print("lifetime: --resume needs --telemetry-dir (checkpoints live "
              "on the telemetry stream)", file=sys.stderr)
        return 2
    oracle = _oracle(args)
    ramp = oracle.ramp_for(args.tqual)
    schedule = random_mission(
        apps=_parse_apps(args.apps),
        frequencies=_parse_frequencies(args.frequencies),
        n_epochs=args.epochs,
        epoch_hours=args.epoch_hours,
        seed=args.schedule_seed,
    )
    simulator = LifetimeSimulator(
        platform=oracle.platform,
        cache=oracle.cache,
        ramp=ramp,
        telemetry_root=args.telemetry_dir,
        checkpoint_every=args.checkpoint_every,
        dvs_steps=args.dvs_steps,
    )
    controller = None if args.open_loop else _wear_controller(args, oracle, ramp)
    result = simulator.simulate(
        schedule,
        controller=controller,
        resume=args.resume,
        stop_after_epochs=args.stop_after,
    )
    state = result.state
    years = state.hours / 8760.0
    print(f"lifetime run {result.run_id}: {schedule.n_epochs} epochs, "
          f"{schedule.total_hours:.0f} h scheduled")
    if result.resumed_from is not None:
        print(f"  resumed from checkpoint at epoch {result.resumed_from}")
    print(f"  integrated   : {state.epochs} epoch(s), {state.hours:.0f} h "
          f"({years:.2f} simulated years)")
    print(f"  total damage : {state.total:.6g}")
    mech, struct, worst = state.binding_cell()
    print(f"  binding cell : {mech}/{struct} at {worst:.6g}")
    if result.swaps:
        print(f"  spares used  : {', '.join(result.swaps)}")
    if result.sheds:
        print(f"  sheds        : {', '.join(result.sheds)}")
    if result.end_of_life:
        print(f"  END OF LIFE declared at epoch {result.eol_epoch}")
    rows = sorted(state.by_structure().items(), key=lambda kv: -kv[1])
    print(format_table(
        ["Structure", "Damage"],
        [[name, f"{damage:.6g}"] for name, damage in rows],
        title="Accrued damage by structure",
    ))
    # Canonical machine-diffable line: the CI kill/resume job compares
    # this across a SIGKILLed run and its resumed twin.  json round-trips
    # floats bitwise via repr.
    print("final-wear " + json.dumps(
        state.by_structure(), sort_keys=True, separators=(",", ":")
    ))
    return 3 if result.end_of_life else 0


def _cmd_redteam(args: argparse.Namespace) -> int:
    from repro.lifetime import AdversarySearch, LifetimeSimulator

    oracle = _oracle(args)
    ramp = oracle.ramp_for(args.tqual)
    simulator = LifetimeSimulator(
        platform=oracle.platform,
        cache=oracle.cache,
        ramp=ramp,
        dvs_steps=args.dvs_steps,
    )
    search = AdversarySearch(
        simulator,
        apps=_parse_apps(args.apps),
        frequencies=_parse_frequencies(args.frequencies),
        n_epochs=args.epochs,
        epoch_hours=args.epoch_hours,
        seed=args.adversary_seed,
        objective=args.objective,
    )
    found = search.search(
        n_random=args.random_population,
        greedy_passes=args.greedy_passes,
        anneal_steps=args.anneal_steps,
    )
    print(f"adversary search ({args.objective} objective, "
          f"seed {args.adversary_seed}):")
    print(f"  baseline wear : {found.baseline_wear:.6g} "
          f"(mean of {args.random_population} random schedules)")
    print(f"  best wear     : {found.best_wear:.6g}")
    print(f"  improvement   : {found.improvement * 100.0:+.1f} % "
          f"(gate: ≥ {args.min_improvement * 100.0:.0f} %)")
    print(f"  evaluations   : {found.evaluations}")
    for strategy, score in found.history:
        print(f"    after {strategy:7s}: {score:.6g}")
    code = 0
    if found.improvement < args.min_improvement:
        print("redteam: adversary FAILED to beat the baseline gate",
              file=sys.stderr)
        code = 2
    if args.verify_controller:
        controller = _wear_controller(args, oracle, ramp)
        defended = simulator.simulate(found.best_schedule, controller=controller)
        budget = controller.target_damage_rate * defended.state.hours
        within = not defended.end_of_life and defended.state.total <= budget
        print("controller under attack:")
        print(f"  accrued {defended.state.total:.6g} of damage budget "
              f"{budget:.6g} over {defended.state.hours:.0f} h")
        if defended.sheds or defended.swaps:
            print(f"  interventions: swaps={list(defended.swaps)} "
                  f"sheds={list(defended.sheds)}")
        print(f"  survived: {within}")
        if not within:
            print("redteam: controller FAILED to survive the attack",
                  file=sys.stderr)
            code = 3
    return code


def _cmd_report(args: argparse.Namespace) -> int:
    import dataclasses
    import json
    from pathlib import Path

    from repro.telemetry import (
        STORE_DIRNAME,
        build_report,
        check_stream,
        render_report,
    )

    source = Path(args.source)
    # Convenience: pointing at a result store finds its stream root.
    if (source / STORE_DIRNAME).is_dir():
        source = source / STORE_DIRNAME
    if args.check:
        check = check_stream(source, run_id=args.run)
        if args.format == "json":
            print(json.dumps(dataclasses.asdict(check), indent=2))
        else:
            print(check.render())
        return 0 if check.ok else 1
    report = build_report(source, run_id=args.run)
    if args.format == "json":
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(render_report(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RAMP + DRM: lifetime reliability-aware microprocessor toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("suite", help="list the workload suite")
    p.set_defaults(func=_cmd_suite)

    p = sub.add_parser("table2", help="regenerate Table 2")
    _add_common(p)
    p.set_defaults(func=_cmd_table2)

    p = sub.add_parser("reliability", help="RAMP FIT report for one app")
    p.add_argument("app", choices=SUITE_NAMES)
    p.add_argument("--tqual", type=float, default=400.0)
    _add_common(p)
    p.set_defaults(func=_cmd_reliability)

    p = sub.add_parser("drm", help="DRM oracle decision")
    p.add_argument("app", choices=SUITE_NAMES)
    p.add_argument("--tqual", type=float, default=400.0)
    p.add_argument("--mode", choices=[m.value for m in AdaptationMode], default="dvs")
    _add_common(p)
    p.set_defaults(func=_cmd_drm)

    p = sub.add_parser("dtm", help="DTM decision")
    p.add_argument("app", choices=SUITE_NAMES)
    p.add_argument("--tlimit", type=float, default=370.0)
    _add_common(p)
    p.set_defaults(func=_cmd_dtm)

    p = sub.add_parser("map", help="ASCII thermal map of an application")
    p.add_argument("app", choices=SUITE_NAMES)
    _add_common(p)
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("validate", help="run the stack's self-audits")
    p.add_argument("--tqual", type=float, default=400.0)
    _add_common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("sweep", help="DRM performance across T_qual values")
    p.add_argument("app", choices=SUITE_NAMES)
    p.add_argument("--tquals", default="325,345,370,400",
                   help="comma-separated T_qual list (K)")
    p.add_argument("--mode", choices=[m.value for m in AdaptationMode], default="dvs")
    p.add_argument("--resume", action="store_true",
                   help="restore finished cells from the telemetry stream in "
                        "--cache-dir and compute only the rest")
    _add_common(p)
    p.set_defaults(func=_cmd_sweep)

    from repro.analysis.cli import add_analyze_parser

    add_analyze_parser(sub)

    p = sub.add_parser(
        "engine",
        help="parallel DRM sweep through the repro.engine job engine",
    )
    p.add_argument("--apps", default="all",
                   help='comma-separated app list, or "all" (default)')
    p.add_argument("--tquals", default="325,345,370,400",
                   help="comma-separated T_qual list (K)")
    p.add_argument("--mode", choices=[m.value for m in AdaptationMode],
                   default="archdvs")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default: cpu count; 1 = serial)")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-job wall-clock budget in seconds")
    p.add_argument("--retries", type=int, default=1,
                   help="extra attempts per failing job (default 1)")
    p.add_argument("--failure-budget", type=int, default=None,
                   help="fail a job fast after this many failed attempts "
                        "across the sweep (default: unlimited)")
    p.add_argument("--resume", action="store_true",
                   help="restore finished cells from the telemetry stream in "
                        "--cache-dir and compute only the rest")
    p.add_argument("--fault-plan", default=None,
                   help="arm a deterministic fault plan (a named plan such "
                        "as 'ci-default', or a path to a plan JSON)")
    p.add_argument("--progress", action="store_true",
                   help="live progress line on stderr")
    p.add_argument("--events-jsonl", default=None,
                   help="write the structured event log to this file")
    _add_common(p)
    p.set_defaults(func=_cmd_engine)

    p = sub.add_parser(
        "serve",
        help="long-running HTTP decision service (asyncio, micro-batched)",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument("--port", type=int, default=8787,
                   help="bind port (0 = ephemeral)")
    p.add_argument("--workers", type=int, default=4,
                   help="oracle worker threads (default 4)")
    p.add_argument("--max-batch", type=int, default=64,
                   help="micro-batch size trigger (default 64)")
    p.add_argument("--max-delay-ms", type=float, default=5.0,
                   help="micro-batch deadline trigger in ms (default 5)")
    p.add_argument("--no-batching", action="store_true",
                   help="disable micro-batching (one pool crossing per "
                        "request; the benchmark's sequential baseline)")
    p.add_argument("--cache-capacity", type=int, default=4096,
                   help="in-memory decision LRU size (0 disables)")
    p.add_argument("--intra-grid-steps", type=int, default=6,
                   help="per-phase DVS candidates for intra decisions")
    p.add_argument("--prewarm", action="store_true",
                   help="simulate the whole suite before accepting traffic")
    p.add_argument("--fault-plan", default=None,
                   help="arm a deterministic fault plan (e.g. 'ci-default') "
                        "including the serve.drop_connection / "
                        "serve.slow_response network sites")
    _add_common(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "report",
        help="render or audit a telemetry stream (repro report <dir>)",
    )
    p.add_argument("source",
                   help="a telemetry stream root, one run directory, one "
                        "segment file, or a result store containing "
                        "telemetry/")
    p.add_argument("--run", default=None,
                   help="restrict to one run id")
    p.add_argument("--check", action="store_true",
                   help="audit every segment against the record schema "
                        "(exit 1 on schema-invalid records)")
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="output format (default text)")
    p.set_defaults(func=_cmd_report)

    def _add_mission(p: argparse.ArgumentParser) -> None:
        p.add_argument("--apps", default="MPGdec,gzip,art",
                       help="comma-separated application universe")
        p.add_argument("--frequencies", default="3.0,4.0,5.0",
                       help="comma-separated requested frequencies in GHz")
        p.add_argument("--epochs", type=int, default=64,
                       help="mission length in epochs (default 64)")
        p.add_argument("--epoch-hours", type=float, default=500.0,
                       help="hours per epoch (default 500)")
        p.add_argument("--tqual", type=float, default=400.0,
                       help="qualification temperature (K)")
        p.add_argument("--target-years", type=float, default=None,
                       help="required service life (default: the SOFR "
                            "life implied by the qualified FIT target)")
        p.add_argument("--spares", default=None,
                       help="comma-separated structures with cold spares")

    p = sub.add_parser(
        "lifetime",
        help="integrate a mission schedule into cumulative wear "
             "(closed-loop, checkpointed, resumable)",
    )
    _add_mission(p)
    p.add_argument("--schedule-seed", type=int, default=7,
                   help="seed for the random mission (default 7)")
    p.add_argument("--open-loop", action="store_true",
                   help="integrate at the requested frequencies with no "
                        "controller")
    p.add_argument("--telemetry-dir", default=None,
                   help="telemetry stream root for lifetime.* checkpoints")
    p.add_argument("--checkpoint-every", type=int, default=8,
                   help="epochs between wear checkpoints (default 8)")
    p.add_argument("--resume", action="store_true",
                   help="restore the newest intact checkpoint for this "
                        "schedule and continue bit-identically")
    p.add_argument("--stop-after", type=int, default=None,
                   help="pause cleanly after this many schedule epochs "
                        "(a final checkpoint is written)")
    p.add_argument("--fault-plan", default=None,
                   help="arm a deterministic fault plan including the "
                        "lifetime.wear_sensor_drift / "
                        "lifetime.checkpoint_torn sites")
    _add_common(p)
    p.set_defaults(func=_cmd_lifetime)

    p = sub.add_parser(
        "redteam",
        help="adversarial search for wear-maximizing schedules",
    )
    _add_mission(p)
    p.add_argument("--adversary-seed", type=int, default=11,
                   help="root seed of the whole search (default 11)")
    p.add_argument("--objective", choices=["total", "peak"], default="total",
                   help="damage objective to maximise (default total)")
    p.add_argument("--random-population", type=int, default=10,
                   help="random schedules for the baseline (default 10)")
    p.add_argument("--greedy-passes", type=int, default=1,
                   help="coordinate-ascent sweeps (default 1)")
    p.add_argument("--anneal-steps", type=int, default=150,
                   help="simulated-annealing mutations (default 150)")
    p.add_argument("--min-improvement", type=float, default=0.25,
                   help="required fractional gain over the baseline "
                        "(default 0.25; exit 2 below it)")
    p.add_argument("--verify-controller", action="store_true",
                   help="replay the found schedule against the wear-aware "
                        "controller (exit 3 unless it survives within "
                        "its damage budget)")
    _add_common(p)
    p.set_defaults(func=_cmd_redteam)

    p = sub.add_parser(
        "loadgen",
        help="seeded traffic replay against a running decision service",
    )
    p.add_argument("--host", default="127.0.0.1", help="service address")
    p.add_argument("--port", type=int, default=8787, help="service port")
    p.add_argument("--mix", choices=["static", "dynamic", "oscillating",
                                     "bursty"],
                   default="static", help="traffic shape (default static)")
    p.add_argument("--apps", default="MPGdec,gzip,art",
                   help="comma-separated question universe")
    p.add_argument("--requests", type=int, default=200,
                   help="requests to replay (default 200)")
    p.add_argument("--concurrency", type=int, default=64,
                   help="in-flight requests (default 64)")
    p.add_argument("--seed", type=int, default=42, help="trace seed")
    p.set_defaults(func=_cmd_loadgen)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

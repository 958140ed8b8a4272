"""The end-to-end benchmark: one command, four workloads, one process each.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--smoke] [--trace [0|1]] [--out DIR]

Each workload (see ``BENCHMARK.json`` and ``README.md``) runs in its own
fresh ``workloads.py`` process, one after another.  The command prints
every metric by name with its unit, checks the outputs against
``golden.json`` and the workloads' own consistency checks, appends one
record per run to ``<out>/runs.jsonl`` and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Untraced runs report the ``end_to_end`` metrics.  ``--trace 1`` runs the
workload twice — untraced, then with every layer wrapped by ``trace.py``
— and reports the ``per_layer`` metrics, the overhead of tracing, the
layer table, and writes every span to ``<out>/trace-<workload>.json``.
Both processes of a traced run do the workload's minimum number of
rounds and no more, whatever ``--seconds`` is, so per-layer counts do
not depend on how fast the host happens to be.
Figures only one workload measures (per-rate serve latency, mission
throughput...) are printed as diagnostics and never gated.

The exit code is 0 only if every operation and check passed.
``--write-golden`` records this run's digests as the new golden outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from trace import nearest_rank

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
GOLDEN = HERE / "golden.json"

#: Set-ups per untraced run; ``setup_s`` reports their median.
SETUPS = 3
#: Wall-clock budget of one workload, both processes of a traced run
#: included.
WORKLOAD_TIMEOUT_S = 175.0


def provenance(mode: str, seed: int) -> dict:
    """Commit, dirty flag and host facts, stamped on every result."""
    commit = dirty = None
    if (ROOT / ".git").exists():
        git = ["git", f"--git-dir={ROOT / '.git'}", f"--work-tree={ROOT}"]
        try:
            commit = subprocess.run(
                git + ["rev-parse", "HEAD"], capture_output=True, text=True,
                timeout=30, check=True,
            ).stdout.strip()
            dirty = bool(
                subprocess.run(
                    git + ["status", "--porcelain"], capture_output=True, text=True,
                    timeout=30, check=True,
                ).stdout.strip()
            )
        except (OSError, subprocess.SubprocessError):
            commit = dirty = None
    return {
        "commit": commit,
        "dirty": dirty,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": seed,
        "mode": mode,
    }


class ChildFailed(RuntimeError):
    """A workload process crashed, timed out or measured nothing."""


def run_child(workload: str, args, work: Path, *, traced: bool, setups: int,
              deadline: float, trace_file: Path | None = None) -> dict:
    result_path = work / f"result-{'traced' if traced else 'plain'}.json"
    cmd = [
        sys.executable, str(HERE / "workloads.py"), workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--setups", str(setups), "--result", str(result_path),
        "--work-dir", str(work / "tmp"),
    ]
    if args.smoke:
        cmd.append("--smoke")
    if traced:
        cmd.append("--trace")
        if trace_file is not None:
            cmd += ["--trace-file", str(trace_file)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed(f"{workload}: no time left for another process")
    try:
        # The child's stdout goes to our stderr: our stdout ends with
        # the result line and nothing may follow it.
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload}: timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0 or not result_path.exists():
        raise ChildFailed(f"{workload}: workload process exited {proc.returncode}")
    result = json.loads(result_path.read_text())
    if not result["ops"]:
        raise ChildFailed(f"{workload}: no operation succeeded")
    return result


def best_per_key(result: dict) -> list[float]:
    """Each distinct operation's best latency (ms), ascending.

    Repeats of one operation are spread through the run, so their best
    is what the code costs when the shared host is not slowing it down.
    """
    best: dict[str, float] = {}
    for key, ms in result["ops"]:
        best[key] = min(ms, best.get(key, ms))
    return sorted(best.values())


def end_to_end(result: dict) -> dict[str, float]:
    latencies = best_per_key(result)
    return {
        "setup_s": result["import_s"] + statistics.median(result["setup_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "p50_ms": nearest_rank(latencies, 0.50),
        "p90_ms": nearest_rank(latencies, 0.90),
    }


def per_layer(plain: dict, traced: dict) -> dict[str, float]:
    metrics = dict(traced["layers"])
    metrics["trace.overhead_frac"] = (
        nearest_rank(best_per_key(traced), 0.5) / nearest_rank(best_per_key(plain), 0.5)
        - 1.0
    )
    return metrics


def golden_checks(results: list[dict], golden: dict) -> tuple[int, list[str]]:
    """Compare the runs' digests with ``golden.json``.

    Seed-independent digests must all be present and equal; a digest
    named ``...@seed<n>`` is checked only when golden holds that seed.
    Returns the number of comparisons and the mismatches.
    """
    checked, failures = 0, []
    for result in results:
        expected = golden.get(result["mode"], {}).get(result["workload"], {})
        got = result["golden"]
        for key in sorted(set(expected) | set(got)):
            seeded = "@seed" in key
            if seeded and (key not in expected or not key.endswith(f"@seed{result['seed']}")):
                continue
            checked += 1
            if key not in expected:
                failures.append(f"golden: no entry for {key}")
            elif key not in got:
                failures.append(f"golden: {key} was not produced")
            elif got[key] != expected[key]:
                failures.append(f"golden: {key} differs")
    return checked, failures


def run_workload(workload: str, args, spec: dict, golden: dict, prov: dict) -> dict:
    work = HERE / ".work" / f"{workload}-{os.getpid()}"
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    try:
        if args.trace:
            plain = run_child(workload, args, work, traced=False, setups=1, deadline=deadline)
            traced = run_child(
                workload, args, work, traced=True, setups=1, deadline=deadline,
                trace_file=args.out / f"trace-{workload}.json",
            )
            results = [plain, traced]
            values = per_layer(plain, traced)
            wanted = spec["per_layer"]
        else:
            results = [run_child(workload, args, work, traced=False, setups=SETUPS,
                                 deadline=deadline)]
            values = end_to_end(results[0])
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise ChildFailed(f"{workload}: metrics not produced: {', '.join(missing)}")
    failures = [f for r in results for f in r["failures"]]
    checked, golden_failures = golden_checks(results, golden)
    attempted = sum(r["attempted"] for r in results) + checked
    failed = sum(r["failed"] for r in results) + len(golden_failures)
    return {
        "workload": workload,
        "traced": bool(args.trace),
        "seconds": args.seconds,
        "provenance": {**prov, "numpy": results[0]["numpy"]},
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        },
        "attempted": attempted,
        "failed": failed,
        "failures": failures + golden_failures,
        "checks_passed": not failures,
        "golden": results[0]["golden"],
        "diagnostics": results[0]["diagnostics"],
        "layer_table": results[-1].get("layer_table"),
        "correct": failed == 0,
    }


def write_golden(records: list[dict], mode: str, golden: dict) -> None:
    for record in records:
        golden.setdefault(mode, {})[record["workload"]] = record["golden"]
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=0,
                        help="the only source of randomness (default 0, the golden seed)")
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured time per workload (default {spec['run_seconds']}, "
                             "1 with --smoke)")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes: all four workloads in under a minute")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="report per-layer metrics from a traced run")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="where runs.jsonl and trace files go (default benchmarks/e2e/out)")
    parser.add_argument("--write-golden", action="store_true",
                        help="record this run's digests in golden.json")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(spec["run_seconds"])
    if args.trace:
        args.seconds = 0.0  # the minimum rounds only
    mode = "smoke" if args.smoke else "full"
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    prov = provenance(mode, args.seed)
    args.out.mkdir(parents=True, exist_ok=True)

    records = []
    for workload in [args.workload] if args.workload else names:
        try:
            record = run_workload(workload, args, spec, golden, prov)
        except ChildFailed as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 1
        records.append(record)
        with open(args.out / "runs.jsonl", "a") as handle:
            handle.write(json.dumps({**record, "ts": time.time()}) + "\n")
        print(f"{workload} ({mode}, seed {args.seed}, "
              f"{'minimum rounds, traced' if args.trace else f'{args.seconds:g} s'}): "
              f"{record['attempted']} attempted, {record['failed']} failed")
        for name, metric in record["metrics"].items():
            print(f"  {name:36s} {metric['value']:14.6g} {metric['unit']}")
        for name, value in record["diagnostics"].items():
            print(f"  diagnostic {name:25s} {value:14.6g}")
        for failure in record["failures"]:
            print(f"  FAILED: {failure}")
        if record["layer_table"]:
            print("\n".join("  " + line for line in record["layer_table"].splitlines()))
    print("provenance: " + json.dumps({**prov, "numpy": records[0]["provenance"]["numpy"]}))

    if args.write_golden and all(r["checks_passed"] for r in records):
        write_golden(records, mode, golden)
        print(f"wrote {GOLDEN.relative_to(ROOT)}")

    single = len(records) == 1
    metrics = {
        (name if single else f"{r['workload']}:{name}"): metric
        for r in records for name, metric in r["metrics"].items()
    }
    correct = all(r["correct"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR
    python3 benchmarks/e2e/compare.py RUNS_DIR          # summary as JSON

Each directory is an ``--out`` directory of ``run.py``; its
``runs.jsonl`` holds one record per run.  Only untraced runs count.  For
every (workload, end-to-end metric) the comparison prints each side's
median and quartiles and a verdict:

- ``unresolved`` — either side's spread (quartile distance over median)
  is wider than the metric's bound, and not every change run beats
  every parent run;
- ``regressed`` — the change's median is worse than the parent's by
  more than the bound;
- ``improved`` — the change wins at least 9 of every 10 runs paired by
  seed (ties count for neither side, at least 10 pairs), and the medians
  differ by more than the parent's quartile distance;
- ``unchanged`` — otherwise.

Each workload's row block ends with the medians of ``host.probe_ms``, a
fixed pure-Python loop timed in every run: when the two sides differ
there, the host's speed moved between the sets, and so do their timings.
The exit code is 1 if anything regressed or is unresolved.  With one
directory the command prints the median and quartiles of every metric
as JSON (the form of ``baseline.json``).
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(directory: Path) -> dict[tuple[str, str], dict[int, list[float]]]:
    """``{(workload, metric): {seed: [values...]}}`` of untraced runs."""
    runs: dict[tuple[str, str], dict[int, list[float]]] = defaultdict(lambda: defaultdict(list))
    with open(directory / "runs.jsonl") as handle:
        for line in handle:
            record = json.loads(line)
            if record["traced"]:
                continue
            seed = record["provenance"]["seed"]
            values = {name: metric["value"] for name, metric in record["metrics"].items()}
            values["host.probe_ms"] = record["diagnostics"]["host.probe_ms"]
            for name, value in values.items():
                runs[(record["workload"], name)][seed].append(value)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: dict[int, list[float]], change: dict[int, list[float]],
            bound: float, lower_is_better: bool) -> tuple[str, dict]:
    a = [v for vs in parent.values() for v in vs]
    b = [v for vs in change.values() for v in vs]
    qa, qb = quartiles(a), quartiles(b)

    def better(x: float, y: float) -> bool:
        return x < y if lower_is_better else x > y

    worse_by = (qb[1] - qa[1]) / qa[1] * (1 if lower_is_better else -1)
    spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
    pairs = [
        (x, y)
        for seed in sorted(set(parent) & set(change))
        for x, y in zip(parent[seed], change[seed])
    ]
    wins = sum(1 for x, y in pairs if better(y, x))
    gain = (
        len(pairs) >= 10
        and wins >= 0.9 * len(pairs)
        and abs(qb[1] - qa[1]) > qa[2] - qa[0]
    )
    if spread > bound:
        label = "improved" if gain and all(better(y, x) for x in a for y in b) else "unresolved"
    elif worse_by > bound:
        label = "regressed"
    elif gain:
        label = "improved"
    else:
        label = "unchanged"
    return label, {"parent": qa, "change": qb, "change_frac": (qb[1] - qa[1]) / qa[1],
                   "wins": wins, "pairs": len(pairs)}


def summary(directory: Path) -> dict:
    out: dict[str, dict] = defaultdict(dict)
    for (workload, name), by_seed in sorted(load(directory).items()):
        values = [v for vs in by_seed.values() for v in vs]
        q1, median, q3 = quartiles(values)
        out[workload][name] = {"median": median, "q1": q1, "q3": q3, "runs": len(values)}
    return out


def main(argv: list[str]) -> int:
    if len(argv) == 1:
        print(json.dumps(summary(Path(argv[0])), indent=1, sort_keys=True))
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(Path(argv[0])), load(Path(argv[1]))
    bad = 0
    print(f"{'workload':17s} {'metric':12s} {'parent median [q1, q3]':>36s} "
          f"{'change median [q1, q3]':>36s} {'change':>8s} {'bound':>6s} wins  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in parent or key not in change:
                continue
            label, d = verdict(parent[key], change[key], metric["bound"],
                               metric["better"] == "lower")
            bad += label in ("regressed", "unresolved")
            pa, ch = d["parent"], d["change"]
            print(f"{workload:17s} {metric['name']:12s} "
                  f"{pa[1]:12.5g} [{pa[0]:10.5g}, {pa[2]:10.5g}] "
                  f"{ch[1]:12.5g} [{ch[0]:10.5g}, {ch[2]:10.5g}] "
                  f"{d['change_frac'] * 100:+7.1f}% {metric['bound'] * 100:5.0f}% "
                  f"{d['wins']:2d}/{d['pairs']:<2d} {label}")
        probe = (workload, "host.probe_ms")
        if probe in parent and probe in change:
            pa, ch = (quartiles([v for vs in side[probe].values() for v in vs])[1]
                      for side in (parent, change))
            print(f"{workload:17s} host.probe_ms: parent {pa:.3f}, change {ch:.3f} "
                  f"({(ch - pa) / pa * 100:+.1f}% probe time)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

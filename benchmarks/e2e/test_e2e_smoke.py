"""Self-test of the end-to-end benchmark at smoke size (about 30 s).

    python3 -m pytest benchmarks/e2e/test_e2e_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--smoke", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:] + proc.stdout[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_metric_with_its_unit_and_all_checks_pass(tmp_path):
    result = last_json(run(ROOT, "--out", str(tmp_path)))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {
        f"{w['name']}:{m['name']}": m["unit"]
        for w in SPEC["workloads"] for m in SPEC["end_to_end"]
    }
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    records = [json.loads(line) for line in (tmp_path / "runs.jsonl").read_text().splitlines()]
    assert [r["workload"] for r in records] == [w["name"] for w in SPEC["workloads"]]
    for record in records:
        assert record["correct"], record["failures"]
        assert {"commit", "dirty", "nproc", "python", "numpy", "seed", "mode"} <= set(
            record["provenance"]
        )


def test_consistency_checks_pass_on_another_seed(tmp_path):
    result = last_json(run(ROOT, "--workload", "lifetime_mission", "--seed", "7",
                           "--out", str(tmp_path)))
    assert result["correct"] and result["failed"] == 0


def test_trace_writes_spans_named_like_the_per_layer_metrics(tmp_path):
    result = last_json(run(ROOT, "--workload", "serve_open", "--trace", "--out", str(tmp_path)))
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    assert result["metrics"]["serve.decide.calls"]["value"] > 0
    trace = json.loads((tmp_path / "trace-serve_open.json").read_text())
    spans = trace["spans"]
    assert len(spans["name"]) == len(spans["start_ns"]) == len(spans["parent"]) > 0
    metric_names = {m["name"] for m in SPEC["per_layer"]}
    for layer in trace["names"]:
        assert any(name.startswith(layer + ".") for name in metric_names), layer
    used = {trace["names"][i] for i in set(spans["name"])}
    assert {"serve.decide", "oracle.drm", "kernels.evaluate"} <= used


def test_fails_without_printing_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", ".work", "__pycache__"))
    proc = run(tmp_path, "--workload", "drm_warm")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

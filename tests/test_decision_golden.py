"""Golden decision digests for the four oracles.

Pins the decisions themselves, bit for bit, as their store encoding
(``encode_result``): the cold ArchDVS decisions for gzip, art and MPGdec
at T_qual 370 K, the 24 warm cells (the same three applications × T_qual
345–394 K in steps of 7 K), gzip's ArchDVS decisions at Figure 2's four
T_qual values, and one DTM, joint and intra-application (greedy and
exhaustive) decision for gzip — all at 2k + 0.4k instructions and trace
seed 42 — plus the ``final-wear`` line of one short closed-loop
``repro lifetime`` mission.  The two DRM digests are combined the
way ``benchmarks/e2e/workloads.py`` combines them and equal the
``drm_cold``/``drm_warm`` ``decisions`` entries of
``benchmarks/e2e/golden.json`` (full mode), so a change that moves any
decision fails here, in the unit suite, whichever layer moved it.

A change that is *meant* to move decisions regenerates both.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import AdaptationMode, DRMOracle, Platform, SimulationCache, workload_by_name
from repro.core.combined import JointOracle
from repro.core.dtm import DTMOracle
from repro.core.intra import IntraAppOracle
from repro.engine.store import encode_result

INSTRUCTIONS = 2_000
WARMUP = 400
SEED = 42
DRM_APPS = ("gzip", "art", "MPGdec")
COLD_T_QUAL_K = 370.0
WARM_T_QUALS = tuple(float(t) for t in range(345, 396, 7))

#: ``benchmarks/e2e/golden.json`` full-mode ``drm_cold`` ``decisions``.
COLD_DECISIONS = "f12ac2abf2abe745198c8e519f1b66dd4b5ab0c03a4fba293bd803d8f244e9af"
#: ``benchmarks/e2e/golden.json`` full-mode ``drm_warm`` ``decisions``.
WARM_DECISIONS = "7cc1c2603f873fce443ffbfc7d9bf4619c01b6dce81bacc5e4ae9277f40ab57e"
#: gzip's ArchDVS decisions at Figure 2's T_qual values, in that order.
FIG2_T_QUALS = (325.0, 345.0, 370.0, 400.0)
GZIP_FIG2_DECISIONS = "eeb751a20d04fac6ca73c6e04e9e98459f5aa2206b6b73682aff1c70c70be1ee"
#: SHA-256 of the ``final-wear`` line of ``repro lifetime LIFETIME_ARGS``.
LIFETIME_ARGS = [
    "--apps", "gzip,art", "--epochs", "24", "--epoch-hours", "500",
    "--schedule-seed", "7", "--instructions", str(INSTRUCTIONS),
    "--warmup", str(WARMUP), "--seed", str(SEED),
]
FINAL_WEAR = "b2363e634d29af9a26300562f3017176ba5c738102a19aaf8983145ab8da7d9e"
#: gzip at T_qual 370 K and T_limit 355 K.
GZIP_DIGESTS = {
    "dtm": "eeea33e6a22d12b80e5107c61c014c1b858a236a07e16a3e9bac5be0702fb525",
    "joint": "8927e1350153923d87f87370875f8b29ffa4731c3bd2f441dfd586b14fadc9f1",
    "intra/greedy": "bbc00a95b61eb8b462b728ce34477f727997b9aee50ac7ee6eba89dc39c5d1d3",
    "intra/exhaustive": "246d5c72c4979cee2c67cc53038a0cb2d5b2f00cdee31611a40977125eba4804",
}


def digest(obj) -> str:
    """SHA-256 of an object's canonical JSON (as ``benchmarks/e2e``)."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def encoded(kind: str, decision) -> str:
    return json.dumps(encode_result(kind, decision), sort_keys=True)


@pytest.fixture(scope="module")
def oracle() -> DRMOracle:
    cache = SimulationCache(INSTRUCTIONS, WARMUP, seed=SEED)
    return DRMOracle(platform=Platform(), cache=cache)


def drm_decision(oracle: DRMOracle, app: str, t_qual_k: float) -> str:
    decision = oracle.best(workload_by_name(app), t_qual_k=t_qual_k, mode=AdaptationMode.ARCHDVS)
    return encoded("drm", decision)


def test_cold_archdvs_decisions(oracle):
    decisions = {app: drm_decision(oracle, app, COLD_T_QUAL_K) for app in DRM_APPS}
    assert digest([decisions[app] for app in sorted(decisions)]) == COLD_DECISIONS


def test_warm_archdvs_cells(oracle):
    cells = {(app, t): drm_decision(oracle, app, t) for app in DRM_APPS for t in WARM_T_QUALS}
    assert len(cells) == 24
    assert digest([cells[cell] for cell in sorted(cells)]) == WARM_DECISIONS


def test_gzip_figure2_decisions(oracle):
    cells = [drm_decision(oracle, "gzip", t) for t in FIG2_T_QUALS]
    assert digest(cells) == GZIP_FIG2_DECISIONS


def test_lifetime_final_wear(capsys):
    from repro.cli import main

    assert main(["lifetime", *LIFETIME_ARGS]) == 0
    (line,) = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("final-wear ")
    ]
    assert hashlib.sha256(line.encode()).hexdigest() == FINAL_WEAR


def test_dtm_joint_and_intra_decisions(oracle):
    gzip = workload_by_name("gzip")
    shared = {"platform": oracle.platform, "cache": oracle.cache}
    intra = IntraAppOracle(oracle.ramp_for, **shared)
    got = {
        "dtm": encoded("dtm", DTMOracle(**shared).best(gzip, t_limit_k=355.0)),
        "joint": encoded(
            "joint",
            JointOracle(oracle.ramp_for, **shared).best(gzip, t_qual_k=370.0, t_limit_k=355.0),
        ),
        "intra/greedy": encoded("intra", intra.best(gzip, t_qual_k=370.0, strategy="greedy")),
        "intra/exhaustive": encoded(
            "intra", intra.best(gzip, t_qual_k=370.0, strategy="exhaustive")
        ),
    }
    assert {name: digest(blob) for name, blob in got.items()} == GZIP_DIGESTS

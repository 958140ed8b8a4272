"""Tests for FIT accounting and the SOFR model."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.core.fit import FitAccount, sofr_total_fit
from repro.errors import ReliabilityError


def account(em=100.0, sm=50.0):
    return FitAccount({
        ("EM", "fpu"): em,
        ("EM", "ialu"): em / 2,
        ("SM", "fpu"): sm,
        ("SM", "ialu"): sm / 2,
    })


class TestSofr:
    def test_total_is_plain_sum(self):
        assert account().total == pytest.approx(100 + 50 + 50 + 25)

    def test_sofr_total_fit_helper(self):
        assert sofr_total_fit([1.0, 2.0, 3.0]) == pytest.approx(6.0)

    def test_sofr_rejects_negative(self):
        with pytest.raises(ReliabilityError):
            sofr_total_fit([1.0, -2.0])

    def test_by_mechanism(self):
        by_mech = account().by_mechanism()
        assert by_mech["EM"] == pytest.approx(150.0)
        assert by_mech["SM"] == pytest.approx(75.0)

    def test_by_structure(self):
        by_struct = account().by_structure()
        assert by_struct["fpu"] == pytest.approx(150.0)
        assert by_struct["ialu"] == pytest.approx(75.0)

    def test_dominant_mechanism(self):
        assert account().dominant_mechanism() == "EM"

    def test_negative_entries_rejected(self):
        with pytest.raises(ReliabilityError):
            FitAccount({("EM", "fpu"): -1.0})

    def test_mttf_inverse_of_total(self):
        a = FitAccount({("EM", "fpu"): 4000.0})
        assert a.mttf_hours() == pytest.approx(1e9 / 4000.0)
        assert a.mttf_years() == pytest.approx(1e9 / 4000.0 / 8760.0)

    def test_empty_dominant_raises(self):
        with pytest.raises(ReliabilityError):
            FitAccount({}).dominant_mechanism()


class TestTimeAveraging:
    def test_weighted_average(self):
        a = FitAccount({("EM", "fpu"): 100.0})
        b = FitAccount({("EM", "fpu"): 300.0})
        merged = FitAccount.weighted_average([(a, 0.75), (b, 0.25)])
        assert merged.entries[("EM", "fpu")] == pytest.approx(150.0)

    def test_weights_normalised(self):
        a = FitAccount({("EM", "fpu"): 100.0})
        b = FitAccount({("EM", "fpu"): 200.0})
        merged = FitAccount.weighted_average([(a, 2.0), (b, 2.0)])
        assert merged.entries[("EM", "fpu")] == pytest.approx(150.0)

    def test_single_account_identity(self):
        a = account()
        merged = FitAccount.weighted_average([(a, 1.0)])
        assert merged.entries == pytest.approx(a.entries)

    def test_average_between_extremes(self):
        a = FitAccount({("EM", "fpu"): 10.0})
        b = FitAccount({("EM", "fpu"): 90.0})
        merged = FitAccount.weighted_average([(a, 0.5), (b, 0.5)])
        assert 10.0 < merged.entries[("EM", "fpu")] < 90.0

    def test_mismatched_keys_rejected(self):
        a = FitAccount({("EM", "fpu"): 1.0})
        b = FitAccount({("SM", "fpu"): 1.0})
        with pytest.raises(ReliabilityError, match="mismatched"):
            FitAccount.weighted_average([(a, 0.5), (b, 0.5)])

    def test_empty_list_rejected(self):
        with pytest.raises(ReliabilityError):
            FitAccount.weighted_average([])

    def test_zero_weights_rejected(self):
        a = FitAccount({("EM", "fpu"): 1.0})
        with pytest.raises(ReliabilityError):
            FitAccount.weighted_average([(a, 0.0)])


#: Averages two FIT ledgers and solves one A10 row (Weibull series
#: system by Monte Carlo) from the result; prints every float as hex.
_HASH_SEED_PROBE = """
from repro.core.fit import FitAccount
from repro.lifetime.distributions import (
    WeibullLifetime, component_mttfs_from_account, series_system_mttf,
)
mechs = ("EM", "SM", "TDDB", "TC")
structs = ("fpu", "ialu", "l1d", "l1i", "bpred", "lsq", "rob", "regfile")
def account(scale):
    return FitAccount({
        (m, s): scale * (i + 1.7) / (j + 3.1)
        for i, m in enumerate(mechs) for j, s in enumerate(structs)
    })
avg = FitAccount.weighted_average([(account(1.0), 0.3), (account(2.7), 0.7)])
row = series_system_mttf(
    component_mttfs_from_account(avg), WeibullLifetime(2.0),
    n_samples=2000, seed=11,
)
print(avg.total.hex())
print([(m, f.hex()) for m, f in sorted(avg.by_mechanism().items())])
print(row.mttf_hours.hex(), row.std_error_hours.hex(), row.sofr_mttf_hours.hex())
"""


def _probe(hash_seed: str) -> str:
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-c", _HASH_SEED_PROBE],
        env=env, capture_output=True, text=True, check=True,
    ).stdout


class TestHashSeedIndependence:
    def test_average_and_series_row_are_bitwise_stable(self):
        # The merged ledger's key order feeds the float summation order
        # of total/by_mechanism and the Monte Carlo draw order; none of
        # it may depend on string hashing.
        assert _probe("0") == _probe("1")

"""Unit tests for repro.workloads.suite (the Table 2 application suite)."""

import pytest

from repro.errors import WorkloadError
from repro.workloads.suite import SUITE_NAMES, WORKLOAD_SUITE, workload_by_name
from repro.workloads.trace import FP_OPS


class TestSuiteComposition:
    def test_nine_applications(self):
        assert len(WORKLOAD_SUITE) == 9

    def test_three_per_category(self):
        from collections import Counter

        counts = Counter(p.category for p in WORKLOAD_SUITE)
        assert counts == {"media": 3, "specint": 3, "specfp": 3}

    def test_paper_names(self):
        assert set(SUITE_NAMES) == {
            "MPGdec", "MP3dec", "H263enc",
            "bzip2", "gzip", "twolf",
            "art", "equake", "ammp",
        }

    def test_lookup(self):
        assert workload_by_name("art").category == "specfp"

    def test_unknown_name_raises(self):
        with pytest.raises(WorkloadError, match="unknown workload"):
            workload_by_name("povray")


class TestTable2Targets:
    """The recorded paper values (used as calibration ground truth)."""

    def test_ipc_values(self):
        expected = {
            "MPGdec": 3.2, "MP3dec": 2.8, "H263enc": 1.9,
            "bzip2": 1.7, "gzip": 1.5, "twolf": 0.8,
            "art": 0.7, "equake": 1.4, "ammp": 1.1,
        }
        for p in WORKLOAD_SUITE:
            assert p.table2_ipc == expected[p.name]

    def test_power_values(self):
        expected = {
            "MPGdec": 36.5, "MP3dec": 34.7, "H263enc": 30.8,
            "bzip2": 23.9, "gzip": 23.4, "twolf": 15.6,
            "art": 17.0, "equake": 20.9, "ammp": 19.7,
        }
        for p in WORKLOAD_SUITE:
            assert p.table2_power_w == expected[p.name]

    def test_media_has_highest_ipc_targets(self):
        media = {p.table2_ipc for p in WORKLOAD_SUITE if p.category == "media"}
        others = {p.table2_ipc for p in WORKLOAD_SUITE if p.category != "media"}
        assert min(media) > max(others)

    def test_integer_apps_have_no_fp_mix(self):
        for p in WORKLOAD_SUITE:
            if p.category == "specint":
                assert sum(p.mix.get(op, 0.0) for op in FP_OPS) == pytest.approx(0.0)

    def test_fp_apps_have_fp_mix(self):
        for p in WORKLOAD_SUITE:
            if p.category == "specfp":
                assert sum(p.mix.get(op, 0.0) for op in FP_OPS) > 0.2

    def test_every_profile_has_temporal_phases(self):
        for p in WORKLOAD_SUITE:
            assert len(p.phases) >= 2

    def test_higher_ipc_profiles_have_more_ilp(self):
        by_ipc = sorted(WORKLOAD_SUITE, key=lambda p: p.table2_ipc)
        assert by_ipc[-1].dep_distance_mean > by_ipc[0].dep_distance_mean

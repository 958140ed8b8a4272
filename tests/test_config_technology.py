"""Unit tests for repro.config.technology (Table 1 technology block)."""

import pytest

from repro.config.technology import (
    DEFAULT_TECHNOLOGY,
    STRUCTURE_NAMES,
    STRUCTURES,
    StructureSpec,
    TechnologyParameters,
    structure_by_name,
)
from repro.errors import ConfigurationError


class TestTechnologyParameters:
    def test_table1_defaults(self):
        tech = DEFAULT_TECHNOLOGY
        assert tech.process_nm == pytest.approx(65.0)
        assert tech.vdd_nominal_v == pytest.approx(1.0)
        assert tech.frequency_nominal_hz == pytest.approx(4.0e9)
        assert tech.core_area_mm2 == pytest.approx(20.2)

    def test_die_edge_is_4_5_mm(self):
        assert DEFAULT_TECHNOLOGY.die_edge_mm == pytest.approx(4.5, abs=0.01)

    def test_leakage_reference_matches_paper(self):
        assert DEFAULT_TECHNOLOGY.leakage_density_w_per_mm2 == pytest.approx(0.5)
        assert DEFAULT_TECHNOLOGY.leakage_reference_temp_k == pytest.approx(383.0)
        assert DEFAULT_TECHNOLOGY.leakage_temp_coefficient_per_k == pytest.approx(0.017)

    def test_structure_areas_sum_to_core_area(self):
        assert sum(s.area_mm2 for s in STRUCTURES) == pytest.approx(20.2, abs=1e-9)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"vdd_nominal_v": 0.0},
            {"vdd_nominal_v": -1.0},
            {"frequency_nominal_hz": 0.0},
            {"core_area_mm2": -5.0},
            {"leakage_density_w_per_mm2": -0.1},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            TechnologyParameters(**kwargs)


class TestStructureInventory:
    def test_eleven_structures(self):
        assert len(STRUCTURES) == 11

    def test_contains_every_paper_structure(self):
        # Section 3: ALUs, FPUs, register files, branch predictor, caches,
        # load-store queue, instruction window.
        expected = {"ialu", "fpu", "intreg", "fpreg", "bpred", "l1i", "l1d", "lsq", "window"}
        assert expected <= set(STRUCTURE_NAMES)

    def test_names_unique(self):
        assert len(set(STRUCTURE_NAMES)) == len(STRUCTURE_NAMES)

    def test_adaptive_structures_are_window_and_fus(self):
        adaptive = {s.name for s in STRUCTURES if s.adaptive}
        assert adaptive == {"window", "ialu", "fpu"}

    def test_lookup_by_name(self):
        assert structure_by_name("fpu").area_mm2 == pytest.approx(3.2)

    def test_lookup_unknown_raises(self):
        with pytest.raises(ConfigurationError, match="unknown structure"):
            structure_by_name("l3")

    def test_all_areas_positive(self):
        assert all(s.area_mm2 > 0 for s in STRUCTURES)

    def test_all_peak_powers_positive(self):
        assert all(s.peak_dynamic_w > 0 for s in STRUCTURES)

    def test_structure_spec_validation(self):
        with pytest.raises(ConfigurationError):
            StructureSpec("bad", area_mm2=0.0, adaptive=False, peak_dynamic_w=1.0)
        with pytest.raises(ConfigurationError):
            StructureSpec("bad", area_mm2=1.0, adaptive=False, peak_dynamic_w=-1.0)

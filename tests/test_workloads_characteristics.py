"""Unit tests for repro.workloads.characteristics."""

import pytest

from repro.errors import WorkloadError
from repro.workloads.characteristics import (
    BranchBehavior,
    MemoryBehavior,
    WorkloadProfile,
    make_mix,
)
from repro.workloads.phases import STEADY
from repro.workloads.trace import OpClass


def make_profile(**overrides):
    kwargs = dict(
        name="toy",
        category="specint",
        mix=make_mix(ialu=0.5, load=0.25, store=0.1, branch=0.15),
        dep_distance_mean=4.0,
        branch=BranchBehavior(),
        memory=MemoryBehavior(),
        code_blocks=64,
        phases=STEADY,
        table2_ipc=1.0,
        table2_power_w=20.0,
    )
    kwargs.update(overrides)
    return WorkloadProfile(**kwargs)


class TestBranchBehavior:
    def test_defaults_valid(self):
        BranchBehavior()

    @pytest.mark.parametrize(
        "kwargs",
        [{"n_static": 0}, {"bias": 1.5}, {"bias": -0.1}, {"taken_fraction": 2.0}],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(WorkloadError):
            BranchBehavior(**kwargs)


class TestMemoryBehavior:
    def test_p_cold_is_residual(self):
        m = MemoryBehavior(p_hot=0.9, p_warm=0.07)
        assert m.p_cold == pytest.approx(0.03)

    def test_probabilities_cannot_exceed_one(self):
        with pytest.raises(WorkloadError):
            MemoryBehavior(p_hot=0.8, p_warm=0.3)

    @pytest.mark.parametrize(
        "kwargs",
        [{"p_hot": -0.1}, {"hot_blocks": 0}, {"warm_blocks": -5}, {"stride_fraction": 1.5}],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(WorkloadError):
            MemoryBehavior(**kwargs)


class TestWorkloadProfile:
    def test_valid_profile(self):
        p = make_profile()
        assert p.mix[OpClass.LOAD] + p.mix[OpClass.STORE] == pytest.approx(0.35)

    def test_mix_must_sum_to_one(self):
        with pytest.raises(WorkloadError, match="sums to"):
            make_profile(mix=make_mix(ialu=0.5, branch=0.4))

    def test_negative_mix_rejected(self):
        with pytest.raises(WorkloadError):
            make_profile(mix=make_mix(ialu=1.2, branch=-0.2))

    def test_unknown_category_rejected(self):
        with pytest.raises(WorkloadError, match="category"):
            make_profile(category="games")

    def test_dep_distance_below_one_rejected(self):
        with pytest.raises(WorkloadError):
            make_profile(dep_distance_mean=0.5)

    def test_needs_at_least_one_phase(self):
        with pytest.raises(WorkloadError):
            make_profile(phases=())

    def test_phase_weights_must_sum_to_one(self):
        from repro.workloads.phases import Phase

        with pytest.raises(WorkloadError, match="weights"):
            make_profile(phases=(Phase("a", 0.5), Phase("b", 0.4)))

    def test_make_mix_covers_all_classes(self):
        mix = make_mix(ialu=1.0)
        assert set(mix) == set(OpClass)

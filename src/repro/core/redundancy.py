"""Structural redundancy for lifetime enhancement (extension).

The paper's related-work section points at exploiting microarchitectural
redundancy to "increase useful processor lifetime", and the authors'
direct follow-up (ISCA 2005) builds exactly that on top of RAMP:
**structural duplication** (SD — cold spares that take over when a
structure wears out) and **graceful performance degradation** (GPD —
adaptive structures keep running, smaller, after a unit dies).

This module implements both on the reproduction's stack:

- a structure's lifetime is the minimum over its failure mechanisms of a
  sampled (wear-out-shaped) lifetime with the RAMP-calibrated mean;
- **SD**: a cold spare is unpowered (no wear) until the primary dies,
  so the structure's lifetime is the *sum* of two independent draws;
- **GPD**: when a duplicated adaptive structure (ALUs, FPUs, window
  slices) loses capacity, the processor keeps running in a degraded
  configuration whose performance comes from the real Arch-space
  simulations; the system dies when a non-redundant structure dies.

Outputs are Monte Carlo estimates of system MTTF and (for GPD) the
performance-weighted lifetime, with SOFR / no-redundancy baselines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fit import FitAccount
from repro.lifetime.distributions import LifetimeDistribution, LognormalLifetime
from repro.errors import ReliabilityError


@dataclass(frozen=True)
class RedundancyPlan:
    """Which structures carry cold spares.

    Attributes:
        spares: structure names with one cold spare each.
        area_overhead_mm2: silicon cost of the spares (for reporting).
    """

    spares: frozenset[str]
    area_overhead_mm2: float

    @classmethod
    def for_structures(cls, names: tuple[str, ...]) -> "RedundancyPlan":
        """Plan sparing the named structures; overhead = their areas."""
        from repro.config.technology import structure_by_name

        return cls(
            spares=frozenset(names),
            area_overhead_mm2=sum(structure_by_name(n).area_mm2 for n in names),
        )

    def can_swap(self, structure: str, used: frozenset[str] | set[str]) -> bool:
        """Whether a cold spare remains for ``structure``.

        Each planned structure carries exactly one spare; ``used`` names
        the structures whose spare was already consumed (the wear-aware
        controller's swap history).
        """
        return structure in self.spares and structure not in used


@dataclass(frozen=True)
class RedundancyResult:
    """Monte Carlo outcome of a redundancy evaluation.

    Attributes:
        mttf_hours: mean system lifetime.
        baseline_mttf_hours: the no-redundancy (series) mean under the
            same lifetime distribution.
        improvement: mttf over baseline.
        area_overhead_mm2: silicon cost of the plan.
        n_samples: Monte Carlo sample count.
    """

    mttf_hours: float
    baseline_mttf_hours: float
    area_overhead_mm2: float
    n_samples: int

    @property
    def improvement(self) -> float:
        return self.mttf_hours / self.baseline_mttf_hours


def structure_lifetimes(
    account: FitAccount,
    distribution: LifetimeDistribution,
    rng: np.random.Generator,
    n_samples: int,
) -> dict[str, np.ndarray]:
    """Sampled lifetimes per structure.

    A structure fails when its first mechanism does: per sample, the
    minimum over the structure's mechanism lifetimes (each drawn with its
    RAMP-calibrated mean).  Structures with zero total FIT are excluded
    (they cannot fail).

    Raises:
        ReliabilityError: if no structure can fail.
    """
    per_structure: dict[str, np.ndarray] = {}
    for (mech, struct), fit in account.entries.items():
        if fit <= 0.0:
            continue
        draws = distribution.sample(rng, 1.0e9 / fit, n_samples)
        if struct in per_structure:
            np.minimum(per_structure[struct], draws, out=per_structure[struct])
        else:
            per_structure[struct] = draws
    if not per_structure:
        raise ReliabilityError("no failing structures in the account")
    return per_structure


def evaluate_duplication(
    account: FitAccount,
    plan: RedundancyPlan,
    distribution: LifetimeDistribution | None = None,
    n_samples: int = 20_000,
    seed: int = 0,
) -> RedundancyResult:
    """System MTTF with cold spares on the planned structures.

    A spared structure's lifetime is the sum of two independent draws:
    the spare is unpowered (accumulating no wear) until the primary
    fails, then ages from fresh — the cold-spare idealisation of the
    follow-up paper.

    Raises:
        ReliabilityError: if the plan names a structure absent from the
            account or sampling is infeasible.
    """
    if n_samples <= 0:
        raise ReliabilityError("need a positive sample count")
    distribution = distribution or LognormalLifetime(0.5)
    rng = np.random.default_rng(seed)
    lifetimes = structure_lifetimes(account, distribution, rng, n_samples)
    unknown = plan.spares - set(lifetimes)
    if unknown:
        raise ReliabilityError(f"plan spares unknown structures: {sorted(unknown)}")

    baseline = np.full(n_samples, np.inf)
    for draws in lifetimes.values():
        np.minimum(baseline, draws, out=baseline)

    system = np.full(n_samples, np.inf)
    for struct, draws in lifetimes.items():
        if struct in plan.spares:
            # Fresh, independent spare: same FIT field, new draws.
            spare_rng_draws = structure_lifetimes(
                _only_structure(account, struct), distribution, rng, n_samples
            )[struct]
            draws = draws + spare_rng_draws
        np.minimum(system, draws, out=system)

    return RedundancyResult(
        mttf_hours=float(system.mean()),
        baseline_mttf_hours=float(baseline.mean()),
        area_overhead_mm2=plan.area_overhead_mm2,
        n_samples=n_samples,
    )


def _only_structure(account: FitAccount, struct: str) -> FitAccount:
    return FitAccount(
        {k: v for k, v in account.entries.items() if k[1] == struct}
    )


@dataclass(frozen=True)
class DegradationResult:
    """Graceful-performance-degradation outcome.

    Attributes:
        mttf_hours: mean lifetime-to-total-failure with GPD.
        baseline_mttf_hours: series-system mean (first failure kills).
        mean_relative_performance: lifetime-average performance relative
            to the healthy machine (degraded epochs drag it below 1).
        n_samples: Monte Carlo sample count.
    """

    mttf_hours: float
    baseline_mttf_hours: float
    mean_relative_performance: float
    n_samples: int

    @property
    def improvement(self) -> float:
        return self.mttf_hours / self.baseline_mttf_hours


def evaluate_degradation(
    account: FitAccount,
    degradable: dict[str, float],
    distribution: LifetimeDistribution | None = None,
    n_samples: int = 20_000,
    seed: int = 0,
) -> DegradationResult:
    """System lifetime when degradable structures fail soft.

    Args:
        account: the RAMP FIT ledger.
        degradable: structure name -> relative performance of the machine
            after that structure's first failure (e.g. ``{"fpu": 0.9}``:
            losing FPU capacity costs 10%).  A degradable structure takes
            two failures to kill the system (its remaining capacity keeps
            working and keeps wearing); others kill on the first.

    Raises:
        ReliabilityError: on unknown structures or bad performance values.
    """
    if any(not 0.0 < p <= 1.0 for p in degradable.values()):
        raise ReliabilityError("degraded performance must be in (0, 1]")
    if n_samples <= 0:
        raise ReliabilityError("need a positive sample count")
    distribution = distribution or LognormalLifetime(0.5)
    rng = np.random.default_rng(seed)
    lifetimes = structure_lifetimes(account, distribution, rng, n_samples)
    unknown = set(degradable) - set(lifetimes)
    if unknown:
        raise ReliabilityError(f"degradable set has unknown structures: {sorted(unknown)}")

    baseline = np.full(n_samples, np.inf)
    for draws in lifetimes.values():
        np.minimum(baseline, draws, out=baseline)

    # Hard structures: first failure is fatal.
    hard = np.full(n_samples, np.inf)
    for struct, draws in lifetimes.items():
        if struct not in degradable:
            np.minimum(hard, draws, out=hard)

    # Degradable structures: first failure at t1 degrades, the remaining
    # capacity fails after a second (independent) lifetime.
    first_failures = {}
    second_failures = {}
    for struct in degradable:
        t1 = lifetimes[struct]
        extra = structure_lifetimes(
            _only_structure(account, struct), distribution, rng, n_samples
        )[struct]
        first_failures[struct] = t1
        second_failures[struct] = t1 + extra
    system = hard.copy()
    for struct in degradable:
        np.minimum(system, second_failures[struct], out=system)

    # Lifetime-average performance: full speed until the earliest
    # degradable first-failure (if it precedes death), degraded after.
    weighted_time = system.copy()
    for struct, rel_perf in degradable.items():
        degraded_start = np.minimum(first_failures[struct], system)
        degraded_span = system - degraded_start
        weighted_time -= degraded_span * (1.0 - rel_perf)
    mean_rel_perf = float((weighted_time / system).mean())

    return DegradationResult(
        mttf_hours=float(system.mean()),
        baseline_mttf_hours=float(baseline.mean()),
        mean_relative_performance=mean_rel_perf,
        n_samples=n_samples,
    )

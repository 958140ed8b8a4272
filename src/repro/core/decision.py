"""The unified management-decision API shared by every oracle.

All of the repo's management policies (DRM, DTM, intra-application DRM,
the joint reliability+thermal oracle) answer the same question — "which
candidate should this application run at, and did it satisfy the policy's
constraint?" — so they share one frozen, keyword-only base record:

- ``profile_name`` — the application the decision is for;
- ``performance`` — speedup vs the base non-adaptive processor;
- ``fit`` — the application FIT at the choice (``nan`` for policies that
  do not track wear-out, e.g. DTM);
- ``meets_target`` — whether the policy's constraint was satisfiable.

Subclasses add the policy-specific fields (chosen operating point,
qualification temperature, adaptation mode, ...).  Every oracle's
``best`` entry point is keyword-only with consistent parameter names
(``t_qual_k``, ``t_limit_k``, ``mode``); the deprecated positional call
forms (and the ``meets_limit`` alias) were removed after one release of
``DeprecationWarning``.

The oracles also share their plumbing through :class:`Oracle`: the
platform, the simulation cache, the DVS law, and one thread-safe memo
for derived state (base evaluations, p_qual, RAMP calibrations), so a
single oracle can serve many worker threads at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.config.dvs import DEFAULT_VF_CURVE, VoltageFrequencyCurve
from repro.config.microarch import BASE_MICROARCH
from repro.engine.store import MemoryTier
from repro.harness.platform import Platform, PlatformEvaluation
from repro.harness.sweep import SimulationCache
from repro.workloads.characteristics import WorkloadProfile


@dataclass(frozen=True, kw_only=True)
class Decision:
    """What an oracle chose for one application, policy-agnostically.

    Attributes:
        profile_name: the application the decision applies to.
        performance: speedup vs the base non-adaptive processor at
            nominal V/f (1.0 = parity).
        fit: the application FIT at the choice; ``nan`` when the policy
            does not evaluate wear-out (DTM).
        meets_target: whether the policy's constraint is satisfied
            (False only when even the most conservative candidate
            violates it and the oracle fell back).
    """

    profile_name: str
    performance: float
    fit: float = math.nan
    meets_target: bool


class Oracle:
    """The state every oracle shares (see the module docstring).

    Args:
        platform: the power/thermal platform (a default one if omitted).
        cache: cycle-level simulation cache (shared across benches).
        vf_curve: DVS law.
    """

    def __init__(
        self,
        platform: Platform | None = None,
        cache: SimulationCache | None = None,
        vf_curve: VoltageFrequencyCurve = DEFAULT_VF_CURVE,
    ) -> None:
        self.platform = platform or Platform(vf_curve=vf_curve)
        self.cache = cache or SimulationCache()
        self.vf_curve = vf_curve
        self._memo = MemoryTier()

    def base_evaluation(self, profile: WorkloadProfile) -> PlatformEvaluation:
        """The base non-adaptive processor at nominal V/f (memoised)."""
        return self._memo.get_or_compute(
            ("base", profile.name),
            lambda: self.platform.evaluate(
                self.cache.run(profile, BASE_MICROARCH), self.vf_curve.nominal
            ),
        )

"""Top-level simulator facade.

:class:`CycleSimulator` runs a whole workload (all of its phases) on one
microarchitectural configuration, keeping the caches and branch predictor
warm across phases — the synthetic analogue of the paper's long
continuous runs — and returns per-phase statistics that the harness feeds
to the power/thermal/RAMP stack as accounting intervals.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.microarch import BASE_MICROARCH, MicroarchConfig
from repro.cpu.branch import BimodalAgreePredictor
from repro.cpu.caches import MemoryHierarchy
from repro.cpu.pipeline import PipelineEngine
from repro.cpu.stats import SimulationStats
from repro.errors import SimulationError
from repro.workloads.characteristics import WorkloadProfile
from repro.workloads.generator import TraceGenerator, preload_hierarchy
from repro.workloads.phases import Phase, expand_phases
from repro.workloads.trace import Trace

#: Default instruction budget per workload run.  The paper simulates
#: 500 M instructions on native hardware; the synthetic streams reach
#: steady state orders of magnitude sooner (see DESIGN.md).
DEFAULT_INSTRUCTIONS = 24_000

#: Instructions run (and discarded) before the measured phases, so the
#: caches and predictor are warm — the analogue of the paper's
#: fast-forwarding past initialisation.
DEFAULT_WARMUP = 4_000


@dataclass(frozen=True)
class PhaseResult:
    """Statistics for one phase of a workload run.

    Attributes:
        phase: the phase that was simulated.
        stats: the cycle-level statistics for that phase.
    """

    phase: Phase
    stats: SimulationStats

    @property
    def weight(self) -> float:
        """The phase's share of the run (its time weight for RAMP)."""
        return self.phase.weight


@dataclass(frozen=True)
class WorkloadRun:
    """All phases of one workload on one configuration."""

    profile: WorkloadProfile
    config: MicroarchConfig
    phases: tuple[PhaseResult, ...]

    @property
    def ipc(self) -> float:
        """Whole-run IPC: total instructions over total cycles."""
        instructions = sum(p.stats.instructions for p in self.phases)
        cycles = sum(p.stats.cycles for p in self.phases)
        return instructions / cycles

    @property
    def instructions(self) -> int:
        return sum(p.stats.instructions for p in self.phases)

    @property
    def cycles(self) -> int:
        return sum(p.stats.cycles for p in self.phases)


class WorkloadPreparation:
    """What simulating one profile needs before any configuration matters.

    The static program, the preloaded memory hierarchy, and the warm-up
    and phase traces depend only on (profile, seed, instructions,
    warmup): :class:`MemoryHierarchy` has a fixed geometry, and the trace
    generator's cold cursor advances the same way whatever machine later
    runs the traces.  One preparation can therefore serve every
    configuration of a profile; :meth:`SimulationCache.run_many
    <repro.harness.sweep.SimulationCache.run_many>` makes one per profile
    per call and drops it when the call returns.

    It is built by the first run that uses it, so a call whose runs are
    all cached prepares nothing.  Each run gets its own copy of the
    preloaded hierarchy (the warm-up leaves behind state that depends on
    the configuration); the last of ``uses`` runs gets the original.

    Args:
        profile / instructions / warmup / seed: as for
            :class:`CycleSimulator`, which checks that they match.
        uses: how many runs will draw on this preparation.
    """

    def __init__(
        self,
        profile: WorkloadProfile,
        instructions: int = DEFAULT_INSTRUCTIONS,
        warmup: int = DEFAULT_WARMUP,
        seed: int = 42,
        uses: int = 1,
    ) -> None:
        self.profile = profile
        self.instructions = instructions
        self.warmup = warmup
        self.seed = seed
        self._uses_left = uses
        self._hierarchy: MemoryHierarchy | None = None
        self._warm_trace: Trace | None = None
        self._phase_traces: tuple[tuple[Phase, Trace], ...] = ()

    def _build(self) -> None:
        profile = self.profile
        generator = TraceGenerator(profile, seed=self.seed)
        # Reach steady state the way the paper's fast-forward does: preload
        # the working sets (each run then adds a short pipeline warm-up for
        # LRU and predictor state).
        self._hierarchy = MemoryHierarchy()
        preload_hierarchy(self._hierarchy, generator)
        if self.warmup:
            self._warm_trace = generator.phase_trace(profile.phases[0], self.warmup)
        self._phase_traces = tuple(
            (phase, generator.phase_trace(phase, count))
            for phase, count in expand_phases(profile.phases, self.instructions)
        )

    def checkout(self) -> tuple[MemoryHierarchy, Trace | None, tuple[tuple[Phase, Trace], ...]]:
        """One run's share: (preloaded hierarchy, warm-up trace, phase traces).

        Raises:
            SimulationError: if all ``uses`` runs have had theirs.
        """
        if self._uses_left <= 0:
            raise SimulationError("workload preparation already used up")
        if self._hierarchy is None:
            self._build()
        self._uses_left -= 1
        hierarchy = self._hierarchy
        if self._uses_left:
            hierarchy = hierarchy.copy()
        else:
            self._hierarchy = None
        return hierarchy, self._warm_trace, self._phase_traces


class CycleSimulator:
    """Runs workload profiles through the cycle-level pipeline.

    Args:
        config: microarchitecture to simulate (defaults to Table 1 base).
        instructions: measured instruction budget across all phases.
        warmup: instructions simulated and discarded before measurement.
        seed: trace-generation seed (results are deterministic in it).
    """

    def __init__(
        self,
        config: MicroarchConfig = BASE_MICROARCH,
        instructions: int = DEFAULT_INSTRUCTIONS,
        warmup: int = DEFAULT_WARMUP,
        seed: int = 42,
    ) -> None:
        if instructions <= 0:
            raise SimulationError("instruction budget must be positive")
        if warmup < 0:
            raise SimulationError("warmup must be non-negative")
        self.config = config
        self.instructions = instructions
        self.warmup = warmup
        self.seed = seed

    def run(
        self, profile: WorkloadProfile, preparation: WorkloadPreparation | None = None
    ) -> WorkloadRun:
        """Simulate every phase of ``profile`` and return the results.

        The memory hierarchy and branch predictor persist across warmup
        and all phases, so later phases see realistically warm state.
        ``preparation`` shares the configuration-independent set-up with
        other runs of the same profile; the results are bit-identical
        either way.

        Raises:
            SimulationError: if ``preparation`` was made for another
                profile, budget or seed.
        """
        if preparation is None:
            preparation = WorkloadPreparation(
                profile, self.instructions, self.warmup, self.seed
            )
        elif (preparation.profile, preparation.instructions, preparation.warmup,
              preparation.seed) != (profile, self.instructions, self.warmup, self.seed):
            raise SimulationError(
                f"preparation for {preparation.profile.name!r} does not match this run"
            )
        hierarchy, warm_trace, phase_traces = preparation.checkout()
        predictor = BimodalAgreePredictor(self.config.bpred_bytes)
        if warm_trace is not None:
            PipelineEngine(warm_trace, self.config, hierarchy, predictor).run()
        results = tuple(
            PhaseResult(
                phase=phase,
                stats=PipelineEngine(trace, self.config, hierarchy, predictor).run(),
            )
            for phase, trace in phase_traces
        )
        return WorkloadRun(profile=profile, config=self.config, phases=results)


def simulate_trace(
    trace: Trace, config: MicroarchConfig = BASE_MICROARCH
) -> SimulationStats:
    """Run a single prepared trace on a cold machine (unit-test helper)."""
    return PipelineEngine(trace, config).run()


def simulate_with_timeline(trace: Trace, config: MicroarchConfig = BASE_MICROARCH):
    """Run a trace recording per-instruction cycle stamps.

    Returns (stats, :class:`~repro.cpu.timeline.Timeline`) — the debug
    view behind the text pipeline viewer.
    """
    engine = PipelineEngine(trace, config, record_timeline=True)
    stats = engine.run()
    return stats, engine.timeline()

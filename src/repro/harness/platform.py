"""The evaluable platform: CPU stats -> power -> temperature -> intervals.

A :class:`Platform` takes a cycle-level :class:`~repro.cpu.simulator.WorkloadRun`
(simulated once, at the base clock) and evaluates what happens when that
workload executes at an arbitrary DVS operating point:

1. per-phase performance is rescaled with the analytical
   :class:`~repro.cpu.analytical.FrequencyScalingModel` (off-chip latency
   is fixed in nanoseconds);
2. per-phase activity factors are rescaled by the IPC ratio (activity is
   events per cycle, so it tracks IPC);
3. power and temperature are solved as a fixed point per phase (leakage
   depends on temperature and vice versa), with the heat sink initialised
   by the paper's two-pass methodology;
4. the result is a list of :class:`Interval` records — exactly the
   (T, V, f, p) samples RAMP's time-averaged FIT accounting consumes.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass
from typing import Sequence

from repro.config.dvs import OperatingPoint, VoltageFrequencyCurve, DEFAULT_VF_CURVE
from repro.config.microarch import MicroarchConfig
from repro.config.technology import (
    STRUCTURE_NAMES,
    TechnologyParameters,
    DEFAULT_TECHNOLOGY,
)
from repro.cpu.analytical import FrequencyScalingModel
from repro.cpu.simulator import WorkloadRun
from repro.engine.store import MemoryTier
from repro.errors import ThermalError
from repro.kernels.batch import (
    BatchEvaluation,
    BatchKernel,
    Candidate,
    MAX_FIXED_POINT_ITERS,
    TEMP_TOLERANCE_K,
)
from repro.power.model import PowerBreakdown, PowerModel
from repro.thermal.floorplan import build_default_floorplan
from repro.thermal.heatsink import TwoPassThermalModel
from repro.thermal.rc_network import (
    DEFAULT_THERMAL_PARAMETERS,
    ThermalParameters,
    ThermalRCNetwork,
)

#: Convergence tolerance and iteration budget for the scalar reference
#: path — shared with the batched kernel so the two never drift.
_TEMP_TOLERANCE_K = TEMP_TOLERANCE_K
_MAX_FIXED_POINT_ITERS = MAX_FIXED_POINT_ITERS


@dataclass(frozen=True)
class Interval:
    """One RAMP accounting interval (the analogue of the paper's 1 s samples).

    Attributes:
        weight: fraction of run time spent in this interval.
        temperatures: per-structure temperature (K).
        activity: per-structure activity factor at this operating point.
        power: the power breakdown that produced the temperatures.
        op: voltage/frequency operating point.
        config: microarchitectural configuration.
    """

    weight: float
    temperatures: dict[str, float]
    activity: dict[str, float]
    power: PowerBreakdown
    op: OperatingPoint
    config: MicroarchConfig


@dataclass(frozen=True)
class PlatformEvaluation:
    """Everything the reliability and management layers need from one run.

    Attributes:
        intervals: per-phase conditions, time-weighted.
        sink_temperature_k: the converged heat-sink temperature.
        ips: absolute performance (instructions per second).
        avg_power_w: time-weighted average total power.
        peak_temperature_k: hottest structure temperature in any interval.
    """

    intervals: tuple[Interval, ...]
    sink_temperature_k: float
    ips: float
    avg_power_w: float

    @property
    def peak_temperature_k(self) -> float:
        return max(max(i.temperatures.values()) for i in self.intervals)

    @property
    def avg_temperature_by_structure(self) -> dict[str, float]:
        """Time-weighted average temperature per structure (drives the
        thermal-cycling FIT, which depends on the average cycle depth)."""
        avg = {name: 0.0 for name in STRUCTURE_NAMES}
        for interval in self.intervals:
            for name in STRUCTURE_NAMES:
                avg[name] += interval.temperatures[name] * interval.weight
        return avg


class Platform:
    """CPU + power + thermal wired together.

    Args:
        technology: process parameters (Table 1 defaults).
        thermal_params: package-stack parameters.
        vf_curve: the DVS voltage/frequency law.
        power_scale: global dynamic-power-density multiplier (the
            technology-scaling study's knob; 1.0 = calibrated 65 nm).
    """

    def __init__(
        self,
        technology: TechnologyParameters = DEFAULT_TECHNOLOGY,
        thermal_params: ThermalParameters = DEFAULT_THERMAL_PARAMETERS,
        vf_curve: VoltageFrequencyCurve = DEFAULT_VF_CURVE,
        power_scale: float = 1.0,
    ) -> None:
        self.technology = technology
        self.vf_curve = vf_curve
        self.power_scale = power_scale
        self.power_model = PowerModel(technology, dynamic_scale=power_scale)
        self.floorplan = build_default_floorplan(technology)
        self.network = ThermalRCNetwork(self.floorplan, thermal_params)
        self.thermal = TwoPassThermalModel(self.network)
        self._kernel: BatchKernel | None = None
        self._kernel_lock = threading.Lock()
        #: The :meth:`evaluate_batch` memo (see
        #: :meth:`enable_evaluation_memo`); ``None`` while disabled.
        self.evaluation_memo: MemoryTier | None = None

    def fingerprint(self) -> dict:
        """Canonical JSON-ready description of the platform's physics.

        Everything that can change an evaluation's numbers is included:
        technology constants, package-stack parameters, the DVS law, and
        the dynamic-power scale.  The job engine hashes this into the
        cache keys of power/thermal-dependent jobs, so cached decisions
        are invalidated when the modelled hardware changes.
        """
        return {
            "technology": asdict(self.technology),
            "thermal": asdict(self.network.params),
            "vf_curve": asdict(self.vf_curve),
            "power_scale": self.power_scale,
        }

    # ------------------------------------------------------------------

    @property
    def kernel(self) -> BatchKernel:
        """The batched evaluation kernel bound to this platform's physics.

        Built lazily and reused for every grid: the thermal topology, the
        Cholesky factor, and the structure-to-node permutation are all
        candidate-independent.
        """
        # Double-checked: service worker threads share one Platform, and
        # two of them racing the lazy build would each construct a
        # kernel with only one surviving — wasted Cholesky work and a
        # torn read on CPython-without-GIL.  The fast path stays
        # lock-free once built.
        if self._kernel is None:
            with self._kernel_lock:
                if self._kernel is None:
                    self._kernel = BatchKernel(
                        self.power_model, self.network, self.thermal.solver
                    )
        return self._kernel

    # ---- evaluation memo ----------------------------------------------

    def enable_evaluation_memo(self, capacity: int = 256) -> None:
        """Memoise :meth:`evaluate_batch` results in a memory tier.

        Off by default (sweeps stream millions of one-shot grids through
        the kernel; caching them would only burn memory).  The decision
        service turns it on so concurrent requests that differ only in
        their reliability knob (e.g. two DRM queries for the same
        application at different ``t_qual_k``) share one grid
        evaluation: the candidate tensors, fixed point, and thermal
        solve run once, and each request applies its own RAMP model to
        the shared :class:`~repro.kernels.batch.BatchEvaluation`.

        Entries are keyed on ``(id(run), schedules, max_iters,
        salvage)``.  Keying on ``id`` is sound because every cached
        evaluation holds a strong reference to its run (``batch.run``),
        so the id cannot be recycled while the entry lives.
        """
        self.evaluation_memo = MemoryTier(capacity)

    def evaluate_batch(
        self,
        run: WorkloadRun,
        candidates: Sequence[Candidate],
        *,
        max_iters: int = MAX_FIXED_POINT_ITERS,
        salvage: bool = True,
    ) -> BatchEvaluation:
        """Evaluate a whole candidate grid against one run in one call.

        This is the **primary evaluation API**: every per-structure
        quantity is computed as a ``(candidates, phases, structures)``
        tensor and the leakage/temperature fixed point iterates over the
        entire grid simultaneously with per-row convergence masking.  The
        oracles (DRM, DTM, intra-application, joint) all route through
        it; :meth:`evaluate` and :meth:`evaluate_mixed` are single-row
        convenience wrappers.

        Args:
            run: one simulated workload (a single microarchitecture).
            candidates: a sequence of operating points (each applied
                uniformly to every phase) and/or per-phase schedules.
            max_iters: fixed-point iteration budget.
            salvage: repair unconverged / non-finite candidates per row
                (clean re-run, then extended budget, then masked with a
                :class:`~repro.errors.DegradedResultWarning`) instead of
                failing the whole grid; the returned evaluation's
                ``salvage`` report records what happened.

        Raises:
            ValueError: for an empty grid, a run without phases, a
                schedule of the wrong length, or non-positive durations.
            InputValidationError: if the run carries non-finite activity
                factors — named by structure and phase instead of
                propagating silently into powers and FIT sums.
            ThermalError: with ``salvage=False``, if any candidate's
                fixed point fails to converge — the message names the
                offending rows.
        """
        memo = self.evaluation_memo
        if memo is None:
            return self.kernel.evaluate(run, candidates, max_iters, salvage=salvage)
        schedules = self.kernel._normalise(run, candidates)
        return memo.get_or_compute(
            (id(run), schedules, max_iters, salvage),
            lambda: self.kernel.evaluate(run, schedules, max_iters, salvage=salvage),
        )

    def evaluate(self, run: WorkloadRun, op: OperatingPoint) -> PlatformEvaluation:
        """Evaluate a run at one operating point.

        Convenience wrapper over :meth:`evaluate_batch` with a
        single-candidate grid.
        """
        return self.evaluate_batch(run, [op]).evaluation(0)

    def evaluate_mixed(
        self, run: WorkloadRun, ops: Sequence[OperatingPoint]
    ) -> PlatformEvaluation:
        """Evaluate a run with a per-phase operating point.

        This is the substrate for intra-application DRM: each phase may
        run at its own DVS point; phase durations (hence RAMP interval
        weights) follow from each phase's own frequency, and the heat
        sink settles to the schedule's time-weighted average power.
        Convenience wrapper over :meth:`evaluate_batch` with a
        single-schedule grid.

        Raises:
            ThermalError: if the fixed point fails to converge.
            ValueError: if ``ops`` does not match the phase count, the
                run has no phases, or any phase duration is non-positive.
        """
        return self.evaluate_batch(run, [tuple(ops)]).evaluation(0)

    def _evaluate_mixed_reference(
        self, run: WorkloadRun, ops: Sequence[OperatingPoint]
    ) -> PlatformEvaluation:
        """The original scalar (dict-walking) evaluation path.

        Kept as the ground truth the batched kernel is verified against
        (equivalence tests) and as the baseline the kernel benchmark
        times; production code routes through :meth:`evaluate_batch`.

        Raises:
            ThermalError: if the fixed point fails to converge.
            ValueError: if ``ops`` does not match the phase count, the
                run has no phases, or any phase duration is non-positive.
        """
        if not run.phases:
            raise ValueError(
                f"run of {run.profile.name!r} has no phases to evaluate"
            )
        if len(ops) != len(run.phases):
            raise ValueError(
                f"need one operating point per phase "
                f"({len(run.phases)}), got {len(ops)}"
            )
        f_base = self.technology.frequency_nominal_hz
        phases = []
        total_time = 0.0
        total_instr = 0
        for pr, op in zip(run.phases, ops):
            fsm = FrequencyScalingModel.from_stats(pr.stats, f_base)
            ipc_scale = fsm.ipc_at(op.frequency_hz) / fsm.ipc_at(f_base)
            activity = {
                name: min(1.0, a * ipc_scale)
                for name, a in pr.stats.activity.items()
            }
            time_s = pr.stats.instructions / fsm.ips_at(op.frequency_hz)
            phases.append((activity, time_s))
            total_time += time_s
            total_instr += pr.stats.instructions
        if any(t <= 0.0 for _, t in phases):
            raise ValueError("every phase must have a positive duration")
        if total_time <= 0.0:
            raise ValueError("total run time must be positive")
        weights = [t / total_time for _, t in phases]

        temps, sink, powers = self._solve_thermal_fixed_point(
            [a for a, _ in phases], weights, run.config, ops
        )
        intervals = tuple(
            Interval(
                weight=w,
                temperatures=t,
                activity=a,
                power=p,
                op=op,
                config=run.config,
            )
            for (a, _), w, t, p, op in zip(phases, weights, temps, powers, ops)
        )
        avg_power = sum(p.total_w * w for p, w in zip(powers, weights))
        return PlatformEvaluation(
            intervals=intervals,
            sink_temperature_k=sink,
            ips=total_instr / total_time,
            avg_power_w=avg_power,
        )

    # ------------------------------------------------------------------

    def _solve_thermal_fixed_point(
        self,
        activities: list[dict[str, float]],
        weights: list[float],
        config: MicroarchConfig,
        ops: list[OperatingPoint],
    ) -> tuple[list[dict[str, float]], float, list[PowerBreakdown]]:
        """Iterate leakage(T) <-> T(power) to convergence.

        Returns (per-phase temperatures, sink temperature, per-phase
        power breakdowns).

        Raises:
            ThermalError: if the fixed point fails to converge.
        """
        guess = self.network.params.ambient_k + 40.0
        temps = [
            {name: guess for name in STRUCTURE_NAMES} for _ in activities
        ]
        sink = self.network.params.ambient_k
        for _ in range(_MAX_FIXED_POINT_ITERS):
            powers = [
                self.power_model.evaluate(a, config, op, t)
                for a, t, op in zip(activities, temps, ops)
            ]
            phase_powers = [
                (p.totals(), w) for p, w in zip(powers, weights)
            ]
            sink = self.thermal.sink_temperature(phase_powers)
            new_temps = [
                self.thermal.solver.solve_with_fixed_sink(p, sink)
                for p, _ in phase_powers
            ]
            delta = max(
                abs(new_temps[i][name] - temps[i][name])
                for i in range(len(temps))
                for name in STRUCTURE_NAMES
            )
            temps = new_temps
            if delta < _TEMP_TOLERANCE_K:
                return temps, sink, powers
        raise ThermalError(
            "leakage/temperature fixed point did not converge "
            f"(last delta {delta:.3f} K)"
        )

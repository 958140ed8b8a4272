"""Per-application statistical profiles and their Table 2 targets.

Each of the paper's nine applications is described by a
:class:`WorkloadProfile`: the parameters a
:class:`~repro.workloads.generator.TraceGenerator` needs to synthesise a
dynamic instruction stream whose behaviour on the base processor lands in
the right region of the IPC/power spectrum (Table 2), plus a phase list
that provides the temporal variation RAMP's interval accounting consumes.

The knobs and what they control:

- ``mix``: op-class probabilities (media codecs are ALU/FP heavy with
  regular loads; twolf/art are pointer-chasing / cache-hostile).
- ``dep_distance_mean``: mean register-dependency distance.  Larger means
  more instruction-level parallelism and higher IPC.
- ``branch``: number of hot static branches and their bias; biased
  branches are what a bimodal predictor captures well.
- ``memory``: working-set model — probability that a memory access falls
  in an L1-resident hot set, an L2-resident warm set, or the cold
  (memory-resident) remainder, plus the set sizes in cache blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import WorkloadError
from repro.workloads.trace import OpClass
from repro.workloads.phases import Phase


@dataclass(frozen=True)
class BranchBehavior:
    """Branch-stream parameters.

    Attributes:
        n_static: number of hot static branches in the synthetic program.
        bias: probability that a static branch is strongly biased (taken
            ~95% or ~5% of the time).  Unbiased branches flip a fair coin,
            which a bimodal predictor cannot learn; ``bias`` therefore
            controls the emergent misprediction rate.
        taken_fraction: long-run fraction of branches that are taken
            (affects fetch redirects and I-cache behaviour).
    """

    n_static: int = 64
    # repro: ignore[RPR005] branch-predictor bias probability; the
    # collision with Ea = 0.9 eV is numerical coincidence.
    bias: float = 0.9
    taken_fraction: float = 0.55

    def __post_init__(self) -> None:
        if self.n_static <= 0:
            raise WorkloadError("n_static must be positive")
        if not 0.0 <= self.bias <= 1.0:
            raise WorkloadError("bias must be in [0, 1]")
        if not 0.0 <= self.taken_fraction <= 1.0:
            raise WorkloadError("taken_fraction must be in [0, 1]")


@dataclass(frozen=True)
class MemoryBehavior:
    """Data-memory working-set parameters.

    Addresses are generated at cache-block (64 B) granularity from three
    nested sets: a hot set sized to fit in L1D, a warm set sized to fit in
    L2, and a cold stream that always misses.  The probabilities control
    the emergent L1/L2 miss rates.

    Attributes:
        p_hot: probability an access falls in the L1-resident hot set.
        p_warm: probability it falls in the L2-resident warm set.
        hot_blocks: number of distinct blocks in the hot set.
        warm_blocks: number of distinct blocks in the warm set.
        stride_fraction: fraction of hot-set accesses that walk
            sequentially (streaming media style) instead of uniformly.
    """

    # repro: ignore[RPR005] hot-set residency probability; the
    # collision with Ea = 0.9 eV is numerical coincidence.
    p_hot: float = 0.90
    p_warm: float = 0.08
    hot_blocks: int = 512
    warm_blocks: int = 8192
    stride_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_hot <= 1.0 or not 0.0 <= self.p_warm <= 1.0:
            raise WorkloadError("set probabilities must be in [0, 1]")
        if self.p_hot + self.p_warm > 1.0 + 1e-12:
            raise WorkloadError("p_hot + p_warm must not exceed 1")
        if self.hot_blocks <= 0 or self.warm_blocks <= 0:
            raise WorkloadError("working-set sizes must be positive")
        if not 0.0 <= self.stride_fraction <= 1.0:
            raise WorkloadError("stride_fraction must be in [0, 1]")

    @property
    def p_cold(self) -> float:
        """Probability an access goes to the cold (always-miss) stream."""
        return max(0.0, 1.0 - self.p_hot - self.p_warm)


@dataclass(frozen=True)
class WorkloadProfile:
    """Everything needed to synthesise one application's dynamic stream.

    Attributes:
        name: application name (Table 2).
        category: ``"media"``, ``"specint"``, or ``"specfp"``.
        mix: op-class probability for each :class:`OpClass`; must sum to 1.
        dep_distance_mean: mean register-dependency distance (geometric).
        branch: branch-stream parameters.
        memory: working-set parameters.
        code_blocks: size of the instruction working set in I-cache blocks
            (drives the L1I miss rate).
        phases: temporal phase structure; weights must sum to 1.
        table2_ipc: the paper's measured base-processor IPC (target).
        table2_power_w: the paper's measured base power in watts (target).
    """

    name: str
    category: str
    mix: dict[OpClass, float]
    dep_distance_mean: float
    branch: BranchBehavior
    memory: MemoryBehavior
    code_blocks: int
    phases: tuple[Phase, ...]
    table2_ipc: float
    table2_power_w: float

    def __post_init__(self) -> None:
        if self.category not in ("media", "specint", "specfp"):
            raise WorkloadError(f"unknown category {self.category!r}")
        total = sum(self.mix.values())
        if abs(total - 1.0) > 1e-9:
            raise WorkloadError(f"{self.name}: mix sums to {total}, not 1")
        if any(p < 0.0 for p in self.mix.values()):
            raise WorkloadError(f"{self.name}: mix has negative probability")
        if self.dep_distance_mean < 1.0:
            raise WorkloadError("dep_distance_mean must be >= 1")
        if self.code_blocks <= 0:
            raise WorkloadError("code_blocks must be positive")
        if not self.phases:
            raise WorkloadError("profile needs at least one phase")
        weight = sum(p.weight for p in self.phases)
        if abs(weight - 1.0) > 1e-9:
            raise WorkloadError(f"{self.name}: phase weights sum to {weight}")


def make_mix(
    ialu: float = 0.0,
    imul: float = 0.0,
    idiv: float = 0.0,
    fadd: float = 0.0,
    fmul: float = 0.0,
    fdiv: float = 0.0,
    load: float = 0.0,
    store: float = 0.0,
    branch: float = 0.0,
) -> dict[OpClass, float]:
    """Build an op-class mix dict; the values must sum to 1."""
    return {
        OpClass.IALU: ialu,
        OpClass.IMUL: imul,
        OpClass.IDIV: idiv,
        OpClass.FADD: fadd,
        OpClass.FMUL: fmul,
        OpClass.FDIV: fdiv,
        OpClass.LOAD: load,
        OpClass.STORE: store,
        OpClass.BRANCH: branch,
        # CALL/RETURN are structural: the program builder carves them out
        # of the branch budget, so profiles never specify them directly.
        OpClass.CALL: 0.0,
        OpClass.RETURN: 0.0,
    }

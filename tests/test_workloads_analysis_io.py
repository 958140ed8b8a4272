"""Trace-generator checks through reuse-distance and branch statistics.

The synthetic traces must honour their profiles: the hot data set of a
media application fits in its nominal L1D capacity, its branches are
strongly biased, and a hostile integer profile's branches are harder to
predict.  The statistics these checks read — the LRU stack-distance
profile of the data stream and the per-pc branch-bias entropy — are
defined here, with tests of their own.
"""

import math
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads.generator import TraceGenerator
from repro.workloads.suite import workload_by_name
from repro.workloads.trace import MEM_OPS, Instruction, OpClass, Trace

MPG = workload_by_name("MPGdec")
TWOLF = workload_by_name("twolf")


@dataclass(frozen=True)
class BranchStats:
    """Branch-stream characterisation.

    Attributes:
        dynamic_branches: conditional-branch instances in the trace.
        static_branches: distinct conditional-branch pcs.
        taken_fraction: fraction of dynamic branches taken.
        mean_bias_entropy: mean per-pc Bernoulli entropy (bits); 0 for
            perfectly biased streams, 1 for coin flips — a direct
            predictor-difficulty metric.
    """

    dynamic_branches: int
    static_branches: int
    taken_fraction: float
    mean_bias_entropy: float


def stack_distance_profile(trace: Trace, max_blocks: int = 1 << 16) -> Counter:
    """LRU stack distances of the data-access block stream.

    Returns a Counter mapping stack distance to occurrences; first-touch
    accesses are recorded under the key ``-1``.  The miss rate of a fully
    associative LRU cache of capacity C is the mass at distances >= C
    plus the first-touch mass, divided by total accesses.
    """
    distances: Counter = Counter()
    stack: list[int] = []
    resident: set[int] = set()
    mem = np.isin(trace.op, [int(o) for o in MEM_OPS])
    blocks = (trace.addr[mem] // 64).tolist()
    for block in blocks:
        if block in resident:
            # Distance = number of distinct blocks touched since last use.
            idx = stack.index(block)
            distances[len(stack) - 1 - idx] += 1
            stack.pop(idx)
        else:
            distances[-1] += 1
            resident.add(block)
            if len(stack) >= max_blocks:
                evicted = stack.pop(0)
                resident.discard(evicted)
        stack.append(block)
    return distances


def miss_rate_for_capacity(
    distances: Counter, capacity_blocks: int, include_first_touch: bool = True
) -> float:
    """Fully associative LRU miss rate implied by a stack-distance profile.

    Args:
        distances: profile from :func:`stack_distance_profile`.
        capacity_blocks: cache capacity in blocks.
        include_first_touch: count compulsory (first-touch) misses.  Pass
            False for the steady-state (reuse-only) miss rate — the right
            view for short standalone traces, where compulsory mass
            dominates but a long-running program would have amortised it.

    Raises:
        WorkloadError: if the profile is empty or capacity is not positive.
    """
    if capacity_blocks <= 0:
        raise WorkloadError("capacity must be positive")
    first_touch = distances[-1]
    reuses = sum(v for d, v in distances.items() if d >= 0)
    capacity_misses = sum(
        count for d, count in distances.items() if d >= capacity_blocks
    )
    if include_first_touch:
        total = reuses + first_touch
        misses = capacity_misses + first_touch
    else:
        total = reuses
        misses = capacity_misses
    if total == 0:
        raise WorkloadError("empty stack-distance profile")
    return misses / total


def branch_stats(trace: Trace) -> BranchStats:
    """Characterise the conditional-branch stream.

    Raises:
        WorkloadError: if the trace contains no conditional branches.
    """
    is_branch = trace.op == int(OpClass.BRANCH)
    n = int(is_branch.sum())
    if n == 0:
        raise WorkloadError("trace has no conditional branches")
    pcs = trace.pc[is_branch]
    outcomes = trace.taken[is_branch]
    per_pc: dict[int, list[int]] = defaultdict(lambda: [0, 0])
    for pc, taken in zip(pcs.tolist(), outcomes.tolist()):
        per_pc[pc][1 if taken else 0] += 1
    entropies = []
    for not_taken, taken in per_pc.values():
        total = not_taken + taken
        p = taken / total
        if p in (0.0, 1.0):
            entropies.append(0.0)
        else:
            entropies.append(-p * math.log2(p) - (1 - p) * math.log2(1 - p))
    return BranchStats(
        dynamic_branches=n,
        static_branches=len(per_pc),
        taken_fraction=float(outcomes.mean()),
        mean_bias_entropy=float(np.mean(entropies)),
    )


@pytest.fixture(scope="module")
def mpg_trace():
    return TraceGenerator(MPG, seed=2).phase_trace(MPG.phases[0], 6000)


class TestInstructionMix:
    def test_sums_to_one(self, mpg_trace):
        assert sum(mpg_trace.mix().values()) == pytest.approx(1.0)

    def test_names_are_op_classes(self, mpg_trace):
        assert {op.name for op in mpg_trace.mix()} == {o.name for o in OpClass}


class TestDependencyAnalysis:
    def test_mean_matches_profile_scale(self, mpg_trace):
        mean = mpg_trace.dep1[mpg_trace.dep1 > 0].mean()
        assert 0.4 * MPG.dep_distance_mean < mean < 2.0 * MPG.dep_distance_mean


class TestStackDistance:
    def test_repeating_block_gives_zero_distances(self):
        instrs = [Instruction(op=OpClass.LOAD, addr=0x40, pc=0) for _ in range(10)]
        dist = stack_distance_profile(Trace.from_instructions(instrs))
        assert dist[-1] == 1  # one first touch
        assert dist[0] == 9

    def test_round_robin_distance(self):
        # A,B,C,A,B,C...: every reuse has distance 2.
        instrs = []
        for i in range(12):
            instrs.append(Instruction(op=OpClass.LOAD, addr=(i % 3) * 64, pc=0))
        dist = stack_distance_profile(Trace.from_instructions(instrs))
        assert dist[-1] == 3
        assert dist[2] == 9

    def test_miss_rate_monotone_in_capacity(self, mpg_trace):
        dist = stack_distance_profile(mpg_trace)
        rates = [miss_rate_for_capacity(dist, c) for c in (16, 128, 1024, 8192)]
        assert rates == sorted(rates, reverse=True)

    def test_miss_rate_bounds(self, mpg_trace):
        dist = stack_distance_profile(mpg_trace)
        rate = miss_rate_for_capacity(dist, 1024)
        assert 0.0 <= rate <= 1.0

    def test_hot_set_fits_in_its_nominal_capacity(self, mpg_trace):
        """Reuses of the profile's hot set should hit at L1D capacity
        (compulsory misses excluded: a long run amortises them)."""
        dist = stack_distance_profile(mpg_trace)
        assert miss_rate_for_capacity(dist, 1024, include_first_touch=False) < 0.1

    def test_first_touch_toggle(self, mpg_trace):
        dist = stack_distance_profile(mpg_trace)
        with_ft = miss_rate_for_capacity(dist, 1024)
        without_ft = miss_rate_for_capacity(dist, 1024, include_first_touch=False)
        assert with_ft > without_ft

    def test_invalid_capacity(self, mpg_trace):
        dist = stack_distance_profile(mpg_trace)
        with pytest.raises(WorkloadError):
            miss_rate_for_capacity(dist, 0)

    def test_empty_profile_rejected(self):
        with pytest.raises(WorkloadError):
            miss_rate_for_capacity(Counter(), 8)


class TestBranchStats:
    def test_stats_shape(self, mpg_trace):
        stats = branch_stats(mpg_trace)
        assert stats.dynamic_branches > 0
        assert 0 < stats.static_branches <= stats.dynamic_branches
        assert 0.0 <= stats.taken_fraction <= 1.0
        assert 0.0 <= stats.mean_bias_entropy <= 1.0

    def test_biased_profile_has_low_entropy(self, mpg_trace):
        # MPGdec's branches are 99% biased.
        assert branch_stats(mpg_trace).mean_bias_entropy < 0.35

    def test_hostile_profile_has_higher_entropy(self, mpg_trace):
        twolf_trace = TraceGenerator(TWOLF, seed=2).phase_trace(TWOLF.phases[0], 6000)
        assert (
            branch_stats(twolf_trace).mean_bias_entropy
            > branch_stats(mpg_trace).mean_bias_entropy
        )

    def test_branchless_trace_rejected(self):
        instrs = [Instruction(op=OpClass.IALU, pc=0) for _ in range(5)]
        with pytest.raises(WorkloadError):
            branch_stats(Trace.from_instructions(instrs))

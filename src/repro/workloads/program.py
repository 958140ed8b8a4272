"""Static-program model: basic blocks with fixed layout and branch bias.

Real programs re-execute the same basic blocks, which is what makes
pc-indexed hardware (the branch predictor, the I-cache, the return
address stack) effective.  A :class:`StaticProgram` is a synthetic
control-flow graph:

- ``n_blocks`` basic blocks laid out sequentially in the address space,
  each a fixed sequence of non-control ops ending in one control op;
- most blocks end in a conditional **BRANCH** with a fixed taken-target
  block and a fixed taken-probability drawn from the profile's bias model
  (strongly biased with probability ``bias``, else a coin flip);
- a fraction of blocks end in a **CALL** to a function block; function
  blocks end in a **RETURN** (or occasionally a further CALL to a later
  function block, giving nested call chains for the return address stack
  to track);
- not-taken falls through to the next block in layout order.

The dynamic instruction stream is a random walk over this graph with a
call stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.workloads.characteristics import WorkloadProfile
from repro.workloads.trace import OpClass

#: Fraction of the block population that are function bodies (end in
#: RETURN or a nested CALL).
FUNCTION_BLOCK_FRACTION = 0.10

#: Probability that a non-function block's terminator is a CALL rather
#: than a conditional branch.
CALL_TERMINATOR_FRACTION = 0.08

#: Probability that a function block chains a further CALL (to a later
#: function block) instead of returning immediately.
NESTED_CALL_FRACTION = 0.3


@dataclass(frozen=True)
class StaticProgram:
    """A synthetic program: blocks of ops with a control op at each end.

    Attributes:
        block_ops: per-block op-class arrays (each ends in a control op).
        block_pc: per-block pc arrays (4 bytes per instruction,
            sequential layout).
        terminator: per-block terminating op class (BRANCH/CALL/RETURN).
        p_taken: per-block taken probability (meaningful for BRANCH).
        target: per-block control target block id (BRANCH taken-target or
            CALL callee; unused for RETURN).
    """

    block_ops: tuple[np.ndarray, ...]
    block_pc: tuple[np.ndarray, ...]
    terminator: np.ndarray
    p_taken: np.ndarray
    target: np.ndarray

    @property
    def n_blocks(self) -> int:
        return len(self.block_ops)

    def footprint_bytes(self) -> int:
        """Total static code size in bytes."""
        return sum(len(ops) for ops in self.block_ops) * 4

    def first_function_block(self) -> int:
        """Index of the first function block (they occupy the id tail)."""
        n_fn = max(1, int(round(FUNCTION_BLOCK_FRACTION * self.n_blocks)))
        return self.n_blocks - n_fn


def build_static_program(
    profile: WorkloadProfile, rng: np.random.Generator
) -> StaticProgram:
    """Build the static program for a workload profile.

    The number of basic blocks is the profile's ``code_blocks``; mean
    block length is set by the branch fraction of the instruction mix
    (every block ends in exactly one control op), so the emergent dynamic
    mix matches the profile, with a small share of the control budget
    spent on CALL/RETURN pairs.

    Raises:
        WorkloadError: if the profile's mix contains no branches.
    """
    branch_frac = profile.mix.get(OpClass.BRANCH, 0.0)
    if branch_frac <= 0.0:
        raise WorkloadError(f"{profile.name}: mix needs a branch fraction")
    mean_len = 1.0 / branch_frac
    n_blocks = profile.code_blocks

    body_classes = np.array(
        [int(c) for c, p in profile.mix.items() if c != OpClass.BRANCH and p > 0],
        dtype=np.int8,
    )
    body_probs = np.array(
        [p for c, p in profile.mix.items() if c != OpClass.BRANCH and p > 0],
        dtype=float,
    )
    body_probs /= body_probs.sum()

    # Function blocks live at the top of the id space so nested calls
    # (always to a strictly larger id) terminate.
    n_fn = max(1, int(round(FUNCTION_BLOCK_FRACTION * n_blocks)))
    first_fn = n_blocks - n_fn
    if first_fn <= 0:
        raise WorkloadError("profile needs more code blocks than functions")

    terminator = np.full(n_blocks, int(OpClass.BRANCH), dtype=np.int8)
    target = np.zeros(n_blocks, dtype=np.int64)
    for i in range(n_blocks):
        if i >= first_fn:
            # Function body: chain a call to a later function, or return.
            if i + 1 < n_blocks and rng.random() < NESTED_CALL_FRACTION:
                terminator[i] = int(OpClass.CALL)
                target[i] = int(rng.integers(i + 1, n_blocks))
            else:
                terminator[i] = int(OpClass.RETURN)
        elif rng.random() < CALL_TERMINATOR_FRACTION:
            terminator[i] = int(OpClass.CALL)
            target[i] = int(rng.integers(first_fn, n_blocks))
        else:
            # Conditional branch: taken-targets stay out of the function
            # region so functions are only entered by CALL.
            target[i] = int(rng.integers(0, first_fn))

    # Block length: 1 control op + geometric body with the right mean.
    body_mean = max(mean_len - 1.0, 1.0)
    lengths = 1 + rng.geometric(1.0 / body_mean, size=n_blocks)
    block_ops = []
    block_pc = []
    base = 0
    for i, length in enumerate(lengths):
        ops = np.empty(length, dtype=np.int8)
        ops[:-1] = rng.choice(body_classes, size=length - 1, p=body_probs)
        ops[-1] = terminator[i]
        block_ops.append(ops)
        block_pc.append(base + 4 * np.arange(length, dtype=np.int64))
        base += 4 * int(length)

    b = profile.branch
    # Deterministic, evenly spread bias assignment: exactly the profile's
    # biased fraction, independent of RNG luck, so hot regions of the walk
    # carry a representative share of hard-to-predict branches.
    spread = (np.arange(n_blocks) * 2654435761 % 1000) / 1000.0
    biased = spread < b.bias
    toward_taken = rng.random(n_blocks) < b.taken_fraction
    p_taken = np.where(biased, np.where(toward_taken, 0.99, 0.01), 0.5)
    return StaticProgram(
        block_ops=tuple(block_ops),
        block_pc=tuple(block_pc),
        terminator=terminator,
        p_taken=p_taken,
        target=target,
    )

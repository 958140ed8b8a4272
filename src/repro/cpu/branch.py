"""Branch prediction: 2 KB bimodal-agree predictor and a 32-entry RAS.

Table 1 specifies a "2KB bimodal agree" predictor with a 32-entry return
address stack.  An agree predictor stores, per static branch, a bias bit
(set on first encounter) and predicts whether the dynamic outcome will
*agree* with that bias; the bimodal table holds 2-bit saturating
agree/disagree counters.  For strongly biased branches this behaves like
a plain bimodal predictor; for unbiased branches both mispredict about
half the time — which is exactly the behaviour the synthetic workload
model relies on.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

#: Counter value at and above which the predictor predicts "agree".
_AGREE_THRESHOLD = 2
_COUNTER_MAX = 3


class BimodalAgreePredictor:
    """2-bit saturating-counter agree predictor.

    A 2 KB budget holds 8192 two-bit counters (4 per byte).  The counter
    table is indexed by the branch pc (word-granular); a separate bias table
    of the same size holds the per-index bias bit, initialised from the
    first outcome seen at that index — the usual software stand-in for the
    compile-time bias hint of a real agree predictor.

    Args:
        size_bytes: predictor storage budget (counters only), default 2 KB.
    """

    def __init__(self, size_bytes: int = 2048) -> None:
        if size_bytes <= 0:
            raise ConfigurationError("predictor size must be positive")
        self.n_counters = size_bytes * 4
        if self.n_counters & (self.n_counters - 1):
            raise ConfigurationError("counter count must be a power of two")
        self._mask = self.n_counters - 1
        # One byte per entry in plain bytearrays: the pipeline updates the
        # predictor on every fetched branch, and indexing a bytearray
        # yields a Python int where a numpy array would box a scalar.
        # Counters start weakly-agree: biased branches predict well
        # immediately, which is what warmed-up hardware looks like.
        self._counters = bytearray([_AGREE_THRESHOLD]) * self.n_counters
        self._bias = bytearray(self.n_counters)
        self._bias_valid = bytearray(self.n_counters)
        self.lookups = 0
        self.mispredicts = 0

    @property
    def counters(self) -> np.ndarray:
        """The 2-bit agree counters (an int8 view, no copy)."""
        return np.frombuffer(self._counters, dtype=np.int8)

    def predict(self, pc: int) -> bool:
        """Predict the outcome of the branch at ``pc`` (True = taken)."""
        i = (pc >> 2) & self._mask
        if not self._bias_valid[i]:
            # Unseen branch: static not-taken prediction.
            return False
        agree = self._counters[i] >= _AGREE_THRESHOLD
        return bool(self._bias[i]) == agree

    def update(self, pc: int, taken: bool) -> bool:
        """Record the actual outcome; returns True if it was mispredicted.

        Also counts the lookup, so callers should invoke
        :meth:`predict` + :meth:`update` once per dynamic branch.
        """
        self.lookups += 1
        prediction = self.predict(pc)
        i = (pc >> 2) & self._mask
        taken = bool(taken)
        if not self._bias_valid[i]:
            self._bias[i] = taken
            self._bias_valid[i] = 1
        c = self._counters[i]
        if taken == bool(self._bias[i]):
            self._counters[i] = min(_COUNTER_MAX, c + 1)
        else:
            self._counters[i] = max(0, c - 1)
        mispredicted = prediction != taken
        if mispredicted:
            self.mispredicts += 1
        return mispredicted


class ReturnAddressStack:
    """A fixed-depth return-address stack (Table 1: 32 entries).

    Overflow wraps (oldest entry is overwritten); underflow returns None,
    signalling a RAS mispredict.  The synthetic traces contain CALL/RETURN
    pairs (the static program ends blocks with them); the pipeline pushes
    the return address on each CALL and pops it to predict the RETURN.
    """

    def __init__(self, depth: int = 32) -> None:
        if depth <= 0:
            raise ConfigurationError("RAS depth must be positive")
        self.depth = depth
        self._stack: list[int] = []

    def push(self, return_pc: int) -> None:
        """Push a return address, evicting the oldest on overflow."""
        self._stack.append(return_pc)
        if len(self._stack) > self.depth:
            self._stack.pop(0)

    def pop(self) -> int | None:
        """Pop the predicted return address, or None if empty."""
        if not self._stack:
            return None
        return self._stack.pop()

    def __len__(self) -> int:
        return len(self._stack)

"""The unified instruction window (issue queue + reorder buffer).

The paper's base machine has a centralized 128-entry window that acts as
both issue queue and ROB, with a separate physical register file.  DRM's
Arch adaptation shrinks the window (128 down to 16 entries), which is the
main lever on exploitable instruction-level parallelism.

The window holds trace indices: what the pipeline knows about an
in-flight instruction (completion cycle, off-chip access, ...) lives in
per-instruction lists indexed the same way.
"""

from __future__ import annotations

from collections import deque

from repro.errors import ConfigurationError


class InstructionWindow:
    """Program-ordered queue of in-flight instructions (trace indices).

    Args:
        capacity: number of entries (Table 1 base: 128).
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ConfigurationError("window capacity must be positive")
        self.capacity = capacity
        self.entries: deque[int] = deque()
        self.dispatches = 0
        self.issues = 0

    def __len__(self) -> int:
        return len(self.entries)

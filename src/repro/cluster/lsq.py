"""Unified load/store queue (LSQ).

Loads and stores reserve an LSQ slot at dispatch and keep it until they
commit (Section 2: "At dispatch time, loads and stores reserve a slot in LSQ
... Memory operations are stored in the LSQ, and remain there until they
access the data cache").  The LSQ is shared by all clusters, so it never
contributes to workload imbalance -- but it can stall dispatch when memory
operations back up behind long-latency misses, which is one of the dynamic
effects the compile-time workload estimates cannot see.

Memory disambiguation is not modelled (loads never wait for older stores);
the steering comparison is insensitive to it and the paper does not describe
a disambiguation policy.
"""

from __future__ import annotations


class LoadStoreQueue:
    """Occupancy tracking of the unified LSQ.

    Parameters
    ----------
    size:
        Number of entries (256 in Table 2).
    """

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError("LSQ size must be positive")
        self.size = int(size)
        self._occupancy = 0
        #: Total memory µops that ever allocated an entry (statistics).
        self.total_allocated = 0

    @property
    def free_entries(self) -> int:
        """Entries still available for dispatch."""
        return self.size - self._occupancy

    @property
    def is_full(self) -> bool:
        """True when a memory µop cannot be dispatched."""
        return self._occupancy >= self.size

    def allocate(self) -> bool:
        """Reserve a slot for a load/store; ``False`` when the queue is full."""
        if self.is_full:
            return False
        self._occupancy += 1
        self.total_allocated += 1
        return True

    def release(self) -> None:
        """Free a slot (when the memory µop commits)."""
        if self._occupancy <= 0:
            raise RuntimeError("releasing an empty LSQ")
        self._occupancy -= 1

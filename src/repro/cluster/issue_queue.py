"""Per-cluster issue queues with ready lists.

Every cluster has three issue queues (Table 2): a 48-entry integer queue
issuing 2 µops/cycle, a 48-entry floating-point queue issuing 2 µops/cycle
and a 24-entry copy queue issuing 1 copy/cycle.  Entries are allocated at
dispatch and freed at issue.

To keep the pure-Python simulation fast the queues are modelled as occupancy
counters plus per-queue *ready heaps* ordered by sequence number (oldest
first): only µops whose operands became ready are ever touched by the issue
stage, instead of scanning all 48 entries every cycle (see the event-driven
invariants in DESIGN.md -- work proportional to state changes, not to
structure sizes).

Loads compete for the shared L1 read ports, so each integer queue keeps its
ready loads on a *separate* heap: once the ports are saturated for a cycle,
:meth:`IssueQueues.pop_ready` simply stops consulting the load heap instead
of popping every remaining ready load only to requeue it -- O(issue width)
per cycle rather than O(ready list).  Selection order is unchanged (the two
heaps are merged by sequence number), so the fix is invisible to the metrics.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from repro.cluster.config import ClusterConfig
from repro.uops.opcodes import IssueQueueKind

#: Number of issue-queue kinds (INT / FP / COPY).
_NUM_KINDS = len(IssueQueueKind)


class IssueQueues:
    """Occupancy and ready-list management for all clusters of the machine.

    Internally every per-(cluster, kind) structure lives in a flat list
    indexed by ``cluster * 3 + kind`` -- the simulator touches these
    structures several times per µop, and flat-list indexing with an
    :class:`~enum.IntEnum` (or plain ``int``) kind is measurably cheaper
    than hashing ``(cluster, kind)`` tuples.
    """

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        self.num_clusters = config.num_clusters
        self._capacity: List[int] = [0] * _NUM_KINDS
        self._capacity[IssueQueueKind.INT] = config.iq_int_size
        self._capacity[IssueQueueKind.FP] = config.iq_fp_size
        self._capacity[IssueQueueKind.COPY] = config.iq_copy_size
        self._issue_width: List[int] = [0] * _NUM_KINDS
        self._issue_width[IssueQueueKind.INT] = config.issue_int_width
        self._issue_width[IssueQueueKind.FP] = config.issue_fp_width
        self._issue_width[IssueQueueKind.COPY] = config.issue_copy_width
        slots = self.num_clusters * _NUM_KINDS
        #: Allocated (dispatched, not yet issued) entries per (cluster, kind).
        self._occupancy: List[int] = [0] * slots
        #: Ready non-load µops per (cluster, kind), as (seq, record) heaps.
        self._ready: List[List[Tuple[int, object]]] = [[] for _ in range(slots)]
        #: Ready loads per (cluster, kind); only the INT queues ever use it.
        self._ready_loads: List[List[Tuple[int, object]]] = [[] for _ in range(slots)]
        #: Total ready µops across all queues (drives the idle-cycle skip).
        self.total_ready = 0

    # -- flat-state views (the vectorized kernel's borrow surface) -----------------
    def capacity_list(self) -> List[int]:
        """Per-kind queue capacities as a flat list indexed by kind (copy)."""
        return list(self._capacity)

    def issue_width_list(self) -> List[int]:
        """Per-kind issue widths as a flat list indexed by kind (copy)."""
        return list(self._issue_width)

    def occupancy_list(self) -> List[int]:
        """The *live* flat occupancy list, indexed ``cluster * 3 + kind``.

        The vectorized kernel borrows this list and mutates it in place, so
        occupancy stays consistent between the kernel's own bookkeeping and
        every :meth:`free_entries` query (including the steering context's)
        regardless of which kernel is running.
        """
        return self._occupancy

    def issue_width(self, kind: IssueQueueKind) -> int:
        """Issue bandwidth of a ``kind`` queue per cycle."""
        return self._issue_width[kind]

    def free_entries(self, cluster: int, kind: IssueQueueKind) -> int:
        """Free entries of the ``kind`` queue of ``cluster``."""
        return self._capacity[kind] - self._occupancy[cluster * _NUM_KINDS + kind]

    # -- dispatch/issue ---------------------------------------------------------------
    def allocate(self, cluster: int, kind: IssueQueueKind) -> bool:
        """Allocate one entry; return ``False`` (and allocate nothing) when full."""
        slot = cluster * _NUM_KINDS + kind
        if self._occupancy[slot] >= self._capacity[kind]:
            return False
        self._occupancy[slot] += 1
        return True

    def release(self, cluster: int, kind: IssueQueueKind) -> None:
        """Free one entry (at issue time)."""
        slot = cluster * _NUM_KINDS + kind
        if self._occupancy[slot] <= 0:
            raise RuntimeError(f"releasing an empty issue queue ({cluster}, {kind})")
        self._occupancy[slot] -= 1

    def push_ready(
        self, cluster: int, kind: IssueQueueKind, seq: int, record: object, is_load: bool = False
    ) -> None:
        """Add a µop whose operands are all ready to the ready list.

        ``is_load`` routes the record to the per-queue load heap so the issue
        stage can stop consulting loads once the L1 read ports are saturated.
        """
        slot = cluster * _NUM_KINDS + kind
        heap = self._ready_loads[slot] if is_load else self._ready[slot]
        heapq.heappush(heap, (seq, record))
        self.total_ready += 1

    def pop_ready(
        self, cluster: int, kind: IssueQueueKind, allow_loads: bool = True
    ) -> Optional[object]:
        """Pop the oldest ready µop of the queue, or ``None`` when none is ready.

        With ``allow_loads=False`` (L1 read ports saturated this cycle) ready
        loads are left untouched on their heap and only non-loads are
        considered -- the same µops issue as if the loads had been popped,
        deferred and requeued, without the churn.
        """
        slot = cluster * _NUM_KINDS + kind
        main = self._ready[slot]
        if allow_loads:
            loads = self._ready_loads[slot]
            if loads and (not main or loads[0][0] < main[0][0]):
                self.total_ready -= 1
                return heapq.heappop(loads)[1]
        if main:
            self.total_ready -= 1
            return heapq.heappop(main)[1]
        return None

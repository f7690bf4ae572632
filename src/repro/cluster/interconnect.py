"""Point-to-point inter-cluster interconnect.

Clusters communicate through dedicated bidirectional point-to-point links
(Table 2): a copy µop executed in the producing cluster pushes the value over
the link to the consuming cluster with a 1-cycle latency and a bandwidth of
one copy per cycle per link and direction.  :class:`Interconnect` tracks when
each directed link is next free and computes arrival times accordingly.
"""

from __future__ import annotations

from typing import Dict, Tuple


class Interconnect:
    """Bandwidth and latency tracking of the directed cluster-to-cluster links.

    Parameters
    ----------
    num_clusters:
        Number of clusters (links exist between every ordered pair).
    link_latency:
        Transfer latency in cycles.
    copies_per_cycle:
        Bandwidth of each directed link (copies per cycle).
    """

    def __init__(self, num_clusters: int, link_latency: int = 1, copies_per_cycle: int = 1) -> None:
        if num_clusters < 1:
            raise ValueError("num_clusters must be positive")
        if link_latency < 0:
            raise ValueError("link_latency must be non-negative")
        if copies_per_cycle < 1:
            raise ValueError("copies_per_cycle must be positive")
        self.num_clusters = int(num_clusters)
        self.link_latency = int(link_latency)
        self.copies_per_cycle = int(copies_per_cycle)
        #: Next cycle at which each directed link can start a new transfer.
        self._next_free: Dict[Tuple[int, int], int] = {}
        #: Transfers already started in the ``_next_free`` cycle of each link
        #: (only used when the per-cycle bandwidth is greater than one).
        self._started_in_cycle: Dict[Tuple[int, int], int] = {}
        #: Transfers started per directed link (statistics).
        self.transfers: Dict[Tuple[int, int], int] = {}

    def _check_pair(self, src: int, dst: int) -> Tuple[int, int]:
        if not (0 <= src < self.num_clusters and 0 <= dst < self.num_clusters):
            raise ValueError(f"link ({src}, {dst}) out of range for {self.num_clusters} clusters")
        if src == dst:
            raise ValueError("intra-cluster transfers do not use the interconnect")
        return (src, dst)

    def schedule_transfer(self, src: int, dst: int, ready_cycle: int) -> int:
        """Reserve the ``src -> dst`` link for a value ready at ``ready_cycle``.

        Returns the cycle at which the value arrives at ``dst``.
        """
        key = self._check_pair(src, dst)
        start = max(ready_cycle, self._next_free.get(key, 0))
        if start > self._next_free.get(key, 0):
            # The link was idle until `start`; reset the per-cycle counter.
            self._started_in_cycle[key] = 0
        started = self._started_in_cycle.get(key, 0) + 1
        if started >= self.copies_per_cycle:
            self._next_free[key] = start + 1
            self._started_in_cycle[key] = 0
        else:
            self._next_free[key] = start
            self._started_in_cycle[key] = started
        self.transfers[key] = self.transfers.get(key, 0) + 1
        return start + self.link_latency

    def reset(self) -> None:
        """Clear link reservations and statistics."""
        self._next_free.clear()
        self._started_in_cycle.clear()
        self.transfers.clear()

"""Completion-time estimation for the VC partitioner.

Figure 2 (second step of the paper's algorithm):

    "for each instruction, the benefit of assigning the instruction to all
    possible VCs is computed and the cluster with the best benefit is
    selected.  In order to compute such expected benefit, the completion time
    of the instruction is used.  In the proposed scheme, the completion time
    for a particular instruction is estimated based on the dependences, the
    latencies, and the resource contention in the intended cluster."

:class:`CompletionTimeEstimator` implements that estimate for a partial
assignment of DDG nodes to virtual clusters:

* **dependences / latencies**: the instruction can start only when all its
  already-assigned producers have completed, paying the inter-cluster
  communication latency for producers assigned to a different virtual
  cluster;
* **resource contention**: each virtual cluster has a nominal issue bandwidth
  (the per-cluster width of the target machine); the estimator tracks how
  many operations are already assigned to the cluster and models the earliest
  issue slot accordingly.

The estimate is intentionally static -- the paper stresses that it "may not
be accurate enough for a dynamically-scheduled processor", which is exactly
why the hardware half of the hybrid scheme re-maps virtual clusters at run
time.
"""

from __future__ import annotations

from typing import List, Optional

from repro.program.ddg import DataDependenceGraph


class CompletionTimeEstimator:
    """Incremental completion-time estimator over a DDG.

    Parameters
    ----------
    ddg:
        The region's data-dependence graph.
    num_virtual_clusters:
        Number of virtual clusters instructions may be assigned to.
    issue_width:
        Nominal per-cluster issue bandwidth used for the contention estimate
        (operations per cycle).
    communication_latency:
        Estimated cost (cycles) of a cross-cluster dependence.
    """

    def __init__(
        self,
        ddg: DataDependenceGraph,
        num_virtual_clusters: int,
        issue_width: int = 2,
        communication_latency: int = 1,
        contention_mode: str = "relative",
    ) -> None:
        if num_virtual_clusters < 1:
            raise ValueError("num_virtual_clusters must be positive")
        if issue_width < 1:
            raise ValueError("issue_width must be positive")
        if contention_mode not in ("relative", "absolute"):
            raise ValueError("contention_mode must be 'relative' or 'absolute'")
        self.ddg = ddg
        self.num_virtual_clusters = int(num_virtual_clusters)
        self.issue_width = int(issue_width)
        self.communication_latency = int(communication_latency)
        self.contention_mode = contention_mode
        #: Completion time of each assigned node (None until assigned).
        self.completion: List[Optional[int]] = [None] * len(ddg)
        #: Virtual cluster of each assigned node (None until assigned).
        self.assignment: List[Optional[int]] = [None] * len(ddg)
        #: Number of operations assigned so far to each virtual cluster.
        self.load: List[int] = [0] * self.num_virtual_clusters

    # -- estimation --------------------------------------------------------------
    def ready_time(self, node: int, vc: int) -> int:
        """Earliest cycle at which ``node``'s operands are available on ``vc``.

        Producers assigned to a different virtual cluster add the
        communication latency; unassigned producers (which can only happen if
        the traversal order is not topological) are treated as available at
        cycle 0.
        """
        ready = 0
        for pred in self.ddg.preds[node]:
            completion = self.completion[pred]
            if completion is None:
                continue
            transfer = 0 if self.assignment[pred] == vc else self.communication_latency
            candidate = completion + transfer
            if candidate > ready:
                ready = candidate
        return ready

    def contention_delay(self, vc: int) -> int:
        """Extra start delay caused by operations already assigned to ``vc``.

        Two models are provided:

        * ``"absolute"`` -- with ``issue_width`` operations issuing per cycle,
          the ``k``-th operation assigned to a cluster cannot start before
          cycle ``k // issue_width``.  This spreads work aggressively (the
          behaviour of the per-operation SPDI placer).
        * ``"relative"`` (default) -- only the *excess* of the cluster's load
          over the average load across clusters delays the operation.  An
          out-of-order core overlaps far more work than a static estimate can
          see, so absolute occupancy is a poor predictor; what the compiler
          can usefully penalise is imbalance.  This is the model used by the
          VC partitioner, which is meant to keep dependent instructions
          together unless a virtual cluster becomes clearly overloaded.
        """
        if self.contention_mode == "absolute":
            return self.load[vc] // self.issue_width
        average = sum(self.load) / self.num_virtual_clusters
        excess = self.load[vc] - average
        if excess <= 0:
            return 0
        return int(excess) // self.issue_width

    def estimate(self, node: int, vc: int) -> int:
        """Estimated completion time of ``node`` if it were assigned to ``vc``."""
        if not 0 <= vc < self.num_virtual_clusters:
            raise ValueError(f"virtual cluster {vc} out of range")
        start = max(self.ready_time(node, vc), self.contention_delay(vc))
        return start + self.ddg.latencies[node]

    # -- commitment --------------------------------------------------------------
    def assign(self, node: int, vc: int) -> int:
        """Commit ``node`` to virtual cluster ``vc`` and return its completion time."""
        completion = self.estimate(node, vc)
        self.completion[node] = completion
        self.assignment[node] = vc
        self.load[vc] += 1
        return completion

    def balance(self) -> float:
        """Assigned-load balance in [0, 1]; 1 means perfectly even distribution."""
        total = sum(self.load)
        if total == 0:
            return 1.0
        ideal = total / self.num_virtual_clusters
        worst = max(self.load)
        return min(1.0, ideal / worst) if worst else 1.0

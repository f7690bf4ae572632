"""OB: static-placement dynamic-issue operation-based steering (SPDI).

Nagarajan et al. (PACT'04) place instructions onto the ALUs of an EDGE
machine at compile time and let the hardware issue them dynamically; the
paper uses this "operation-based" (OB) scheme as its second software-only
baseline.  Placement is greedy and per operation: visiting the region DDG
top-down, every instruction is bound to the physical cluster that minimises
its statically-estimated start time, considering

* where its producers were placed (a cross-cluster producer adds the
  communication latency), and
* how many operations each cluster has already received (static load,
  divided by the cluster issue width).

Unlike the VC partitioner the result is a hard binding to a *physical*
cluster carried to the hardware unchanged; unlike RHOP there is no global
(multilevel) view, which is why OB tends to produce fewer copies than RHOP
but worse balance.
"""

from __future__ import annotations

from typing import List

from repro.analysis.completion_time import CompletionTimeEstimator
from repro.partition.base import RegionPartitioner
from repro.program.ddg import DataDependenceGraph
from repro.scenarios.registry import register_partitioner


class OperationBasedPartitioner(RegionPartitioner):
    """Greedy static placement of operations onto physical clusters.

    Parameters
    ----------
    num_clusters:
        Number of physical clusters of the target machine.
    region_size:
        Compiler window (instructions per region).
    issue_width:
        Per-cluster issue bandwidth assumed by the static load estimate.
    communication_latency:
        Assumed inter-cluster communication latency (cycles).
    balance_bias:
        Additional weight (cycles per queued operation) that penalises the
        more loaded cluster even when communication is a tie; SPDI balances
        load across ALUs fairly aggressively.
    """

    name = "OB"

    def __init__(
        self,
        num_clusters: int = 2,
        region_size: int = 128,
        issue_width: int = 2,
        communication_latency: int = 1,
        balance_bias: float = 0.25,
    ) -> None:
        super().__init__(num_targets=num_clusters, region_size=region_size)
        if issue_width < 1:
            raise ValueError(f"issue_width must be at least 1, got {issue_width}")
        self.issue_width = int(issue_width)
        self.communication_latency = int(communication_latency)
        self.balance_bias = float(balance_bias)

    def partition_region(self, ddg: DataDependenceGraph) -> List[int]:
        """Bind every DDG node to a physical cluster."""
        estimator = CompletionTimeEstimator(
            ddg,
            num_virtual_clusters=self.num_targets,
            issue_width=self.issue_width,
            communication_latency=self.communication_latency,
            contention_mode="absolute",
        )
        assignment = [0] * len(ddg)
        for node in ddg.topological_order():
            best_cluster = 0
            best_score = None
            for cluster in range(self.num_targets):
                completion = estimator.estimate(node, cluster)
                score = completion + self.balance_bias * estimator.load[cluster]
                key = (score, estimator.load[cluster], cluster)
                if best_score is None or key < best_score:
                    best_score = key
                    best_cluster = cluster
            estimator.assign(node, best_cluster)
            assignment[node] = best_cluster
        return assignment


@register_partitioner("OB")
def _build_ob(
    num_clusters: int, num_virtual_clusters: int, region_size: int, **params
) -> OperationBasedPartitioner:
    """Registry builder for the OB/SPDI pass (physical-cluster targets)."""
    return OperationBasedPartitioner(num_clusters=num_clusters, region_size=region_size, **params)

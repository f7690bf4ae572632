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

from typing import TYPE_CHECKING, List

from repro.partition.base import RegionPartitioner
from repro.scenarios.registry import register_partitioner

if TYPE_CHECKING:  # pragma: no cover - typing only; the DDG loads when a pass runs
    from repro.program.ddg import DataDependenceGraph


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
        """Bind every DDG node to a physical cluster, in program order.

        A node's estimated start on ``cluster`` is the later of its operands'
        arrival (producer completion, plus the communication latency from
        another cluster) and ``load // issue_width``: the ``k``-th operation
        bound to a cluster cannot start before cycle ``k // issue_width``.
        The score ``completion + balance_bias * load`` picks the cluster;
        ties go to the less loaded, then the lower-numbered cluster.
        """
        num_clusters = self.num_targets
        issue_width = self.issue_width
        communication = self.communication_latency
        balance_bias = self.balance_bias
        pred_start, pred_nodes = ddg.pred_start, ddg.pred_nodes
        completion = [0] * len(ddg)
        assignment = [0] * len(ddg)
        load = [0] * num_clusters
        for node, latency in enumerate(ddg.latencies):
            preds = pred_nodes[pred_start[node] : pred_start[node + 1]]
            best_cluster = 0
            best_key = None
            for cluster in range(num_clusters):
                start = load[cluster] // issue_width
                for pred in preds:
                    arrival = completion[pred]
                    if assignment[pred] != cluster:
                        arrival += communication
                    if arrival > start:
                        start = arrival
                end = start + latency
                key = (end + balance_bias * load[cluster], load[cluster])
                if best_key is None or key < best_key:
                    best_key = key
                    best_cluster = cluster
                    best_end = end
            completion[node] = best_end
            assignment[node] = best_cluster
            load[best_cluster] += 1
        return assignment


@register_partitioner("OB")
def _build_ob(
    num_clusters: int, num_virtual_clusters: int, region_size: int, **params
) -> OperationBasedPartitioner:
    """Registry builder for the OB/SPDI pass (physical-cluster targets)."""
    return OperationBasedPartitioner(num_clusters=num_clusters, region_size=region_size, **params)

"""RHOP: region-based hierarchical operation partitioning (Chu et al., PLDI'03).

RHOP is the strongest software-only baseline in the paper.  It formulates
cluster assignment as a graph-partitioning problem solved with a multilevel
algorithm:

* **weights** -- nodes and edges of the region DDG are weighted using slack
  information computed from static latencies (operations and dependences on
  the critical path have no slack and therefore heavy edges);
* **coarsening** -- heavy-edge matching groups critical-path operations
  together and stops when the coarse graph is small;
* **refinement** -- the initial partition is projected back through the
  hierarchy while greedy moves improve the combined workload-balance /
  communication objective.

The output binds every static instruction to a *physical* cluster (the
report's sid-indexed ``static_cluster`` column); at run time the hardware follows that binding blindly
(:class:`repro.steering.static_follow.StaticAssignmentSteering`), which is
precisely the weakness the hybrid scheme addresses: the compile-time workload
estimate cannot anticipate dynamic behaviour in an out-of-order core.
"""

from __future__ import annotations

from typing import List

from repro.analysis.slack import compute_slack
from repro.partition.base import RegionPartitioner
from repro.partition.multilevel import MultilevelPartitioner, PartitionObjective
from repro.program.ddg import DataDependenceGraph
from repro.scenarios.registry import register_partitioner


class RhopPartitioner(RegionPartitioner):
    """Multilevel slack-weighted partitioning onto physical clusters.

    Parameters
    ----------
    num_clusters:
        Number of physical clusters of the target machine.
    region_size:
        Compiler window (instructions per region).
    max_edge_weight:
        Weight given to zero-slack (critical) dependence edges; slacker edges
        get proportionally smaller weights down to 1.
    objective:
        Cut / balance trade-off of the refinement stage.  RHOP refines using
        "the workload per cluster and total system workload"; the default
        objective therefore weighs imbalance more heavily than the generic
        engine's default, which is what makes RHOP balance-oriented (and, as
        the paper observes, better balanced but copy-heavier than VC).
    """

    name = "RHOP"

    def __init__(
        self,
        num_clusters: int = 2,
        region_size: int = 128,
        max_edge_weight: int = 16,
        objective: PartitionObjective | None = None,
    ) -> None:
        super().__init__(num_targets=num_clusters, region_size=region_size)
        self.max_edge_weight = int(max_edge_weight)
        self.objective = objective or PartitionObjective(
            cut_weight=1.0, imbalance_weight=2.0, max_imbalance=0.15
        )

    def partition_region(self, ddg: DataDependenceGraph) -> List[int]:
        """Partition one region DDG onto the physical clusters."""
        if len(ddg) == 0:
            return []
        slack = compute_slack(ddg)
        edges = (ddg.pred_nodes, ddg.edge_consumers, slack.edge_weights(self.max_edge_weight))
        # Balance groups: the basic block of every operation.  RHOP balances
        # the *estimated schedule*, not raw instruction counts; grouping by
        # block forces every part of the region that executes together to be
        # spread over the clusters (see MultilevelPartitioner.partition_edges).
        partitioner = MultilevelPartitioner(self.num_targets, objective=self.objective)
        return partitioner.partition_edges(slack.node_weights(), edges, ddg.blocks)


@register_partitioner("RHOP")
def _build_rhop(
    num_clusters: int, num_virtual_clusters: int, region_size: int, **params
) -> RhopPartitioner:
    """Registry builder for the RHOP pass (physical-cluster targets)."""
    return RhopPartitioner(num_clusters=num_clusters, region_size=region_size, **params)

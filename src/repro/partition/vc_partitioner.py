"""The virtual-cluster partitioner (Figure 2): the software half of the hybrid scheme.

The pass performs the three steps of Figure 2:

1. **Computation of critical paths** -- depth + height traversals over the
   region DDG (:mod:`repro.analysis.criticality`).
2. **Partition of DDG into virtual clusters** -- a top-down (topological)
   traversal that assigns each instruction to the virtual cluster with the
   best *benefit*, where the benefit is the estimated completion time of the
   instruction on that virtual cluster
   (:class:`~repro.analysis.completion_time.CompletionTimeEstimator`:
   dependences, latencies and resource contention).  The traversal visits
   more critical instructions first within each dependence level so that
   critical chains claim their cluster before less important work does.
3. **Identification of chains and chain leaders** -- chains are split where a
   run-time remap is free (:mod:`repro.partition.chains`), and leaders are
   marked so the hardware knows when to consult the workload counters.

The output is written onto the static instructions as ``vc_id`` plus the
``chain_leader`` mark -- exactly the information the paper's ISA extension
carries.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.analysis.completion_time import CompletionTimeEstimator
from repro.analysis.criticality import compute_criticality
from repro.partition.base import PartitionReport, RegionPartitioner
from repro.partition.chains import identify_chains
from repro.program.ddg import DataDependenceGraph
from repro.scenarios.registry import register_partitioner


class VirtualClusterPartitioner(RegionPartitioner):
    """Assign instructions to virtual clusters and mark chain leaders.

    Parameters
    ----------
    num_virtual_clusters:
        Number of virtual clusters exposed by the ISA (2 in the paper's main
        configuration; 2 or 4 in the 4-cluster study).
    region_size:
        Compiler window (instructions per region).
    issue_width:
        Per-cluster issue bandwidth assumed by the completion-time estimator.
    communication_latency:
        Assumed inter-cluster communication latency (cycles).
    criticality_first:
        When ``True`` (default) ties between virtual clusters are broken in
        favour of the cluster of the instruction's most critical predecessor,
        which keeps critical chains together as the paper intends.
    """

    name = "VC"

    def __init__(
        self,
        num_virtual_clusters: int = 2,
        region_size: int = 128,
        issue_width: int = 2,
        communication_latency: int = 2,
        criticality_first: bool = True,
    ) -> None:
        super().__init__(num_targets=num_virtual_clusters, region_size=region_size)
        self.issue_width = int(issue_width)
        self.communication_latency = int(communication_latency)
        self.criticality_first = bool(criticality_first)

    # -- Figure 2, steps 1 and 2 --------------------------------------------------
    def partition_region(self, ddg: DataDependenceGraph) -> List[int]:
        """Assign every DDG node to a virtual cluster."""
        criticality = compute_criticality(ddg)
        estimator = CompletionTimeEstimator(
            ddg,
            num_virtual_clusters=self.num_targets,
            issue_width=self.issue_width,
            communication_latency=self.communication_latency,
            contention_mode="relative",
        )
        assignment = [0] * len(ddg)
        criticality_of = criticality.criticality.__getitem__
        for node in ddg.topological_order():
            # Tie-breaking: prefer the virtual cluster of the most critical
            # predecessor (keeps critical chains whole), then the least
            # loaded virtual cluster, then the lowest index for determinism.
            preferred_vc = None
            if self.criticality_first and ddg.preds[node]:
                most_critical_pred = max(ddg.preds[node], key=criticality_of)
                preferred_vc = estimator.assignment[most_critical_pred]
            best_vc = 0
            best_key = None
            for vc in range(self.num_targets):
                completion = estimator.estimate(node, vc)
                pred_bonus = -1 if preferred_vc == vc else 0
                key = (completion, pred_bonus, estimator.load[vc], vc)
                if best_key is None or key < best_key:
                    best_key = key
                    best_vc = vc
            estimator.assign(node, best_vc)
            assignment[node] = best_vc
        return assignment

    # -- Figure 2, step 3 ----------------------------------------------------------
    def apply_assignment(
        self, ddg: DataDependenceGraph, assignment: Sequence[int], report: PartitionReport
    ) -> None:
        """Write ``vc_id`` and the chain-leader marks onto the instructions."""
        chains, leaders = identify_chains(ddg, assignment)
        for node, vc in enumerate(assignment):
            inst = ddg.instructions[node]
            inst.vc_id = int(vc)
            inst.chain_leader = bool(leaders[node])
            # The hybrid scheme never binds instructions to physical clusters
            # at compile time; make sure stale annotations cannot leak through.
            inst.static_cluster = None


@register_partitioner("VC")
def _build_vc(
    num_clusters: int, num_virtual_clusters: int, region_size: int, **params
) -> VirtualClusterPartitioner:
    """Registry builder for the paper's virtual-cluster pass: it targets
    *virtual* clusters, so it takes the virtual-cluster count, not the
    physical one."""
    params.setdefault("num_virtual_clusters", num_virtual_clusters)
    return VirtualClusterPartitioner(region_size=region_size, **params)

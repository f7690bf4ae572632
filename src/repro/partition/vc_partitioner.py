"""The virtual-cluster partitioner (Figure 2): the software half of the hybrid scheme.

The pass performs the three steps of Figure 2:

1. **Computation of critical paths** -- depth + height traversals over the
   region DDG (:mod:`repro.analysis.criticality`).
2. **Partition of DDG into virtual clusters** -- a top-down (topological)
   traversal that assigns each instruction to the virtual cluster with the
   best *benefit*, where the benefit is the estimated completion time of the
   instruction on that virtual cluster: dependences, latencies and resource
   contention (see :meth:`VirtualClusterPartitioner.partition_region`).
   Ties go to the virtual cluster of the instruction's most critical
   predecessor, so critical chains claim their cluster before less
   important work does.
3. **Identification of chains and chain leaders** -- chains are split where a
   run-time remap is free (:mod:`repro.partition.chains`), and leaders are
   marked so the hardware knows when to consult the workload counters.

The output is the ``vc_id`` and ``chain_leader`` columns of the returned
report, indexed by static id -- exactly the information the paper's ISA
extension carries.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.analysis.criticality import compute_criticality
from repro.partition.base import AnnotationLists, PartitionReport, RegionPartitioner
from repro.partition.chains import chain_leaders
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
        Per-cluster issue bandwidth assumed by the completion-time estimate.
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
        if issue_width < 1:
            raise ValueError(f"issue_width must be at least 1, got {issue_width}")
        self.issue_width = int(issue_width)
        self.communication_latency = int(communication_latency)
        self.criticality_first = bool(criticality_first)

    # -- Figure 2, steps 1 and 2 --------------------------------------------------
    def partition_region(self, ddg: DataDependenceGraph) -> List[int]:
        """Assign every DDG node, in program order, to the virtual cluster where
        it is estimated to complete first.

        A node starts on ``vc`` at the later of its operands' arrival (each
        producer's completion, plus the communication latency from another
        virtual cluster) and a contention delay.  An out-of-order core
        overlaps far more work than a static estimate sees, so only the
        excess of ``vc``'s load over the average delays a node: with
        ``node`` nodes placed on ``V`` virtual clusters that is
        ``(V * load - node) // (V * issue_width)`` cycles, in integers.
        Ties go to the most critical predecessor's virtual cluster (keeps
        critical chains whole), then the less loaded, then the lower one.
        """
        num_vcs = self.num_targets
        per_vc_slots = num_vcs * self.issue_width
        communication = self.communication_latency
        criticality_of = compute_criticality(ddg).criticality.__getitem__
        pred_start, pred_nodes = ddg.pred_start, ddg.pred_nodes
        completion = [0] * len(ddg)
        assignment = [0] * len(ddg)
        load = [0] * num_vcs
        for node, latency in enumerate(ddg.latencies):
            preds = pred_nodes[pred_start[node] : pred_start[node + 1]]
            preferred_vc = None
            if self.criticality_first and preds:
                preferred_vc = assignment[max(preds, key=criticality_of)]
            best_vc = 0
            best_key = None
            for vc in range(num_vcs):
                ready = 0
                for pred in preds:
                    arrival = completion[pred]
                    if assignment[pred] != vc:
                        arrival += communication
                    if arrival > ready:
                        ready = arrival
                excess = num_vcs * load[vc] - node
                if excess > 0 and excess // per_vc_slots > ready:
                    ready = excess // per_vc_slots
                key = (ready, -1 if preferred_vc == vc else 0, load[vc])
                if best_key is None or key < best_key:
                    best_key = key
                    best_vc = vc
            completion[node] = best_key[0] + latency
            assignment[node] = best_vc
            load[best_vc] += 1
        return assignment

    # -- Figure 2, step 3 ----------------------------------------------------------
    def apply_assignment(
        self,
        ddg: DataDependenceGraph,
        assignment: Sequence[int],
        columns: AnnotationLists,
        report: PartitionReport,
    ) -> None:
        """Record ``vc_id`` and the chain-leader marks of the region's instructions.

        The hybrid scheme never binds instructions to physical clusters at
        compile time, so ``static_cluster`` stays unset.
        """
        vc_id, chain_leader, _ = columns
        leaders = chain_leaders(ddg, assignment)
        report.chain_leaders += sum(leaders)
        for sid, vc, leader in zip(ddg.sids, assignment, leaders):
            vc_id[sid] = vc
            chain_leader[sid] = leader


@register_partitioner("VC")
def _build_vc(
    num_clusters: int, num_virtual_clusters: int, region_size: int, **params
) -> VirtualClusterPartitioner:
    """Registry builder for the paper's virtual-cluster pass: it targets
    *virtual* clusters, so it takes the virtual-cluster count, not the
    physical one."""
    params.setdefault("num_virtual_clusters", num_virtual_clusters)
    return VirtualClusterPartitioner(region_size=region_size, **params)

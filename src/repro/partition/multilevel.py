"""Generic multilevel graph partitioner (coarsening + refinement).

RHOP formulates cluster assignment as graph partitioning and solves it with a
multilevel algorithm in the style of Karypis & Kumar: the graph is repeatedly
*coarsened* by collapsing heavy edges, an initial partition is computed on
the small coarse graph, and the partition is *projected back* level by level
while a boundary refinement pass (Fiduccia-Mattheyses-style single-node
moves) improves the objective at every level.

The engine here is independent of RHOP's specific weights; it partitions any
weighted undirected graph given as node weights plus an edge-weight mapping.
:class:`~repro.partition.rhop_partitioner.RhopPartitioner` supplies
slack-derived weights and the per-cluster balance constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class PartitionObjective:
    """Objective weights of the refinement pass.

    ``cut_weight`` scales the total weight of edges crossing partitions
    (communication); ``imbalance_weight`` scales the deviation of each
    partition's node weight from the ideal (workload imbalance).  RHOP's
    refinement considers both "the workload per cluster and total system
    workload" along with communication; the defaults weight communication
    higher, matching its coarsening bias towards keeping critical paths
    together.
    """

    cut_weight: float = 1.0
    imbalance_weight: float = 0.5
    max_imbalance: float = 0.25


class _Level:
    """One level of the multilevel hierarchy."""

    def __init__(
        self,
        node_weights: List[int],
        edges: Dict[Tuple[int, int], int],
        node_groups: List[int],
        fine_to_coarse: Optional[List[int]] = None,
    ) -> None:
        self.node_weights = node_weights
        self.edges = edges
        #: Balance group of every node (see ``MultilevelPartitioner.partition``).
        self.node_groups = node_groups
        #: Mapping from the finer level's node ids to this level's node ids.
        self.fine_to_coarse = fine_to_coarse
        self.adjacency: List[Dict[int, int]] = [dict() for _ in node_weights]
        for (u, v), w in edges.items():
            self.adjacency[u][v] = self.adjacency[u].get(v, 0) + w
            self.adjacency[v][u] = self.adjacency[v].get(u, 0) + w

    @property
    def num_nodes(self) -> int:
        return len(self.node_weights)


class MultilevelPartitioner:
    """Partition a weighted graph into ``num_parts`` balanced parts.

    Parameters
    ----------
    num_parts:
        Number of partitions.
    objective:
        Cut / imbalance trade-off used by refinement.
    max_refinement_passes:
        Upper bound on refinement sweeps per level.
    """

    def __init__(
        self,
        num_parts: int,
        objective: Optional[PartitionObjective] = None,
        max_refinement_passes: int = 4,
    ) -> None:
        if num_parts < 1:
            raise ValueError("num_parts must be positive")
        self.num_parts = int(num_parts)
        self.objective = objective or PartitionObjective()
        self.max_refinement_passes = int(max_refinement_passes)

    # -- public API ---------------------------------------------------------------
    def partition(
        self,
        node_weights: Sequence[int],
        edge_weights: Dict[Tuple[int, int], int],
        node_groups: Optional[Sequence[int]] = None,
    ) -> List[int]:
        """Partition the graph and return the part index of every node.

        ``edge_weights`` keys are ``(u, v)`` node pairs (direction ignored).

        ``node_groups`` optionally assigns every node to a *balance group*:
        the imbalance penalty is then evaluated per group and summed, so the
        partition must be balanced inside every group rather than only in
        aggregate.  RHOP uses the basic block of each operation as its group,
        which approximates the schedule-step balance of the original
        algorithm: operations that execute around the same time must be
        spread over the clusters, otherwise a region that is balanced only in
        total instruction counts can still execute serially (one block on one
        cluster, the next block on the other).

        A ``node_groups`` of the wrong length or an edge endpoint outside
        ``0..n-1`` raises ``ValueError``.
        """
        n = len(node_weights)
        groups = list(int(g) for g in node_groups) if node_groups is not None else [0] * n
        if len(groups) != n:
            raise ValueError("node_groups length does not match node_weights")
        for u, v in edge_weights:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {(u, v)} has an endpoint outside nodes 0..{n - 1}")
        if n == 0:
            return []
        if self.num_parts == 1 or n <= self.num_parts:
            # Trivial cases: everything in one part, or one node per part.
            return [min(i, self.num_parts - 1) for i in range(n)]
        # Normalise edges to an undirected canonical form.
        undirected: Dict[Tuple[int, int], int] = {}
        for (u, v), w in edge_weights.items():
            if u == v:
                continue
            key = (min(u, v), max(u, v))
            undirected[key] = undirected.get(key, 0) + int(w)
        levels = [_Level(list(int(w) for w in node_weights), undirected, groups)]
        # Coarsening: stop when the graph is small (a handful of nodes per
        # part, as RHOP stops when coarse nodes ~= number of clusters) or when
        # matching makes no further progress.
        while levels[-1].num_nodes > max(self.num_parts, 8):
            coarser = self._coarsen(levels[-1])
            if coarser.num_nodes == levels[-1].num_nodes:
                break
            levels.append(coarser)
        # Initial partition on the coarsest level.
        assignment = self._initial_partition(levels[-1])
        assignment = self._refine(levels[-1], assignment)
        # Uncoarsen and refine at every level.
        for level_index in range(len(levels) - 1, 0, -1):
            coarse = levels[level_index]
            fine = levels[level_index - 1]
            projected = [assignment[coarse.fine_to_coarse[i]] for i in range(fine.num_nodes)]
            assignment = self._refine(fine, projected)
        return assignment

    # -- coarsening ----------------------------------------------------------------
    def _coarsen(self, level: _Level) -> _Level:
        """Heavy-edge matching: collapse the heaviest available edge of each node."""
        n = level.num_nodes
        matched = [False] * n
        merge_with: List[int] = list(range(n))
        # Visit nodes in order of decreasing heaviest incident edge so that the
        # most critical dependences are collapsed first (RHOP groups the
        # critical path during coarsening).
        heaviest = [max(level.adjacency[i].values(), default=0) for i in range(n)]
        order = sorted(range(n), key=lambda i: -heaviest[i])
        for u in order:
            if matched[u]:
                continue
            best_v = -1
            best_w = 0
            for v, w in level.adjacency[u].items():
                if not matched[v] and v != u and w > best_w:
                    best_v, best_w = v, w
            if best_v >= 0:
                matched[u] = matched[best_v] = True
                merge_with[best_v] = u
            else:
                matched[u] = True
        # Build the coarse node ids.
        fine_to_coarse = [-1] * n
        next_coarse = 0
        for i in range(n):
            if merge_with[i] == i:
                fine_to_coarse[i] = next_coarse
                next_coarse += 1
        for i in range(n):
            if merge_with[i] != i:
                fine_to_coarse[i] = fine_to_coarse[merge_with[i]]
        coarse_weights = [0] * next_coarse
        coarse_groups = [0] * next_coarse
        for i in range(n):
            coarse_weights[fine_to_coarse[i]] += level.node_weights[i]
            if merge_with[i] == i:
                # The representative node defines the coarse node's balance group.
                coarse_groups[fine_to_coarse[i]] = level.node_groups[i]
        coarse_edges: Dict[Tuple[int, int], int] = {}
        for (u, v), w in level.edges.items():
            cu, cv = fine_to_coarse[u], fine_to_coarse[v]
            if cu == cv:
                continue
            key = (min(cu, cv), max(cu, cv))
            coarse_edges[key] = coarse_edges.get(key, 0) + w
        return _Level(coarse_weights, coarse_edges, coarse_groups, fine_to_coarse)

    # -- initial partition -----------------------------------------------------------
    def _initial_partition(self, level: _Level) -> List[int]:
        """Greedy balanced assignment of the coarse nodes (heaviest first, per group)."""
        order = sorted(range(level.num_nodes), key=lambda i: -level.node_weights[i])
        group_part_weight: Dict[Tuple[int, int], int] = {}
        assignment = [0] * level.num_nodes
        for node in order:
            group = level.node_groups[node]
            part = min(
                range(self.num_parts),
                key=lambda p: (group_part_weight.get((group, p), 0), p),
            )
            assignment[node] = part
            group_part_weight[(group, part)] = (
                group_part_weight.get((group, part), 0) + level.node_weights[node]
            )
        return assignment

    # -- refinement --------------------------------------------------------------------
    def _group_weights(
        self, level: _Level, assignment: Sequence[int]
    ) -> Dict[int, List[int]]:
        """Per-group, per-part node weight totals."""
        weights: Dict[int, List[int]] = {}
        for node, part in enumerate(assignment):
            group = level.node_groups[node]
            if group not in weights:
                weights[group] = [0] * self.num_parts
            weights[group][part] += level.node_weights[node]
        return weights

    def _refine(self, level: _Level, assignment: List[int]) -> List[int]:
        """Greedy single-node moves until no move improves the objective.

        The gain of moving a node is the cut reduction minus the change of
        its balance group's imbalance penalty, ``sum(|w_p - ideal|)`` over
        the parts.  Moves keep every group's total, so a group's ideal share
        is fixed for the whole refinement and computed once; the penalty
        sums run in part order, the float operations of the plain
        ``sum(abs(w - ideal) for w in per_part)`` form.
        """
        assignment = list(assignment)
        num_parts = self.num_parts
        parts = range(num_parts)
        node_groups = level.node_groups
        node_weights = level.node_weights
        adjacency = level.adjacency
        cut_weight = self.objective.cut_weight
        imbalance_weight = self.objective.imbalance_weight
        group_weights = self._group_weights(level, assignment)
        group_ideal = {
            group: sum(per_part) / num_parts for group, per_part in group_weights.items()
        }
        part_weight = [0] * num_parts
        for node, part in enumerate(assignment):
            part_weight[part] += node_weights[node]
        total_weight = sum(part_weight)
        max_part = (total_weight / num_parts) * (1.0 + self.objective.max_imbalance)
        # Targets of a node with no neighbour outside its part: every other
        # part, at zero external weight (read-only, shared per part).
        other_parts = [{p: 0 for p in parts if p != part} for part in parts]
        for _ in range(self.max_refinement_passes):
            improved = False
            for node in range(level.num_nodes):
                current = assignment[node]
                group = node_groups[node]
                weight = node_weights[node]
                per_part = group_weights[group]
                ideal = group_ideal[group]
                # Gain of moving `node` to `target`: reduction in cut minus
                # the change in the node's group imbalance penalty.
                external: Dict[int, int] = {}
                internal = 0
                for neighbour, w in adjacency[node].items():
                    part = assignment[neighbour]
                    if part == current:
                        internal += w
                    else:
                        external[part] = external.get(part, 0) + w
                candidate_targets = external or other_parts[current]
                imbalance_before = None
                for target, external_weight in candidate_targets.items():
                    if part_weight[target] + weight > max_part:
                        continue
                    if imbalance_before is None:
                        imbalance_before = 0
                        for w in per_part:
                            imbalance_before += abs(w - ideal)
                    imbalance_after = 0
                    for p in parts:
                        w = per_part[p]
                        if p == current:
                            w -= weight
                        elif p == target:
                            w += weight
                        imbalance_after += abs(w - ideal)
                    gain = (
                        cut_weight * (external_weight - internal)
                        + imbalance_weight * (imbalance_before - imbalance_after)
                    )
                    if gain > 0:
                        per_part[current] -= weight
                        per_part[target] += weight
                        part_weight[current] -= weight
                        part_weight[target] += weight
                        assignment[node] = target
                        improved = True
                        break
            if not improved:
                break
        return assignment

"""Generic multilevel graph partitioner (coarsening + refinement).

RHOP formulates cluster assignment as graph partitioning and solves it with a
multilevel algorithm in the style of Karypis & Kumar: the graph is repeatedly
*coarsened* by collapsing heavy edges, an initial partition is computed on
the small coarse graph, and the partition is *projected back* level by level
while a boundary refinement pass (Fiduccia-Mattheyses-style single-node
moves) improves the objective at every level.

The engine here is independent of RHOP's specific weights; it partitions any
weighted undirected graph given as node weights plus flat edge lists.
Every level of the hierarchy is held as flat lists (node weights and groups,
undirected edge lists, per-node neighbour lists), and coarsening and
refinement loop over those lists.
:class:`~repro.partition.rhop_partitioner.RhopPartitioner` supplies
slack-derived weights and the per-cluster balance constraint.
"""

from __future__ import annotations

from itertools import accumulate, compress, repeat
from operator import floordiv, mod
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only; RHOP owns the objective
    from repro.partition.rhop_partitioner import PartitionObjective

#: Upper bound on refinement sweeps per level.
MAX_REFINEMENT_PASSES = 4


def _merge_edges(
    us: Sequence[int], vs: Sequence[int], ws: Sequence[int], relabel: Sequence[int]
) -> Tuple[List[int], List[int], List[int]]:
    """Undirected edge lists of the edges ``(relabel[u], relabel[v], w)``.

    Every pair appears once with ``u < v`` and its weights summed, in the
    order the pair is first seen; self-loops are dropped.
    """
    n = len(relabel)
    merged: Dict[int, int] = {}
    for u, v, w in zip(us, vs, ws):
        u = relabel[u]
        v = relabel[v]
        if u < v:
            key = u * n + v
        elif v < u:
            key = v * n + u
        else:
            continue
        merged[key] = merged.get(key, 0) + w
    keys = list(merged)
    return list(map(floordiv, keys, repeat(n))), list(map(mod, keys, repeat(n))), [*merged.values()]


class _Level:
    """One level of the multilevel hierarchy, as flat per-node and per-edge lists.

    ``edges`` holds the undirected edge lists of :func:`_merge_edges`;
    ``neighbours[u]`` / ``neighbour_weights[u]`` list ``u``'s incident edges
    in that order.  A coarse level also records how the finer one maps onto it.
    """

    __slots__ = (
        "node_weights", "node_groups", "edges", "fine_to_coarse", "representatives", "pairs",
        "neighbours", "neighbour_weights",
    )

    def __init__(
        self,
        node_weights: List[int],
        node_groups: List[int],
        edges: Tuple[List[int], List[int], List[int]],
        fine_to_coarse: Optional[List[int]] = None,
        representatives: Sequence[int] = (),
        pairs: Sequence[Tuple[int, int]] = (),
    ) -> None:
        self.node_weights = node_weights
        #: Balance group of every node (see ``MultilevelPartitioner.partition``).
        self.node_groups = node_groups
        self.edges = edges
        #: The finer level's node ids mapped to this level's, this level's
        #: nodes mapped to their finer representatives, and the merged
        #: ``(representative, partner)`` pairs of finer nodes.
        self.fine_to_coarse = fine_to_coarse
        self.representatives = representatives
        self.pairs = pairs
        neighbours: List[List[int]] = [[] for _ in node_weights]
        weights: List[List[int]] = [[] for _ in node_weights]
        for u, v, w in zip(*edges):
            neighbours[u].append(v)
            weights[u].append(w)
            neighbours[v].append(u)
            weights[v].append(w)
        self.neighbours = neighbours
        self.neighbour_weights = weights

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
        Cut / imbalance trade-off used by refinement (a
        :class:`~repro.partition.rhop_partitioner.PartitionObjective`).
    """

    def __init__(self, num_parts: int, objective: PartitionObjective) -> None:
        if num_parts < 1:
            raise ValueError("num_parts must be positive")
        self.num_parts = int(num_parts)
        self.objective = objective

    # -- public API ---------------------------------------------------------------
    def partition_edges(
        self,
        node_weights: List[int],
        edges: Tuple[List[int], List[int], List[int]],
        node_groups: List[int],
    ) -> List[int]:
        """Partition the graph and return the part index of every node.

        ``edges`` are parallel ``(us, vs, ws)`` lists holding each pair once
        with ``u < v`` (as a DDG's edges do).  ``node_groups`` assigns every
        node to a *balance group*: the imbalance penalty is evaluated per
        group and summed, so the partition must be balanced inside every
        group rather than only in aggregate.  RHOP uses the basic block of
        each operation as its group, which approximates the schedule-step
        balance of the original algorithm: operations that execute around
        the same time must be spread over the clusters, otherwise a region
        that is balanced only in total instruction counts can still execute
        serially (one block on one cluster, the next block on the other).
        """
        n = len(node_weights)
        if n == 0:
            return []
        if self.num_parts == 1 or n <= self.num_parts:
            # Trivial cases: everything in one part, or one node per part.
            return [min(i, self.num_parts - 1) for i in range(n)]
        levels = [_Level(node_weights, node_groups, edges)]
        # Coarsening: stop when the graph is small (a handful of nodes per
        # part, as RHOP stops when coarse nodes ~= number of clusters) or when
        # matching can make no further progress, which is exactly when no
        # positive-weight edge is left.
        while levels[-1].num_nodes > max(self.num_parts, 8) and max(
            levels[-1].edges[2], default=0
        ) > 0:
            levels.append(self._coarsen(levels[-1]))
        # Initial partition on the coarsest level, then uncoarsen and refine.
        return self._refine(levels, self._initial_partition(levels[-1]))

    # -- coarsening ----------------------------------------------------------------
    def _coarsen(self, level: _Level) -> _Level:
        """Heavy-edge matching: collapse the heaviest available edge of each node."""
        n = level.num_nodes
        neighbours = level.neighbours
        neighbour_weights = level.neighbour_weights
        matched = [False] * n
        #: False for the partner of a merged pair, True for every coarse node's representative.
        kept = [True] * n
        pairs: List[Tuple[int, int]] = []
        # Visit nodes in order of decreasing heaviest incident edge so that the
        # most critical dependences are collapsed first (RHOP groups the
        # critical path during coarsening); the sort is stable.  A node
        # without neighbours matches nothing, so it is left out.
        linked = list(filter(neighbours.__getitem__, range(n)))
        heaviest = dict(zip(linked, map(max, map(neighbour_weights.__getitem__, linked))))
        for u in sorted(linked, key=heaviest.__getitem__, reverse=True):
            if matched[u]:
                continue
            matched[u] = True
            best_v = -1
            best_w = 0
            for v, w in zip(neighbours[u], neighbour_weights[u]):
                if w > best_w and not matched[v]:
                    best_v = v
                    best_w = w
            if best_v >= 0:
                matched[best_v] = True
                kept[best_v] = False
                pairs.append((u, best_v))
        # Coarse node ids number the representatives in node order (a
        # representative's id counts the representatives before it); the
        # representative defines the coarse node's balance group.
        fine_to_coarse = list(accumulate(kept, initial=-1))[1:]
        coarse_weights = list(compress(level.node_weights, kept))
        coarse_groups = list(compress(level.node_groups, kept))
        for u, v in pairs:
            fine_to_coarse[v] = fine_to_coarse[u]
            coarse_weights[fine_to_coarse[u]] += level.node_weights[v]
        coarse_edges = _merge_edges(*level.edges, fine_to_coarse)
        return _Level(
            coarse_weights,
            coarse_groups,
            coarse_edges,
            fine_to_coarse,
            list(compress(range(n), kept)),
            pairs,
        )

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
    def _refine(self, levels: List[_Level], assignment: List[int]) -> List[int]:
        """Refine the coarsest level's ``assignment``, then project and refine each finer level.

        At every level, greedy single-node moves run until a pass moves
        nothing (at most :data:`MAX_REFINEMENT_PASSES` passes).  Nodes are
        visited in order and move to the first candidate part with a
        positive gain: the cut reduction minus the change of the node's
        balance-group penalty ``sum(|w_p - ideal|)``.  Moves keep group
        totals, so ideal shares are fixed; the penalty sums run in part
        order, the float operations of ``sum(abs(w - ideal) ...)``.  Three
        shortcuts leave every move unchanged:

        * a move's balance term depends only on its group's per-part weights,
          its parts and the node weight, so it is kept until the group moves;
        * projection keeps every part's weight and, unless a merged pair spans
          two groups, every group's, so these totals carry over;
        * only ``due`` nodes are visited.  A node that stays put would decide
          the same until a neighbour or group member moves, or -- if a target
          was over the part-weight cap (``capped``) -- until a node leaves
          that part.  After projection a node inherits its coarse node's mark
          unless it was merged, neighbours both nodes of a pair (its coarse
          edge merged two) or its group's weights changed.  An extra mark
          only costs a visit.
        """
        num_parts = self.num_parts
        parts = range(num_parts)
        cut_weight = self.objective.cut_weight
        imbalance_weight = self.objective.imbalance_weight
        part_weight = [0] * num_parts
        for part, weight in zip(assignment, levels[-1].node_weights):
            part_weight[part] += weight
        max_part = (sum(part_weight) / num_parts) * (1.0 + self.objective.max_imbalance)
        # Targets of a node with no neighbour outside its part: every other
        # part, at zero external weight (read-only, shared per part).
        other_parts = [{p: 0 for p in parts if p != part} for part in parts]
        due = [True] * levels[-1].num_nodes
        capped: List[Set[int]] = [set() for _ in parts]
        regrouped: Set[int] = set()
        for index in range(len(levels) - 1, -1, -1):
            level = levels[index]
            node_groups = level.node_groups
            node_weights = level.node_weights
            neighbours = level.neighbours
            neighbour_weights = level.neighbour_weights
            nodes = range(level.num_nodes)
            if index < len(levels) - 1:
                coarse = levels[index + 1]
                assignment = list(map(assignment.__getitem__, coarse.fine_to_coarse))
                due = list(map(due.__getitem__, coarse.fine_to_coarse))
                capped = [{coarse.representatives[c] for c in nodes} for nodes in capped]
                for u, v in coarse.pairs:
                    due[u] = due[v] = True
                    of_u = set(neighbours[u])
                    for neighbour in neighbours[v]:
                        if neighbour in of_u:
                            due[neighbour] = True
                    if node_groups[u] != node_groups[v]:
                        regrouped.update((node_groups[u], node_groups[v]))
                if regrouped:
                    for node in compress(nodes, map(regrouped.__contains__, node_groups)):
                        due[node] = True
            if regrouped or index == len(levels) - 1:
                regrouped.clear()
                #: Per-group, per-part node weight totals.
                group_weights: Dict[int, List[int]] = {}
                for part, group, weight in zip(assignment, node_groups, node_weights):
                    if group not in group_weights:
                        group_weights[group] = [0] * num_parts
                    group_weights[group][part] += weight
                group_ideal = {
                    group: sum(per_part) / num_parts for group, per_part in group_weights.items()
                }
                #: Balance term of a move per group, keyed ``(source, target, weight)``.
                balance_terms: Dict[int, Dict[Tuple[int, int, int], float]] = {
                    group: {} for group in group_weights
                }
            #: Nodes of a group, listed when one of them first moves.
            members: Dict[int, List[int]] = {}
            for _ in range(MAX_REFINEMENT_PASSES):
                improved = False
                # compress() reads each mark when it reaches the node, so a
                # node marked during the pass is visited in the same pass.
                for node in compress(nodes, due):
                    due[node] = False
                    current = assignment[node]
                    external: Dict[int, int] = {}
                    internal = 0
                    for neighbour, w in zip(neighbours[node], neighbour_weights[node]):
                        part = assignment[neighbour]
                        if part == current:
                            internal += w
                        else:
                            external[part] = external.get(part, 0) + w
                    group = node_groups[node]
                    weight = node_weights[node]
                    terms = balance_terms[group]
                    for target, external_weight in (external or other_parts[current]).items():
                        if part_weight[target] + weight > max_part:
                            capped[target].add(node)
                            continue
                        term = terms.get((current, target, weight))
                        if term is None:
                            per_part = group_weights[group]
                            ideal = group_ideal[group]
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
                            term = imbalance_weight * (imbalance_before - imbalance_after)
                            terms[(current, target, weight)] = term
                        if cut_weight * (external_weight - internal) + term > 0:
                            per_part = group_weights[group]
                            per_part[current] -= weight
                            per_part[target] += weight
                            balance_terms[group] = {}
                            part_weight[current] -= weight
                            part_weight[target] += weight
                            assignment[node] = target
                            if group not in members:
                                members[group] = [*compress(nodes, map(group.__eq__, node_groups))]
                            for others in (members[group], neighbours[node], capped[current]):
                                for other in others:
                                    due[other] = True
                            capped[current].clear()
                            improved = True
                            break
                if not improved:
                    break
        return assignment

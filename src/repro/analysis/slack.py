"""Slack analysis used by RHOP's multilevel partitioner.

RHOP (Chu, Fan, Mahlke, PLDI 2003) weights DDG nodes and edges using slack
information computed from static latencies: operations (and dependences) with
little slack are on or near the critical path and should be kept together
during coarsening; operations with large slack are cheap to move between
clusters during refinement.

Definitions (relative to the critical-path length ``L`` of the DDG):

* ``slack(n)   = L - criticality(n)`` -- how much node ``n`` can be delayed
  without lengthening the schedule.
* ``slack(u,v) = L - (depth(u) + latency(u) + height(v))`` -- slack of the
  dependence edge ``u -> v``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.analysis.criticality import CriticalityInfo, compute_criticality
from repro.program.ddg import DataDependenceGraph


@dataclass(frozen=True)
class SlackInfo:
    """Result of :func:`compute_slack` for one DDG."""

    node_slack: Tuple[int, ...]
    #: Slack of every edge, in the graph's edge order.
    edge_slack: Tuple[int, ...]
    criticality: CriticalityInfo

    def edge_weights(self, max_weight: int = 16) -> List[int]:
        """RHOP-style edge weights, in edge order: tighter (lower-slack) edges weigh more.

        Weights are clamped to ``[1, max_weight]`` so a zero-slack edge is
        ``max_weight`` times as attractive to coarsen as a very slack edge.
        """
        length = max(1, self.criticality.critical_path_length)
        # Normalise slack to [0, 1] then invert, once per distinct slack.
        weight_of = {
            slack: max(1, int(round(max_weight * (1.0 - min(1.0, slack / length)))))
            for slack in dict.fromkeys(self.edge_slack)
        }
        return list(map(weight_of.__getitem__, self.edge_slack))

    def node_weights(self) -> List[int]:
        """RHOP-style node weights: unit resource usage per operation.

        RHOP weights nodes by their resource usage estimate; with the
        homogeneous functional units of Table 2 every operation occupies one
        issue slot, so every weight is 1.
        """
        return [1] * len(self.node_slack)


def compute_slack(ddg: DataDependenceGraph) -> SlackInfo:
    """Node and edge slack of ``ddg``, computed once and memoised on the graph.

    Returns
    -------
    SlackInfo
        Per-node slack, per-edge slack and the underlying criticality info.
    """

    def build() -> SlackInfo:
        crit = compute_criticality(ddg)
        length = crit.critical_path_length
        depth, height = crit.depth, crit.height
        return SlackInfo(
            node_slack=tuple(length - c for c in crit.criticality),
            edge_slack=tuple(
                max(0, length - (depth[u] + latency + height[v]))
                for u, v, latency in zip(ddg.pred_nodes, ddg.edge_consumers, ddg.edge_latencies)
            ),
            criticality=crit,
        )

    return ddg.memo("slack", build)

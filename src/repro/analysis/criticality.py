"""Criticality analysis: depth, height and critical paths of a DDG.

Figure 2 of the paper (first step of the VC partitioner):

    "For a given DDG, the compiler first computes the critical path
    information.  This computation requires two traversals of a DDG: one for
    computing the depth and another for computing the height of each node in
    the DDG.  The criticality of each node in the DDG is then defined to be
    the sum of its depth and height."

Definitions used here (standard list-scheduling definitions, consistent with
the SPDI paper the authors cite):

* ``depth(n)``  -- length of the longest latency-weighted path from any DDG
  root to ``n``, *excluding* ``n``'s own latency (a root has depth 0).
* ``height(n)`` -- length of the longest latency-weighted path from ``n`` to
  any DDG leaf, *including* ``n``'s own latency.
* ``criticality(n) = depth(n) + height(n)`` -- the length of the longest path
  through ``n``; nodes with the maximum criticality lie on a critical path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.program.ddg import DataDependenceGraph


@dataclass(frozen=True)
class CriticalityInfo:
    """Result of :func:`compute_criticality` for one DDG."""

    depth: Tuple[int, ...]
    height: Tuple[int, ...]
    criticality: Tuple[int, ...]
    critical_path_length: int

    def is_critical(self, node: int) -> bool:
        """True when ``node`` lies on a critical path of the DDG."""
        return self.criticality[node] == self.critical_path_length

    def critical_nodes(self) -> List[int]:
        """All nodes lying on some critical path."""
        return [i for i, c in enumerate(self.criticality) if c == self.critical_path_length]


def compute_criticality(ddg: DataDependenceGraph) -> CriticalityInfo:
    """Compute depth, height and criticality for every node of ``ddg``.

    Two linear traversals in topological order (forward for depth, backward
    for height), as described in the paper.

    Returns
    -------
    CriticalityInfo
        Per-node depth, height, criticality and the critical-path length.
    """
    n = len(ddg)
    order = ddg.topological_order()
    depth = [0] * n
    # Forward traversal: depth of a node is the max over predecessors of
    # (depth(pred) + latency(pred)).
    for node in order:
        best = 0
        for pred in ddg.preds[node]:
            candidate = depth[pred] + ddg.edge_latency[(pred, node)]
            if candidate > best:
                best = candidate
        depth[node] = best
    # Backward traversal: height includes the node's own latency.
    height = [0] * n
    for node in reversed(order):
        own_latency = ddg.latencies[node]
        best = own_latency
        for succ in ddg.succs[node]:
            candidate = own_latency + height[succ]
            if candidate > best:
                best = candidate
        height[node] = best
    criticality = [depth[i] + height[i] for i in range(n)]
    critical_path_length = max(criticality) if criticality else 0
    return CriticalityInfo(
        depth=tuple(depth),
        height=tuple(height),
        criticality=tuple(criticality),
        critical_path_length=critical_path_length,
    )

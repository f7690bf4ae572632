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
from typing import Tuple

from repro.program.ddg import DataDependenceGraph


@dataclass(frozen=True)
class CriticalityInfo:
    """Result of :func:`compute_criticality` for one DDG."""

    depth: Tuple[int, ...]
    height: Tuple[int, ...]
    criticality: Tuple[int, ...]
    critical_path_length: int


def compute_criticality(ddg: DataDependenceGraph) -> CriticalityInfo:
    """Depth, height and criticality of every node of ``ddg``, computed once.

    Two linear traversals in topological order (forward for depth, backward
    for height), as described in the paper.  The result is memoised on the
    graph, so the VC and RHOP passes over a region share one computation.

    Returns
    -------
    CriticalityInfo
        Per-node depth, height, criticality and the critical-path length.
    """
    return ddg.memo("criticality", lambda: _criticality(ddg))


def _criticality(ddg: DataDependenceGraph) -> CriticalityInfo:
    edges = (ddg.pred_nodes, ddg.edge_consumers)
    # Forward traversal over the consumer-major edges: a producer's depth is
    # final before its first out-edge, as every edge into it comes earlier.
    depth = [0] * len(ddg)
    for pred, node, latency in zip(*edges, ddg.edge_latencies):
        if depth[pred] + latency > depth[node]:
            depth[node] = depth[pred] + latency
    # Backward traversal: height includes the node's own latency, and a
    # consumer's height is final before its in-edges come up in reverse.
    latencies = ddg.latencies
    height = list(latencies)
    for pred, node in zip(*map(reversed, edges)):
        if latencies[pred] + height[node] > height[pred]:
            height[pred] = latencies[pred] + height[node]
    criticality = [d + h for d, h in zip(depth, height)]
    return CriticalityInfo(
        depth=tuple(depth),
        height=tuple(height),
        criticality=tuple(criticality),
        critical_path_length=max(criticality, default=0),
    )

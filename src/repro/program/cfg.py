"""Control-flow graph with edge probabilities and loop annotations.

The CFG serves two purposes in the reproduction:

* region formation for the compile-time partitioners follows the most likely
  successor of each block (a superblock-style compilation scope), and
* the dynamic trace expander walks the CFG using the edge probabilities and
  loop trip counts to produce a µop stream with realistic repetition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class CFGEdge:
    """One control-flow edge with its taken probability."""

    src: int
    dst: int
    probability: float = 1.0
    is_back_edge: bool = False


class ControlFlowGraph:
    """Directed control-flow graph over basic-block ids.

    The graph stores, per block, an ordered list of outgoing
    :class:`CFGEdge`.  Probabilities of the outgoing edges of a block should
    sum to 1 (validated by :meth:`validate`).  Back-edges mark natural loops;
    the trace expander uses per-loop expected trip counts stored in
    ``loop_trip_counts``.
    """

    def __init__(self, entry: int = 0) -> None:
        self.entry = int(entry)
        self._succs: Dict[int, List[CFGEdge]] = {}
        self._preds: Dict[int, List[CFGEdge]] = {}
        #: Expected trip count of the loop headed by each block (back-edge target).
        self.loop_trip_counts: Dict[int, float] = {}

    # -- construction ------------------------------------------------------------
    def add_block(self, bid: int) -> None:
        """Register a block id (idempotent)."""
        self._succs.setdefault(int(bid), [])
        self._preds.setdefault(int(bid), [])

    def add_edge(
        self,
        src: int,
        dst: int,
        probability: float = 1.0,
        is_back_edge: bool = False,
    ) -> CFGEdge:
        """Add a control-flow edge and return it."""
        if probability < 0 or probability > 1:
            raise ValueError(f"edge probability {probability} must be in [0, 1]")
        edge = CFGEdge(int(src), int(dst), float(probability), bool(is_back_edge))
        self.add_block(src)
        self.add_block(dst)
        self._succs[edge.src].append(edge)
        self._preds[edge.dst].append(edge)
        return edge

    def set_loop_trip_count(self, header: int, trips: float) -> None:
        """Record the expected trip count of the loop headed by ``header``."""
        if trips < 0:
            raise ValueError("trip count must be non-negative")
        self.loop_trip_counts[int(header)] = float(trips)

    # -- queries -----------------------------------------------------------------
    @property
    def blocks(self) -> List[int]:
        """All block ids known to the CFG."""
        return sorted(self._succs.keys())

    def successors(self, bid: int) -> List[CFGEdge]:
        """Outgoing edges of ``bid`` (ordered as inserted)."""
        return list(self._succs.get(int(bid), []))

    def predecessors(self, bid: int) -> List[CFGEdge]:
        """Incoming edges of ``bid``."""
        return list(self._preds.get(int(bid), []))

    def most_likely_successor(self, bid: int, exclude_back_edges: bool = True) -> Optional[int]:
        """Return the successor reached with the highest probability.

        Back-edges are excluded by default so that region formation follows
        the fall-through path out of loops rather than spinning inside them.
        """
        best: Optional[CFGEdge] = None
        for edge in self._succs.get(int(bid), []):
            if exclude_back_edges and edge.is_back_edge:
                continue
            if best is None or edge.probability > best.probability:
                best = edge
        return best.dst if best is not None else None

    def back_edges(self) -> List[CFGEdge]:
        """All edges flagged as loop back-edges."""
        return [e for edges in self._succs.values() for e in edges if e.is_back_edge]

    def loop_headers(self) -> List[int]:
        """Targets of back-edges (natural loop headers)."""
        return sorted({e.dst for e in self.back_edges()})

    def validate(self) -> None:
        """Check structural invariants; raise :class:`ValueError` on violation.

        * the entry block exists,
        * outgoing probabilities of every block with successors sum to ~1,
        * every back-edge target has a trip count if any trip counts are set.
        """
        if self.entry not in self._succs:
            raise ValueError(f"entry block {self.entry} is not part of the CFG")
        for bid, edges in self._succs.items():
            if not edges:
                continue
            total = sum(e.probability for e in edges)
            if abs(total - 1.0) > 1e-6:
                raise ValueError(
                    f"outgoing probabilities of block {bid} sum to {total:.6f}, expected 1.0"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        n_edges = sum(len(v) for v in self._succs.values())
        return f"ControlFlowGraph(blocks={len(self._succs)}, edges={n_edges}, entry={self.entry})"

"""Data-dependence graph (DDG) construction.

Every compile-time partitioner in the paper (the VC partitioner of Figure 2,
RHOP and the OB/SPDI placer) operates on the data-dependence graph of a
compilation region.  The DDG built here contains one node per static
instruction of the region and one edge per register true (read-after-write)
dependence, annotated with the producer latency.  Anti- and output
dependences are irrelevant for steering (the out-of-order backend renames
registers), so they are not represented.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.uops.uop import StaticInstruction


class DataDependenceGraph:
    """DDG over the instructions of one compilation region.

    Nodes are integer positions ``0..n-1`` into the region's instruction
    sequence; :attr:`instructions` maps positions back to
    :class:`~repro.uops.uop.StaticInstruction` objects.  Edges are stored as
    adjacency lists (``succs`` / ``preds``) with the producer latency as the
    edge weight, which is what the criticality and slack analyses need.
    """

    def __init__(self, instructions: Sequence[StaticInstruction]) -> None:
        self.instructions: List[StaticInstruction] = list(instructions)
        #: Functional-unit latency of every node (looked up once, not per query).
        self.latencies: List[int] = [inst.latency for inst in self.instructions]
        n = len(self.instructions)
        self.succs: List[List[int]] = [[] for _ in range(n)]
        self.preds: List[List[int]] = [[] for _ in range(n)]
        #: Edge latency keyed by ``(producer, consumer)`` node pair.
        self.edge_latency: Dict[Tuple[int, int], int] = {}

    # -- construction ------------------------------------------------------------
    def add_edge(self, producer: int, consumer: int, latency: Optional[int] = None) -> None:
        """Add a true-dependence edge from node ``producer`` to node ``consumer``."""
        n = len(self.instructions)
        if not (0 <= producer < n and 0 <= consumer < n):
            raise ValueError(f"edge ({producer}, {consumer}) out of range for {n} nodes")
        if producer == consumer:
            raise ValueError("self-dependences are not allowed in a DDG")
        key = (producer, consumer)
        if key in self.edge_latency:
            return
        if latency is None:
            latency = self.latencies[producer]
        self.succs[producer].append(consumer)
        self.preds[consumer].append(producer)
        self.edge_latency[key] = int(latency)

    # -- queries -----------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.instructions)

    @property
    def num_edges(self) -> int:
        """Number of dependence edges."""
        return len(self.edge_latency)

    def roots(self) -> List[int]:
        """Nodes with no predecessors (region live-in consumers or constants)."""
        return [i for i in range(len(self.instructions)) if not self.preds[i]]

    def leaves(self) -> List[int]:
        """Nodes with no successors inside the region."""
        return [i for i in range(len(self.instructions)) if not self.succs[i]]

    def topological_order(self) -> List[int]:
        """Nodes in a topological order (program order is always valid).

        The DDG is built from a single program-ordered instruction sequence,
        so program order itself is a topological order; we return it directly
        which also keeps partitioning deterministic.
        """
        return list(range(len(self.instructions)))

    def instruction(self, node: int) -> StaticInstruction:
        """Return the static instruction at DDG node ``node``."""
        return self.instructions[node]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DataDependenceGraph(nodes={len(self)}, edges={self.num_edges})"


def build_ddg(
    instructions: Sequence[StaticInstruction],
    include_memory_edges: bool = False,
) -> DataDependenceGraph:
    """Build the DDG of a program-ordered instruction sequence.

    Parameters
    ----------
    instructions:
        Instructions in program order (one compilation region).
    include_memory_edges:
        When ``True``, add a conservative dependence edge from every store to
        every later load (same-region memory ordering).  The paper's
        steering algorithms work on register dependences only; the option is
        provided for sensitivity studies.

    Returns
    -------
    DataDependenceGraph
        The register true-dependence graph of the region.
    """
    ddg = DataDependenceGraph(instructions)
    last_writer: Dict[int, int] = {}
    last_stores: List[int] = []
    for i, inst in enumerate(instructions):
        for src in inst.srcs:
            producer = last_writer.get(src)
            if producer is not None:
                ddg.add_edge(producer, i)
        if include_memory_edges and inst.is_load:
            for store in last_stores:
                ddg.add_edge(store, i)
        for dst in inst.dests:
            last_writer[dst] = i
        if include_memory_edges and inst.is_store:
            last_stores.append(i)
    return ddg

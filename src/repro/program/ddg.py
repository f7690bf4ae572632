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

from itertools import accumulate, chain, repeat
from operator import lt
from typing import TYPE_CHECKING, Callable, Dict, Hashable, List, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.program.program import Program


class DataDependenceGraph:
    """DDG over the instructions of one compilation region, as flat arrays.

    Nodes are integer positions ``0..n-1`` into the region's instruction
    sequence; :attr:`sids` maps positions back to the program's static ids,
    and :attr:`latencies` and :attr:`blocks` hold every node's
    functional-unit latency and basic-block id.  Every edge runs forward, so
    program order is the one topological order.  Edges are stored
    consumer-major in CSR form: node ``v``'s producers are
    ``pred_nodes[pred_start[v]:pred_start[v + 1]]``, in the order
    :func:`build_ddg` found them, and edge ``k`` runs from ``pred_nodes[k]``
    to ``edge_consumers[k]`` with the producer latency ``edge_latencies[k]``.
    That is the graph's edge order.  Analyses of the graph (criticality,
    slack) are memoised on it (:meth:`memo`), so every pass over the region
    shares one copy.
    """

    def __init__(
        self, program: Program, sids: Sequence[int], preds: Sequence[Sequence[int]]
    ) -> None:
        self.sids: List[int] = list(sids)
        self.latencies: List[int] = list(map(program.latency_list().__getitem__, self.sids))
        self.blocks: List[int] = list(map(program.block_list().__getitem__, self.sids))
        if len(preds) != len(self.sids):
            raise ValueError("need one predecessor list per instruction")
        self.pred_start: List[int] = list(accumulate(map(len, preds), initial=0))
        self.pred_nodes: List[int] = list(chain.from_iterable(preds))
        self.edge_consumers: List[int] = list(
            chain.from_iterable(map(repeat, range(len(preds)), map(len, preds)))
        )
        if min(self.pred_nodes, default=0) < 0 or not all(
            map(lt, self.pred_nodes, self.edge_consumers)
        ):
            raise ValueError("every edge must run forward from a node of the region")
        self.edge_latencies: List[int] = list(map(self.latencies.__getitem__, self.pred_nodes))
        self._memo: Dict[Hashable, object] = {}

    def memo(self, key: Hashable, build: Callable[[], object]) -> object:
        """The analysis stored on this graph under ``key``; ``build()`` makes it once."""
        value = self._memo.get(key)
        if value is None:
            value = build()
            self._memo[key] = value
        return value

    # -- queries -----------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.sids)

    @property
    def num_edges(self) -> int:
        """Number of dependence edges."""
        return len(self.pred_nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DataDependenceGraph(nodes={len(self)}, edges={self.num_edges})"


def build_ddg(program: Program, sids: Sequence[int]) -> DataDependenceGraph:
    """Build the register true-dependence graph of ``program``'s instructions
    ``sids``, in program order (one compilation region)."""
    srcs = program.src_tuples()
    dests = program.dest_tuples()
    last_writer: Dict[int, int] = {}
    preds: List[List[int]] = []
    for i, sid in enumerate(sids):
        node_preds: List[int] = []
        for producer in map(last_writer.get, srcs[sid]):
            if producer is not None and producer not in node_preds:
                node_preds.append(producer)
        preds.append(node_preds)
        for dst in dests[sid]:
            last_writer[dst] = i
    return DataDependenceGraph(program, sids, preds)

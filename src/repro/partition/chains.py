"""Chain and chain-leader identification (Figure 3).

The paper defines a *chain* as "a group of instructions in the same virtual
cluster that are mapped into the same physical cluster", and the *chain
leader* as the first instruction of a chain.  Chain leaders are the places
where the hardware consults the workload counters and (possibly) remaps the
virtual cluster to a different physical cluster; every non-leader simply
follows the current mapping of its virtual cluster.

The compiler must therefore start a new chain exactly where a remap would be
harmless: at an instruction that does not consume any value produced by the
chain currently open on its virtual cluster.  We reconstruct that rule as
follows (traversing the region in program order):

* the first instruction of each virtual cluster starts a chain (and leads it);
* a later instruction of the same virtual cluster starts a *new* chain when
  **none of its DDG predecessors belong to the same virtual cluster** -- such
  an instruction begins a fresh dependence chain, so remapping the virtual
  cluster at that point cannot put it on a different physical cluster than a
  same-VC value it consumes;
* otherwise it joins the chain currently open on its virtual cluster (its
  same-VC producers follow the same mapping, because the mapping can only
  have changed at a leader, and a leader by definition does not consume
  same-VC values).

In the example of Figure 3 this yields exactly three leaders (A, B and E):
A opens virtual cluster 0's chain, B opens virtual cluster 1's chain, and E
(which depends only on nodes of the other virtual cluster) opens a second
chain on its virtual cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.program.ddg import DataDependenceGraph


@dataclass
class Chain:
    """One chain: consecutive same-VC instructions steered as a unit."""

    chain_id: int
    vc_id: int
    #: DDG node indices in program order; the first is the chain leader.
    nodes: List[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.nodes)


def chain_leaders(ddg: DataDependenceGraph, assignment: Sequence[int]) -> List[bool]:
    """Mark the chain leaders of a virtual-cluster ``assignment`` of ``ddg``.

    A node leads a chain when it is the first of its virtual cluster or no
    DDG predecessor shares its virtual cluster.
    """
    if len(assignment) != len(ddg):
        raise ValueError("assignment length does not match the DDG")
    seen = set()
    leaders = []
    pred_start, pred_nodes = ddg.pred_start, ddg.pred_nodes
    for node, vc in enumerate(assignment):
        preds = pred_nodes[pred_start[node] : pred_start[node + 1]]
        leaders.append(vc not in seen or vc not in map(assignment.__getitem__, preds))
        seen.add(vc)
    return leaders


def identify_chains(
    ddg: DataDependenceGraph, assignment: Sequence[int]
) -> Tuple[List[Chain], List[bool]]:
    """Split a virtual-cluster ``assignment`` of ``ddg`` into chains.

    Parameters
    ----------
    ddg:
        The region's data-dependence graph.
    assignment:
        Virtual cluster index of every DDG node.

    Returns
    -------
    (chains, leader_flags)
        The list of :class:`Chain` objects (in order of creation) and the
        per-node leader marks of :func:`chain_leaders`; a non-leader joins
        the chain open on its virtual cluster.
    """
    leaders = chain_leaders(ddg, assignment)
    chains: List[Chain] = []
    open_chain: Dict[int, Chain] = {}
    for node, (vc, leader) in enumerate(zip(assignment, leaders)):
        vc = int(vc)
        if leader:
            open_chain[vc] = Chain(chain_id=len(chains), vc_id=vc)
            chains.append(open_chain[vc])
        open_chain[vc].nodes.append(node)
    return chains, leaders

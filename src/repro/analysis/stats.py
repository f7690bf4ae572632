"""Descriptive statistics of DDGs and programs.

These are used by the workload generator's self-checks (the per-benchmark
profiles target specific ILP / dependence characteristics), by reports, and
by several tests that assert the synthetic SPEC-like programs actually differ
in the dimensions that matter for steering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.analysis.criticality import compute_criticality
from repro.program.ddg import DataDependenceGraph, build_ddg
from repro.program.program import Program
from repro.uops.opcodes import UopClass


@dataclass(frozen=True)
class DDGStats:
    """Shape statistics of one data-dependence graph."""

    num_nodes: int
    num_edges: int
    critical_path_length: int
    #: Average number of instructions per critical-path cycle -- a static
    #: upper bound on achievable IPC for the region (ILP of the region).
    ilp: float
    #: Mean number of successors per node (fan-out).
    mean_fanout: float
    #: Fraction of nodes on a critical path.
    critical_fraction: float


def ddg_statistics(ddg: DataDependenceGraph) -> DDGStats:
    """Compute :class:`DDGStats` for ``ddg``."""
    n = len(ddg)
    if n == 0:
        return DDGStats(0, 0, 0, 0.0, 0.0, 0.0)
    crit = compute_criticality(ddg)
    length = max(1, crit.critical_path_length)
    critical_nodes = len(crit.critical_nodes())
    return DDGStats(
        num_nodes=n,
        num_edges=ddg.num_edges,
        critical_path_length=crit.critical_path_length,
        ilp=n / length,
        mean_fanout=ddg.num_edges / n,
        critical_fraction=critical_nodes / n,
    )


def program_statistics(program: Program) -> Dict[str, float]:
    """Aggregate statistics over every basic block of ``program``.

    Returns a flat dictionary suitable for tabular reports:

    ``num_blocks``, ``num_instructions``, ``mean_block_size``, ``fp_fraction``,
    ``memory_fraction``, ``branch_fraction``, ``mean_block_ilp``,
    ``mean_critical_path``.
    """
    total = program.num_instructions
    if total == 0:
        raise ValueError("program has no instructions")
    block_sizes: List[int] = []
    ilps: List[float] = []
    critical_paths: List[int] = []
    for bid in range(program.num_blocks):
        sids = program.block_sids(bid)
        if not sids:
            continue
        block_sizes.append(len(sids))
        stats = ddg_statistics(build_ddg(program, sids))
        ilps.append(stats.ilp)
        critical_paths.append(stats.critical_path_length)
    counts = np.bincount(program.opclass, minlength=len(UopClass)).tolist()
    fp = sum(counts[c] for c in (UopClass.FP_ADD, UopClass.FP_MUL, UopClass.FP_DIV))
    return {
        "num_blocks": float(program.num_blocks),
        "num_instructions": float(total),
        "mean_block_size": float(np.mean(block_sizes)),
        "fp_fraction": fp / total,
        "memory_fraction": (counts[UopClass.LOAD] + counts[UopClass.STORE]) / total,
        "branch_fraction": counts[UopClass.BRANCH] / total,
        "mean_block_ilp": float(np.mean(ilps)),
        "mean_critical_path": float(np.mean(critical_paths)),
    }

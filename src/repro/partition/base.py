"""Shared driver for compile-time partitioning passes.

Every pass works region by region: ``annotate_program`` takes the program's superblock
regions and their flat-array DDGs (:func:`region_ddgs`), asks the concrete
partitioner for a per-node target (virtual or physical cluster), and lets it
annotate the static instructions -- of every region, or only of those a trace
executes (:attr:`RegionPartitioner.executed_sids`).  A
:class:`PartitionReport` summarising cut edges and balance is returned so
examples, tests and reports can inspect what the compiler did.
"""

from __future__ import annotations

import abc
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter, ne
from typing import AbstractSet, Dict, List, Optional, Sequence, Tuple

from repro.program.ddg import DataDependenceGraph, build_ddg
from repro.program.program import Program
from repro.program.regions import Region, form_regions


@dataclass
class PartitionReport:
    """Summary of one compile-time partitioning run over a program."""

    program_name: str
    partitioner: str
    #: Number of partitions the pass produces (targets ``0..num_targets-1``).
    num_targets: int = 1
    num_regions: int = 0
    #: Instructions of the regions the pass partitioned.
    num_instructions: int = 0
    #: Register dependence edges whose endpoints were placed on different targets.
    cut_edges: int = 0
    #: Total register dependence edges considered.
    total_edges: int = 0
    #: Number of instructions assigned to each target that received any.
    target_loads: Dict[int, int] = field(default_factory=dict)
    #: Number of chain leaders marked (VC partitioner only).
    chain_leaders: int = 0

    @property
    def cut_fraction(self) -> float:
        """Fraction of dependence edges cut by the partition (0 when no edges)."""
        return self.cut_edges / self.total_edges if self.total_edges else 0.0

    @property
    def balance(self) -> float:
        """Load balance over all ``num_targets`` targets in (0, 1]; 1 is perfectly even.

        A target that received no instruction counts as load 0, so a pass that
        puts everything on one of two targets reads 0.5.
        """
        loads = [self.target_loads.get(target, 0) for target in range(self.num_targets)]
        worst = max(loads)
        if worst == 0:
            return 1.0
        return min(1.0, sum(loads) / len(loads) / worst)


def region_ddgs(
    program: Program, region_size: int
) -> Tuple[List[Region], List[Optional[DataDependenceGraph]]]:
    """The regions of ``program`` and their DDGs (``None`` for empty regions).

    Regions and DDGs depend only on the program's blocks, CFG and operands
    (``srcs``/``dests``/``opclass``), never on its annotations, so they are
    formed once per ``(program, region_size)`` and held in the program's
    memo: every compile-time pass over the program (OB, RHOP and VC alike)
    reads the same objects.  Passes treat them as read-only and write only
    the annotations of the instructions they reference -- the program's own.
    """

    def build() -> Tuple[List[Region], List[Optional[DataDependenceGraph]]]:
        regions = form_regions(program, max_instructions=region_size)
        return regions, [
            build_ddg(region.instructions) if region.instructions else None
            for region in regions
        ]

    return program.memo(("region ddgs", region_size), build)


class RegionPartitioner(abc.ABC):
    """Base class of compile-time partitioners.

    Parameters
    ----------
    num_targets:
        Number of partitions to produce (virtual clusters for the hybrid
        scheme, physical clusters for the software-only schemes).
    region_size:
        Compiler window: maximum number of instructions per region.
    """

    #: Short name used in reports; subclasses override.
    name = "base"
    #: Static ids that must be annotated, or ``None`` for the whole program.
    #: The engine sets the trace's sids: ``CompiledTrace.annotate_from`` reads
    #: only those, and regions are partitioned independently.
    executed_sids: Optional[AbstractSet[int]] = None

    def __init__(self, num_targets: int, region_size: int = 128) -> None:
        if num_targets < 1:
            raise ValueError("num_targets must be positive")
        if region_size < 1:
            raise ValueError(f"region_size must be at least 1, got {region_size}")
        self.num_targets = int(num_targets)
        self.region_size = int(region_size)

    # -- hooks ------------------------------------------------------------------
    @abc.abstractmethod
    def partition_region(self, ddg: DataDependenceGraph) -> List[int]:
        """Return the target index (``0..num_targets-1``) of every DDG node."""

    def apply_assignment(
        self, ddg: DataDependenceGraph, assignment: Sequence[int], report: PartitionReport
    ) -> None:
        """Write annotations for one region.  Default: bind to physical clusters."""
        for inst, target in zip(ddg.instructions, assignment):
            inst.static_cluster = int(target)

    # -- driver -------------------------------------------------------------------
    def annotate_program(self, program: Program) -> PartitionReport:
        """Clear ``program``'s annotations and annotate its regions in place:
        all of them, or those holding one of :attr:`executed_sids` if set."""
        program.clear_annotations()
        report = PartitionReport(
            program_name=program.name, partitioner=self.name, num_targets=self.num_targets
        )
        regions, ddgs = region_ddgs(program, self.region_size)
        report.num_regions = len(regions)
        executed = self.executed_sids
        for ddg in ddgs:
            if ddg is None or (
                executed is not None
                and executed.isdisjoint(map(attrgetter("sid"), ddg.instructions))
            ):
                continue
            assignment = self.partition_region(ddg)
            if len(assignment) != len(ddg):
                raise ValueError(
                    f"{self.name}: partition returned {len(assignment)} targets "
                    f"for {len(ddg)} nodes"
                )
            for target, count in Counter(assignment).items():
                if not 0 <= target < self.num_targets:
                    raise ValueError(f"{self.name}: target {target} out of range")
                report.target_loads[target] = report.target_loads.get(target, 0) + count
            self.apply_assignment(ddg, assignment, report)
            report.num_instructions += len(ddg)
            report.total_edges += ddg.num_edges
            target_of = assignment.__getitem__
            report.cut_edges += sum(
                map(ne, map(target_of, ddg.pred_nodes), map(target_of, ddg.edge_consumers))
            )
        return report

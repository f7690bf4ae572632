"""Shared driver for compile-time partitioning passes.

Every pass works region by region: the driver forms superblock regions,
builds the region DDG, asks the concrete partitioner for a per-node target
(virtual cluster or physical cluster), and lets the partitioner write the
corresponding annotations onto the static instructions.  A
:class:`PartitionReport` summarising cut edges and balance is returned so
examples, tests and reports can inspect what the compiler did.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.program.ddg import DataDependenceGraph, build_ddg
from repro.program.program import Program
from repro.program.regions import Region, form_regions


@dataclass
class PartitionReport:
    """Summary of one compile-time partitioning run over a program."""

    program_name: str
    partitioner: str
    num_regions: int = 0
    num_instructions: int = 0
    #: Register dependence edges whose endpoints were placed on different targets.
    cut_edges: int = 0
    #: Total register dependence edges considered.
    total_edges: int = 0
    #: Number of instructions assigned to each target, accumulated over regions.
    target_loads: Dict[int, int] = field(default_factory=dict)
    #: Number of chain leaders marked (VC partitioner only).
    chain_leaders: int = 0

    @property
    def cut_fraction(self) -> float:
        """Fraction of dependence edges cut by the partition (0 when no edges)."""
        return self.cut_edges / self.total_edges if self.total_edges else 0.0

    @property
    def balance(self) -> float:
        """Load balance across targets in (0, 1]; 1 is perfectly even."""
        if not self.target_loads:
            return 1.0
        loads = list(self.target_loads.values())
        worst = max(loads)
        if worst == 0:
            return 1.0
        ideal = sum(loads) / len(loads)
        return min(1.0, ideal / worst)


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
        for node, target in enumerate(assignment):
            ddg.instructions[node].static_cluster = int(target)

    # -- driver -------------------------------------------------------------------
    def annotate_program(self, program: Program) -> PartitionReport:
        """Run the pass over every region of ``program`` and annotate it in place."""
        program.clear_annotations()
        report = PartitionReport(program_name=program.name, partitioner=self.name)
        regions, ddgs = region_ddgs(program, self.region_size)
        report.num_regions = len(regions)
        for ddg in ddgs:
            if ddg is None:
                continue
            assignment = self.partition_region(ddg)
            if len(assignment) != len(ddg):
                raise ValueError(
                    f"{self.name}: partition returned {len(assignment)} targets "
                    f"for {len(ddg)} nodes"
                )
            for target in assignment:
                if not 0 <= target < self.num_targets:
                    raise ValueError(f"{self.name}: target {target} out of range")
            self.apply_assignment(ddg, assignment, report)
            # Book-keeping for the report.
            report.num_instructions += len(ddg)
            for target in assignment:
                report.target_loads[target] = report.target_loads.get(target, 0) + 1
            for producer, consumer in ddg.edge_latency:
                report.total_edges += 1
                if assignment[producer] != assignment[consumer]:
                    report.cut_edges += 1
        report.chain_leaders = sum(
            1 for inst in program.all_instructions() if inst.chain_leader
        )
        return report

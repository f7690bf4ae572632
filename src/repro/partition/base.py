"""Shared driver for compile-time partitioning passes.

Every pass works region by region: ``annotate_program`` takes the program's
superblock regions (:func:`program_regions`), builds the flat-array DDG of
each region it partitions (:func:`region_ddg`), asks the concrete
partitioner for a per-node target (virtual or physical cluster), and lets it
record the annotations of the region's instructions -- of every region, or
only of those a trace executes (:attr:`RegionPartitioner.executed_sids`).
The program is only read: the annotations are returned as sid-indexed
columns on the :class:`PartitionReport`, which also summarises cut edges and
balance so examples, tests and reports can inspect what the compiler did.
"""

from __future__ import annotations

import abc
from collections import Counter
from dataclasses import dataclass, field
from operator import ne
from typing import TYPE_CHECKING, AbstractSet, Dict, List, Optional, Sequence, Tuple

from repro.program.ddg import DataDependenceGraph, build_ddg
from repro.program.program import Program
from repro.program.regions import Region, form_regions

if TYPE_CHECKING:  # pragma: no cover - typing only; numpy loads when a pass runs
    import numpy as np

#: The sid-indexed ``vc_id``, ``chain_leader`` and ``static_cluster`` lists a pass fills.
AnnotationLists = Tuple[List[int], List[bool], List[int]]


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
    #: Read-only columns indexed by static id: virtual cluster, chain-leader
    #: mark and static physical cluster (``-1``/``False`` for none).
    vc_id: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    chain_leader: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    static_cluster: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    @property
    def columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The annotation columns in ``CompiledTrace.ANNOTATION_FIELDS`` order,
        ready for :meth:`~repro.uops.compiled.CompiledTrace.annotate_from`."""
        return self.vc_id, self.chain_leader, self.static_cluster

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


def program_regions(program: Program, region_size: int) -> List[Region]:
    """The regions of ``program``.

    Formed once per ``(program, region_size)`` and held in the program's
    memo: every pass over the program (OB, RHOP and VC alike) reads them.
    """
    return program.memo(
        ("regions", region_size), lambda: form_regions(program, max_instructions=region_size)
    )


def region_ddg(program: Program, region_size: int, region: Region) -> DataDependenceGraph:
    """The DDG of ``region`` (of ``program_regions(program, region_size)``),
    built when a pass first partitions the region, then memoised on the
    program; regions no trace executes never get one.  Read-only."""
    return program.memo(
        ("region ddg", region_size, region.rid), lambda: build_ddg(program, region.sids)
    )


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
    #: only those, and regions are partitioned independently.  A region none
    #: of them falls in is neither partitioned nor given a DDG.
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
        self,
        ddg: DataDependenceGraph,
        assignment: Sequence[int],
        columns: AnnotationLists,
        report: PartitionReport,
    ) -> None:
        """Record one region's annotations in the sid-indexed ``columns``.

        Default: bind every instruction to its physical cluster.
        """
        static_cluster = columns[2]
        for sid, target in zip(ddg.sids, assignment):
            static_cluster[sid] = target

    # -- driver -------------------------------------------------------------------
    def annotate_program(self, program: Program) -> PartitionReport:
        """Partition ``program``'s regions -- all of them, or those holding one
        of :attr:`executed_sids` if set -- and return the report carrying
        their annotations as sid-indexed columns.  ``program`` is not changed.
        """
        import numpy as np

        from repro.uops.compiled import NO_ANNOTATION

        report = PartitionReport(
            program_name=program.name, partitioner=self.name, num_targets=self.num_targets
        )
        size = program.num_instructions
        columns: AnnotationLists = (
            [NO_ANNOTATION] * size,
            [False] * size,
            [NO_ANNOTATION] * size,
        )
        regions = program_regions(program, self.region_size)
        report.num_regions = len(regions)
        executed = self.executed_sids
        for region in regions:
            if not region.sids or (executed is not None and executed.isdisjoint(region.sids)):
                continue
            ddg = region_ddg(program, self.region_size, region)
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
            self.apply_assignment(ddg, assignment, columns, report)
            report.num_instructions += len(ddg)
            report.total_edges += ddg.num_edges
            target_of = assignment.__getitem__
            report.cut_edges += sum(
                map(ne, map(target_of, ddg.pred_nodes), map(target_of, ddg.edge_consumers))
            )
        for name, values, dtype in zip(
            ("vc_id", "chain_leader", "static_cluster"), columns, (np.int32, bool, np.int32)
        ):
            column = np.array(values, dtype=dtype)
            column.flags.writeable = False
            setattr(report, name, column)
        return report

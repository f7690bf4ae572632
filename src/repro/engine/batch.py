"""Batch scheduling: group a run's jobs by the trace they consume.

Every figure and table of the paper is a sweep of many steering
configurations over the *same* workload traces -- the configuration axis is
wide, the trace axis is narrow.  A :class:`RunPlan` makes that structure
explicit: it partitions a job sequence into one :class:`JobBatch` per
distinct :meth:`~repro.engine.job.SimulationJob.trace_key`, so the engine
can pay every fixed per-trace cost (artifact load or generation, SoA column
hoisting, processor construction) once per *batch* instead of once per *job*
-- the classic trace-driven-simulation amortisation.

Two invariants make batching invisible in the results:

* **Partitioning preserves job order.**  Each batch records the original
  indices of its jobs in ascending order, every job lands in exactly one
  batch, and the engine writes results back by index -- so reports see
  per-job order exactly as if the jobs had run one by one.
* **Batch order is deterministic.**  Batches are sorted by trace key (a
  content hash, unique per batch by construction).  The same job list always
  produces the same plan.

The plan is pure description: it never executes anything, and it never
inspects configurations -- grouping depends only on the trace identity.  The
runner narrows each batch to its uncached jobs and ships what is left as one
worker task.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.engine.job import SimulationJob


@dataclass(frozen=True)
class JobBatch:
    """All jobs of one run that simulate the same compiled trace.

    Parameters
    ----------
    trace_key:
        The shared :meth:`SimulationJob.trace_key` of every job in the batch.
    indices:
        Positions of the jobs in the original job sequence, ascending.
    jobs:
        The jobs themselves, in the same (original) order as ``indices``.
    """

    trace_key: str
    indices: Tuple[int, ...]
    jobs: Tuple[SimulationJob, ...]

    def __post_init__(self) -> None:
        if len(self.indices) != len(self.jobs) or not self.jobs:
            raise ValueError("a batch needs equally many indices and jobs (at least one)")

    @property
    def width(self) -> int:
        """Number of configurations sharing this batch's trace."""
        return len(self.jobs)


@dataclass(frozen=True)
class RunPlan:
    """A job sequence partitioned into per-trace batches.

    Built with :meth:`from_jobs`; ``batches`` are ordered by trace key and
    jointly cover the input exactly (every index once, ascending within each
    batch).
    """

    batches: Tuple[JobBatch, ...]
    num_jobs: int

    @classmethod
    def from_jobs(cls, jobs: Sequence[SimulationJob]) -> "RunPlan":
        """Group ``jobs`` by trace key, preserving per-trace job order."""
        groups: Dict[str, List[int]] = {}
        for index, job in enumerate(jobs):
            groups.setdefault(job.trace_key(), []).append(index)
        batches = tuple(
            JobBatch(
                trace_key=key,
                indices=tuple(indices),
                jobs=tuple(jobs[index] for index in indices),
            )
            for key, indices in sorted(groups.items())
        )
        return cls(batches=batches, num_jobs=len(jobs))

    @property
    def num_traces(self) -> int:
        """Number of distinct traces (= batches) in the plan."""
        return len(self.batches)

    @property
    def max_width(self) -> int:
        """Widest batch (configurations per trace)."""
        return max((batch.width for batch in self.batches), default=0)

    @property
    def mean_width(self) -> float:
        """Average configurations per trace."""
        return self.num_jobs / self.num_traces if self.batches else 0.0

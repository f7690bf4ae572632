"""``OP``: occupancy-aware hardware-only steering (the paper's baseline).

The policy follows the description in Sections 2.1 and 3.1:

* **dependence-based**: each µop is steered to the cluster holding most of
  its source operands.  The register locations are read from the rename
  table *sequentially* -- the location updates performed by earlier µops of
  the same dispatch group are visible (the expensive serialisation the paper
  wants to remove from the hardware).
* **occupancy-aware tie-breaking**: ties go to the least loaded cluster.
* **occupancy-aware stalling** (per [15]): if the preferred cluster cannot
  accept the µop because its issue queue is full, the front end *stalls*
  rather than spraying the µop to another cluster -- unless some other
  cluster is clearly idle (occupancy below ``idle_fraction`` of the preferred
  cluster's), in which case the µop is diverted there.

This is the highest-complexity, highest-performance scheme: it needs the
dependence-check table, the workload counters, the vote unit and the copy
generator (all four rows of Table 1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.scenarios.registry import register_policy
from repro.steering.base import (
    STALL,
    CompiledSteeringSpec,
    SteeringContext,
    SteeringHardware,
    SteeringPolicy,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.uops.compiled import CompiledUopView


class OccupancyAwareSteering(SteeringPolicy):
    """Sequential dependence + occupancy steering with stalling.

    Parameters
    ----------
    idle_fraction:
        A non-preferred cluster counts as "not busy" (and may receive the µop
        when the preferred cluster is full) if its occupancy is below this
        fraction of the preferred cluster's occupancy.
    """

    name = "OP"

    def __init__(self, idle_fraction: float = 0.5) -> None:
        if not 0.0 <= idle_fraction <= 1.0:
            raise ValueError("idle_fraction must be in [0, 1]")
        self.idle_fraction = float(idle_fraction)

    def pick_cluster(self, uop: CompiledUopView, context: SteeringContext) -> Optional[int]:
        """Steer ``uop`` using source locations, occupancy, and stalling.

        This is the hottest policy callback of the simulator (it runs once
        per dispatched µop), so the selection is written as explicit loops;
        every choice (argmax over source counts, occupancy tie-breaks with
        the lowest index winning, the idle-diversion filter) is identical to
        the straightforward ``max``/``min``-with-key formulation.
        """
        num_clusters = context.num_clusters
        clusters = range(num_clusters)
        # Count how many source operands each cluster already holds.
        source_counts = [0] * num_clusters
        mask_of = context.register_location_mask
        for reg in uop.srcs:
            mask = mask_of(reg)
            if mask:
                for cluster in clusters:
                    if mask >> cluster & 1:
                        source_counts[cluster] += 1
        # Preferred cluster: most located sources, ties to the least loaded
        # (lowest index wins further ties).  A best count of zero degenerates
        # to pure workload balance over all clusters -- every cluster ties at
        # zero, which is exactly ``least_loaded_cluster()``.
        occupancy_of = context.cluster_occupancy
        best_count = -1
        preferred = 0
        preferred_occupancy = 0
        for cluster in clusters:
            count = source_counts[cluster]
            if count > best_count:
                best_count = count
                preferred = cluster
                preferred_occupancy = occupancy_of(cluster)
            elif count == best_count:
                occupancy = occupancy_of(cluster)
                if occupancy < preferred_occupancy:
                    preferred = cluster
                    preferred_occupancy = occupancy
        # Occupancy-aware stalling: if the preferred cluster cannot take the
        # µop, only divert it when some other cluster is clearly idle.
        queue = uop.queue
        queue_free = context.queue_free
        if queue_free(preferred, queue) > 0:
            return preferred
        threshold = preferred_occupancy * self.idle_fraction
        diverted = -1
        diverted_occupancy = 0
        for cluster in clusters:
            if cluster == preferred or queue_free(cluster, queue) <= 0:
                continue
            occupancy = occupancy_of(cluster)
            if occupancy <= threshold and (diverted < 0 or occupancy < diverted_occupancy):
                diverted = cluster
                diverted_occupancy = occupancy
        return diverted if diverted >= 0 else STALL

    def compiled_spec(self) -> Optional[CompiledSteeringSpec]:
        """Lower to the ``occupancy-stall`` form.

        The form replicates the full selection verbatim -- per-cluster
        located-source counts (duplicates preserved), occupancy tie-breaks
        with the lowest index winning, queue-full stalling and the
        idle-diversion filter -- including the STALL outcome, which the
        kernels account as a steering stall exactly like the callback path.
        """
        return CompiledSteeringSpec(
            form="occupancy-stall", idle_fraction=self.idle_fraction
        )

    def hardware(self) -> SteeringHardware:
        """OP needs every structure of Table 1."""
        return SteeringHardware(
            dependence_check=True,
            workload_counters=True,
            vote_unit=True,
            copy_generator=True,
        )


@register_policy("OP")
def _build_op(num_clusters: int, num_virtual_clusters: int, **params) -> OccupancyAwareSteering:
    """Registry builder for the ``OP`` baseline (accepts ``idle_fraction``)."""
    return OccupancyAwareSteering(**params)

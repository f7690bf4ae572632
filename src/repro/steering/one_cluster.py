"""The ``one-cluster`` configuration: every µop goes to the same cluster.

The paper evaluates this naive scheme to show how much performance is on the
table: it never generates copies (all values stay local) but uses only one
cluster's worth of issue bandwidth, queue capacity and functional units.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.scenarios.registry import register_policy
from repro.steering.base import (
    CompiledSteeringSpec,
    SteeringContext,
    SteeringHardware,
    SteeringPolicy,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.uops.compiled import CompiledUopView


class OneClusterSteering(SteeringPolicy):
    """Send every µop to a fixed cluster (cluster 0 by default)."""

    name = "one-cluster"

    def __init__(self, target_cluster: int = 0) -> None:
        if target_cluster < 0:
            raise ValueError("target_cluster must be non-negative")
        self.target_cluster = int(target_cluster)

    def reset(self, num_clusters: int) -> None:
        super().reset(num_clusters)
        if self.target_cluster >= num_clusters:
            raise ValueError(
                f"target cluster {self.target_cluster} does not exist in a "
                f"{num_clusters}-cluster machine"
            )

    def pick_cluster(self, uop: CompiledUopView, context: SteeringContext) -> Optional[int]:
        """Always the configured cluster."""
        return self.target_cluster

    def compiled_spec(self) -> Optional[CompiledSteeringSpec]:
        """Lower to the ``constant`` form (``reset`` validated the target)."""
        return CompiledSteeringSpec(form="constant", target_cluster=self.target_cluster)

    def hardware(self) -> SteeringHardware:
        """No steering hardware at all (and no copies are ever needed)."""
        return SteeringHardware()


@register_policy("one-cluster")
def _build_one_cluster(num_clusters: int, num_virtual_clusters: int, **params) -> OneClusterSteering:
    """Registry builder for ``one-cluster`` (accepts ``target_cluster``)."""
    return OneClusterSteering(**params)

"""Extra hardware-only steering baselines outside the paper's Table 3.

These are standard points of comparison in the clustered-microarchitecture
literature (e.g. Baniasadi & Moshovos' Mod-N and load-balance heuristics).
No built-in scenario runs them: they are registered for custom scenarios
and run on the per-µop callback path (they have no fused lowering).

* :class:`RoundRobinSteering` ignores both dependences and occupancy,
* :class:`LoadBalanceSteering` uses only the workload counters,
* :class:`DependenceOnlySteering` uses only the register-location table.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.scenarios.registry import register_policy
from repro.steering.base import SteeringContext, SteeringHardware, SteeringPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.uops.compiled import CompiledUopView


class RoundRobinSteering(SteeringPolicy):
    """Send consecutive µops to consecutive clusters (Mod-1)."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def reset(self, num_clusters: int) -> None:
        super().reset(num_clusters)
        self._next = 0

    def pick_cluster(self, uop: CompiledUopView, context: SteeringContext) -> Optional[int]:
        """Rotate over the clusters regardless of anything else."""
        cluster = self._next
        self._next = (self._next + 1) % context.num_clusters
        return cluster

    def hardware(self) -> SteeringHardware:
        """Just a modulo counter plus the copy generator."""
        return SteeringHardware(copy_generator=True)


class LoadBalanceSteering(SteeringPolicy):
    """Always pick the least loaded cluster (balance-only heuristic)."""

    name = "load-balance"

    def pick_cluster(self, uop: CompiledUopView, context: SteeringContext) -> Optional[int]:
        """Least-loaded cluster, ignoring operand locations."""
        return context.least_loaded_cluster()

    def hardware(self) -> SteeringHardware:
        """Workload counters plus the copy generator."""
        return SteeringHardware(workload_counters=True, copy_generator=True)


class DependenceOnlySteering(SteeringPolicy):
    """Follow the operands, ignoring occupancy (dependence-only heuristic)."""

    name = "dependence-only"

    def pick_cluster(self, uop: CompiledUopView, context: SteeringContext) -> Optional[int]:
        """Cluster holding most sources; cluster 0 when nothing is located."""
        num_clusters = context.num_clusters
        counts = [0] * num_clusters
        for reg in uop.srcs:
            mask = context.register_location_mask(reg)
            for cluster in range(num_clusters):
                if mask & (1 << cluster):
                    counts[cluster] += 1
        best = max(counts) if counts else 0
        if best == 0:
            return 0
        return counts.index(best)

    def hardware(self) -> SteeringHardware:
        """Dependence-check table plus the copy generator."""
        return SteeringHardware(dependence_check=True, copy_generator=True)


@register_policy("round-robin")
def _build_round_robin(num_clusters: int, num_virtual_clusters: int, **params) -> RoundRobinSteering:
    return RoundRobinSteering(**params)


@register_policy("load-balance")
def _build_load_balance(num_clusters: int, num_virtual_clusters: int, **params) -> LoadBalanceSteering:
    return LoadBalanceSteering(**params)


@register_policy("dependence-only")
def _build_dependence_only(
    num_clusters: int, num_virtual_clusters: int, **params
) -> DependenceOnlySteering:
    return DependenceOnlySteering(**params)

"""Steering that follows a compile-time physical-cluster binding (OB and RHOP).

The software-only schemes of the paper (OB/SPDI and RHOP) bind every static
instruction to a physical cluster at compile time; the hardware simply obeys.
The only hardware the scheme needs is the copy generator -- no dependence
check, no vote unit, no workload counters -- which is why software-only
steering is so attractive complexity-wise, and why it loses performance when
the static workload estimate turns out to be wrong at run time.

µops without a binding (library code the compiler did not see, or copies) go
to a configurable default cluster.
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


class StaticAssignmentSteering(SteeringPolicy):
    """Obey the ``static_cluster`` annotation written by a software-only pass.

    Parameters
    ----------
    name:
        Report name; the experiment harness instantiates this class as
        ``"OB"`` or ``"RHOP"`` depending on which compile-time pass annotated
        the program.
    default_cluster:
        Cluster used for µops that carry no static binding.
    """

    def __init__(self, name: str = "static", default_cluster: int = 0) -> None:
        self.name = name
        if default_cluster < 0:
            raise ValueError("default_cluster must be non-negative")
        self.default_cluster = int(default_cluster)

    def pick_cluster(self, uop: CompiledUopView, context: SteeringContext) -> Optional[int]:
        """Return the compile-time binding (modulo the machine's cluster count)."""
        target = uop.static_cluster
        if target is None:
            target = self.default_cluster
        # A program compiled for more clusters than the machine has folds onto
        # the available ones; this also keeps the policy robust to mismatched
        # configurations in ablation studies.
        return int(target) % context.num_clusters

    def compiled_spec(self) -> Optional[CompiledSteeringSpec]:
        """Lower to the ``static-table`` form.

        The kernel builds the per-µop choice table from the trace's
        ``static_cluster`` column at run start (annotations are re-read every
        run), substituting ``default_cluster`` for unbound µops and folding
        with the same modulo ``pick_cluster`` applies.
        """
        return CompiledSteeringSpec(
            form="static-table", default_cluster=self.default_cluster
        )

    def hardware(self) -> SteeringHardware:
        """Only the copy generator remains in hardware."""
        return SteeringHardware(copy_generator=True)


@register_policy("static")
def _build_static(
    num_clusters: int, num_virtual_clusters: int, **params
) -> StaticAssignmentSteering:
    """Registry builder for compiler-bound steering (``name`` selects the report
    label, e.g. ``"OB"`` or ``"RHOP"``; accepts ``default_cluster``)."""
    return StaticAssignmentSteering(**params)

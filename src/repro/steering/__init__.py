"""Run-time steering policies (the hardware half of steering).

A steering policy decides, at dispatch time, which physical cluster each µop
is sent to.  The policies mirror the configurations of Table 3:

* :class:`~repro.steering.occupancy.OccupancyAwareSteering` -- ``OP``, the
  state-of-the-art hardware-only baseline: sequential dependence-based
  steering with occupancy-aware stalling.
* :class:`~repro.steering.one_cluster.OneClusterSteering` -- ``one-cluster``.
* :class:`~repro.steering.static_follow.StaticAssignmentSteering` -- follows
  the physical-cluster binding produced by a software-only pass (``OB`` and
  ``RHOP``).
* :class:`~repro.steering.virtual_cluster.VirtualClusterSteering` -- ``VC``,
  the paper's hybrid scheme: a tiny mapping table plus workload counters,
  updated only at chain leaders (Figure 4).
* :mod:`repro.steering.baselines` -- extra hardware-only baselines
  (round-robin, load-only, dependence-only) outside Table 3, registered
  for custom scenarios; no built-in scenario runs them.

Each policy also declares which hardware structures it needs
(:class:`~repro.steering.base.SteeringHardware`), feeding the Table 1
complexity comparison.
"""

from repro.steering.base import (
    STALL,
    SteeringContext,
    SteeringHardware,
    SteeringPolicy,
)
from repro.steering.baselines import (
    DependenceOnlySteering,
    LoadBalanceSteering,
    RoundRobinSteering,
)
from repro.steering.occupancy import OccupancyAwareSteering
from repro.steering.one_cluster import OneClusterSteering
from repro.steering.static_follow import StaticAssignmentSteering
from repro.steering.virtual_cluster import VirtualClusterSteering

__all__ = [
    "STALL",
    "SteeringContext",
    "SteeringHardware",
    "SteeringPolicy",
    "OccupancyAwareSteering",
    "OneClusterSteering",
    "StaticAssignmentSteering",
    "VirtualClusterSteering",
    "RoundRobinSteering",
    "LoadBalanceSteering",
    "DependenceOnlySteering",
]

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

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".base": ("STALL", "SteeringContext", "SteeringHardware", "SteeringPolicy"),
        ".baselines": ("DependenceOnlySteering", "LoadBalanceSteering", "RoundRobinSteering"),
        ".occupancy": ("OccupancyAwareSteering",),
        ".one_cluster": ("OneClusterSteering",),
        ".static_follow": ("StaticAssignmentSteering",),
        ".virtual_cluster": ("VirtualClusterSteering",),
    },
)

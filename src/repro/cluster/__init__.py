"""Clustered out-of-order microarchitecture simulator.

A trace-driven, cycle-stepped model of the paper's baseline machine
(Figure 1 / Table 2): a monolithic front end (fetch, decode/rename/steer,
ROB) feeding a clustered back end where every cluster has its own integer,
floating-point and copy issue queues, register files and functional units,
connected by point-to-point links.  The load/store queue and the data cache
are unified and shared by all clusters.

Sub-modules:

* :mod:`repro.cluster.config` -- architectural parameters (Table 2).
* :mod:`repro.cluster.cache` -- L1 / L2 / memory hierarchy.
* :mod:`repro.cluster.interconnect` -- point-to-point copy links.
* :mod:`repro.cluster.rename` -- value tracking and the register-location
  table used by dependence-based steering and copy generation.
* :mod:`repro.cluster.issue_queue` -- per-cluster issue queues with ready
  lists.
* :mod:`repro.cluster.rob` -- reorder buffer.
* :mod:`repro.cluster.lsq` -- unified load/store queue occupancy.
* :mod:`repro.cluster.regfile` -- per-cluster physical register file capacity.
* :mod:`repro.cluster.metrics` -- per-simulation statistics.
* :mod:`repro.cluster.processor` -- the pipeline putting it all together.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".cache": ("CacheStats", "MemoryHierarchy", "SetAssociativeCache"),
        ".config": ("ClusterConfig", "two_cluster_config", "four_cluster_config"),
        ".interconnect": ("Interconnect",),
        ".metrics": ("SimulationMetrics",),
        ".processor": ("ClusteredProcessor", "simulate_trace"),
    },
)

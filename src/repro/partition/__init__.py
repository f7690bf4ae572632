"""Compile-time partitioning passes (the software half of steering).

Three passes are implemented, matching the configurations of Table 3:

* :mod:`repro.partition.vc_partitioner` -- the paper's contribution: the
  virtual-cluster partitioner of Figure 2 (criticality computation,
  completion-time-driven assignment to virtual clusters, chain / chain-leader
  identification of Figure 3).
* :mod:`repro.partition.rhop_partitioner` -- RHOP: multilevel (coarsening +
  refinement) graph partitioning with slack-based weights, binding
  instructions to physical clusters.
* :mod:`repro.partition.ob_partitioner` -- OB: SPDI-style static placement
  with dynamic issue; greedy per-operation placement onto physical clusters
  using static latency and load estimates.

All passes share the region loop of :mod:`repro.partition.base`, read each
region's DDG as flat CSR arrays (:mod:`repro.program.ddg`) and write their
results as annotations on the static instructions (the ISA extension
modelled in :mod:`repro.uops.encoding`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".base": ("PartitionReport", "RegionPartitioner"),
        ".chains": ("Chain", "identify_chains"),
        ".multilevel": ("MultilevelPartitioner",),
        ".ob_partitioner": ("OperationBasedPartitioner",),
        ".rhop_partitioner": ("PartitionObjective", "RhopPartitioner"),
        ".vc_partitioner": ("VirtualClusterPartitioner",),
    },
)

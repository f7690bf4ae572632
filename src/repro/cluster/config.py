"""Architectural parameters of the clustered machine (Table 2 of the paper).

The defaults reproduce Table 2:

* Front end: 6 µops/cycle fetch from a trace cache, 5-cycle fetch-to-dispatch,
  3+3 µops/cycle decode/rename/steer (modelled as a 6-wide dispatch group),
  256+256-entry ROB committing 3+3 µops/cycle.
* Back end (per cluster): 48-entry INT issue queue issuing 2 µops/cycle,
  48-entry FP queue issuing 2 µops/cycle, 24-entry COPY queue issuing
  1 copy/cycle, 256-entry INT and FP register files.
* Inter-cluster communication: bidirectional point-to-point links, 1-cycle
  latency, 1 copy per cycle per link.
* Memory: unified 256-entry LSQ, 32 KB 4-way L1 with 3-cycle hits and
  2 read / 1 write ports, 2 MB 16-way L2 with 13-cycle hits, >= 500-cycle
  memory.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.scenarios.registry import register_machine


@dataclass(frozen=True)
class ClusterConfig:
    """Complete architectural configuration of the simulated machine."""

    # -- clustering ---------------------------------------------------------------
    num_clusters: int = 2

    # -- front end ----------------------------------------------------------------
    fetch_width: int = 6
    fetch_to_dispatch_latency: int = 5
    dispatch_width: int = 6
    rob_size: int = 512
    commit_width: int = 6

    # -- per-cluster back end ------------------------------------------------------
    iq_int_size: int = 48
    iq_fp_size: int = 48
    iq_copy_size: int = 24
    issue_int_width: int = 2
    issue_fp_width: int = 2
    issue_copy_width: int = 1
    regfile_int_size: int = 256
    regfile_fp_size: int = 256

    # -- interconnect ---------------------------------------------------------------
    link_latency: int = 1
    copies_per_link_per_cycle: int = 1

    # -- memory hierarchy -------------------------------------------------------------
    lsq_size: int = 256
    line_size: int = 64
    l1_size_kb: int = 32
    l1_assoc: int = 4
    l1_hit_latency: int = 3
    l1_read_ports: int = 2
    #: Not modelled: only loads are port-limited (``l1_read_ports``); stores
    #: reach the cache without a port limit, and neither kernel reads this
    #: field.  It stays because result-cache keys hash every field.
    l1_write_ports: int = 1
    l2_size_kb: int = 2048
    l2_assoc: int = 16
    l2_hit_latency: int = 13
    memory_latency: int = 500

    # -- control flow ---------------------------------------------------------------
    model_branch_mispredictions: bool = True
    mispredict_redirect_penalty: int = 6

    # -- methodology -----------------------------------------------------------------
    #: Pre-touch the data cache with the trace's addresses before timing.  The
    #: paper simulates 10 M-instruction PinPoints regions where cold misses are
    #: negligible; our traces are much shorter, so without warm-up every first
    #: touch would be a 500-cycle compulsory miss and memory latency would
    #: drown out the steering effects being measured.
    warm_caches: bool = True

    # -- simulation guards ------------------------------------------------------------
    max_cycles: int = 5_000_000

    def __post_init__(self) -> None:
        positive_fields = (
            "num_clusters",
            "fetch_width",
            "dispatch_width",
            "rob_size",
            "commit_width",
            "iq_int_size",
            "iq_fp_size",
            "iq_copy_size",
            "issue_int_width",
            "issue_fp_width",
            "issue_copy_width",
            "regfile_int_size",
            "regfile_fp_size",
            "lsq_size",
            "copies_per_link_per_cycle",
            "line_size",
            "l1_size_kb",
            "l1_assoc",
            "l1_read_ports",
            "l2_size_kb",
            "l2_assoc",
            "memory_latency",
            "max_cycles",
        )
        for field_name in positive_fields:
            if getattr(self, field_name) < 1:
                raise ValueError(f"{field_name} must be positive")
        non_negative_fields = (
            "fetch_to_dispatch_latency",
            "link_latency",
            "l1_hit_latency",
            "l2_hit_latency",
            "mispredict_redirect_penalty",
        )
        for field_name in non_negative_fields:
            if getattr(self, field_name) < 0:
                raise ValueError(f"{field_name} must be non-negative")
        for level in ("l1", "l2"):
            size_kb, assoc = getattr(self, f"{level}_size_kb"), getattr(self, f"{level}_assoc")
            lines = size_kb * 1024 // self.line_size
            if lines < assoc:
                raise ValueError(
                    f"{level}_assoc={assoc} exceeds the {lines} lines of a "
                    f"{level}_size_kb={size_kb} cache with line_size={self.line_size}"
                )
        if self.num_clusters > 16:
            raise ValueError("at most 16 clusters are supported (register-location bitmask width)")

    def with_overrides(self, **kwargs) -> "ClusterConfig":
        """Return a copy of the configuration with the given fields replaced."""
        return replace(self, **kwargs)


@register_machine("table2-2c")
def two_cluster_config(**overrides) -> ClusterConfig:
    """The paper's base machine: 2 clusters with Table 2 parameters."""
    return ClusterConfig(num_clusters=2).with_overrides(**overrides) if overrides else ClusterConfig(num_clusters=2)


@register_machine("table2-4c")
def four_cluster_config(**overrides) -> ClusterConfig:
    """The scalability machine of Section 5.4: 4 clusters, same per-cluster resources."""
    config = ClusterConfig(num_clusters=4)
    return config.with_overrides(**overrides) if overrides else config

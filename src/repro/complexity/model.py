"""Structural complexity model of the steering unit.

Table 1 of the paper compares the hardware-only occupancy-aware scheme with
the hybrid virtual-cluster scheme along four components:

===========================  ==================  ======================
Component                    hardware-only (OP)  hybrid (VC)
===========================  ==================  ======================
dependence check             yes                 no
workload balance management  yes                 yes
vote unit                    yes                 no
copy generator               yes                 no (moved after mapping)
===========================  ==================  ======================

(The paper's table marks the copy generator as removed from the *steering*
unit for the hybrid scheme because copy generation happens after the mapping
decision with information already present in the rename table.)

This module reproduces the yes/no table directly from each policy's
:meth:`~repro.steering.base.SteeringPolicy.hardware` declaration and adds a
quantitative storage estimate plus a serialisation flag, so ablation studies
can reason about how the cost scales with the cluster count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.cluster.config import ClusterConfig
from repro.steering.base import SteeringHardware, SteeringPolicy
from repro.uops.registers import NUM_REGISTERS

#: Width of each workload counter.
COUNTER_BITS = 10


@dataclass(frozen=True)
class ComplexityEstimate:
    """Estimated steering-unit cost of one scheme on one machine configuration."""

    policy_name: str
    hardware: SteeringHardware
    #: Bits of storage in steering-specific structures.
    storage_bits: int
    #: True when the steering decision of µop *i* needs the decision of µop *i-1*
    #: of the same dispatch group (the serialisation problem of Section 2.1).
    serialized_decision: bool

    def as_row(self) -> Dict[str, object]:
        """Row of the Table 1 reproduction."""
        row: Dict[str, object] = {"steering algorithm": self.policy_name}
        row.update(
            {
                "dependence check": "yes" if self.hardware.dependence_check else "no",
                "workload balance management": "yes" if self.hardware.workload_counters else "no",
                "vote unit": "yes" if self.hardware.vote_unit else "no",
                "copy generator": "yes" if self.hardware.copy_generator else "no",
                "storage bits": self.storage_bits,
                "serialized": "yes" if self.serialized_decision else "no",
            }
        )
        return row


class SteeringComplexityModel:
    """Estimate steering-unit storage for a machine configuration.

    Parameters
    ----------
    config:
        The machine (cluster count drives counter and table widths).

    The dependence-check table tracks every architectural register
    (:data:`~repro.uops.registers.NUM_REGISTERS`), and each workload counter
    is :data:`COUNTER_BITS` wide.
    """

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config

    # -- per-structure costs -------------------------------------------------------
    def cluster_id_bits(self) -> int:
        """Bits needed to name a physical cluster."""
        bits = 1
        while (1 << bits) < self.config.num_clusters:
            bits += 1
        return bits

    def dependence_check_bits(self) -> int:
        """Location table: one cluster id (plus a valid bit) per architectural register."""
        return NUM_REGISTERS * (self.cluster_id_bits() + 1)

    def workload_counter_bits(self) -> int:
        """N-1 relative occupancy counters, as described in Section 4.3."""
        return (self.config.num_clusters - 1) * COUNTER_BITS

    def vote_unit_bits(self) -> int:
        """Per-dispatch-slot source-location comparators and the priority encoder.

        Approximated as one location mask per source operand of every µop in
        the dispatch group plus the cluster-wide comparison tree state.
        """
        sources_per_uop = 2
        return (
            self.config.dispatch_width
            * sources_per_uop
            * self.config.num_clusters
            + self.config.num_clusters * COUNTER_BITS
        )

    def mapping_table_bits(self, entries: int) -> int:
        """VC->PC mapping table: one physical cluster id per virtual cluster."""
        return entries * self.cluster_id_bits()

    # -- estimates ------------------------------------------------------------------
    def estimate(self, policy: SteeringPolicy) -> ComplexityEstimate:
        """Estimate the steering-unit complexity of ``policy`` on this machine."""
        hardware = policy.hardware()
        bits = 0
        if hardware.dependence_check:
            bits += self.dependence_check_bits()
        if hardware.workload_counters:
            bits += self.workload_counter_bits()
        if hardware.vote_unit:
            bits += self.vote_unit_bits()
        if hardware.mapping_table_entries:
            bits += self.mapping_table_bits(hardware.mapping_table_entries)
        serialized = hardware.dependence_check and hardware.vote_unit
        return ComplexityEstimate(
            policy_name=policy.name,
            hardware=hardware,
            storage_bits=bits,
            serialized_decision=serialized,
        )


def complexity_table(
    policies: Sequence[SteeringPolicy],
    config: ClusterConfig | None = None,
) -> List[Dict[str, object]]:
    """Reproduce Table 1 for ``policies`` on ``config`` (2-cluster machine by default)."""
    model = SteeringComplexityModel(config or ClusterConfig())
    return [model.estimate(policy).as_row() for policy in policies]

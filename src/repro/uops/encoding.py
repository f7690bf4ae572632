"""ISA extension carrying steering annotations from compiler to hardware.

Section 5.1 of the paper extends the x86 instruction set so that the virtual
cluster id assigned at compile time, together with the chain-leader mark, can
be passed to the hardware.  We model that extension explicitly:

* :class:`SteeringAnnotation` is the logical content of the extension,
* :func:`encode_annotation` packs it into a small integer exactly as an
  instruction prefix would, which lets the tests verify that the information
  the hardware needs fits in a handful of bits (the complexity argument of
  the paper relies on the annotation being tiny).

Encoding layout (least-significant bits first)::

    bit 0       : valid        (annotation present)
    bit 1       : chain leader (Figure 3 mark; non-leaders carry 0)
    bits 2..5   : vc_id        (up to 16 virtual clusters)
    bits 6..9   : static physical cluster + 1 (0 = unbound), for software-only
                  schemes that bind instructions directly to physical clusters
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Maximum number of virtual clusters representable by the encoding.
MAX_VIRTUAL_CLUSTERS = 16

#: Maximum number of physical clusters representable by the encoding.
MAX_PHYSICAL_CLUSTERS = 15

#: Number of bits used by the encoded annotation.
ANNOTATION_BITS = 10


@dataclass(frozen=True)
class SteeringAnnotation:
    """Steering information attached to one static instruction.

    ``vc_id`` / ``chain_leader`` are produced by the hybrid VC partitioner;
    ``static_cluster`` is produced by the software-only partitioners (OB and
    RHOP) which bind instructions directly to physical clusters.  A pass
    returns them as sid-indexed columns
    (:attr:`repro.partition.base.PartitionReport.columns`); one instruction's
    entries make one annotation.
    """

    vc_id: Optional[int] = None
    chain_leader: bool = False
    static_cluster: Optional[int] = None

    @property
    def is_empty(self) -> bool:
        """True when the instruction carries no steering information."""
        return self.vc_id is None and self.static_cluster is None and not self.chain_leader


def encode_annotation(annotation: SteeringAnnotation) -> int:
    """Pack ``annotation`` into the :data:`ANNOTATION_BITS`-bit ISA field.

    Raises
    ------
    ValueError
        If the virtual or physical cluster id does not fit the encoding.
    """
    if annotation.is_empty:
        return 0
    vc = annotation.vc_id if annotation.vc_id is not None else 0
    if not 0 <= vc < MAX_VIRTUAL_CLUSTERS:
        raise ValueError(f"vc_id {vc} does not fit in the {MAX_VIRTUAL_CLUSTERS}-entry encoding")
    if annotation.static_cluster is None:
        pc_field = 0
    else:
        if not 0 <= annotation.static_cluster < MAX_PHYSICAL_CLUSTERS:
            raise ValueError(
                f"static_cluster {annotation.static_cluster} does not fit in the encoding"
            )
        pc_field = annotation.static_cluster + 1
    word = 1  # valid bit
    word |= (1 if annotation.chain_leader else 0) << 1
    word |= vc << 2
    word |= pc_field << 6
    return word

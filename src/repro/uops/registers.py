"""Architectural register model.

The compiler substrate and the simulator share a flat integer register
namespace.  Integer registers occupy ids ``[0, num_int)`` and floating-point
registers occupy ids ``[num_int, num_int + num_fp)``, as described by a
small :class:`RegisterSpace` object.

The physical register files of each cluster (256 INT + 256 FP entries in
Table 2) are modelled in :mod:`repro.cluster.regfile`; this module only covers
the *architectural* registers named by instructions.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RegisterSpace:
    """Description of the architectural register namespace.

    Parameters
    ----------
    num_int:
        Number of architectural integer registers.
    num_fp:
        Number of architectural floating-point registers.

    Notes
    -----
    The default of 64+64 approximates the fused x86 architectural +
    micro-architectural temporaries visible after µop cracking; the steering
    algorithms only care that values are named consistently so that data
    dependences can be tracked.
    """

    num_int: int = 64
    num_fp: int = 64

    @property
    def total(self) -> int:
        """Total number of architectural registers."""
        return self.num_int + self.num_fp


#: Register space shared by the synthetic workloads and the examples.
DEFAULT_REGISTER_SPACE = RegisterSpace()

"""Architectural register model.

The compiler substrate and the simulator share one flat integer register
namespace.  Integer registers occupy ids ``[0, NUM_INT_REGISTERS)`` and
floating-point registers occupy ids ``[NUM_INT_REGISTERS, NUM_REGISTERS)``.

The 64+64 split approximates the fused x86 architectural +
micro-architectural temporaries visible after µop cracking; the steering
algorithms only care that values are named consistently so that data
dependences can be tracked.

The physical register files of each cluster (256 INT + 256 FP entries in
Table 2) are modelled in :mod:`repro.cluster.regfile`; this module only covers
the *architectural* registers named by instructions.
"""

#: Architectural integer registers.
NUM_INT_REGISTERS = 64
#: Architectural floating-point registers.
NUM_FP_REGISTERS = 64
#: Every architectural register.
NUM_REGISTERS = NUM_INT_REGISTERS + NUM_FP_REGISTERS

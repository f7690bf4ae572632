"""Micro-op (µop) and ISA model.

This package defines the instruction representation shared by the compiler
substrate (:mod:`repro.program`, :mod:`repro.partition`) and the clustered
microarchitecture simulator (:mod:`repro.cluster`).  A static instruction is
a row of the program's sid-indexed columns (:mod:`repro.program.program`),
not an object:

* :mod:`repro.uops.opcodes` -- µop classes, execution latencies and issue-queue
  routing (integer / floating-point / copy).
* :mod:`repro.uops.registers` -- the sizes of the architectural integer and
  floating-point register namespaces.
* :mod:`repro.uops.encoding` -- the ISA extension of the paper: the
  ``vc_id`` / chain-leader annotation carried from the compiler to the
  hardware steering unit, including a compact binary encoding.
* :mod:`repro.uops.compiled` -- :class:`CompiledTrace`, the one form of a
  dynamic trace: structure-of-arrays columns that both simulation kernels
  consume.  Artifacts and shared-memory segments store only its dynamic
  columns next to the program's (see DESIGN.md).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".compiled": ("NO_ANNOTATION", "CompiledTrace", "CompiledUopView"),
        ".encoding": ("SteeringAnnotation", "encode_annotation"),
        ".opcodes": (
            "UopClass",
            "IssueQueueKind",
            "latency_of",
            "queue_of",
            "is_memory",
            "is_floating_point",
            "is_branch",
            "INT_OPCODES",
            "FP_OPCODES",
            "MEM_OPCODES",
        ),
    },
)

"""Micro-op (µop) and ISA model.

This package defines the instruction representation shared by the compiler
substrate (:mod:`repro.program`, :mod:`repro.partition`) and the clustered
microarchitecture simulator (:mod:`repro.cluster`):

* :mod:`repro.uops.opcodes` -- µop classes, execution latencies and issue-queue
  routing (integer / floating-point / copy).
* :mod:`repro.uops.registers` -- the architectural register model (integer and
  floating-point register namespaces).
* :mod:`repro.uops.uop` -- :class:`StaticInstruction` (the compiler-visible
  instruction) and :class:`DynamicUop` (one dynamic instance executed by the
  simulator).
* :mod:`repro.uops.encoding` -- the ISA extension of the paper: the
  ``vc_id`` / chain-leader annotation carried from the compiler to the
  hardware steering unit, including a compact binary encoding.
* :mod:`repro.uops.compiled` -- :class:`CompiledTrace`, the
  structure-of-arrays form of a dynamic trace that the simulation kernel
  consumes and the engine persists as on-disk artifacts (see DESIGN.md).
"""

from repro._lazy import lazy_exports

__all__ = [
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
    "RegisterSpace",
    "RegisterKind",
    "StaticInstruction",
    "DynamicUop",
    "CompiledTrace",
    "CompiledUopView",
    "compile_trace",
    "NO_ANNOTATION",
    "SteeringAnnotation",
    "encode_annotation",
    "decode_annotation",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".compiled": ("NO_ANNOTATION", "CompiledTrace", "CompiledUopView", "compile_trace"),
        ".encoding": ("SteeringAnnotation", "encode_annotation", "decode_annotation"),
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
        ".registers": ("RegisterSpace", "RegisterKind"),
        ".uop": ("StaticInstruction", "DynamicUop"),
    },
)

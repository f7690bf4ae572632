"""Compiler intermediate representation.

The compile-time half of the hybrid steering scheme (and both software-only
baselines) operates on a conventional compiler IR, held as data:

* :mod:`repro.program.program` -- the :class:`Program`: read-only columns
  indexed by static id (µop class, block, source and destination registers)
  plus the basic blocks' extents and the control-flow graph's edge lists
  with their probabilities and loop back-edges.  It also gathers a compiled
  trace from dynamic ``(sid, address, mispredicted)`` rows, and packs the
  one layout trace artifacts and shared-memory segments store.
* :mod:`repro.program.ddg` -- data-dependence graph construction over a
  sequence of static ids (the object all partitioners work on).
* :mod:`repro.program.regions` -- superblock-style region formation that gives
  the compiler the "bigger window of instructions" the paper credits
  software-only schemes with.
* :mod:`repro.program.trace` -- expansion of a static :class:`Program` into
  the compiled dynamic µop trace the simulator consumes.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Program",
    "DataDependenceGraph",
    "build_ddg",
    "Region",
    "form_regions",
    "TraceGenerator",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".ddg": ("DataDependenceGraph", "build_ddg"),
        ".program": ("Program",),
        ".regions": ("Region", "form_regions"),
        ".trace": ("TraceGenerator",),
    },
)

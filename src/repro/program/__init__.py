"""Compiler intermediate representation.

The compile-time half of the hybrid steering scheme (and both software-only
baselines) operates on a conventional compiler IR:

* :mod:`repro.program.basic_block` -- straight-line sequences of
  :class:`~repro.uops.uop.StaticInstruction`.
* :mod:`repro.program.cfg` -- the control-flow graph with edge probabilities
  and loop back-edges, used both by region formation and by the dynamic trace
  expander.
* :mod:`repro.program.program` -- the :class:`Program` container tying blocks,
  CFG and live-in registers together.
* :mod:`repro.program.ddg` -- data-dependence graph construction over a
  sequence of static instructions (the object all partitioners work on).
* :mod:`repro.program.regions` -- superblock-style region formation that gives
  the compiler the "bigger window of instructions" the paper credits
  software-only schemes with.
* :mod:`repro.program.trace` -- expansion of a static :class:`Program` into a
  dynamic µop trace consumed by the simulator.
"""

from repro._lazy import lazy_exports

__all__ = [
    "BasicBlock",
    "ControlFlowGraph",
    "CFGEdge",
    "Program",
    "DataDependenceGraph",
    "build_ddg",
    "Region",
    "form_regions",
    "TraceGenerator",
    "expand_trace",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".basic_block": ("BasicBlock",),
        ".cfg": ("ControlFlowGraph", "CFGEdge"),
        ".ddg": ("DataDependenceGraph", "build_ddg"),
        ".program": ("Program",),
        ".regions": ("Region", "form_regions"),
        ".trace": ("TraceGenerator", "expand_trace"),
    },
)

"""Synthetic SPEC CPU2000-like workload substrate.

The paper evaluates on SPEC CPU2000 traces compiled with Intel's production
compiler and sampled with PinPoints.  Neither the binaries, the traces nor
the compiler are available, so this package provides the closest synthetic
equivalent that exercises the same code paths:

* :mod:`repro.workloads.kernels` -- building-block instruction patterns
  (serial chains, parallel chains, reductions, streaming loops, branchy
  integer code) with distinct DDG shapes.
* :mod:`repro.workloads.profile` -- :class:`~repro.workloads.profile.BenchmarkProfile`,
  the kernel kinds and per-phase seeds; plain data, loaded without numpy.
* :mod:`repro.workloads.generator` -- a parametric program generator that
  composes kernels into basic blocks, loops and a CFG according to a
  :class:`~repro.workloads.profile.BenchmarkProfile`.
* :mod:`repro.workloads.spec2000` -- one profile per SPEC CPU2000 trace used
  in Figures 5-7 (26 integer traces, 14 floating-point traces).
* :mod:`repro.workloads.pinpoints` -- PinPoints-style weighted simulation
  points (phases) per benchmark.

The substitution is documented in DESIGN.md: the steering comparison depends
on DDG shape (chain length, ILP, criticality spread) and memory behaviour,
which the profiles control explicitly.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".generator": ("WorkloadGenerator", "generate_program"),
        ".kernels": (
            "branchy_kernel",
            "parallel_chains_kernel",
            "reduction_kernel",
            "serial_chain_kernel",
            "stream_kernel",
        ),
        ".pinpoints": ("SimulationPoint", "select_simulation_points", "weighted_average"),
        ".profile": ("BenchmarkProfile", "KernelKind"),
        ".spec2000": ("SPEC_INT_TRACES", "SPEC_FP_TRACES", "all_trace_names", "profile_for"),
    },
)

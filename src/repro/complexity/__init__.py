"""Hardware complexity model (Table 1).

Quantifies the steering-unit hardware each scheme needs: which structures are
present (dependence-check table, workload-balance counters, vote unit, copy
generator, virtual-cluster mapping table), an estimate of their storage cost
in bits, and whether the steering decision is serialised across the dispatch
group (the timing problem motivating the paper).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__, {".model": ("ComplexityEstimate", "SteeringComplexityModel", "complexity_table")}
)

"""Shared configuration of the benchmark harness.

Every table and figure of the paper has a corresponding benchmark module in
this directory.  Because the full SPEC CPU2000 sweep (40 traces x 5
configurations x multiple phases) takes a while in pure Python, the harness
runs a representative subset by default and scales up through environment
variables:

``REPRO_BENCH_FULL=1``
    Run the complete trace list (all 26 integer + 14 floating-point traces).
``REPRO_BENCH_SCALE=<float>``
    Multiply the figure scenario's trace length (µops per simulation point).
``REPRO_BENCH_PHASES=<int>``
    Number of PinPoints phases per benchmark (default: the scenario's).

The reproduced rows are attached to each benchmark's ``extra_info`` so they
appear in ``pytest-benchmark``'s JSON output, and are also printed so that
``pytest benchmarks/ --benchmark-only -s`` shows the same tables the paper
reports.
"""

from __future__ import annotations

import os
from typing import Optional

import pytest

from repro.cluster.config import ClusterConfig
from repro.scenarios.builtin import builtin_scenario
from repro.scenarios.spec import ScenarioSpec, scenario_overrides
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.spec2000 import all_trace_names, profile_for

#: Default benchmark subset: a spread of regular / branchy / memory-bound
#: integer traces and low- / high-ILP floating-point traces.
DEFAULT_SUBSET = [
    "164.gzip-1",
    "176.gcc-1",
    "181.mcf",
    "186.crafty",
    "197.parser",
    "255.vortex-1",
    "178.galgel",
    "171.swim",
    "188.ammp",
    "200.sixtrack",
]


def resolve_bench_scale() -> float:
    """Trace-length multiplier from ``REPRO_BENCH_SCALE``."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def resolve_bench_phases() -> Optional[int]:
    """Phases per benchmark from ``REPRO_BENCH_PHASES`` (``None``: the scenario's)."""
    phases = os.environ.get("REPRO_BENCH_PHASES")
    return int(phases) if phases else None


def resolve_bench_full() -> bool:
    """Whether ``REPRO_BENCH_FULL=1`` asks for the full trace list."""
    return os.environ.get("REPRO_BENCH_FULL", "0") == "1"


def benchmark_names() -> list[str]:
    """The trace list to evaluate (subset by default, full with REPRO_BENCH_FULL=1)."""
    if resolve_bench_full():
        return all_trace_names("all")
    return list(DEFAULT_SUBSET)


def _bench_spec(name: str) -> ScenarioSpec:
    """Built-in scenario ``name`` at the benchmark scale and phases."""
    spec = builtin_scenario(name)
    return scenario_overrides(
        spec,
        trace_length=max(500, int(spec.trace_length * resolve_bench_scale())),
        max_phases=resolve_bench_phases(),
    )


@pytest.fixture(scope="session")
def two_cluster_settings() -> ScenarioSpec:
    """The paper's base machine (2 clusters, 2 virtual clusters): Figure 5's spec."""
    return _bench_spec("figure5")


@pytest.fixture(scope="session")
def four_cluster_settings() -> ScenarioSpec:
    """The scalability machine (4 clusters, 4 virtual clusters): Figure 7's spec."""
    return _bench_spec("figure7")


@pytest.fixture(scope="session")
def bench_benchmarks() -> list[str]:
    """Trace names evaluated by the figure benchmarks."""
    return benchmark_names()


# -- substrate fixtures shared by the micro-benchmarks ---------------------------
#: Dynamic µops per substrate micro-benchmark trace.
SUBSTRATE_TRACE_LENGTH = 4000


@pytest.fixture(scope="session")
def substrate_trace_length() -> int:
    """Dynamic µops per substrate micro-benchmark trace."""
    return SUBSTRATE_TRACE_LENGTH


@pytest.fixture(scope="session")
def substrate_config() -> ClusterConfig:
    """The 2-cluster Table 2 machine used by the substrate micro-benchmarks."""
    return ClusterConfig(num_clusters=2)


@pytest.fixture(scope="session")
def gzip_trace():
    """Shared ``(program, trace)`` of 164.gzip-1 phase 0 at the substrate length.

    Session-scoped so the simulator-throughput benchmarks measure simulation
    only, not repeated trace synthesis.  Compile-time passes may (re)annotate
    the program freely: annotations never change the µop stream, and every
    policy benchmark annotates or ignores them explicitly.
    """
    generator = WorkloadGenerator(profile_for("164.gzip-1"))
    return generator.generate_trace(SUBSTRATE_TRACE_LENGTH, phase=0)


@pytest.fixture(scope="session")
def gzip_compiled_trace(gzip_trace):
    """The compiled (structure-of-arrays) form of :func:`gzip_trace`.

    Compiled once per session: the simulator-throughput benchmarks measure
    the kernel, not trace compilation (which real runs pay once per phase and
    then reuse from the artifact store).  Benchmarks that change the
    program's annotations must refresh them with ``annotate_from`` before
    running -- the compiled trace snapshots annotations.
    """
    from repro.uops.compiled import compile_trace

    _, trace = gzip_trace
    return compile_trace(trace)


@pytest.fixture(scope="session")
def galgel_program():
    """Shared static program of 178.galgel phase 0 (partitioner benchmarks)."""
    return WorkloadGenerator(profile_for("178.galgel")).generate_program(0)

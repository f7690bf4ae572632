#!/usr/bin/env python
"""Define a custom workload and machine, and steer it with the hybrid scheme.

Shows the lower-level API that the experiment harness is built on:

1. define a :class:`~repro.workloads.BenchmarkProfile` describing a new
   workload (here: a wide, memory-heavy streaming kernel mix),
2. generate its static program and compiled dynamic trace,
3. run the VC compile-time pass and install the annotation columns it
   returns (indexed by static id) on the trace,
4. simulate it on a customised machine (different link latency and issue
   queue sizes) under both the hybrid and the hardware-only policy.

Usage::

    python examples/custom_workload.py
"""

from __future__ import annotations

from repro import (
    BenchmarkProfile,
    ClusterConfig,
    OccupancyAwareSteering,
    VirtualClusterPartitioner,
    VirtualClusterSteering,
    WorkloadGenerator,
    simulate_trace,
)
from repro.experiments.report import format_table
from repro.workloads.kernels import KernelKind


def main() -> None:
    profile = BenchmarkProfile(
        name="custom.stencil",
        suite="fp",
        kernel_mix={KernelKind.STREAM: 0.6, KernelKind.PARALLEL_CHAINS: 0.4},
        ilp=5,
        block_size_mean=36,
        num_blocks=16,
        loop_fraction=0.5,
        loop_trip_mean=32.0,
        working_set_kb=2048,
        strided_fraction=0.85,
        mispredict_rate=0.01,
        base_seed=2024,
    )
    generator = WorkloadGenerator(profile)
    program, trace = generator.generate_compiled_trace(4000, phase=0)
    print(f"Generated {program.name}: {program.num_instructions} static instructions, "
          f"{len(trace)} dynamic µops\n")

    # Compile-time half of the hybrid scheme.
    report = VirtualClusterPartitioner(num_virtual_clusters=2).annotate_program(program)
    trace.annotate_from(report.columns)
    print(f"VC pass: {report.num_regions} regions, {report.chain_leaders} chain leaders, "
          f"{100 * report.cut_fraction:.1f} % of dependence edges cross virtual clusters\n")

    # A customised machine: slower links, smaller issue queues.
    machine = ClusterConfig(num_clusters=2).with_overrides(
        link_latency=2, iq_int_size=32, iq_fp_size=32
    )

    rows = []
    for label, policy in (
        ("VC (hybrid)", VirtualClusterSteering(num_virtual_clusters=2)),
        ("OP (hardware-only)", OccupancyAwareSteering()),
    ):
        metrics = simulate_trace(trace, policy, machine)
        rows.append(
            {
                "policy": label,
                "cycles": metrics.cycles,
                "IPC": metrics.ipc,
                "copy µops": metrics.copies_generated,
                "balance stalls": metrics.balance_stalls,
                "L1 hit rate": metrics.cache["l1_hit_rate"],
            }
        )
    print(format_table(rows, title="Custom workload on a customised 2-cluster machine"))


if __name__ == "__main__":
    main()

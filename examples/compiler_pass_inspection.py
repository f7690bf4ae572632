#!/usr/bin/env python
"""Inspect what the compile-time half of the hybrid scheme actually does.

Builds a synthetic program, runs the three compile-time passes (VC, RHOP,
OB) on it, and prints:

* the partition statistics of each pass (cut dependence edges, balance),
* the virtual clusters, chains and chain leaders the VC pass produced for
  the first region (the structures of Figures 2 and 3), and
* the ISA-extension encoding of a few annotated instructions
  (:mod:`repro.uops.encoding`).

Usage::

    python examples/compiler_pass_inspection.py [benchmark]
"""

from __future__ import annotations

import sys

from repro.experiments.report import format_table
from repro.partition import (
    OperationBasedPartitioner,
    RhopPartitioner,
    VirtualClusterPartitioner,
)
from repro.partition.base import program_regions, region_ddg
from repro.partition.chains import identify_chains
from repro.uops.encoding import SteeringAnnotation, encode_annotation
from repro.uops.opcodes import UopClass
from repro.workloads import WorkloadGenerator, profile_for


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "178.galgel"
    program = WorkloadGenerator(profile_for(benchmark)).generate_program(phase=0)
    print(f"Program {program.name}: {program.num_blocks} blocks, "
          f"{program.num_instructions} static instructions\n")

    # 1. Run each compile-time pass and compare their partition statistics.
    rows = []
    for partitioner in (
        VirtualClusterPartitioner(num_virtual_clusters=2),
        RhopPartitioner(num_clusters=2),
        OperationBasedPartitioner(num_clusters=2),
    ):
        report = partitioner.annotate_program(program)
        rows.append(
            {
                "pass": report.partitioner,
                "regions": report.num_regions,
                "cut edges (%)": 100.0 * report.cut_fraction,
                "balance": report.balance,
                "chain leaders": report.chain_leaders,
            }
        )
    print(format_table(rows, title="Compile-time partitioners on the same program"))

    # 2. Show the VC pass's chains/leaders for the first region.  The pass
    #    returns its annotations as columns indexed by static id.
    vc_pass = VirtualClusterPartitioner(num_virtual_clusters=2)
    vc = vc_pass.annotate_program(program)
    region = program_regions(program, vc_pass.region_size)[0]
    ddg = region_ddg(program, vc_pass.region_size, region)
    assignment = vc.vc_id[list(region.sids)].tolist()
    chains, leaders = identify_chains(ddg, assignment)
    print(f"First region: {len(region)} instructions, "
          f"{len(chains)} chains, {sum(leaders)} chain leaders")
    longest = max(chains, key=len)
    print(f"Longest chain: {len(longest)} instructions on virtual cluster {longest.vc_id}\n")

    # 3. Show the ISA-extension encoding of the first few instructions.
    rows = []
    for sid in region.sids[:8]:
        annotation = SteeringAnnotation(
            vc_id=int(vc.vc_id[sid]), chain_leader=bool(vc.chain_leader[sid])
        )
        rows.append(
            {
                "sid": sid,
                "opclass": UopClass(program.opclass[sid]).name,
                "vc_id": annotation.vc_id,
                "chain leader": annotation.chain_leader,
                "encoded word": f"0b{encode_annotation(annotation):010b}",
            }
        )
    print(format_table(rows, title="ISA extension carried by the first instructions"))


if __name__ == "__main__":
    main()

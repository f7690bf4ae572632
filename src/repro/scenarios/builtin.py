"""The paper's evaluation as built-in named scenarios.

Every figure, Table 1 and the four ablation sweeps are plain
:class:`~repro.scenarios.spec.ScenarioSpec` values built from the Table 3
configuration registry -- run them by name (``python -m repro run figure5``),
dump them to JSON (``examples/figure5.json`` is exactly
``builtin_scenario("figure5")``), or use them as starting points for custom
scenario files.
"""

from __future__ import annotations

from repro.experiments.configs import TABLE3_CONFIGURATIONS, table3_configurations, vc_variant
from repro.scenarios.registry import SCENARIOS, register_scenario
from repro.scenarios.spec import MachineSpec, ScenarioSpec, StoppingRule, SweepAxis

#: Benchmark subset of the ablation sweeps: a mix of regular FP, irregular
#: INT and memory-bound traces.
DEFAULT_ABLATION_BENCHMARKS = (
    "164.gzip-1",
    "176.gcc-1",
    "181.mcf",
    "178.galgel",
    "171.swim",
)


def builtin_scenario(name: str) -> ScenarioSpec:
    """The built-in scenario called ``name`` (see ``SCENARIOS.names()``)."""
    return SCENARIOS.get(name)()


@register_scenario("figure5")
def figure5_scenario() -> ScenarioSpec:
    """Figure 5: 2-cluster slowdown of every Table 3 configuration vs OP."""
    return ScenarioSpec(
        name="figure5",
        report="figure5",
        description="2-cluster slowdown vs OP (Figure 5)",
        machine=MachineSpec(preset="table2-2c"),
        num_virtual_clusters=2,
        configurations=tuple(table3_configurations()),
    )


@register_scenario("figure6")
def figure6_scenario() -> ScenarioSpec:
    """Figure 6: copy / balance trade-off of VC versus OB, RHOP and OP."""
    return ScenarioSpec(
        name="figure6",
        report="figure6",
        description="copy/balance trade-off of VC vs OB, RHOP, OP (Figure 6)",
        machine=MachineSpec(preset="table2-2c"),
        num_virtual_clusters=2,
        configurations=tuple(
            TABLE3_CONFIGURATIONS[name] for name in ("VC", "OB", "RHOP", "OP")
        ),
    )


@register_scenario("figure7")
def figure7_scenario() -> ScenarioSpec:
    """Figure 7: 4-cluster scalability study with the VC(4->4)/VC(2->4) variants."""
    return ScenarioSpec(
        name="figure7",
        report="figure7",
        description="4-cluster scalability study (Figure 7)",
        machine=MachineSpec(preset="table2-4c"),
        num_virtual_clusters=4,
        configurations=(
            TABLE3_CONFIGURATIONS["OP"],
            TABLE3_CONFIGURATIONS["OB"],
            TABLE3_CONFIGURATIONS["RHOP"],
            vc_variant("VC(4->4)", 4),
            vc_variant("VC(2->4)", 2),
        ),
    )


@register_scenario("table1")
def table1_scenario() -> ScenarioSpec:
    """Table 1: steering-unit complexity comparison (no simulation)."""
    return ScenarioSpec(
        name="table1",
        report="table1",
        description="steering-unit complexity comparison (Table 1)",
        machine=MachineSpec(preset="table2-2c"),
        num_virtual_clusters=2,
        configurations=tuple(table3_configurations()),
    )


@register_scenario("quickstart")
def quickstart_scenario() -> ScenarioSpec:
    """All five Table 3 configurations on one benchmark."""
    return ScenarioSpec(
        name="quickstart",
        report="table",
        description="all Table 3 configurations on one benchmark",
        machine=MachineSpec(preset="table2-2c"),
        num_virtual_clusters=2,
        benchmarks=("164.gzip-1",),
        configurations=tuple(table3_configurations()),
        trace_length=3000,
    )


@register_scenario("sweep-virtual-clusters")
def sweep_virtual_clusters_scenario() -> ScenarioSpec:
    """Ablation: virtual-cluster count on the 2-cluster machine."""
    return ScenarioSpec(
        name="sweep-virtual-clusters",
        report="sweep",
        description="ablation sweep: virtual-cluster count (VC vs OP)",
        machine=MachineSpec(preset="table2-2c"),
        benchmarks=DEFAULT_ABLATION_BENCHMARKS,
        configurations=(TABLE3_CONFIGURATIONS["OP"], TABLE3_CONFIGURATIONS["VC"]),
        sweep=(SweepAxis(parameter="num_virtual_clusters", values=(1, 2, 4, 8)),),
    )


@register_scenario("sweep-link-latency")
def sweep_link_latency_scenario() -> ScenarioSpec:
    """Ablation: inter-cluster link latency (VC and RHOP vs OP)."""
    return ScenarioSpec(
        name="sweep-link-latency",
        report="sweep",
        description="ablation sweep: inter-cluster link latency (OP, RHOP, VC)",
        machine=MachineSpec(preset="table2-2c"),
        benchmarks=DEFAULT_ABLATION_BENCHMARKS,
        configurations=(
            TABLE3_CONFIGURATIONS["OP"],
            TABLE3_CONFIGURATIONS["RHOP"],
            TABLE3_CONFIGURATIONS["VC"],
        ),
        sweep=(SweepAxis(parameter="link_latency", values=(1, 2, 4, 8)),),
    )


@register_scenario("sweep-region-size")
def sweep_region_size_scenario() -> ScenarioSpec:
    """Ablation: compiler window (region size) of the software passes."""
    return ScenarioSpec(
        name="sweep-region-size",
        report="sweep",
        description="ablation sweep: compiler region size (OP, RHOP, VC)",
        machine=MachineSpec(preset="table2-2c"),
        benchmarks=DEFAULT_ABLATION_BENCHMARKS,
        configurations=(
            TABLE3_CONFIGURATIONS["OP"],
            TABLE3_CONFIGURATIONS["RHOP"],
            TABLE3_CONFIGURATIONS["VC"],
        ),
        sweep=(SweepAxis(parameter="region_size", values=(16, 32, 64, 128, 256)),),
    )


@register_scenario("sweep-issue-queue-size")
def sweep_issue_queue_size_scenario() -> ScenarioSpec:
    """Ablation: per-cluster INT/FP issue-queue sizes (swept together)."""
    return ScenarioSpec(
        name="sweep-issue-queue-size",
        report="sweep",
        description="ablation sweep: issue-queue size (OP vs VC)",
        machine=MachineSpec(preset="table2-2c"),
        benchmarks=DEFAULT_ABLATION_BENCHMARKS,
        configurations=(TABLE3_CONFIGURATIONS["OP"], TABLE3_CONFIGURATIONS["VC"]),
        sweep=(
            SweepAxis(
                parameter="issue_queue_size",
                values=(16, 32, 48, 96),
                fields=("iq_int_size", "iq_fp_size"),
            ),
        ),
    )


@register_scenario("adaptive-race")
def adaptive_race_scenario() -> ScenarioSpec:
    """Race every Table 3 configuration for the best steering policy.

    Replications are shared seed blocks (common random numbers), so the
    race retires clearly-worse configurations after a couple of paired
    replications instead of paying the full 16-replication grid -- the
    repository's adaptive-savings benchmark headline runs exactly this
    scenario shape.
    """
    return ScenarioSpec(
        name="adaptive-race",
        report="race",
        description="race Table 3 configurations for the best policy (adaptive)",
        machine=MachineSpec(preset="table2-2c"),
        benchmarks=DEFAULT_ABLATION_BENCHMARKS,
        configurations=tuple(table3_configurations()),
        trace_length=800,
        replications=16,
        stopping=StoppingRule(mode="race", min_replications=2, tie_margin=0.02),
    )


@register_scenario("crossover-link-latency")
def crossover_link_latency_scenario() -> ScenarioSpec:
    """Bisect for the link latency where load-balance-only steering loses.

    OB steers purely for load balance (communication-oblivious), so its
    cycles degrade steeply with inter-cluster link latency while the
    unclustered baseline is flat -- somewhere along the axis, not
    clustering at all becomes the better machine.  The bisection locates
    that crossover with ``2 + O(log n)`` axis probes instead of the full
    grid.
    """
    return ScenarioSpec(
        name="crossover-link-latency",
        report="crossover",
        description="bisect the OB vs one-cluster crossover over link latency",
        machine=MachineSpec(preset="table2-2c"),
        benchmarks=("164.gzip-1", "181.mcf"),
        configurations=(
            TABLE3_CONFIGURATIONS["one-cluster"],
            TABLE3_CONFIGURATIONS["OB"],
        ),
        trace_length=800,
        sweep=(SweepAxis(parameter="link_latency", values=(4, 8, 16, 24, 32, 48, 64)),),
        stopping=StoppingRule(mode="bisect", axis="link_latency"),
    )

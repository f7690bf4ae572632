#!/usr/bin/env python
"""Write your own scenario: register a custom policy, describe the experiment
as data, run it through the engine.

The declarative scenario API (``repro.scenarios``) makes every experiment a
JSON-serializable spec built from *registered names*:

1. register a custom steering policy under a name of your choice,
2. build a :class:`~repro.experiments.configs.SteeringConfiguration` that
   refers to it by name (pure data -- picklable, hashable, cacheable),
3. wrap machine + benchmarks + configurations (+ optional sweep axes) in a
   :class:`~repro.scenarios.spec.ScenarioSpec`,
4. run it -- process-parallel and cached, exactly like the built-in
   scenarios -- and/or save it to JSON for ``python -m repro run``.

Usage::

    python examples/custom_scenario.py [trace_length]
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro import (
    ParallelRunner,
    ResultCache,
    ScenarioSpec,
    SteeringConfiguration,
    register_policy,
    run_scenario,
)
from repro.experiments.configs import TABLE3_CONFIGURATIONS
from repro.scenarios.spec import MachineSpec, SweepAxis
from repro.steering.base import SteeringContext, SteeringHardware, SteeringPolicy
from repro.uops.compiled import CompiledUopView


# -- 1. a custom run-time policy, registered under a name ---------------------------
class StickySteering(SteeringPolicy):
    """Keep streaks of µops on one cluster, hopping when it fills up.

    A deliberately simple policy: it needs only the occupancy counters (no
    dependence tracking), and ``streak`` trades locality against balance.
    """

    name = "sticky"

    def __init__(self, streak: int = 8) -> None:
        if streak < 1:
            raise ValueError("streak must be positive")
        self.streak = int(streak)
        self._current = 0
        self._sent = 0

    def reset(self, num_clusters: int) -> None:
        super().reset(num_clusters)
        self._current = 0
        self._sent = 0

    def pick_cluster(self, uop: CompiledUopView, context: SteeringContext) -> int:
        if self._sent >= self.streak:
            self._current = context.least_loaded_cluster()
            self._sent = 0
        self._sent += 1
        return self._current

    def hardware(self) -> SteeringHardware:
        return SteeringHardware(workload_counters=True, copy_generator=True)


@register_policy("sticky")
def _build_sticky(num_clusters: int, num_virtual_clusters: int, **params) -> StickySteering:
    return StickySteering(**params)


def main() -> None:
    trace_length = int(sys.argv[1]) if len(sys.argv) > 1 else 1500

    # -- 2. declarative configurations: names + parameter dicts, no callables ------
    sticky_short = SteeringConfiguration(
        name="sticky-4", policy="sticky", policy_params={"streak": 4}
    )
    sticky_long = SteeringConfiguration(
        name="sticky-32", policy="sticky", policy_params={"streak": 32}
    )

    # -- 3. the experiment as data: machine, workloads, configurations, sweep ------
    spec = ScenarioSpec(
        name="sticky-vs-table3",
        report="sweep",
        description="custom sticky steering vs OP and VC across link latencies",
        machine=MachineSpec(preset="table2-2c"),
        benchmarks=("164.gzip-1", "178.galgel"),
        configurations=(
            TABLE3_CONFIGURATIONS["OP"],
            TABLE3_CONFIGURATIONS["VC"],
            sticky_short,
            sticky_long,
        ),
        trace_length=trace_length,
        sweep=(SweepAxis(parameter="link_latency", values=(1, 4)),),
    )

    # The spec is pure data: it survives a JSON round trip losslessly and the
    # saved file runs unchanged via `python -m repro run sticky.json`.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sticky.json"
        spec.save(path)
        assert ScenarioSpec.from_file(path) == spec

        # -- 4. run it: 2 worker processes + on-disk cache, like any built-in ------
        with ParallelRunner(max_workers=2, cache=ResultCache(f"{tmp}/cache")) as engine:
            print(run_scenario(ScenarioSpec.from_file(path), engine))

    print(
        "Reading guide: custom registered policies are first-class citizens --\n"
        "the engine pickles only names and parameters, so they parallelise and\n"
        "cache exactly like the Table 3 configurations."
    )


if __name__ == "__main__":
    main()

"""Declarative scenario API: registries plus serializable experiment specs.

Every experiment is described as plain data and executed by name:

* :mod:`repro.scenarios.registry` -- decorator-based registries for steering
  policies, partitioners, machine presets and built-in scenarios.
* :mod:`repro.scenarios.spec` -- :class:`ScenarioSpec`: machine, workloads,
  configurations and sweep axes, with lossless ``to_dict`` / ``from_dict``
  and JSON file loading.
* :mod:`repro.scenarios.builtin` -- the paper's evaluation (figure5/6/7,
  table1) and the four ablation sweeps as built-in named scenarios.
* :mod:`repro.scenarios.runner` -- :func:`run_scenario`, turning a spec into
  the plain-text report of its ``report`` kind.

Only the registry module is imported eagerly: the leaf modules
(``repro.steering.*`` etc.) import it to register themselves, so everything
else here loads lazily to keep the import graph acyclic.
"""

from __future__ import annotations

from repro._lazy import lazy_exports
from repro.scenarios.registry import (
    MACHINES,
    PARTITIONERS,
    POLICIES,
    SCENARIOS,
    Registry,
    build_machine,
    build_partitioner,
    build_policy,
    register_machine,
    register_partitioner,
    register_policy,
    register_scenario,
)

__all__ = [
    "Registry",
    "POLICIES",
    "PARTITIONERS",
    "MACHINES",
    "SCENARIOS",
    "register_policy",
    "register_partitioner",
    "register_machine",
    "register_scenario",
    "build_policy",
    "build_partitioner",
    "build_machine",
    "MachineSpec",
    "SweepAxis",
    "ScenarioSpec",
    "StoppingRule",
    "PointSampler",
    "replicate_profile",
    "builtin_scenario",
    "run_scenario",
    "REPORT_KINDS",
]

#: Eager imports of the rest would cycle: spec/runner import the experiment
#: harness, which imports the simulator, whose leaf modules import this
#: package's registry.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".spec": ("MachineSpec", "SweepAxis", "ScenarioSpec", "StoppingRule"),
        ".adaptive": ("PointSampler", "replicate_profile"),
        ".builtin": ("builtin_scenario",),
        ".runner": ("run_scenario", "REPORT_KINDS"),
    },
)

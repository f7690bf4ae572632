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

The leaf modules (``repro.steering.*`` etc.) import the registry module to
register themselves, so every name here loads lazily to keep the import
graph acyclic.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

#: Every name loads lazily: spec/runner import the experiment harness, which
#: imports the simulator, whose leaf modules import this package's registry.
__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".registry": (
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
        ),
        ".spec": ("MachineSpec", "SweepAxis", "ScenarioSpec", "StoppingRule"),
        ".adaptive": ("PointSampler", "replicate_profile"),
        ".builtin": ("builtin_scenario",),
        ".runner": ("run_scenario", "REPORT_KINDS"),
    },
)

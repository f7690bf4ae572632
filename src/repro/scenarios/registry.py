"""Name-based registries for steering policies, partitioners and machines.

The declarative scenario API describes every experiment as plain data:
configurations name their run-time policy and compile-time pass, machines
name a preset, and parameters travel as ``name -> value`` dictionaries.  The
registries here turn those names back into objects:

* :data:`POLICIES` -- builders of run-time steering policies
  (``@register_policy("OP")``),
* :data:`PARTITIONERS` -- builders of compile-time partitioning passes
  (``@register_partitioner("VC")``),
* :data:`MACHINES` -- machine presets returning a
  :class:`~repro.cluster.config.ClusterConfig` (``@register_machine``),
* :data:`SCENARIOS` -- built-in named scenarios (``@register_scenario``).

Because configurations carry only *names and parameter dicts*, every
configuration -- including user-defined ones -- is picklable, hashable and
therefore cacheable and process-parallel.  Worker processes rebuild policies
from the registry; under the default ``fork`` start method they inherit all
registrations made in the parent, so registering a custom policy anywhere
before the run is enough (on ``spawn`` platforms, register at import time of
a module the workers also import).

Builder signatures
------------------
policy builder
    ``(num_clusters, num_virtual_clusters, **params) -> SteeringPolicy``
partitioner builder
    ``(num_clusters, num_virtual_clusters, region_size, **params) ->
    RegionPartitioner``
machine preset
    ``(**overrides) -> ClusterConfig``
scenario factory
    ``() -> ScenarioSpec``

This module deliberately imports nothing from the rest of the package: the
leaf modules (``repro.steering.*``, ``repro.partition.*``,
``repro.cluster.config``) import it to register their builders, and the
registries import those modules lazily on first lookup.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, Sequence


class Registry:
    """A name -> builder mapping with explicit error paths.

    Parameters
    ----------
    kind:
        Human-readable description of what is registered, used in error
        messages (``"steering policy"``).
    builtin_modules:
        Modules imported lazily before the first lookup, so the built-in
        registrations are always visible without eager package imports (the
        leaf modules register themselves when imported).
    """

    def __init__(self, kind: str, builtin_modules: Sequence[str] = ()) -> None:
        self.kind = kind
        self._builtin_modules = tuple(builtin_modules)
        self._entries: Dict[str, Callable] = {}
        self._builtins_loaded = False

    def _load_builtins(self) -> None:
        if self._builtins_loaded:
            return
        # Mark first: the builtin modules import this module back to call
        # register(), which must not recurse into loading.  On failure the
        # flag is reset so the next lookup re-raises the real import error
        # instead of reporting a misleading empty registry.
        self._builtins_loaded = True
        try:
            for module in self._builtin_modules:
                importlib.import_module(module)
        except BaseException:
            self._builtins_loaded = False
            raise

    def register(self, name: str) -> Callable:
        """Decorator registering a builder under ``name``.

        Duplicate names raise :class:`ValueError` (:meth:`unregister` the
        old builder first) -- silently replacing a builder would make two
        runs of the same spec mean different things.
        """
        if not isinstance(name, str) or not name:
            raise ValueError(f"{self.kind} name must be a non-empty string, got {name!r}")

        def decorator(builder: Callable) -> Callable:
            if name in self._entries:
                raise ValueError(
                    f"{self.kind} {name!r} is already registered; unregister it "
                    "to replace it"
                )
            self._entries[name] = builder
            return builder

        return decorator

    def unregister(self, name: str) -> None:
        """Remove a registration (mainly for tests tearing down custom entries)."""
        self._entries.pop(name, None)

    def get(self, name: str) -> Callable:
        """The builder registered under ``name``; unknown names list the known ones."""
        self._load_builtins()
        try:
            return self._entries[name]
        except KeyError:
            raise KeyError(
                f"unknown {self.kind} {name!r}; registered: {self.names()}"
            ) from None

    def names(self) -> List[str]:
        """Sorted names of every registered builder."""
        self._load_builtins()
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        self._load_builtins()
        return name in self._entries


#: Run-time steering policy builders.
POLICIES = Registry(
    "steering policy",
    builtin_modules=(
        "repro.steering.baselines",
        "repro.steering.occupancy",
        "repro.steering.one_cluster",
        "repro.steering.static_follow",
        "repro.steering.virtual_cluster",
    ),
)

#: Compile-time partitioner builders.
PARTITIONERS = Registry(
    "partitioner",
    builtin_modules=(
        "repro.partition.ob_partitioner",
        "repro.partition.rhop_partitioner",
        "repro.partition.vc_partitioner",
    ),
)

#: Machine presets (Table 2 geometries).
MACHINES = Registry("machine preset", builtin_modules=("repro.cluster.config",))

#: Built-in named scenarios (figures, table 1, ablation sweeps).
SCENARIOS = Registry("scenario", builtin_modules=("repro.scenarios.builtin",))


def register_policy(name: str) -> Callable:
    """Register a steering-policy builder: ``@register_policy("OP")``.

    If the builder *consumes* its ``num_virtual_clusters`` argument, set
    ``uses_virtual_clusters=True`` on every configuration naming the policy:
    the engine's result cache keys only the knobs a configuration declares,
    so an undeclared dependency would let runs at different virtual-cluster
    counts share cache entries.
    """
    return POLICIES.register(name)


def register_partitioner(name: str) -> Callable:
    """Register a partitioner builder: ``@register_partitioner("VC")``.

    As with :func:`register_policy`: if the builder consumes its
    ``num_virtual_clusters`` argument, configurations naming it must set
    ``uses_virtual_clusters=True`` so the result cache keys the count.
    """
    return PARTITIONERS.register(name)


def register_machine(name: str) -> Callable:
    """Register a machine preset: ``@register_machine("table2-2c")``."""
    return MACHINES.register(name)


def register_scenario(name: str) -> Callable:
    """Register a scenario factory: ``@register_scenario("figure5")``."""
    return SCENARIOS.register(name)


def build_policy(name: str, params: Dict[str, object], num_clusters: int, num_virtual_clusters: int):
    """Instantiate the policy registered under ``name`` for the given geometry."""
    return POLICIES.get(name)(num_clusters, num_virtual_clusters, **params)


def build_partitioner(
    name: str,
    params: Dict[str, object],
    num_clusters: int,
    num_virtual_clusters: int,
    region_size: int,
):
    """Instantiate the partitioner registered under ``name`` for the given geometry."""
    return PARTITIONERS.get(name)(num_clusters, num_virtual_clusters, region_size, **params)


def build_machine(name: str, overrides: Dict[str, object]):
    """Resolve a machine preset to a :class:`~repro.cluster.config.ClusterConfig`."""
    return MACHINES.get(name)(**overrides)

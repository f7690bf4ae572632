"""The evaluated steering configurations (Table 3), as declarative specs.

====================  =========================================================
Configuration         Description (Table 3)
====================  =========================================================
``OP``                Occupancy-aware hardware-only steering [15] -- the
                      baseline every other configuration is compared against.
``one-cluster``       Every instruction goes to one cluster.
``OB``                Static-placement dynamic-issue operation-based steering
                      [19] (SPDI).
``RHOP``              Region-based hierarchical operation partitioning [8].
``VC``                The paper's hybrid steering based on virtual clustering.
====================  =========================================================

A :class:`SteeringConfiguration` is pure data: the *names* of its run-time
policy and compile-time pass in the scenario registries
(:mod:`repro.scenarios.registry`) plus their parameter dictionaries.  It
holds no callables, so every configuration -- including user-defined ones
built from custom registered policies -- is picklable, hashable, losslessly
JSON-serializable, and therefore cacheable and process-parallel in the
experiment engine.  The configuration *is* its own engine-facing identity;
there is no separate spec type and no inline-only fallback path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple, Union

from repro.scenarios.registry import build_partitioner, build_policy

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids eager leaf imports
    from repro.partition.base import RegionPartitioner
    from repro.steering.base import SteeringPolicy

#: Parameter dictionaries travel as sorted ``(name, value)`` tuples inside the
#: frozen dataclass (hashable) and as plain dicts at the API and JSON surface.
Params = Tuple[Tuple[str, object], ...]


class FrozenMapping(tuple):
    """A mapping parameter value in hashable form: its sorted ``(key, value)`` pairs.

    Unequal to every plain tuple (the frozen form of a list), so ``{"a": 1}``
    and ``[["a", 1]]`` never share a partitioner key.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return type(other) is FrozenMapping and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash((FrozenMapping, tuple(self)))


def _freeze_value(value: object) -> object:
    """A hashable form of one parameter value (lists become tuples and
    mappings :class:`FrozenMapping`, deeply).

    Values are restricted to JSON values -- scalars, and lists and objects
    of them -- so the guarantee that every configuration is hashable holds
    by construction: any other value would otherwise only fail much later,
    at ``hash()`` time inside the engine.
    """
    if isinstance(value, FrozenMapping):
        return value
    if isinstance(value, (list, tuple)):
        return tuple(_freeze_value(item) for item in value)
    if isinstance(value, Mapping):
        return FrozenMapping(freeze_params(value))
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise TypeError(
        f"unsupported parameter value {value!r} ({type(value).__name__}); "
        "parameter values must be JSON scalars, lists or objects"
    )


def _thaw_value(value: object) -> object:
    """Invert :func:`_freeze_value` (tuples back to lists and frozen mappings
    back to dicts, deeply)."""
    if isinstance(value, FrozenMapping):
        return thaw_params(value)
    if isinstance(value, tuple):
        return [_thaw_value(item) for item in value]
    return value


def freeze_params(params: Union[Mapping[str, object], Params, None]) -> Params:
    """Normalise a parameter mapping to a sorted, hashable tuple of pairs.

    Accepts a dict, an (already frozen) tuple of pairs, or ``None``.  List
    and mapping values (e.g. from JSON) are converted to tuples and
    :class:`FrozenMapping` -- recursively -- so the result is fully
    hashable and round-trips through ``to_dict``/``from_dict`` losslessly.
    """
    if params is None:
        return ()
    items = params.items() if isinstance(params, Mapping) else params
    frozen = []
    for name, value in items:
        if not isinstance(name, str):
            raise TypeError(f"parameter names must be strings, got {name!r}")
        frozen.append((name, _freeze_value(value)))
    return tuple(sorted(frozen))


def thaw_params(params: Params) -> Dict[str, object]:
    """The dict form of a frozen parameter tuple (tuples back to lists)."""
    return {name: _thaw_value(value) for name, value in params}


@dataclass(frozen=True)
class SteeringConfiguration:
    """One evaluated configuration: registry names plus parameters.

    Parameters
    ----------
    name:
        Configuration name used in result tables (``"OP"``, ``"VC"``,
        ``"VC(2->4)"``...).  Presentation only: it never enters the engine's
        cache keys, so two differently named but otherwise identical
        configurations share cached results.
    policy:
        Name of the run-time policy in the policy registry.
    policy_params:
        Extra keyword arguments for the policy builder.
    partitioner:
        Name of the compile-time pass in the partitioner registry, or
        ``None`` for hardware-only configurations.
    partitioner_params:
        Extra keyword arguments for the partitioner builder.
    description:
        Table 3 description (presentation only).
    num_virtual_clusters:
        Pinned virtual-cluster count of the Figure 7 / ablation variants, or
        ``None`` to follow the experiment settings' value.
    uses_virtual_clusters:
        Whether behaviour depends on the virtual-cluster count (only VC and
        its variants).  The engine keys cached results by the knobs a
        configuration actually consumes, so e.g. the OP baseline of a
        virtual-cluster sweep is simulated once, not once per count.
    """

    name: str
    policy: str
    policy_params: Params = ()
    partitioner: Optional[str] = None
    partitioner_params: Params = ()
    description: str = ""
    num_virtual_clusters: Optional[int] = None
    uses_virtual_clusters: bool = False

    def __post_init__(self) -> None:
        # Normalise dict-valued parameters so direct construction with plain
        # dicts stays hashable and equal to the frozen form.
        object.__setattr__(self, "policy_params", freeze_params(self.policy_params))
        object.__setattr__(self, "partitioner_params", freeze_params(self.partitioner_params))

    # -- construction ------------------------------------------------------------
    @property
    def uses_compiler(self) -> bool:
        """True for software-only and hybrid configurations."""
        return self.partitioner is not None

    def effective_virtual_clusters(self, num_virtual_clusters: int) -> int:
        """The configuration's pinned count, or the settings' value."""
        if self.num_virtual_clusters is not None:
            return self.num_virtual_clusters
        return num_virtual_clusters

    def partitioner_key(
        self, num_clusters: int, num_virtual_clusters: int, region_size: int
    ) -> Optional[Tuple[object, ...]]:
        """Every input of the compile-time pass's builder, or ``None`` without a pass.

        ``(name, frozen params, num_clusters, effective VC count,
        region_size)`` -- exactly what :meth:`make_partitioner` passes to
        :func:`~repro.scenarios.registry.build_partitioner`, so equal keys
        build passes that annotate a program identically.  Machine overrides
        (link latency, queue sizes...) never reach a pass.
        """
        if self.partitioner is None:
            return None
        return (
            self.partitioner,
            self.partitioner_params,
            num_clusters,
            self.effective_virtual_clusters(num_virtual_clusters),
            region_size,
        )

    def make_partitioner(
        self, num_clusters: int, num_virtual_clusters: int, region_size: int
    ) -> Optional["RegionPartitioner"]:
        """Instantiate the compile-time pass (or ``None``)."""
        key = self.partitioner_key(num_clusters, num_virtual_clusters, region_size)
        if key is None:
            return None
        name, params, clusters, virtual_clusters, region = key
        return build_partitioner(name, thaw_params(params), clusters, virtual_clusters, region)

    def make_policy(self, num_clusters: int, num_virtual_clusters: int) -> "SteeringPolicy":
        """Instantiate the run-time policy."""
        return build_policy(
            self.policy,
            thaw_params(self.policy_params),
            num_clusters,
            self.effective_virtual_clusters(num_virtual_clusters),
        )

    # -- identity ----------------------------------------------------------------
    def cache_identity(self) -> Dict[str, object]:
        """The part of the configuration that affects simulation results.

        ``name`` and ``description`` are presentation only -- ``VC(2->4)``
        and a plain VC run with the same virtual-cluster count simulate
        identically, so the cache must not distinguish them.  The pinned
        virtual-cluster count is excluded too: the engine folds it into the
        *effective* count it keys (see
        :meth:`repro.engine.job.SimulationJob.cache_key`).
        """
        return {
            "policy": self.policy,
            "policy_params": thaw_params(self.policy_params),
            "partitioner": self.partitioner,
            "partitioner_params": thaw_params(self.partitioner_params),
        }

    @cached_property
    def cache_identity_json(self) -> str:
        """:meth:`cache_identity` as canonical JSON: sorted keys, no
        whitespace, the encoding of the engine's job keys.

        The configuration fragment of
        :meth:`repro.engine.job.SimulationJob.cache_key`.  Encoded once per
        instance (fields are frozen).
        """
        return json.dumps(self.cache_identity(), sort_keys=True, separators=(",", ":"))

    # -- serialization -----------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Lossless JSON-compatible dump (``from_dict`` round-trips exactly)."""
        return {
            "name": self.name,
            "policy": self.policy,
            "policy_params": thaw_params(self.policy_params),
            "partitioner": self.partitioner,
            "partitioner_params": thaw_params(self.partitioner_params),
            "description": self.description,
            "num_virtual_clusters": self.num_virtual_clusters,
            "uses_virtual_clusters": self.uses_virtual_clusters,
        }

    @classmethod
    def from_dict(cls, data: Union[str, Mapping[str, object]]) -> "SteeringConfiguration":
        """Rebuild a configuration from :meth:`to_dict` output.

        A bare string is shorthand for the Table 3 configuration of that
        name, so scenario files can say ``"configurations": ["OP", "VC"]``.
        """
        if isinstance(data, str):
            return make_configuration(data)
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown configuration fields {sorted(unknown)}; expected a subset "
                f"of {sorted(known)}"
            )
        if "name" not in data or "policy" not in data:
            raise ValueError("a configuration needs at least 'name' and 'policy'")
        return cls(**dict(data))


def _op_config() -> SteeringConfiguration:
    return SteeringConfiguration(
        name="OP",
        policy="OP",
        description="Occupancy-aware steering [15]",
    )


def _one_cluster_config() -> SteeringConfiguration:
    return SteeringConfiguration(
        name="one-cluster",
        policy="one-cluster",
        description="Every instruction goes to one cluster",
    )


def _ob_config() -> SteeringConfiguration:
    return SteeringConfiguration(
        name="OB",
        policy="static",
        policy_params={"name": "OB"},
        partitioner="OB",
        description="Static-placement dynamic-issue operation-based steering [19]",
    )


def _rhop_config() -> SteeringConfiguration:
    return SteeringConfiguration(
        name="RHOP",
        policy="static",
        policy_params={"name": "RHOP"},
        partitioner="RHOP",
        description="Region-based hierarchical operation partition [8]",
    )


def _vc_config() -> SteeringConfiguration:
    return SteeringConfiguration(
        name="VC",
        policy="VC",
        partitioner="VC",
        description="Hybrid steering based on virtual clustering (this paper)",
        uses_virtual_clusters=True,
    )


#: The five configurations of Table 3, keyed by name.
TABLE3_CONFIGURATIONS: Dict[str, SteeringConfiguration] = {
    config.name: config
    for config in (
        _op_config(),
        _one_cluster_config(),
        _ob_config(),
        _rhop_config(),
        _vc_config(),
    )
}


def make_configuration(name: str) -> SteeringConfiguration:
    """Return the Table 3 configuration called ``name`` (case-sensitive)."""
    try:
        return TABLE3_CONFIGURATIONS[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown configuration {name!r}; expected one of {sorted(TABLE3_CONFIGURATIONS)}"
        ) from exc


def vc_variant(display_name: str, num_virtual_clusters: int) -> SteeringConfiguration:
    """A VC configuration with an explicit virtual-cluster count and display name.

    Used by the Figure 7 scalability study (``VC(4->4)``, ``VC(2->4)``) and
    the virtual-cluster ablation sweep.  Being plain data, the variant is as
    cacheable and process-parallel as the stock Table 3 configurations.
    """
    base = TABLE3_CONFIGURATIONS["VC"]
    return replace(
        base,
        name=display_name,
        description=f"{base.description} ({num_virtual_clusters} virtual clusters)",
        num_virtual_clusters=num_virtual_clusters,
    )


def table3_configurations() -> List[SteeringConfiguration]:
    """All Table 3 configurations, OP baseline first."""
    return [TABLE3_CONFIGURATIONS[name] for name in ("OP", "one-cluster", "OB", "RHOP", "VC")]

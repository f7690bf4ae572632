"""Job descriptions for the parallel experiment engine.

A :class:`SimulationJob` is the unit of work of the engine: one
``(benchmark profile, PinPoints phase, steering configuration)`` triple plus
every knob that influences the simulation result (trace length, region size,
machine geometry, configuration overrides).  Jobs are plain
frozen dataclasses built only from picklable values -- the configuration is
itself declarative data (registry names plus parameters, see
:mod:`repro.experiments.configs`) -- so every job can be shipped to
``ProcessPoolExecutor`` workers, and each exposes a stable content hash
(:meth:`SimulationJob.cache_key`) used by the on-disk result cache.

Two invariants matter here:

* **Everything that changes the metrics is part of the key.**  The key covers
  the full benchmark profile (including its ``base_seed``), the phase, the
  trace length, the machine geometry and overrides, the region size, the
  architectural register counts (constants, keyed so that keys written
  before they were fixed stay valid) and the configuration's registry
  identity (policy and partitioner names plus their parameters).
* **Nothing presentation-only is part of the key.**  PinPoints weights only
  affect the *aggregation* of per-phase metrics, and a configuration's
  display name only affects table headings; both are excluded so overlapping
  sweeps share cache entries.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Dict, Tuple

from repro.cluster.config import ClusterConfig
from repro.uops.registers import NUM_FP_REGISTERS, NUM_INT_REGISTERS
from repro.workloads.profile import BenchmarkProfile

if TYPE_CHECKING:  # import at type-check time only: repro.experiments imports
    # the engine back, and jobs only *hold* configurations (the instances
    # carry their own make_policy()/cache_identity() methods), so no runtime
    # import is needed.
    from repro.experiments.configs import SteeringConfiguration

#: Bump when the simulator or workload substrate changes in a way that makes
#: previously cached metrics stale.  (2: declarative registry-based
#: configuration identities replaced the Table 3 base-name identities.)
CACHE_SCHEMA_VERSION = 2


def _canonical_json(payload: object) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace drift)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _json_scalar(value: object) -> str:
    """``_canonical_json(value)``, formatting a plain ``int`` directly."""
    return str(value) if type(value) is int else _canonical_json(value)


#: The key fragment of the architectural register counts.
_REGISTER_COUNTS = _canonical_json({"num_int": NUM_INT_REGISTERS, "num_fp": NUM_FP_REGISTERS})

#: Canonical JSON of each resolved machine by ``(num_clusters,
#: config_overrides, override value types)``: the jobs of a figure run share
#: a handful of geometries, so each is encoded once.  The types keep apart
#: overrides that compare equal but encode differently (``2`` and ``2.0``).
_MACHINE_FRAGMENTS: Dict[Tuple[object, ...], str] = {}


@dataclass(frozen=True)
class SimulationJob:
    """One independent simulation: a benchmark phase under one configuration.

    Parameters
    ----------
    profile:
        The benchmark profile; carried whole (not by name) so custom profiles
        work and so renamed-but-identical profiles never collide in the cache.
    phase:
        PinPoints phase index (selects the per-phase seed and working set).
        The phase *weight* is deliberately not part of the job: it only
        affects the benchmark-level reassembly, which the runner performs
        from its simulation-point plan.
    configuration:
        The declarative steering configuration (registry names + parameters).
    trace_length:
        Dynamic µops to simulate.
    region_size:
        Compiler window of the software passes.
    num_clusters / num_virtual_clusters:
        Machine geometry.
    config_overrides:
        Sorted ``(field, value)`` pairs applied on top of the Table 2
        :class:`~repro.cluster.config.ClusterConfig`.
    """

    profile: BenchmarkProfile
    phase: int
    configuration: "SteeringConfiguration"
    trace_length: int
    region_size: int
    num_clusters: int
    num_virtual_clusters: int
    config_overrides: Tuple[Tuple[str, object], ...] = ()

    @property
    def label(self) -> str:
        """Human-readable job label, e.g. ``"164.gzip-1/p0/VC"``."""
        return f"{self.profile.name}/p{self.phase}/{self.configuration.name}"

    def trace_key(self) -> str:
        """Stable hash of everything that determines the generated trace.

        Jobs running different configurations on the same phase share this
        key, which lets workers memoise the (expensive) trace generation: the
        dynamic µop stream is identical across configurations by design, as
        in the paper's methodology.
        """
        # The canonical JSON of {schema, profile, phase, trace_length,
        # register_space}: keys in sorted order, values as key fragments.
        text = (
            f'{{"phase":{_json_scalar(self.phase)},"profile":{self.profile.identity_json},'
            f'"register_space":{_REGISTER_COUNTS},"schema":{CACHE_SCHEMA_VERSION},'
            f'"trace_length":{_json_scalar(self.trace_length)}}}'
        )
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def machine_config(self) -> ClusterConfig:
        """The resolved :class:`ClusterConfig` this job simulates on."""
        config = ClusterConfig(num_clusters=self.num_clusters)
        if self.config_overrides:
            config = config.with_overrides(**dict(self.config_overrides))
        return config

    def machine_key(self) -> Tuple[object, ...]:
        """Hashable identity of the simulated machine (geometry + overrides).

        Jobs of one trace batch that share this key can share one
        :class:`~repro.cluster.processor.ClusteredProcessor` instance across
        configurations (architectural state is reset between runs); jobs with
        different keys need different processors.
        """
        return (self.num_clusters, self.config_overrides)

    def cache_key(self) -> str:
        """Stable content hash identifying this job's simulation result.

        The machine is keyed by the *resolved* :class:`ClusterConfig` --
        every field, not just the overrides -- so editing a default in
        ``cluster/config.py`` invalidates old cache entries automatically.
        Conversely, only the knobs the configuration actually *consumes* are
        keyed: the virtual-cluster count enters as its effective value
        (configuration override folded over the settings value) and only for
        configurations that use it, and the compiler region size only for
        configurations with a compile-time pass.  Hence ``VC(2->4)`` shares
        entries with an equivalently configured plain VC run, and the OP
        baseline of a virtual-cluster or region-size sweep is simulated once,
        not once per swept value.  Changes to simulator *logic* are invisible
        to hashing; bump :data:`CACHE_SCHEMA_VERSION` for those.
        """
        configuration = self.configuration
        # A pinned count is an explicit declaration that the count matters,
        # so it is keyed even when uses_virtual_clusters was (mis)left False
        # -- e.g. a hand-written scenario pinning VC variants must never
        # share cache entries across counts.
        if configuration.uses_virtual_clusters or configuration.num_virtual_clusters is not None:
            effective_vcs = configuration.effective_virtual_clusters(self.num_virtual_clusters)
        else:
            effective_vcs = None
        geometry = (
            self.num_clusters,
            self.config_overrides,
            tuple(type(value) for _, value in self.config_overrides),
        )
        machine = _MACHINE_FRAGMENTS.get(geometry)
        if machine is None:
            machine = _MACHINE_FRAGMENTS[geometry] = _canonical_json(asdict(self.machine_config()))
        region_size = self.region_size if configuration.uses_compiler else None
        # The canonical JSON of {schema, profile, phase, configuration,
        # trace_length, region_size, num_virtual_clusters, machine_config,
        # register_space}: keys in sorted order, values as key fragments.
        text = (
            f'{{"configuration":{configuration.cache_identity_json},"machine_config":{machine},'
            f'"num_virtual_clusters":{_json_scalar(effective_vcs)},'
            f'"phase":{_json_scalar(self.phase)},"profile":{self.profile.identity_json},'
            f'"region_size":{_json_scalar(region_size)},"register_space":{_REGISTER_COUNTS},'
            f'"schema":{CACHE_SCHEMA_VERSION},"trace_length":{_json_scalar(self.trace_length)}}}'
        )
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

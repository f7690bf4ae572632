"""Serializable scenario specifications.

A :class:`ScenarioSpec` is the declarative description of one experiment:
the machine (a registered preset plus overrides), the workloads, the steering
configurations, the simulation knobs, and optional sweep axes that are
grid-expanded into the engine's job matrix.  Specs are frozen dataclasses of
plain data -- picklable, hashable, and losslessly convertible to/from JSON
(``from_dict(to_dict(spec)) == spec``) -- so an experiment can live in a
``.json`` file, travel to worker processes, and key the on-disk result cache.

Example scenario file::

    {
      "name": "my-sweep",
      "report": "sweep",
      "machine": {"preset": "table2-2c"},
      "benchmarks": ["164.gzip-1", "178.galgel"],
      "configurations": ["OP", "VC"],
      "trace_length": 2000,
      "sweep": [{"parameter": "link_latency", "values": [1, 2, 4]}]
    }

Run it with ``python -m repro run my_sweep.json --jobs 4``.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.cluster.config import ClusterConfig
from repro.experiments.configs import (
    Params,
    SteeringConfiguration,
    freeze_params,
    thaw_params,
)
from repro.scenarios.registry import build_machine

#: ScenarioSpec fields a sweep axis may target directly.
_SWEEPABLE_SPEC_FIELDS = ("trace_length", "max_phases", "region_size", "num_virtual_clusters")

#: ClusterConfig fields a sweep axis may target (applied as machine overrides).
_MACHINE_FIELDS = tuple(f.name for f in fields(ClusterConfig))

#: The value type of every sweepable field (every one is an int or a bool).
_FIELD_TYPES = {
    **{name: int for name in _SWEEPABLE_SPEC_FIELDS},
    **{name: type(getattr(ClusterConfig(), name)) for name in _MACHINE_FIELDS},
}


@dataclass(frozen=True)
class MachineSpec:
    """A machine: a registered preset name plus field overrides.

    ``resolve()`` builds the :class:`~repro.cluster.config.ClusterConfig` by
    calling the preset builder with the overrides, so presets stay the single
    source of truth for Table 2 geometries.
    """

    preset: str = "table2-2c"
    overrides: Params = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "overrides", freeze_params(self.overrides))

    def resolve(self) -> ClusterConfig:
        """The :class:`ClusterConfig` this spec describes."""
        return build_machine(self.preset, dict(self.overrides))

    def with_overrides(self, **overrides: object) -> "MachineSpec":
        """A copy with extra overrides folded in (used by sweep expansion)."""
        merged = dict(self.overrides)
        merged.update(overrides)
        return replace(self, overrides=freeze_params(merged))

    def to_dict(self) -> Dict[str, object]:
        return {"preset": self.preset, "overrides": thaw_params(self.overrides)}

    @classmethod
    def from_dict(cls, data: Union[str, Mapping[str, object]]) -> "MachineSpec":
        """Rebuild from :meth:`to_dict` output (a bare string names a preset)."""
        if isinstance(data, str):
            return cls(preset=data)
        unknown = set(data) - {"preset", "overrides"}
        if unknown:
            raise ValueError(f"unknown machine fields {sorted(unknown)}")
        return cls(
            preset=str(data.get("preset", cls.preset)),
            overrides=freeze_params(data.get("overrides")),
        )


@dataclass(frozen=True)
class SweepAxis:
    """One swept parameter: a field name and the values to grid over.

    ``parameter`` may be a :class:`ScenarioSpec` simulation knob
    (``trace_length``, ``max_phases``, ``region_size``,
    ``num_virtual_clusters``) or any
    :class:`~repro.cluster.config.ClusterConfig` field (``link_latency``,
    ``iq_int_size``...).  When one logical parameter drives several machine
    fields (the issue-queue sweep sets the INT and FP queues together), list
    them in ``fields`` and ``parameter`` becomes the display name.  The
    values must be distinct and of the target fields' type (``int``, or
    ``bool`` for the boolean machine fields).
    """

    parameter: str
    values: Tuple[object, ...]
    fields: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.values, (list, tuple)):
            raise ValueError(
                f"sweep axis {self.parameter!r}: 'values' must be a list, not {self.values!r}"
            )
        object.__setattr__(self, "values", tuple(self.values))
        object.__setattr__(self, "fields", tuple(self.fields))
        if not self.values:
            raise ValueError(f"sweep axis {self.parameter!r} has no values")
        for field_name in self.target_fields:
            if field_name not in _SWEEPABLE_SPEC_FIELDS and field_name not in _MACHINE_FIELDS:
                raise ValueError(
                    f"cannot sweep {field_name!r}; expected a simulation knob "
                    f"{_SWEEPABLE_SPEC_FIELDS} or a ClusterConfig field"
                )
            expected = _FIELD_TYPES[field_name]
            for value in self.values:
                # bool is an int subclass: an int field takes no True/False.
                if type(value) is not expected:
                    raise ValueError(
                        f"sweep axis {self.parameter!r}: value {value!r} for field "
                        f"{field_name!r} must be {expected.__name__}"
                    )
        for index, value in enumerate(self.values):
            if value in self.values[:index]:
                raise ValueError(
                    f"sweep axis {self.parameter!r}: duplicate value {value!r} in 'values'"
                )

    @property
    def target_fields(self) -> Tuple[str, ...]:
        """The spec/machine fields this axis sets (defaults to ``parameter``)."""
        return self.fields or (self.parameter,)

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {"parameter": self.parameter, "values": list(self.values)}
        if self.fields:
            data["fields"] = list(self.fields)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SweepAxis":
        unknown = set(data) - {"parameter", "values", "fields"}
        if unknown:
            raise ValueError(f"unknown sweep-axis fields {sorted(unknown)}")
        return cls(
            parameter=str(data["parameter"]),
            values=data["values"],
            fields=tuple(data.get("fields", ())),
        )


#: Stopping-rule modes understood by the adaptive report kinds.
_STOPPING_MODES = ("ci", "race", "bisect")

#: Built-in report kinds that run replication 0 only and take no stopping rule.
_SINGLE_REPLICATION_REPORTS = ("table", "figure5", "figure6", "figure7", "table1", "sweep")


@dataclass(frozen=True)
class StoppingRule:
    """Declarative early-stopping rule for replicated scenarios.

    Interpreted by the adaptive report kinds (``"replicated"``, ``"race"``,
    ``"crossover"``; see :mod:`repro.scenarios.adaptive`):

    Parameters
    ----------
    mode:
        ``"ci"`` (stop each configuration once its confidence interval is
        tight enough), ``"race"`` (retire configurations that cannot win the
        ranking) or ``"bisect"`` (bisect the sweep axis for a crossover
        instead of grid-expanding it).
    enabled:
        ``False`` runs the exhaustive grid but still *replays* the stopping
        decisions over the sampled-value prefixes, so the printed tables are
        byte-identical to the adaptive run (the CLI's ``--no-adaptive``).
    confidence:
        Two-sided confidence level of every interval; one of the committed
        critical-value tables (0.90 / 0.95 / 0.99).
    min_replications:
        Replications every configuration samples before any decision
        (at least 2 -- an interval needs a variance estimate).
    rel_precision:
        ``"ci"`` mode: stop once the half-width is at most this fraction of
        the running mean.
    tie_margin:
        ``"race"`` mode: racers whose paired difference to the leader lies
        entirely within this fraction of the leader's mean are declared tied
        and stop sampling (0 disables tie detection).
    axis:
        ``"bisect"`` mode: the swept parameter to bisect (defaults to the
        scenario's only sweep axis).
    """

    mode: str
    enabled: bool = True
    confidence: float = 0.95
    min_replications: int = 2
    rel_precision: float = 0.01
    tie_margin: float = 0.0
    axis: Optional[str] = None

    def __post_init__(self) -> None:
        from repro.engine.adaptive import SUPPORTED_CONFIDENCE

        if self.mode not in _STOPPING_MODES:
            raise ValueError(
                f"unknown stopping mode {self.mode!r}; expected one of {_STOPPING_MODES}"
            )
        if not isinstance(self.enabled, bool):
            raise ValueError(f"stopping-rule 'enabled' must be a bool, not {self.enabled!r}")
        if isinstance(self.min_replications, bool) or not isinstance(self.min_replications, int):
            raise ValueError(
                f"stopping-rule 'min_replications' must be an integer, "
                f"not {self.min_replications!r}"
            )
        for name in ("confidence", "rel_precision", "tie_margin"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"stopping-rule {name!r} must be a number, not {value!r}")
        if self.axis is not None and not isinstance(self.axis, str):
            raise ValueError(
                f"stopping-rule 'axis' must be a string or null, not {self.axis!r}"
            )
        if self.confidence not in SUPPORTED_CONFIDENCE:
            raise ValueError(
                f"confidence {self.confidence!r} has no committed critical-value "
                f"table; supported: {SUPPORTED_CONFIDENCE}"
            )
        if self.min_replications < 2:
            raise ValueError("min_replications must be at least 2")
        if self.rel_precision <= 0:
            raise ValueError("rel_precision must be positive")
        if self.tie_margin < 0:
            raise ValueError("tie_margin must be non-negative")

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {"mode": self.mode}
        for field_spec in fields(self):
            if field_spec.name == "mode":
                continue
            value = getattr(self, field_spec.name)
            if value != field_spec.default:
                data[field_spec.name] = value
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "StoppingRule":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown stopping-rule fields {sorted(unknown)}; expected a "
                f"subset of {sorted(known)}"
            )
        if "mode" not in data:
            raise ValueError("a stopping rule needs a 'mode'")
        return cls(**{name: data[name] for name in known if name in data})


#: Scenario fields that must be positive ints.
_POSITIVE_INT_FIELDS = (
    "num_virtual_clusters",
    "trace_length",
    "max_phases",
    "region_size",
    "replications",
)


@dataclass(frozen=True)
class ScenarioSpec:
    """One declaratively described experiment.

    The spec is the only settings type: an
    :class:`~repro.experiments.runner.ExperimentRunner` takes its machine
    and simulation knobs from one, so these field defaults are the
    experiment defaults everywhere.

    Parameters
    ----------
    name:
        Scenario name (used in titles and the ``scenarios list`` output).
    report:
        Report kind interpreting the results (see
        :data:`repro.scenarios.runner.REPORT_KINDS`): ``"table"``,
        ``"figure5"``, ``"figure6"``, ``"figure7"``, ``"table1"`` or
        ``"sweep"``.
    description:
        One-line description for listings.
    machine:
        Machine preset plus overrides.
    num_virtual_clusters:
        Virtual clusters exposed by the ISA (configurations may pin their
        own count on top).
    benchmarks:
        Trace names; empty means the full SPEC CPU2000 suite.
    configurations:
        Steering configurations, baseline (or comparison subject) first.
    trace_length:
        Dynamic µops per simulation point.  The paper uses 10 M; the
        default is scaled down so a pure-Python simulation of the full
        suite stays tractable.  Measured on Figure 5 from 2,500 to 32,000
        µops, VC's lead over OB and RHOP holds at every length, but RHOP
        beats OB only at 2,500.
    max_phases:
        Cap on PinPoints simulation points per benchmark (the paper caps
        at 10).
    region_size:
        Compiler window (instructions per region) of the software passes.
    sweep:
        Sweep axes, grid-expanded by :meth:`expand_sweep` (used by the
        ``"sweep"`` report kind).  No two axes may set the same field.
    replications:
        Seed blocks per configuration: replication ``r`` re-runs the whole
        benchmark set with every profile's ``base_seed`` shifted by the
        r-th seed-block stride, so replications are independent end-to-end
        samples of the same experiment (replication 0 is the unshifted
        profile, sharing traces and cache entries with non-replicated
        scenarios).  Used by the statistical report kinds (``"replicated"``,
        ``"race"``, ``"crossover"``).
    stopping:
        Optional :class:`StoppingRule` declaring how the statistical report
        kinds may stop sampling early.
    """

    name: str
    report: str = "table"
    description: str = ""
    machine: MachineSpec = MachineSpec()
    num_virtual_clusters: int = 2
    benchmarks: Tuple[str, ...] = ()
    configurations: Tuple[SteeringConfiguration, ...] = ()
    trace_length: int = 2500
    max_phases: int = 1
    region_size: int = 128
    sweep: Tuple[SweepAxis, ...] = ()
    replications: int = 1
    stopping: Optional[StoppingRule] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "benchmarks", tuple(self.benchmarks))
        object.__setattr__(self, "configurations", tuple(self.configurations))
        object.__setattr__(self, "sweep", tuple(self.sweep))
        names = [configuration.name for configuration in self.configurations]
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise ValueError(f"duplicate configuration names: {sorted(duplicates)}")
        for field_name in _POSITIVE_INT_FIELDS:
            value = getattr(self, field_name)
            # bool is an int subclass, but True is not a count.
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(
                    f"scenario {field_name!r} must be a positive integer, not {value!r}"
                )
        swept: Dict[str, str] = {}
        for axis in self.sweep:
            for field_name in axis.target_fields:
                if field_name in swept:
                    raise ValueError(
                        f"sweep axes {swept[field_name]!r} and {axis.parameter!r} "
                        f"both set field {field_name!r}"
                    )
                swept[field_name] = axis.parameter

    def validate(self) -> None:
        """Check every name and parameter the spec refers to, before running.

        A typo'd policy, partitioner, machine preset, report kind or
        benchmark name raises here (``KeyError``/``ValueError`` with the
        known names listed) instead of surfacing mid-run, and so do
        ``replications``/``stopping`` settings the report kind would ignore
        or fail on.  Each configuration's policy and partitioner is built
        once per distinct sweep-point geometry, so a bad parameter (an
        unknown keyword, an out-of-range value) raises a ``ValueError``
        naming the configuration before any configuration of the batch has
        simulated.
        """
        from repro.scenarios.registry import MACHINES, PARTITIONERS, POLICIES
        from repro.scenarios.runner import REPORT_KINDS
        from repro.workloads.spec2000 import all_trace_names

        REPORT_KINDS.get(self.report)
        self._validate_statistics()
        MACHINES.get(self.machine.preset)
        for configuration in self.configurations:
            POLICIES.get(configuration.policy)
            if configuration.partitioner is not None:
                PARTITIONERS.get(configuration.partitioner)
        geometries = set()
        for _, point in self.expand_sweep():
            try:
                num_clusters = point.machine.resolve().num_clusters
            except TypeError as exc:  # an unknown machine override field
                raise ValueError(f"machine {self.machine.preset!r}: {exc}") from exc
            geometries.add((num_clusters, point.num_virtual_clusters, point.region_size))
        for configuration in self.configurations:
            for num_clusters, num_virtual_clusters, region_size in sorted(geometries):
                try:
                    configuration.make_policy(num_clusters, num_virtual_clusters)
                    configuration.make_partitioner(
                        num_clusters, num_virtual_clusters, region_size
                    )
                except (TypeError, ValueError) as exc:
                    raise ValueError(
                        f"configuration {configuration.name!r}: {exc}"
                    ) from exc
        known = set(all_trace_names("all"))
        unknown = [name for name in self.benchmarks if name not in known]
        if unknown:
            raise ValueError(f"unknown benchmarks: {unknown}")

    def _validate_statistics(self) -> None:
        """Reject statistical fields the report kind would ignore or fail on."""
        rule = self.stopping
        if self.report in _SINGLE_REPLICATION_REPORTS:
            if self.replications != 1:
                raise ValueError(
                    f"report kind {self.report!r} runs one replication; "
                    f"'replications' must be 1, not {self.replications}"
                )
            if rule is not None:
                raise ValueError(f"report kind {self.report!r} takes no 'stopping' rule")
        if rule is None or rule.mode == "bisect":
            return  # bisection samples every replication; min_replications is unused
        if rule.axis is not None:
            raise ValueError(
                f"stopping-rule 'axis' applies to mode 'bisect' only, not {rule.mode!r}"
            )
        if self.replications < rule.min_replications:
            raise ValueError(
                f"'replications' ({self.replications}) is below the stopping "
                f"rule's 'min_replications' ({rule.min_replications})"
            )

    def resolved_benchmarks(self) -> List[str]:
        """The benchmark list, defaulting to the full SPEC CPU2000 suite."""
        if self.benchmarks:
            return list(self.benchmarks)
        from repro.workloads.spec2000 import all_trace_names

        return all_trace_names("all")

    def expand_sweep(self) -> List[Tuple[Dict[str, object], "ScenarioSpec"]]:
        """Grid-expand the sweep axes.

        Returns ``(point, spec)`` pairs: ``point`` maps each axis' display
        parameter to its value, ``spec`` is this spec with the values applied
        (simulation knobs replaced, machine fields folded into overrides) and
        the sweep cleared.  Without axes, the single pair ``({}, self)``.
        """
        if not self.sweep:
            return [({}, replace(self, sweep=()))]
        points: List[Tuple[Dict[str, object], "ScenarioSpec"]] = []
        for values in itertools.product(*(axis.values for axis in self.sweep)):
            point = dict(zip((axis.parameter for axis in self.sweep), values))
            spec = replace(self, sweep=())
            for axis, value in zip(self.sweep, values):
                for field_name in axis.target_fields:
                    if field_name in _SWEEPABLE_SPEC_FIELDS:
                        spec = replace(spec, **{field_name: value})
                    else:
                        spec = replace(
                            spec, machine=spec.machine.with_overrides(**{field_name: value})
                        )
            points.append((point, spec))
        return points

    # -- serialization -----------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Lossless JSON-compatible dump (``from_dict`` round-trips exactly).

        The statistical fields (``replications``/``stopping``) are emitted
        only when set, so pre-existing scenario files stay byte-identical.
        """
        data: Dict[str, object] = {
            "name": self.name,
            "report": self.report,
            "description": self.description,
            "machine": self.machine.to_dict(),
            "num_virtual_clusters": self.num_virtual_clusters,
            "benchmarks": list(self.benchmarks),
            "configurations": [
                configuration.to_dict() for configuration in self.configurations
            ],
            "trace_length": self.trace_length,
            "max_phases": self.max_phases,
            "region_size": self.region_size,
            "sweep": [axis.to_dict() for axis in self.sweep],
        }
        if self.replications != 1:
            data["replications"] = self.replications
        if self.stopping is not None:
            data["stopping"] = self.stopping.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output (or a hand-written dict).

        Configurations may be bare Table 3 names (``"VC"``) or full dicts;
        the machine may be a bare preset name.
        """
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown scenario fields {sorted(unknown)}; expected a subset of "
                f"{sorted(known)}"
            )
        if "name" not in data:
            raise ValueError("a scenario needs a 'name'")
        if not isinstance(data["name"], str):
            raise ValueError(f"scenario 'name' must be a string, not {data['name']!r}")
        for field_name in ("benchmarks", "configurations", "sweep"):
            if field_name in data and not isinstance(data[field_name], (list, tuple)):
                raise ValueError(
                    f"scenario {field_name!r} must be a list, not {data[field_name]!r}"
                )
        kwargs: Dict[str, object] = {"name": data["name"]}
        for field_name in ("report", "description") + _POSITIVE_INT_FIELDS:
            if field_name in data:
                kwargs[field_name] = data[field_name]
        if "machine" in data:
            kwargs["machine"] = MachineSpec.from_dict(data["machine"])
        if "benchmarks" in data:
            kwargs["benchmarks"] = tuple(data["benchmarks"])
        if "configurations" in data:
            kwargs["configurations"] = tuple(
                SteeringConfiguration.from_dict(entry) for entry in data["configurations"]
            )
        if "sweep" in data:
            kwargs["sweep"] = tuple(SweepAxis.from_dict(entry) for entry in data["sweep"])
        if data.get("stopping") is not None:
            kwargs["stopping"] = StoppingRule.from_dict(data["stopping"])
        return cls(**kwargs)

    def to_json(self, indent: int = 2) -> str:
        """The spec as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent) + "\n"

    def save(self, path: Union[str, Path]) -> None:
        """Write the spec to a JSON scenario file."""
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "ScenarioSpec":
        """Load a spec from a JSON scenario file."""
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
        if not isinstance(data, Mapping):
            raise ValueError(f"{path}: a scenario file must hold one JSON object")
        return cls.from_dict(data)


def scenario_overrides(
    spec: ScenarioSpec,
    benchmarks: Optional[Sequence[str]] = None,
    trace_length: Optional[int] = None,
    max_phases: Optional[int] = None,
) -> ScenarioSpec:
    """Apply the CLI's common overrides (``--benchmarks``/``--trace-length``/
    ``--phases``) to a spec, leaving omitted knobs untouched.

    A value the spec rejects (``trace_length=0``) raises ``ValueError``
    naming the field."""
    if benchmarks is not None:
        spec = replace(spec, benchmarks=tuple(benchmarks))
    if trace_length is not None:
        spec = replace(spec, trace_length=trace_length)
    if max_phases is not None:
        spec = replace(spec, max_phases=max_phases)
    return spec

"""Tests for the declarative scenario API (repro.scenarios)."""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine.cache import ResultCache
from repro.engine.parallel import ParallelRunner
from repro.experiments.configs import (
    SteeringConfiguration,
    TABLE3_CONFIGURATIONS,
    vc_variant,
)
from repro.experiments.runner import ExperimentRunner
from repro.scenarios.builtin import builtin_scenario
from repro.scenarios.registry import (
    MACHINES,
    PARTITIONERS,
    POLICIES,
    Registry,
    SCENARIOS,
    build_machine,
    build_policy,
)
from repro.scenarios.runner import REPORT_KINDS, run_scenario
from repro.scenarios.spec import (
    MachineSpec,
    ScenarioSpec,
    StoppingRule,
    SweepAxis,
    scenario_overrides,
)
from repro.workloads.spec2000 import profile_for

#: Small settings so scenario tests stay fast.
SMALL = {"benchmarks": ("164.gzip-1", "178.galgel"), "trace_length": 700, "max_phases": 1}


#: SHA-256 of each built-in report at two benchmarks, 600 µops, one phase.
REPORT_DIGESTS = {
    "figure5": "266c70d63b6dd0e6c3d631b126736582bd2d7a6983585a0c51f9f8f4b83b5989",
    "figure6": "52e0b3dacd75785e1a0ddf4356092e7c149d7547bc238857a9094c747f486ed6",
    "figure7": "981e4b20bf0b3587df4b9acac9416e9b4ac0100d7f172236e57a0503e5983a01",
    "table1": "a917d894b2edc6e316a66c67daf5192f48922fca784d39be6ea776e6c7246f64",
    "quickstart": "bda40aae686cb5ec379b4ae1eb5513455ee85360f974314dea30592b7cc9f035",
    "sweep-virtual-clusters": "8ce6d3cb0be0672f79d8e1d10f1b4febd7bff05409c163207ed94f3883aa53a8",
    "sweep-link-latency": "2a6a6f7d6ca2a62df8d56364ae140a59d3e867163ec52e11abd2a4b4268a9dd2",
    "sweep-region-size": "a88f8639c2d79ca3a3157f5bb9f602d3f2ded730e3c20a0f18f7d7aa162c2e0f",
    "sweep-issue-queue-size": "cdce76703b1001e5b152abb760ac486f137be9b399da853a975d252664d004fc",
}


def adaptive_pin_spec(kind: str) -> ScenarioSpec:
    """The adaptive report ``kind`` at the settings its pin was taken with.

    ``race`` and ``replicated`` race every Table 3 configuration over four
    replications of two benchmarks (700 µops, one phase); ``crossover``
    bisects three link latencies with two replications.
    """
    if kind == "crossover":
        return dataclasses.replace(
            builtin_scenario("crossover-link-latency"),
            trace_length=700,
            max_phases=1,
            replications=2,
            sweep=(SweepAxis(parameter="link_latency", values=(4, 16, 64)),),
        )
    race = dataclasses.replace(builtin_scenario("adaptive-race"), replications=4, **SMALL)
    if kind == "race":
        return race
    return dataclasses.replace(
        race,
        report="replicated",
        stopping=StoppingRule(mode="ci", min_replications=2, rel_precision=0.1),
    )


#: SHA-256 and ``(planned, executed)`` runs of each adaptive report at
#: :func:`adaptive_pin_spec`'s settings.
ADAPTIVE_PINS = {
    "race": ("64a012d8bfc4a70b3b4786b12ed9cfc04025bad047065899f5aab5c3cd86bc76", 40, 32),
    "replicated": ("733c3ac67493cbae0971708edc0e5db01f488040fc4ccd3fdd2c5a2b5bc7b0ef", 40, 34),
    "crossover": ("c7dc6d744ce99376ec3b5cc821abc14d48840aa13e921f484fc158d605404802", 24, 24),
}


def small(spec: ScenarioSpec, **extra) -> ScenarioSpec:
    """A fast variant of a spec (tiny traces, two benchmarks)."""
    return dataclasses.replace(spec, **{**SMALL, **extra})


class TestConfigurationSpecs:
    """Every configuration is declarative: picklable, hashable, serializable."""

    def all_configurations(self):
        return list(TABLE3_CONFIGURATIONS.values()) + [
            vc_variant("VC(4->4)", 4),
            vc_variant("VC(2->4)", 2),
            vc_variant("VC(8)", 8),
        ]

    def test_round_trip_to_dict(self):
        for configuration in self.all_configurations():
            rebuilt = SteeringConfiguration.from_dict(configuration.to_dict())
            assert rebuilt == configuration

    def test_pickle_and_hash(self):
        for configuration in self.all_configurations():
            assert pickle.loads(pickle.dumps(configuration)) == configuration
            assert hash(configuration) == hash(pickle.loads(pickle.dumps(configuration)))  # detlint: ok DET108 (hash equality of equal objects holds under any seed)

    def test_string_shorthand_is_table3(self):
        assert SteeringConfiguration.from_dict("VC") == TABLE3_CONFIGURATIONS["VC"]
        with pytest.raises(KeyError):
            SteeringConfiguration.from_dict("bogus")

    def test_dict_params_normalise_to_frozen_form(self):
        a = SteeringConfiguration(name="x", policy="static", policy_params={"name": "OB"})
        b = SteeringConfiguration(name="x", policy="static", policy_params=(("name", "OB"),))
        assert a == b and hash(a) == hash(b)  # detlint: ok DET108 (hash equality of equal objects holds under any seed)

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown configuration fields"):
            SteeringConfiguration.from_dict({"name": "x", "policy": "OP", "lambda": 1})

    def test_nested_list_params_stay_hashable_and_round_trip(self):
        config = SteeringConfiguration(
            name="x", policy="OP", policy_params={"weights": [1, [2, 3]]}
        )
        assert hash(config)  # detlint: ok DET108 (only asserts hashability, not a specific value)
        assert SteeringConfiguration.from_dict(config.to_dict()) == config
        assert config.to_dict()["policy_params"] == {"weights": [1, [2, 3]]}

    def test_unhashable_param_values_rejected_at_construction(self):
        with pytest.raises(TypeError, match="JSON scalars, lists or objects"):
            SteeringConfiguration(name="x", policy="OP", policy_params={"w": {1, 2}})

    def test_mapping_params_stay_hashable_and_round_trip(self):
        config = SteeringConfiguration(
            name="x", policy="OP", policy_params={"w": {"b": [1, 2], "a": {"c": 3}}}
        )
        assert hash(config)  # detlint: ok DET108 (only asserts hashability, not a specific value)
        assert SteeringConfiguration.from_dict(config.to_dict()) == config
        assert config.to_dict()["policy_params"] == {"w": {"a": {"c": 3}, "b": [1, 2]}}
        # A mapping never equals the list of its pairs.
        pairs = SteeringConfiguration(name="x", policy="OP", policy_params={"w": [["a", 1]]})
        assert pairs != SteeringConfiguration(name="x", policy="OP", policy_params={"w": {"a": 1}})

    def test_policy_and_partitioner_construction(self):
        vc = TABLE3_CONFIGURATIONS["VC"]
        policy = vc.make_policy(2, 4)
        assert policy.num_virtual_clusters == 4
        partitioner = vc.make_partitioner(2, 4, region_size=64)
        assert partitioner.num_targets == 4 and partitioner.region_size == 64
        pinned = vc_variant("VC(2->4)", 2)
        assert pinned.make_policy(4, 4).num_virtual_clusters == 2


def _rhop_scenario_file(tmp_path, objective) -> str:
    """A JSON scenario whose RHOP configuration names a refinement objective."""
    import json

    rhop = {
        "name": "RHOP",
        "policy": "static",
        "policy_params": {"name": "RHOP"},
        "partitioner": "RHOP",
        "partitioner_params": {"objective": objective},
    }
    path = tmp_path / "rhop.json"
    path.write_text(
        json.dumps(
            {
                "name": "rhop-objective",
                "report": "table",
                "benchmarks": ["164.gzip-1"],
                "trace_length": 400,
                "max_phases": 1,
                "configurations": ["OP", rhop],
            }
        ),
        encoding="utf-8",
    )
    return str(path)


class TestRhopObjectiveFromJson:
    def test_objective_mapping_builds_and_runs(self, tmp_path):
        from repro.partition.rhop_partitioner import PartitionObjective

        spec = ScenarioSpec.from_file(_rhop_scenario_file(tmp_path, {"max_imbalance": 0.3}))
        spec.validate()
        rhop = spec.configurations[1]
        partitioner = rhop.make_partitioner(2, 2, 128)
        assert partitioner.objective == PartitionObjective(max_imbalance=0.3)
        assert "RHOP" in run_scenario(spec)

    @pytest.mark.parametrize(
        "objective, field",
        [
            ({"cut_wieght": 1.0}, "cut_wieght"),
            ({"max_imbalance": -0.1}, "max_imbalance"),
            (0.3, "objective"),
        ],
    )
    def test_bad_objective_fails_validation_naming_the_field(self, tmp_path, objective, field):
        spec = ScenarioSpec.from_file(_rhop_scenario_file(tmp_path, objective))
        with pytest.raises(ValueError, match=f"configuration 'RHOP': .*{field}"):
            spec.validate()


class TestRegistries:
    def test_builtin_names_present(self):
        assert {"OP", "VC", "one-cluster", "static"} <= set(POLICIES.names())
        assert {"OB", "RHOP", "VC"} <= set(PARTITIONERS.names())
        assert {"table2-2c", "table2-4c"} <= set(MACHINES.names())
        assert {"figure5", "figure6", "figure7", "table1"} <= set(SCENARIOS.names())
        assert {"table", "figure5", "sweep", "table1"} <= set(REPORT_KINDS.names())

    def test_unknown_name_lists_known_ones(self):
        with pytest.raises(KeyError, match="unknown steering policy 'bogus'"):
            POLICIES.get("bogus")
        with pytest.raises(KeyError, match="registered:"):
            build_machine("bogus-machine", {})

    def test_duplicate_registration_rejected(self):
        registry = Registry("thing")
        registry.register("a")(lambda: 1)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("a")(lambda: 2)
        registry.unregister("a")
        registry.register("a")(lambda: 3)
        assert registry.get("a")() == 3

    def test_shadowing_a_builtin_name_is_rejected_at_lookup(self):
        # Registered before the built-in modules load, a user's "OP" still
        # collides with occupancy.py's at the first lookup, whatever the name.
        code = (
            "from repro.scenarios.registry import POLICIES\n"
            "POLICIES.register('OP')(lambda *args, **kwargs: None)\n"
            "try:\n"
            "    POLICIES.get('OP')\n"
            "except ValueError as error:\n"
            "    print(error)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert "steering policy 'OP' is already registered" in result.stdout

    def test_adaptive_kinds_are_listed_without_loading_the_adaptive_module(self):
        code = (
            "import sys\n"
            "from repro.scenarios.runner import REPORT_KINDS\n"
            "assert {'replicated', 'race', 'crossover'} <= set(REPORT_KINDS.names())\n"
            "REPORT_KINDS.get('figure5')\n"
            "sys.exit(int('repro.scenarios.adaptive' in sys.modules))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        result = subprocess.run([sys.executable, "-c", code], env=env, timeout=120)
        assert result.returncode == 0

    def test_invalid_name_rejected(self):
        registry = Registry("thing")
        with pytest.raises(ValueError):
            registry.register("")

    def test_build_policy_passes_geometry_and_params(self):
        policy = build_policy("VC", {"fallback_balance": False}, 2, 8)
        assert policy.num_virtual_clusters == 8 and policy.fallback_balance is False

    def test_machine_presets_resolve(self):
        assert build_machine("table2-2c", {}).num_clusters == 2
        assert build_machine("table2-4c", {"link_latency": 3}).link_latency == 3


class TestScenarioSpecSerialization:
    def sample_spec(self) -> ScenarioSpec:
        return ScenarioSpec(
            name="sample",
            report="sweep",
            description="a swept custom scenario",
            machine=MachineSpec(preset="table2-2c", overrides={"link_latency": 2}),
            num_virtual_clusters=4,
            benchmarks=("164.gzip-1", "181.mcf"),
            configurations=(
                TABLE3_CONFIGURATIONS["OP"],
                vc_variant("VC(4)", 4),
            ),
            trace_length=1234,
            max_phases=2,
            region_size=64,
            sweep=(
                SweepAxis(parameter="trace_length", values=(500, 1000)),
                SweepAxis(
                    parameter="issue_queue_size",
                    values=(16, 48),
                    fields=("iq_int_size", "iq_fp_size"),
                ),
            ),
        )

    def test_round_trip_to_dict(self):
        for spec in (self.sample_spec(), *(builtin_scenario(n) for n in SCENARIOS.names())):
            assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_round_trip_json_file(self, tmp_path):
        spec = self.sample_spec()
        path = tmp_path / "sample.json"
        spec.save(path)
        assert ScenarioSpec.from_file(path) == spec

    def test_pickle(self):
        spec = self.sample_spec()
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario fields"):
            ScenarioSpec.from_dict({"name": "x", "bogus_knob": 3})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("benchmarks", "164.gzip-1"),
            ("configurations", "VC"),
            ("sweep", "link_latency"),
            ("sweep", {"link_latency": []}),
            ("name", 5),
            ("trace_length", "abc"),
            ("trace_length", -5),
            ("trace_length", 2.5),
            ("trace_length", True),
            ("max_phases", 0),
            ("num_virtual_clusters", 0),
            ("num_virtual_clusters", False),
            ("region_size", None),
        ],
        ids=[
            "benchmarks-string",
            "configurations-string",
            "sweep-string",
            "sweep-mapping",
            "name-int",
            "trace_length-string",
            "trace_length-negative",
            "trace_length-float",
            "trace_length-bool",
            "max_phases-zero",
            "num_virtual_clusters-zero",
            "num_virtual_clusters-bool",
            "region_size-none",
        ],
    )
    def test_malformed_field_rejected_naming_it(self, field, value):
        """A wrongly typed field fails in ``from_dict``, not mid-run."""
        with pytest.raises(ValueError, match=f"scenario '{field}' must be"):
            ScenarioSpec.from_dict({"name": "x", field: value})

    @pytest.mark.parametrize(
        "configuration, extra",
        [
            ({"partitioner": "OB", "partitioner_params": {"issue_widht": 2}}, {}),
            ({"partitioner": "OB", "partitioner_params": {"issue_width": 0}}, {}),
            ({"partitioner": "VC", "partitioner_params": {"issue_width": -1}}, {}),
            ({"partitioner": "RHOP", "partitioner_params": {"region_size": 64}}, {}),
            ({"policy_params": {"bogus": 1}}, {}),
        ],
        ids=[
            "OB-unknown-keyword",
            "OB-issue_width-zero",
            "VC-issue_width-negative",
            "RHOP-region_size-twice",
            "policy-unknown-keyword",
        ],
    )
    def test_bad_configuration_parameter_fails_validation(self, configuration, extra):
        """Every configuration's policy and partitioner is built at every
        sweep point in ``validate``, so a bad parameter names its
        configuration before any job of the batch simulates."""
        bad = {"name": "bad", "policy": "static", **configuration}
        spec = ScenarioSpec.from_dict(
            {"name": "x", "configurations": ["OP", bad], "benchmarks": ["164.gzip-1"], **extra}
        )
        with pytest.raises(ValueError, match="^configuration 'bad': "):
            spec.validate()

    def test_swept_non_positive_knob_fails_validation_naming_it(self):
        """A sweep point is a spec, so it gets the spec's positive-int check."""
        spec = ScenarioSpec.from_dict(
            {
                "name": "x",
                "configurations": ["OP", "RHOP"],
                "sweep": [{"parameter": "region_size", "values": [64, 0]}],
            }
        )
        with pytest.raises(ValueError, match="scenario 'region_size' must be a positive integer"):
            spec.validate()

    def test_unknown_machine_override_fails_validation(self):
        spec = ScenarioSpec.from_dict(
            {"name": "x", "machine": {"overrides": {"link_latncy": 3}}, "configurations": ["OP"]}
        )
        with pytest.raises(ValueError, match="^machine 'table2-2c': .*link_latncy"):
            spec.validate()

    def test_invalid_json_file_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("not json{", encoding="utf-8")
        with pytest.raises(ValueError, match="not valid JSON"):
            ScenarioSpec.from_file(path)

    def test_duplicate_configuration_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate configuration names"):
            ScenarioSpec(
                name="dup",
                configurations=(TABLE3_CONFIGURATIONS["OP"], TABLE3_CONFIGURATIONS["OP"]),
            )

    def test_runner_jobs_resolve_machine_and_overrides(self):
        spec = self.sample_spec()
        runner = ExperimentRunner(spec)
        profile = profile_for("164.gzip-1")
        job = runner.make_job(
            profile, runner.simulation_points(profile)[0], spec.configurations[0]
        )
        assert job.num_clusters == 2
        assert job.config_overrides == (("link_latency", 2),)
        assert job.trace_length == 1234
        assert (job.num_virtual_clusters, job.region_size) == (4, 64)
        machine = spec.machine.resolve()
        assert machine.link_latency == 2

    def test_examples_figure5_json_matches_builtin(self):
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "examples" / "figure5.json"
        assert ScenarioSpec.from_file(path) == builtin_scenario("figure5")

    def test_examples_adaptive_jsons_match_builtins(self):
        from pathlib import Path

        examples = Path(__file__).resolve().parents[1] / "examples"
        assert ScenarioSpec.from_file(
            examples / "adaptive_race.json"
        ) == builtin_scenario("adaptive-race")
        assert ScenarioSpec.from_file(
            examples / "crossover_link_latency.json"
        ) == builtin_scenario("crossover-link-latency")

    def test_statistical_fields_stay_out_of_plain_specs(self):
        """Pre-adaptive scenario files keep their byte layout: replications
        and stopping are emitted only when non-default."""
        plain = builtin_scenario("figure5").to_dict()
        assert "replications" not in plain and "stopping" not in plain
        race = builtin_scenario("adaptive-race").to_dict()
        assert race["replications"] == 16
        assert race["stopping"]["mode"] == "race"


#: Built-in report kinds that run one replication and take no stopping rule.
SINGLE_REPLICATION_REPORTS = ("table", "figure5", "figure6", "figure7", "table1", "sweep")


class TestStoppingRuleSerialization:
    def test_round_trip_preserves_non_defaults(self):
        rule = StoppingRule(
            mode="race", enabled=False, confidence=0.99,
            min_replications=3, tie_margin=0.05,
        )
        assert StoppingRule.from_dict(rule.to_dict()) == rule

    def test_defaults_are_omitted_from_the_dict(self):
        assert StoppingRule(mode="ci").to_dict() == {"mode": "ci"}
        assert StoppingRule(mode="bisect", axis="link_latency").to_dict() == {
            "mode": "bisect", "axis": "link_latency",
        }

    def test_spec_round_trips_replications_and_stopping(self):
        spec = ScenarioSpec(
            name="adaptive",
            report="replicated",
            configurations=(TABLE3_CONFIGURATIONS["OP"],),
            replications=8,
            stopping=StoppingRule(mode="ci", rel_precision=0.02),
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown stopping mode"):
            StoppingRule(mode="flip-a-coin")
        with pytest.raises(ValueError, match="no committed critical-value table"):
            StoppingRule(mode="ci", confidence=0.8)
        with pytest.raises(ValueError, match="min_replications"):
            StoppingRule(mode="ci", min_replications=1)
        with pytest.raises(ValueError, match="rel_precision"):
            StoppingRule(mode="ci", rel_precision=0.0)
        with pytest.raises(ValueError, match="tie_margin"):
            StoppingRule(mode="race", tie_margin=-0.1)
        with pytest.raises(ValueError, match="needs a 'mode'"):
            StoppingRule.from_dict({})
        with pytest.raises(ValueError, match="'replications' must be a positive integer"):
            ScenarioSpec(name="x", replications=0)

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"stopping": {"mode": "race", "min_replications": 2.5}}, "'min_replications'"),
            ({"stopping": {"mode": "race", "min_replications": True}}, "'min_replications'"),
            ({"stopping": {"mode": "race", "enabled": "no"}}, "'enabled'"),
            ({"stopping": {"mode": "race", "tie_margin": "x"}}, "'tie_margin'"),
            ({"stopping": {"mode": "race", "rel_precision": "0.1"}}, "'rel_precision'"),
            ({"stopping": {"mode": "race", "confidence": True}}, "'confidence'"),
            ({"stopping": {"mode": "bisect", "axis": 5}}, "'axis'"),
            ({"stopping": {"mode": "race", "axis": "link_latency"}}, "'axis'"),
            (
                {"replications": 2, "stopping": {"mode": "race", "min_replications": 4}},
                "'min_replications'",
            ),
        ]
        + [
            ({"report": kind, "replications": 3, "stopping": None}, "'replications'")
            for kind in SINGLE_REPLICATION_REPORTS
        ]
        + [
            ({"report": kind, "replications": 1}, "'stopping'")
            for kind in SINGLE_REPLICATION_REPORTS
        ],
        ids=[
            "min_replications-float",
            "min_replications-bool",
            "enabled-string",
            "tie_margin-string",
            "rel_precision-string",
            "confidence-bool",
            "axis-int",
            "axis-on-race",
            "replications-below-min",
        ]
        + [f"replications-on-{kind}" for kind in SINGLE_REPLICATION_REPORTS]
        + [f"stopping-on-{kind}" for kind in SINGLE_REPLICATION_REPORTS],
    )
    def test_malformed_statistical_field_rejected_naming_it(self, overrides, field):
        """A statistical field the report would mistype, ignore or fail on
        is rejected by ``from_dict`` or ``validate``, naming the field."""
        data = {
            "name": "x",
            "report": "race",
            "configurations": ["OP", "VC"],
            "replications": 4,
            "stopping": {"mode": "race"},
            **overrides,
        }
        with pytest.raises(ValueError, match=re.escape(field)):
            ScenarioSpec.from_dict(data).validate()

    @pytest.mark.parametrize("name", sorted(SCENARIOS.names()))
    def test_builtin_scenarios_validate(self, name):
        builtin_scenario(name).validate()


class TestSweepExpansion:
    def test_grid_product_and_field_application(self):
        spec = ScenarioSpec(
            name="grid",
            report="sweep",
            configurations=(TABLE3_CONFIGURATIONS["OP"],),
            sweep=(
                SweepAxis(parameter="trace_length", values=(500, 1000)),
                SweepAxis(parameter="link_latency", values=(1, 4)),
            ),
        )
        points = spec.expand_sweep()
        assert len(points) == 4
        seen = set()
        for point, point_spec in points:
            seen.add((point["trace_length"], point["link_latency"]))
            assert point_spec.trace_length == point["trace_length"]
            assert point_spec.machine.resolve().link_latency == point["link_latency"]
            assert point_spec.sweep == ()
        assert seen == {(500, 1), (500, 4), (1000, 1), (1000, 4)}

    def test_multi_field_axis(self):
        spec = ScenarioSpec(
            name="iq",
            sweep=(
                SweepAxis(
                    parameter="issue_queue_size",
                    values=(16,),
                    fields=("iq_int_size", "iq_fp_size"),
                ),
            ),
        )
        (_, point_spec), = spec.expand_sweep()
        machine = point_spec.machine.resolve()
        assert machine.iq_int_size == 16 and machine.iq_fp_size == 16

    def test_unknown_sweep_field_rejected(self):
        with pytest.raises(ValueError, match="cannot sweep"):
            SweepAxis(parameter="warp_drive", values=(1,))

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError, match="has no values"):
            SweepAxis(parameter="trace_length", values=())

    @pytest.mark.parametrize(
        "sweep, message",
        [
            (
                [{"parameter": "link_latency", "values": "1248"}],
                "sweep axis 'link_latency': 'values' must be a list",
            ),
            (
                [{"parameter": "link_latency", "values": [1, 1]}],
                "sweep axis 'link_latency': duplicate value 1",
            ),
            (
                [{"parameter": "link_latency", "values": [1, "4"]}],
                "sweep axis 'link_latency': value '4' for field 'link_latency' must be int",
            ),
            (
                [{"parameter": "region_size", "values": [64, 2.5]}],
                "sweep axis 'region_size': value 2.5 for field 'region_size' must be int",
            ),
            (
                [{"parameter": "link_latency", "values": [1, True]}],
                "sweep axis 'link_latency': value True for field 'link_latency' must be int",
            ),
            (
                [{"parameter": "warm_caches", "values": [0, 1]}],
                "sweep axis 'warm_caches': value 0 for field 'warm_caches' must be bool",
            ),
            (
                [
                    {"parameter": "issue_queue_size", "values": [16, 32],
                     "fields": ["iq_int_size", "iq_fp_size"]},
                    {"parameter": "iq_fp_size", "values": [8]},
                ],
                "sweep axes 'issue_queue_size' and 'iq_fp_size' both set field 'iq_fp_size'",
            ),
            (
                [
                    {"parameter": "link_latency", "values": [1, 2]},
                    {"parameter": "link_latency", "values": [4, 8]},
                ],
                "sweep axes 'link_latency' and 'link_latency' both set field 'link_latency'",
            ),
        ],
        ids=[
            "values-string",
            "duplicate-value",
            "string-for-int",
            "float-for-int",
            "bool-for-int",
            "int-for-bool",
            "overlapping-fields",
            "same-axis-twice",
        ],
    )
    def test_malformed_axis_rejected_naming_it(self, sweep, message):
        """A bad sweep axis fails in ``from_dict``, naming the axis and field."""
        with pytest.raises(ValueError, match=re.escape(message)):
            ScenarioSpec.from_dict({"name": "x", "report": "sweep", "sweep": sweep})


class TestScenarioExecution:
    @pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
    def test_builtin_report_text_is_pinned(self, name):
        """Every built-in report kind prints exactly the pinned text: a
        refactor of the experiment layer must not move a single byte."""
        spec = scenario_overrides(
            builtin_scenario(name),
            benchmarks=["164.gzip-1", "178.galgel"],
            trace_length=600,
            max_phases=1,
        )
        text = run_scenario(spec)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == REPORT_DIGESTS[name], f"{name} report changed:\n{text}"

    @pytest.mark.parametrize(
        "engine_kwargs",
        [{}, {"max_workers": 2, "shared_memory": False}],
        ids=["serial", "parallel"],
    )
    @pytest.mark.parametrize("kind", sorted(ADAPTIVE_PINS))
    def test_adaptive_report_text_is_pinned(self, kind, engine_kwargs):
        """The statistical report kinds print the pinned text and run the
        pinned number of simulations, on a serial and a 2-worker engine."""
        digest, planned, executed = ADAPTIVE_PINS[kind]
        with ParallelRunner(trace_root=None, **engine_kwargs) as engine:
            text = run_scenario(adaptive_pin_spec(kind), engine)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, (
            f"{kind} report changed:\n{text}"
        )
        stats = engine.adaptive_stats
        assert (stats["planned"], stats["executed"]) == (planned, executed)

    def test_sweep_scenario_runs(self):
        spec = small(
            builtin_scenario("sweep-link-latency"),
            benchmarks=("164.gzip-1",),
            sweep=(SweepAxis(parameter="link_latency", values=(1, 4)),),
        )
        text = run_scenario(spec)
        assert "Ablation sweep -- link_latency" in text
        assert "slowdown vs OP (%)" in text

    def test_table_scenario_with_custom_registered_policy(self, tmp_path):
        """A scenario using a user-registered policy runs process-parallel
        with caching -- no inline-only fallback remains anywhere."""
        from repro.scenarios.registry import POLICIES, register_policy

        if "test-balance" not in POLICIES:
            from repro.steering.baselines import LoadBalanceSteering

            @register_policy("test-balance")
            def _build(num_clusters, num_virtual_clusters, **params):
                return LoadBalanceSteering(**params)

        spec = ScenarioSpec(
            name="custom",
            report="table",
            benchmarks=("164.gzip-1",),
            trace_length=600,
            configurations=(
                TABLE3_CONFIGURATIONS["OP"],
                SteeringConfiguration(name="balance", policy="test-balance"),
            ),
        )
        cache = ResultCache(tmp_path / "cache")
        with ParallelRunner(max_workers=2, cache=cache) as engine:
            first = run_scenario(spec, engine)
        second = run_scenario(spec, ParallelRunner(cache=cache))
        assert first == second
        assert "balance" in first

    def test_table1_scenario_needs_no_simulation(self):
        text = run_scenario(builtin_scenario("table1"))
        assert "dependence check" in text and "VC" in text

    def test_sweep_axes_rejected_by_non_sweep_kinds(self):
        spec = dataclasses.replace(
            small(builtin_scenario("figure5")),
            sweep=(SweepAxis(parameter="trace_length", values=(500,)),),
        )
        with pytest.raises(ValueError, match="does not interpret sweep axes"):
            run_scenario(spec)

    def test_figure_kinds_validate_machine(self):
        spec = small(builtin_scenario("figure5"), machine=MachineSpec(preset="table2-4c"))
        with pytest.raises(ValueError, match="2-cluster machine"):
            run_scenario(spec)

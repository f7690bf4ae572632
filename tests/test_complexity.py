"""Tests for the hardware complexity model (Table 1)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.cluster.config import ClusterConfig, four_cluster_config
from repro.complexity.model import SteeringComplexityModel, complexity_table
from repro.experiments.configs import SteeringConfiguration
from repro.experiments.table1 import paper_table1_claims, run_table1
from repro.scenarios.builtin import builtin_scenario
from repro.scenarios.spec import MachineSpec, ScenarioSpec
from repro.steering.occupancy import OccupancyAwareSteering
from repro.steering.one_cluster import OneClusterSteering
from repro.steering.virtual_cluster import VirtualClusterSteering


class TestComplexityModel:
    def test_cluster_id_bits(self):
        model = SteeringComplexityModel(ClusterConfig(num_clusters=2))
        assert model.cluster_id_bits() == 1
        model4 = SteeringComplexityModel(four_cluster_config())
        assert model4.cluster_id_bits() == 2

    def test_op_needs_more_storage_than_vc(self):
        model = SteeringComplexityModel(ClusterConfig())
        op = model.estimate(OccupancyAwareSteering())
        vc = model.estimate(VirtualClusterSteering(2))
        assert op.storage_bits > 4 * vc.storage_bits
        assert op.serialized_decision and not vc.serialized_decision

    def test_one_cluster_has_no_storage(self):
        model = SteeringComplexityModel(ClusterConfig())
        estimate = model.estimate(OneClusterSteering())
        assert estimate.storage_bits == 0

    def test_vc_storage_scales_with_mapping_table(self):
        model = SteeringComplexityModel(ClusterConfig())
        small = model.estimate(VirtualClusterSteering(2)).storage_bits
        large = model.estimate(VirtualClusterSteering(8)).storage_bits
        assert large > small

    def test_dependence_check_covers_every_architectural_register(self):
        """One cluster id plus a valid bit per register: 128 x (1 + 1) on two
        clusters, 128 x (2 + 1) on four."""
        assert SteeringComplexityModel(ClusterConfig()).dependence_check_bits() == 256
        assert SteeringComplexityModel(four_cluster_config()).dependence_check_bits() == 384

    def test_complexity_table_rows(self):
        rows = complexity_table([OccupancyAwareSteering(), VirtualClusterSteering(2)])
        assert len(rows) == 2
        assert rows[0]["steering algorithm"] == "OP"
        assert set(rows[0]) >= {
            "dependence check",
            "workload balance management",
            "vote unit",
            "copy generator",
        }


def table1_rows(spec: ScenarioSpec) -> list:
    """The Table 1 rows of a ``table1``-kind spec."""
    return run_table1(spec.machine.resolve(), spec.num_virtual_clusters, spec.configurations)


class TestTable1Reproduction:
    @pytest.fixture
    def spec(self) -> ScenarioSpec:
        return builtin_scenario("table1")

    def test_paper_claims_hold(self, spec):
        claims = paper_table1_claims(table1_rows(spec))
        assert all(claims.values()), claims

    def test_table_covers_all_five_configurations(self, spec):
        names = {row["steering algorithm"] for row in table1_rows(spec)}
        assert names >= {"OP", "one-cluster", "OB", "RHOP", "VC"}

    def test_table1_yes_no_pattern_matches_paper(self, spec):
        rows = {row["steering algorithm"]: row for row in table1_rows(spec)}
        # Table 1 (paper): OP needs dependence check + vote unit, VC does not;
        # both manage workload balance.
        assert rows["OP"]["dependence check"] == "yes"
        assert rows["OP"]["vote unit"] == "yes"
        assert rows["VC"]["dependence check"] == "no"
        assert rows["VC"]["vote unit"] == "no"
        assert rows["OP"]["workload balance management"] == "yes"
        assert rows["VC"]["workload balance management"] == "yes"
        # Software-only schemes need neither the dependence check nor counters.
        assert rows["RHOP"]["dependence check"] == "no"
        assert rows["OB"]["workload balance management"] == "no"

    def test_registered_policy_configuration_included(self, spec):
        round_robin = SteeringConfiguration(name="RR", policy="round-robin")
        extended = dataclasses.replace(
            spec, configurations=spec.configurations + (round_robin,)
        )
        rows = table1_rows(extended)
        assert [row["steering algorithm"] for row in rows][-1] == "round-robin"

    def test_four_cluster_machine_increases_op_cost(self, spec):
        four_cluster = dataclasses.replace(spec, machine=MachineSpec(preset="table2-4c"))
        two = {r["steering algorithm"]: r for r in table1_rows(spec)}
        four = {r["steering algorithm"]: r for r in table1_rows(four_cluster)}
        assert four["OP"]["storage bits"] > two["OP"]["storage bits"]

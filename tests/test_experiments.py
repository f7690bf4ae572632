"""Tests of the experiment harness (repro.experiments)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.engine.parallel import ParallelRunner
from repro.experiments.configs import (
    TABLE3_CONFIGURATIONS,
    make_configuration,
    table3_configurations,
)
from repro.experiments.figure6 import run_figure6
from repro.experiments.report import format_key_values, format_table
from repro.experiments.runner import (
    ExperimentRunner,
    reduction_percent,
    slowdown_percent,
    speedup_percent,
)
from repro.experiments.slowdown import run_slowdown
from repro.scenarios.builtin import builtin_scenario
from repro.scenarios.runner import run_scenario, sweep_rows
from repro.scenarios.spec import MachineSpec, ScenarioSpec, SweepAxis, scenario_overrides

#: Tiny settings so harness tests stay fast.
FAST = ScenarioSpec(name="fast", trace_length=800, max_phases=1)
FAST4 = ScenarioSpec(
    name="fast4",
    machine=MachineSpec(preset="table2-4c"),
    num_virtual_clusters=4,
    trace_length=800,
    max_phases=1,
)
SMALL_SET = ["164.gzip-1", "178.galgel"]


def lineup(name: str):
    """The configurations of a built-in scenario (baseline or subject first)."""
    return builtin_scenario(name).configurations


def small_scenario(name: str, **fields):
    """A built-in scenario at the FAST settings on ``SMALL_SET``."""
    spec = scenario_overrides(
        builtin_scenario(name), benchmarks=SMALL_SET, trace_length=800, max_phases=1
    )
    return dataclasses.replace(spec, **fields)


class TestConfigs:
    def test_table3_has_five_configurations(self):
        assert set(TABLE3_CONFIGURATIONS) == {"OP", "one-cluster", "OB", "RHOP", "VC"}

    def test_make_configuration_unknown(self):
        with pytest.raises(KeyError):
            make_configuration("bogus")

    def test_compiler_usage_flags(self):
        assert not TABLE3_CONFIGURATIONS["OP"].uses_compiler
        assert not TABLE3_CONFIGURATIONS["one-cluster"].uses_compiler
        assert TABLE3_CONFIGURATIONS["OB"].uses_compiler
        assert TABLE3_CONFIGURATIONS["RHOP"].uses_compiler
        assert TABLE3_CONFIGURATIONS["VC"].uses_compiler

    def test_factories_produce_fresh_policies(self):
        config = TABLE3_CONFIGURATIONS["VC"]
        a = config.make_policy(2, 2)
        b = config.make_policy(2, 2)
        assert a is not b

    def test_table3_order(self):
        names = [c.name for c in table3_configurations()]
        assert names == ["OP", "one-cluster", "OB", "RHOP", "VC"]


class TestComparisonHelpers:
    def test_slowdown_percent(self):
        assert slowdown_percent(110, 100) == pytest.approx(10.0)
        assert slowdown_percent(100, 100) == pytest.approx(0.0)
        with pytest.raises(ValueError):
            slowdown_percent(10, 0)

    def test_speedup_percent(self):
        assert speedup_percent(100, 120) == pytest.approx(20.0)
        assert speedup_percent(120, 100) == pytest.approx(-16.67, abs=0.01)

    def test_reduction_percent(self):
        assert reduction_percent(50, 100) == pytest.approx(50.0)
        assert reduction_percent(100, 0) == 0.0


class TestRunner:
    def test_spec_is_required(self):
        with pytest.raises(TypeError):
            ExperimentRunner()

    def test_benchmark_result_weighted_aggregates(self):
        runner = ExperimentRunner(FAST)
        result = runner.run_benchmark("164.gzip-1", TABLE3_CONFIGURATIONS["OP"])
        assert result.configuration == "OP"
        assert result.cycles > 0 and result.committed_uops > 0
        assert 0 < result.ipc <= 6
        assert len(result.phase_results) == 1

    def test_trace_cache_shared_across_configurations(self):
        runner = ExperimentRunner(FAST)
        a = runner.run_benchmark("164.gzip-1", TABLE3_CONFIGURATIONS["OP"])
        b = runner.run_benchmark("164.gzip-1", TABLE3_CONFIGURATIONS["VC"])
        # Both configurations executed the exact same µop stream.
        assert a.committed_uops == b.committed_uops

    def test_run_suite_structure(self):
        runner = ExperimentRunner(FAST)
        configurations = [TABLE3_CONFIGURATIONS["OP"], TABLE3_CONFIGURATIONS["VC"]]
        results = runner.run_suite(["164.gzip-1"], configurations)
        assert set(results) == {"164.gzip-1"}
        assert set(results["164.gzip-1"]) == {"OP", "VC"}

    def test_runner_is_deterministic(self):
        a = ExperimentRunner(FAST).run_benchmark("164.gzip-1", TABLE3_CONFIGURATIONS["VC"])
        b = ExperimentRunner(FAST).run_benchmark("164.gzip-1", TABLE3_CONFIGURATIONS["VC"])
        assert a.cycles == b.cycles and a.copies == b.copies


class TestFigure5:
    @pytest.fixture(scope="class")
    def result(self):
        return run_slowdown(ExperimentRunner(FAST), SMALL_SET, lineup("figure5"))

    def test_structure_and_baseline(self, result):
        assert set(result.slowdowns) == set(SMALL_SET)
        for per_config in result.slowdowns.values():
            assert set(per_config) == {"one-cluster", "OB", "RHOP", "VC"}
        assert set(result.copies) == set(SMALL_SET)
        assert result.int_benchmarks == ["164.gzip-1"]
        assert result.fp_benchmarks == ["178.galgel"]

    def test_averages_table_rows(self, result):
        rows = result.averages_table()
        assert [row["configuration"] for row in rows] == ["one-cluster", "OB", "RHOP", "VC"]
        for row in rows:
            assert "CPU2000 AVG (%)" in row

    def test_one_cluster_is_clearly_slower_than_op(self, result):
        assert result.average("one-cluster", "all") > 10.0

    def test_requires_two_cluster_machine(self):
        spec = small_scenario("figure5", machine=MachineSpec(preset="table2-4c"))
        with pytest.raises(ValueError, match="Figure 5 is defined for the 2-cluster machine"):
            run_scenario(spec)

    def test_benchmark_rows(self, result):
        rows = result.benchmark_rows("int")
        assert rows[0]["benchmark"] == "164.gzip-1"
        assert "VC (%)" in rows[0]


class TestFigure6:
    def test_points_cover_all_comparisons(self):
        result = run_figure6(ExperimentRunner(FAST), ["164.gzip-1"], lineup("figure6"))
        comparisons = {p.comparison for p in result.points}
        assert comparisons == {"OB", "RHOP", "OP"}
        # One phase, three comparisons.
        assert len(result.points) == 3

    def test_summary_fields(self):
        result = run_figure6(ExperimentRunner(FAST), SMALL_SET, lineup("figure6"))
        summary = result.summary("OB")
        assert summary["num_traces"] == 2.0
        assert 0.0 <= summary["fraction_with_copy_reduction"] <= 1.0
        assert result.summary("nonexistent")["num_traces"] == 0.0

    def test_points_reference_phase_labels(self):
        result = run_figure6(ExperimentRunner(FAST), ["164.gzip-1"], lineup("figure6"))
        assert all(point.trace.startswith("164.gzip-1/p") for point in result.points)


class TestFigure7:
    def test_structure(self):
        result = run_slowdown(ExperimentRunner(FAST4), SMALL_SET, lineup("figure7"))
        plotted = ["OB", "RHOP", "VC(4->4)", "VC(2->4)"]
        for per_config in result.slowdowns.values():
            assert set(per_config) == set(plotted)
        rows = result.averages_table()
        assert [row["configuration"] for row in rows] == plotted
        assert isinstance(result.copy_overhead("VC(4->4)", "VC(2->4)"), float)

    def test_requires_four_cluster_machine(self):
        spec = small_scenario("figure7", machine=MachineSpec(preset="table2-2c"))
        with pytest.raises(ValueError, match="Figure 7 is defined for the 4-cluster machine"):
            run_scenario(spec)


class TestAblations:
    def test_virtual_cluster_sweep_structure(self):
        spec = small_scenario(
            "sweep-virtual-clusters",
            benchmarks=("164.gzip-1",),
            sweep=(SweepAxis(parameter="num_virtual_clusters", values=(1, 2)),),
        )
        rows = sweep_rows(spec, ParallelRunner())
        assert [(row["num_virtual_clusters"], row["configuration"]) for row in rows] == [
            (1, "OP"),
            (1, "VC"),
            (2, "OP"),
            (2, "VC"),
        ]

    def test_link_latency_sweep_records_slowdowns(self):
        spec = small_scenario(
            "sweep-link-latency",
            benchmarks=("164.gzip-1",),
            sweep=(SweepAxis(parameter="link_latency", values=(1, 4)),),
        )
        rows = sweep_rows(spec, ParallelRunner())
        assert len(rows) == 6
        for row in rows:
            slowdown = row["slowdown vs OP (%)"]
            if row["configuration"] == "OP":
                assert slowdown == "-"
            else:
                assert isinstance(slowdown, float)


class TestReport:
    def test_format_table_plain(self):
        rows = [{"name": "a", "value": 1.234}, {"name": "bb", "value": 5.0}]
        plain = format_table(rows, title="T")
        assert plain.splitlines()[:2] == ["T", "name  value"]
        assert "1.23" in plain

    def test_format_table_empty(self):
        assert "(no data)" in format_table([], title="x")

    def test_format_key_values(self):
        text = format_key_values({"cycles": 120, "ipc": 1.5}, title="metrics")
        assert "cycles" in text and "1.50" in text

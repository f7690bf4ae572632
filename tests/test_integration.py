"""End-to-end integration tests: the paper's qualitative claims on a small scale.

These tests exercise the full stack (workload generation, compile-time
passes, the clustered simulator and the experiment harness) and assert the
*shape* of the paper's results -- who wins, who loses -- on a small but
representative benchmark subset.  Absolute numbers are not checked (the
substrate is synthetic).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import quick_comparison
from repro.engine.parallel import ParallelRunner
from repro.experiments.configs import TABLE3_CONFIGURATIONS
from repro.experiments.figure6 import run_figure6
from repro.experiments.runner import ExperimentRunner
from repro.experiments.slowdown import run_slowdown
from repro.scenarios.builtin import builtin_scenario
from repro.scenarios.spec import MachineSpec, ScenarioSpec, scenario_overrides

#: A representative mix: regular integer, branchy integer, memory-bound
#: integer, high-ILP floating point.
SUBSET = ["164.gzip-1", "176.gcc-1", "181.mcf", "178.galgel"]

SETTINGS = ScenarioSpec(name="integration", trace_length=2500, max_phases=1)


@pytest.fixture(scope="module")
def figure5_subset():
    return run_slowdown(
        ExperimentRunner(SETTINGS), SUBSET, builtin_scenario("figure5").configurations
    )


class TestFigure5Shape:
    def test_one_cluster_is_the_worst_configuration(self, figure5_subset):
        averages = {
            name: figure5_subset.average(name, "all")
            for name in ("one-cluster", "OB", "RHOP", "VC")
        }
        assert max(averages, key=averages.get) == "one-cluster"

    def test_vc_is_close_to_op(self, figure5_subset):
        # Paper: 2.62 % average slowdown; we accept anything below 5 %.
        assert figure5_subset.average("VC", "all") < 5.0

    def test_vc_beats_both_software_only_schemes(self, figure5_subset):
        vc = figure5_subset.average("VC", "all")
        assert vc < figure5_subset.average("OB", "all")
        assert vc < figure5_subset.average("RHOP", "all")

    def test_software_only_schemes_lose_to_op(self, figure5_subset):
        assert figure5_subset.average("OB", "all") > 0.0
        assert figure5_subset.average("RHOP", "all") > 0.0

    def test_vc_beats_software_only_on_galgel(self, figure5_subset):
        # galgel is the paper's showcase benchmark for the hybrid scheme.  At
        # the short trace lengths used in tests individual comparisons can
        # tie, so VC is required to beat the *average* of the two
        # software-only schemes.
        slowdowns = figure5_subset.slowdowns["178.galgel"]
        software_only = (slowdowns["OB"] + slowdowns["RHOP"]) / 2.0
        assert slowdowns["VC"] < software_only


class TestFigure6Shape:
    @pytest.fixture(scope="class")
    def figure6_subset(self):
        return run_figure6(
            ExperimentRunner(SETTINGS), SUBSET, builtin_scenario("figure6").configurations
        )

    def test_vc_speeds_up_over_software_only_on_most_traces(self, figure6_subset):
        for comparison in ("OB", "RHOP"):
            speedups = [p.speedup_percent for p in figure6_subset.for_comparison(comparison)]
            assert np.mean(speedups) > 0.0

    def test_vc_reduces_copies_against_ob_on_most_traces(self, figure6_subset):
        summary = figure6_subset.summary("OB")
        assert summary["fraction_with_copy_reduction"] >= 0.5

    def test_vc_close_to_op_on_average(self, figure6_subset):
        speedups = [p.speedup_percent for p in figure6_subset.for_comparison("OP")]
        assert np.mean(speedups) > -5.0


class TestQuickComparison:
    def test_runs_all_five_configurations(self):
        results = quick_comparison("164.gzip-1", trace_length=1000)
        assert set(results) == set(TABLE3_CONFIGURATIONS)
        for metrics in results.values():
            assert metrics.committed_uops > 0

    def test_one_cluster_uses_single_cluster(self):
        results = quick_comparison("164.gzip-1", trace_length=1000)
        assert results["one-cluster"].cluster_dispatch[1] == 0
        assert results["one-cluster"].copies_generated == 0

    def test_vc_annotations_reach_the_hardware(self):
        results = quick_comparison("164.gzip-1", trace_length=1000)
        assert results["VC"].vc_remaps > 0

    def test_submits_the_quickstart_scenario_jobs(self, monkeypatch):
        """At its defaults it runs exactly the built-in scenario's jobs."""

        def capture(engine, jobs):
            raise _Submitted(list(jobs))

        monkeypatch.setattr(ParallelRunner, "run", capture)
        with pytest.raises(_Submitted) as submitted:
            quick_comparison("164.gzip-1")
        spec = builtin_scenario("quickstart")
        with pytest.raises(_Submitted) as expected:
            ExperimentRunner(spec).run_suite(spec.benchmarks, spec.configurations)
        assert submitted.value.jobs == expected.value.jobs
        assert {job.trace_length for job in submitted.value.jobs} == {spec.trace_length}

    def test_phase0_metrics_match_the_quickstart_scenario(self):
        results = quick_comparison("164.gzip-1", trace_length=600)
        spec = scenario_overrides(builtin_scenario("quickstart"), trace_length=600)
        suite = ExperimentRunner(spec).run_suite(spec.benchmarks, spec.configurations)
        assert results == {
            name: result.phase_results[0].metrics
            for name, result in suite["164.gzip-1"].items()
        }


class _Submitted(Exception):
    """Carries the jobs an engine run was handed, instead of running them."""

    def __init__(self, jobs):
        super().__init__(len(jobs))
        self.jobs = jobs


class TestCrossMachineConsistency:
    def test_same_trace_same_committed_uops_across_configurations(self):
        runner = ExperimentRunner(SETTINGS)
        committed = set()
        for name in ("OP", "OB", "RHOP", "VC", "one-cluster"):
            result = runner.run_benchmark("176.gcc-1", TABLE3_CONFIGURATIONS[name])
            committed.add(round(result.committed_uops, 3))
        assert len(committed) == 1

    def test_four_cluster_machine_is_not_slower_than_two_clusters_for_op(self):
        two = ExperimentRunner(SETTINGS).run_benchmark(
            "178.galgel", TABLE3_CONFIGURATIONS["OP"]
        )
        four = ExperimentRunner(
            dataclasses.replace(
                SETTINGS, machine=MachineSpec(preset="table2-4c"), num_virtual_clusters=4
            )
        ).run_benchmark("178.galgel", TABLE3_CONFIGURATIONS["OP"])
        # More clusters = more total issue bandwidth and queue capacity; the
        # hardware-only policy should never lose from the extra resources.
        assert four.cycles <= two.cycles * 1.05

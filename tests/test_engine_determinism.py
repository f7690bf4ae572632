"""Determinism contract of the parallel experiment engine.

The engine's core promise (see :mod:`repro.engine`): serial, process-parallel
and cache-replay runs of the same experiment produce **bit-identical**
metrics -- exact equality on every counter of every phase, not approximate
IPC.  These tests run one small experiment (2 benchmarks x 2 phases x 2
configurations) through all three execution modes and compare the full
:class:`~repro.cluster.metrics.SimulationMetrics` dataclasses, which covers
every field including the per-cluster lists and the cache summary floats.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.cluster.metrics import SimulationMetrics
from repro.engine.cache import ResultCache
from repro.engine.parallel import ParallelRunner
from repro.experiments.configs import TABLE3_CONFIGURATIONS
from repro.experiments.runner import ExperimentRunner, ExperimentSettings

SETTINGS = ExperimentSettings(
    num_clusters=2, num_virtual_clusters=2, trace_length=600, max_phases=2
)
BENCHMARKS = ["164.gzip-1", "178.galgel"]
CONFIGURATIONS = [TABLE3_CONFIGURATIONS["OP"], TABLE3_CONFIGURATIONS["VC"]]


def _runner(settings=SETTINGS, jobs=1, cache_dir=None) -> ExperimentRunner:
    """A runner on its own engine: ``jobs`` workers and an optional result cache."""
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    return ExperimentRunner(settings, engine=ParallelRunner(max_workers=jobs, cache=cache))


def _phase_metrics(runner: ExperimentRunner) -> Dict[Tuple[str, str, int], SimulationMetrics]:
    """Run the experiment and key every phase's metrics by (benchmark, config, phase)."""
    out: Dict[Tuple[str, str, int], SimulationMetrics] = {}
    suite = runner.run_suite(BENCHMARKS, CONFIGURATIONS)
    for benchmark, per_config in suite.items():
        for configuration, result in per_config.items():
            for phase_result in result.phase_results:
                out[(benchmark, configuration, phase_result.phase)] = phase_result.metrics
    return out


def _aggregates(runner: ExperimentRunner) -> List[Tuple[float, float, float, float]]:
    """Weighted benchmark-level aggregates, in a fixed order."""
    suite = runner.run_suite(BENCHMARKS, CONFIGURATIONS)
    return [
        (result.cycles, result.copies, result.allocation_stalls, result.committed_uops)
        for benchmark in BENCHMARKS
        for result in suite[benchmark].values()
    ]


def assert_identical(
    a: Dict[Tuple[str, str, int], SimulationMetrics],
    b: Dict[Tuple[str, str, int], SimulationMetrics],
) -> None:
    """Exact (dataclass) equality on every counter of every phase."""
    assert a.keys() == b.keys()
    for key in a:
        # Dataclass equality compares every field: cycles, committed µops,
        # copies, all stall counters, per-cluster lists and the cache summary.
        assert a[key] == b[key], f"metrics diverge for {key}"


class TestSerialVsParallel:
    def test_phase_metrics_bit_identical(self):
        serial = _phase_metrics(_runner(jobs=1))
        parallel = _phase_metrics(_runner(jobs=2))
        assert_identical(serial, parallel)

    def test_weighted_aggregates_bit_identical(self):
        # Exact float equality is intentional: the weighted reassembly runs
        # in the parent process in a fixed order in both modes.
        assert _aggregates(_runner(jobs=1)) == _aggregates(
            _runner(jobs=2)
        )

    def test_single_phase_api_matches_batched(self):
        """A one-benchmark, one-configuration run_suite and the full batched
        suite agree exactly on every phase."""
        runner = _runner()
        single = runner.run_suite(["164.gzip-1"], [TABLE3_CONFIGURATIONS["VC"]])
        batched = _phase_metrics(runner)
        for phase in single["164.gzip-1"]["VC"].phase_results:
            assert phase.metrics == batched[("164.gzip-1", "VC", phase.phase)]


class TestCustomRegisteredConfigurations:
    """User-registered policies are as cacheable and parallel as Table 3.

    Configurations are declarative (registry names plus parameters), so a
    custom policy registered in user code gains caching and process-parallel
    execution for free -- the inline-only fallback path is gone.
    """

    @staticmethod
    def _custom_configuration():
        # A parameterised variant of a stock policy under a custom registry
        # name: same shape as a user-defined policy class would take.
        from repro.scenarios.registry import POLICIES, register_policy

        if "pinned-cluster" not in POLICIES:
            from repro.steering.one_cluster import OneClusterSteering

            @register_policy("pinned-cluster")
            def _build(num_clusters, num_virtual_clusters, **params):
                return OneClusterSteering(**params)

        from repro.experiments.configs import SteeringConfiguration

        return SteeringConfiguration(
            name="pinned-1",
            policy="pinned-cluster",
            policy_params={"target_cluster": 1},
            description="custom policy registered by user code",
        )

    def test_custom_configuration_runs_parallel_and_caches(self, tmp_path):
        configuration = self._custom_configuration()
        runner = _runner(jobs=2, cache_dir=str(tmp_path / "cache"))
        result = runner.run_benchmark("164.gzip-1", configuration)
        assert result.cycles > 0
        # Every phase was simulated (in worker processes) and stored.
        assert runner.engine.cache.stats()["stores"] == len(result.phase_results)

        replay_runner = _runner(jobs=1, cache_dir=str(tmp_path / "cache"))
        replay = replay_runner.run_benchmark("164.gzip-1", configuration)
        assert replay_runner.engine.cache.misses == 0
        assert [r.metrics for r in result.phase_results] == [
            r.metrics for r in replay.phase_results
        ]

    def test_custom_configuration_matches_serial(self):
        configuration = self._custom_configuration()
        serial = _runner(jobs=1).run_benchmark("164.gzip-1", configuration)
        parallel = _runner(jobs=2).run_benchmark("164.gzip-1", configuration)
        assert [r.metrics for r in serial.phase_results] == [
            r.metrics for r in parallel.phase_results
        ]

    def test_pinned_virtual_clusters_key_the_cache_even_if_undeclared(self, tmp_path):
        """Configurations pinning different virtual-cluster counts must never
        share cache entries, even when ``uses_virtual_clusters`` was (wrongly)
        left False -- e.g. in a hand-written scenario JSON."""
        import dataclasses

        from repro.experiments.configs import TABLE3_CONFIGURATIONS

        base = TABLE3_CONFIGURATIONS["VC"]
        vc2 = dataclasses.replace(
            base, name="vc-2", num_virtual_clusters=2, uses_virtual_clusters=False
        )
        vc4 = dataclasses.replace(
            base, name="vc-4", num_virtual_clusters=4, uses_virtual_clusters=False
        )
        cache_dir = str(tmp_path / "cache")
        cached = _runner(cache_dir=cache_dir)
        cached_2 = cached.run_benchmark("164.gzip-1", vc2)
        cached_4 = cached.run_benchmark("164.gzip-1", vc4)
        fresh = _runner()
        fresh_2 = fresh.run_benchmark("164.gzip-1", vc2)
        fresh_4 = fresh.run_benchmark("164.gzip-1", vc4)
        assert [r.metrics for r in cached_2.phase_results] == [
            r.metrics for r in fresh_2.phase_results
        ]
        assert [r.metrics for r in cached_4.phase_results] == [
            r.metrics for r in fresh_4.phase_results
        ]

    def test_display_name_does_not_split_cache_entries(self, tmp_path):
        """Renaming a configuration must hit the same cached results."""
        import dataclasses

        configuration = self._custom_configuration()
        cache_dir = str(tmp_path / "cache")
        first = _runner(cache_dir=cache_dir)
        first.run_benchmark("164.gzip-1", configuration)
        renamed = dataclasses.replace(configuration, name="pinned-1-renamed")
        second = _runner(cache_dir=cache_dir)
        second.run_benchmark("164.gzip-1", renamed)
        assert second.engine.cache.misses == 0


class TestCacheReplay:
    def test_cached_replay_bit_identical(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        fresh_runner = _runner(cache_dir=cache_dir)
        fresh = _phase_metrics(fresh_runner)
        assert fresh_runner.engine.cache.stores == len(fresh)

        replay_runner = _runner(cache_dir=cache_dir)
        replay = _phase_metrics(replay_runner)
        # Every job must have been served from the cache, none re-simulated.
        assert replay_runner.engine.cache.hits == len(replay)
        assert replay_runner.engine.cache.misses == 0
        assert_identical(fresh, replay)

    def test_parallel_populates_cache_serial_replays_it(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        parallel = _phase_metrics(_runner(jobs=2, cache_dir=cache_dir))
        replay_runner = _runner(jobs=1, cache_dir=cache_dir)
        replay = _phase_metrics(replay_runner)
        assert replay_runner.engine.cache.misses == 0
        assert_identical(parallel, replay)

    def test_cache_keys_depend_on_trace_length(self, tmp_path):
        """A different trace length must never hit the same cache entries."""
        cache_dir = str(tmp_path / "cache")
        _phase_metrics(_runner(cache_dir=cache_dir))
        other_settings = ExperimentSettings(
            num_clusters=2, num_virtual_clusters=2, trace_length=700, max_phases=2
        )
        other_runner = _runner(other_settings, cache_dir=cache_dir)
        other = _phase_metrics(other_runner)
        assert other_runner.engine.cache.hits == 0
        assert other_runner.engine.cache.stores == len(other)

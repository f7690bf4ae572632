"""Adaptive-scheduler benchmarks: run savings and scheduler overhead.

Two headlines live here, both checked by
``scripts/check_bench_regression.py`` against the committed
``benchmarks/BENCH_engine.json`` snapshot:

* **Adaptive savings** -- ``test_race_adaptive`` runs the built-in
  ``adaptive-race`` scenario (five Table 3 configurations raced over five
  benchmarks on 16 paired seed-block replications) and records the planned
  and executed simulation-run counts in its ``extra_info``.  The headline is
  the ratio ``planned / executed`` (floor 3.0x; the committed snapshot
  records 5.0x): racing retires clearly-worse configurations after a couple
  of paired replications instead of paying for the whole grid.

* **Adaptivity-off overhead** -- ``test_replicated_exhaustive_scheduler``
  runs the replicated report kind with its stopping rule *disabled* (the
  CLI's ``--no-adaptive``), and ``test_replicated_manual_grid`` runs the
  identical job set the pre-adaptive way (hand-rolled
  :meth:`ExperimentRunner.run_suite` over replicated profiles).  Their
  wall-clock ratio is the no-regression headline (floor 0.9x to absorb CI
  noise; the committed snapshot records >=1.0x): with adaptivity off, the
  scheduling layer must cost nothing.

Regenerate the snapshot with ``pytest benchmarks/test_engine_sweep.py
benchmarks/test_engine_adaptive.py --benchmark-only --benchmark-json
benchmarks/BENCH_engine.json``.
"""

from __future__ import annotations

from repro.engine.parallel import _TRACE_MEMO, ParallelRunner
from repro.experiments.runner import ExperimentRunner
from repro.scenarios.adaptive import replicate_profile
from repro.scenarios.builtin import builtin_scenario
from repro.scenarios.runner import aggregate_suite, run_scenario
from repro.workloads.spec2000 import profile_for

# ---------------------------------------------------------------------------
# Adaptive savings: the racing campaign
# ---------------------------------------------------------------------------


def _run_adaptive_race():
    """One fresh adaptive-race campaign: new engine, cold memo, no caches."""
    _TRACE_MEMO.clear()
    with ParallelRunner(cache=None, trace_root=None) as engine:
        report = run_scenario(builtin_scenario("adaptive-race"), engine)
        return report, dict(engine.adaptive_stats)


def test_race_adaptive(benchmark):
    """The built-in racing campaign; ``extra_info`` carries the run counts
    behind the adaptive-savings headline (planned/executed >= 3.0x)."""
    report, stats = benchmark.pedantic(
        _run_adaptive_race, rounds=3, iterations=1, warmup_rounds=1
    )
    benchmark.extra_info["mode"] = "adaptive race"
    benchmark.extra_info["planned_runs"] = stats["planned"]
    benchmark.extra_info["executed_runs"] = stats["executed"]
    benchmark.extra_info["saved_runs"] = stats["planned"] - stats["executed"]
    assert "Race -- adaptive-race" in report
    assert 0 < stats["executed"] < stats["planned"]


# ---------------------------------------------------------------------------
# Adaptivity-off overhead: scheduler replay vs the hand-rolled grid
# ---------------------------------------------------------------------------

#: The exhaustive-pair campaign: small enough for a benchmark round, shaped
#: like a real replicated estimate (two benchmarks, three configurations,
#: two seed-block replications -> 12 simulation runs either way).
REPLICATED_BENCHMARKS = ("164.gzip-1", "178.galgel")
REPLICATED_REPLICATIONS = 2


def _replicated_spec():
    import dataclasses

    from repro.scenarios.spec import StoppingRule

    spec = builtin_scenario("adaptive-race")
    return dataclasses.replace(
        spec,
        name="replicated-overhead",
        report="replicated",
        benchmarks=REPLICATED_BENCHMARKS,
        configurations=spec.configurations[:3],
        replications=REPLICATED_REPLICATIONS,
        stopping=StoppingRule(mode="ci", enabled=False, rel_precision=0.05),
    )


def _run_replicated_scheduler():
    """The replicated report kind with the rule disabled: the full grid is
    prefetched in one engine call and the stopping decisions replayed."""
    _TRACE_MEMO.clear()
    with ParallelRunner(cache=None, trace_root=None) as engine:
        return run_scenario(_replicated_spec(), engine)


def _run_manual_grid():
    """The identical job set the pre-adaptive way: one run_suite call over
    the replicated profiles, aggregated per configuration and replication."""
    _TRACE_MEMO.clear()
    spec = _replicated_spec()
    profiles = [
        replicate_profile(profile_for(name), rep)
        for rep in range(REPLICATED_REPLICATIONS)
        for name in REPLICATED_BENCHMARKS
    ]
    configurations = list(spec.configurations)
    with ParallelRunner(cache=None, trace_root=None) as engine:
        runner = ExperimentRunner(spec, engine=engine)
        suite = runner.run_suite(profiles, configurations)
        names = [profile.name for profile in profiles]
        return {
            configuration.name: aggregate_suite(suite, names, configuration.name)
            for configuration in configurations
        }


def test_replicated_exhaustive_scheduler(benchmark):
    """The adaptive machinery with adaptivity off.  The wall-clock ratio
    against ``test_replicated_manual_grid`` is the no-regression headline in
    BENCH_engine.json (>=1.0x target, 0.9x floor)."""
    report = benchmark.pedantic(
        _run_replicated_scheduler, rounds=5, iterations=1, warmup_rounds=1
    )
    benchmark.extra_info["mode"] = "replicated exhaustive (scheduler)"
    benchmark.extra_info["replications"] = REPLICATED_REPLICATIONS
    assert "Replicated estimates" in report


def test_replicated_manual_grid(benchmark):
    """The same simulation grid without the scheduling layer."""
    aggregates = benchmark.pedantic(
        _run_manual_grid, rounds=5, iterations=1, warmup_rounds=1
    )
    benchmark.extra_info["mode"] = "replicated exhaustive (manual)"
    benchmark.extra_info["replications"] = REPLICATED_REPLICATIONS
    assert len(aggregates) == 3
    assert all(data["cycles"] > 0 for data in aggregates.values())

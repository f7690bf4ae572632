"""The adaptive sweep scheduler: stopping rules and replay identity.

Two contracts are pinned here:

* **The decision layer is pure** -- ``run_ci`` / ``run_race`` /
  ``run_bisection`` consume sampled values through round-barrier callbacks,
  request contiguous replication prefixes, and reproduce their decisions
  exactly when replayed over the recorded samples (property-tested).
* **Adaptive equals exhaustive** -- the adaptive report kinds print tables
  byte-identical to ``--no-adaptive`` full-grid runs, across serial,
  parallel and shared-memory engines, and the executed-cell schedule of a
  fixed-seed campaign is pinned as a regression.
"""

from __future__ import annotations

import dataclasses
import math
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.adaptive import (
    SUPPORTED_CONFIDENCE,
    Welford,
    ci_halfwidth,
    run_bisection,
    run_ci,
    run_race,
    t_critical,
)
from repro.engine.parallel import _TRACE_MEMO, ParallelRunner
from repro.engine.shm import shared_memory_available
from repro.experiments.configs import TABLE3_CONFIGURATIONS
from repro.scenarios.adaptive import (
    REPLICATION_SEED_STRIDE,
    PointSampler,
    replicate_profile,
)
from repro.scenarios.builtin import builtin_scenario
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import ScenarioSpec, StoppingRule, SweepAxis
from repro.workloads.spec2000 import profile_for


@pytest.fixture(autouse=True)
def fresh_trace_memo():
    """Isolate every test from the per-process trace memo."""
    _TRACE_MEMO.clear()
    yield
    _TRACE_MEMO.clear()


# ---------------------------------------------------------------------------
# Decision-layer primitives
# ---------------------------------------------------------------------------


class TestTCritical:
    def test_committed_table_values(self):
        assert t_critical(0.95, 1) == 12.706
        assert t_critical(0.95, 10) == 2.228
        assert t_critical(0.90, 2) == 2.920
        assert t_critical(0.99, 30) == 2.750

    def test_large_df_uses_normal_asymptote(self):
        assert t_critical(0.95, 31) == 1.960
        assert t_critical(0.90, 1000) == 1.645

    def test_table_is_monotone_in_df(self):
        for confidence in SUPPORTED_CONFIDENCE:
            values = [t_critical(confidence, df) for df in range(1, 40)]
            assert values == sorted(values, reverse=True)

    def test_unsupported_confidence_rejected(self):
        with pytest.raises(ValueError, match="no committed critical-value table"):
            t_critical(0.80, 5)

    def test_zero_df_rejected(self):
        with pytest.raises(ValueError, match="degree of freedom"):
            t_critical(0.95, 0)


class TestWelford:
    def test_matches_statistics_module(self):
        values = [3.0, 1.5, -2.0, 8.25, 0.0, 4.5]
        acc = Welford(values)
        assert acc.count == len(values)
        assert acc.mean == pytest.approx(statistics.fmean(values))
        assert acc.variance == pytest.approx(statistics.variance(values))
        assert acc.std == pytest.approx(statistics.stdev(values))

    def test_incremental_equals_batch(self):
        values = [1.0, 2.0, 4.0, 8.0]
        acc = Welford()
        for value in values:
            acc.add(value)
        batch = Welford(values)
        assert (acc.count, acc.mean, acc.variance) == (
            batch.count, batch.mean, batch.variance,
        )

    def test_variance_is_inf_below_two_samples(self):
        assert Welford().variance == math.inf
        assert Welford([5.0]).variance == math.inf
        assert Welford([5.0]).std == math.inf

    def test_zero_variance_sample(self):
        acc = Welford([7.0, 7.0, 7.0])
        assert acc.variance == 0.0 and acc.std == 0.0


class TestCIHalfwidth:
    def test_inf_below_two_samples(self):
        assert ci_halfwidth(Welford([3.0]), 0.95) == math.inf

    def test_zero_for_degenerate_sample(self):
        assert ci_halfwidth(Welford([2.0, 2.0, 2.0]), 0.95) == 0.0

    def test_known_value(self):
        # n=2, sd=sqrt(2): halfwidth = t(0.95, df=1) * sqrt(2) / sqrt(2).
        acc = Welford([1.0, 3.0])
        assert acc.std == pytest.approx(math.sqrt(2.0))
        assert ci_halfwidth(acc, 0.95) == pytest.approx(t_critical(0.95, 1))

    def test_tightens_with_more_samples(self):
        values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1]
        widths = [
            ci_halfwidth(Welford(values[:n]), 0.95) for n in range(2, len(values) + 1)
        ]
        assert widths[-1] < widths[0]


# ---------------------------------------------------------------------------
# A synthetic sampling table shared by the driver tests
# ---------------------------------------------------------------------------


class TableSampler:
    """A :data:`SampleRound` over a fixed value table, recording requests."""

    def __init__(self, table):
        self.table = {name: list(values) for name, values in table.items()}
        self.requests = []

    def __call__(self, rep, active):
        self.requests.append((rep, tuple(active)))
        return {name: self.table[name][rep] for name in active}


class TestRunCI:
    def test_tight_config_resolves_early_noisy_config_caps(self):
        sampler = TableSampler({
            "tight": [100.0, 100.2, 100.1, 99.9, 100.0, 100.1],
            "noisy": [100.0, 180.0, 40.0, 160.0, 60.0, 140.0],
        })
        outcome = run_ci(
            ["tight", "noisy"], sampler,
            confidence=0.95, min_reps=2, max_reps=6, rel_precision=0.05,
        )
        by_name = {config.name: config for config in outcome.configs}
        assert by_name["tight"].reason == "resolved"
        assert by_name["tight"].reps < 6
        assert by_name["noisy"].reason == "capped"
        assert by_name["noisy"].reps == 6
        # The resolved config's CI is within the declared precision.
        tight = by_name["tight"]
        assert tight.halfwidth <= 0.05 * abs(tight.mean)
        # Samples are the exact table prefixes.
        assert outcome.samples["tight"] == tuple(
            sampler.table["tight"][: tight.reps]
        )

    def test_rounds_stop_when_everything_resolves(self):
        sampler = TableSampler({"a": [5.0] * 8, "b": [7.0] * 8})
        outcome = run_ci(
            ["a", "b"], sampler,
            confidence=0.95, min_reps=2, max_reps=8, rel_precision=0.01,
        )
        assert outcome.rounds == 2
        assert all(config.reason == "resolved" for config in outcome.configs)
        # Resolved configs leave the sampling set immediately.
        assert sampler.requests == [(0, ("a", "b")), (1, ("a", "b"))]

    def test_validation(self):
        sampler = TableSampler({"a": [1.0] * 4})
        with pytest.raises(ValueError, match="at least one configuration"):
            run_ci([], sampler, confidence=0.95, min_reps=2, max_reps=4,
                   rel_precision=0.1)
        with pytest.raises(ValueError, match="unique"):
            run_ci(["a", "a"], sampler, confidence=0.95, min_reps=2, max_reps=4,
                   rel_precision=0.1)
        with pytest.raises(ValueError, match="min_replications"):
            run_ci(["a"], sampler, confidence=0.95, min_reps=1, max_reps=4,
                   rel_precision=0.1)
        with pytest.raises(ValueError, match=">= min_replications"):
            run_ci(["a"], sampler, confidence=0.95, min_reps=3, max_reps=2,
                   rel_precision=0.1)
        with pytest.raises(ValueError, match="rel_precision"):
            run_ci(["a"], sampler, confidence=0.95, min_reps=2, max_reps=4,
                   rel_precision=0.0)


class TestRunRace:
    def test_clearly_worse_racers_retire(self):
        sampler = TableSampler({
            "fast": [100.0, 102.0, 98.0, 101.0],
            "slow": [150.0, 153.0, 149.0, 151.0],
        })
        outcome = run_race(
            ["fast", "slow"], sampler,
            confidence=0.95, min_reps=2, max_reps=4,
        )
        assert outcome.winner == "fast"
        by_name = {config.name: config for config in outcome.configs}
        assert by_name["slow"].reason == "retired"
        assert by_name["fast"].reason == "won"
        # Paired CRN racing: the retired racer stops sampling right away.
        assert by_name["slow"].reps < 4

    def test_paired_differences_beat_raw_variance(self):
        """Common random numbers: per-rep noise shared by both racers cancels
        in the pairing, so a constant gap resolves at min_reps even when the
        raw variance is huge."""
        noise = [0.0, 400.0, -380.0, 390.0]
        sampler = TableSampler({
            "a": [100.0 + n for n in noise],
            "b": [110.0 + n for n in noise],
        })
        outcome = run_race(
            ["a", "b"], sampler, confidence=0.95, min_reps=2, max_reps=4,
        )
        by_name = {config.name: config for config in outcome.configs}
        assert outcome.winner == "a" and by_name["b"].reason == "retired"
        assert by_name["b"].reps == 2

    def test_tie_margin_merges_indistinguishable_racers(self):
        sampler = TableSampler({
            "a": [100.0, 101.0, 99.0, 100.0],
            "twin": [100.1, 100.9, 99.1, 99.9],
        })
        no_margin = run_race(
            ["a", "twin"], sampler, confidence=0.95, min_reps=2, max_reps=4,
        )
        assert {config.reason for config in no_margin.configs} == {"capped"}
        with_margin = run_race(
            ["a", "twin"], TableSampler(sampler.table),
            confidence=0.95, min_reps=2, max_reps=4, tie_margin=0.05,
        )
        by_name = {config.name: config for config in with_margin.configs}
        assert with_margin.winner == "a"
        assert by_name["twin"].reason == "tied"

    def test_leader_ties_break_by_declaration_order(self):
        sampler = TableSampler({
            "first": [100.0, 100.0],
            "second": [100.0, 100.0],
        })
        outcome = run_race(
            ["first", "second"], sampler,
            confidence=0.95, min_reps=2, max_reps=2, tie_margin=0.01,
        )
        assert outcome.winner == "first"

    def test_validation(self):
        sampler = TableSampler({"a": [1.0] * 4, "b": [2.0] * 4})
        with pytest.raises(ValueError, match="at least two"):
            run_race(["a"], sampler, confidence=0.95, min_reps=2, max_reps=4)
        with pytest.raises(ValueError, match="tie_margin"):
            run_race(["a", "b"], sampler, confidence=0.95, min_reps=2,
                     max_reps=4, tie_margin=-0.1)

    @settings(max_examples=60, deadline=None)
    @given(
        table=st.dictionaries(
            st.sampled_from(["a", "b", "c", "d"]),
            st.lists(
                st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=6, max_size=6,
            ),
            min_size=2, max_size=4,
        ),
        tie_margin=st.sampled_from([0.0, 0.02, 0.2]),
    )
    def test_race_decisions_replay_identically(self, table, tie_margin):
        """The determinism contract: a race is a pure function of its sampled
        values -- rerunning over the recorded samples reproduces the outcome
        bit for bit, and every racer samples a contiguous replication prefix."""
        names = sorted(table)
        first = run_race(
            names, TableSampler(table),
            confidence=0.95, min_reps=2, max_reps=6, tie_margin=tie_margin,
        )
        replay = run_race(
            names, TableSampler(table),
            confidence=0.95, min_reps=2, max_reps=6, tie_margin=tie_margin,
        )
        assert replay == first
        for config in first.configs:
            # Prefix property: reps sampled are exactly table[:reps].
            assert first.samples[config.name] == tuple(table[config.name][: config.reps])
        recorder = TableSampler(table)
        run_race(names, recorder, confidence=0.95, min_reps=2, max_reps=6,
                 tie_margin=tie_margin)
        # Rounds are barriers over strictly shrinking active sets.
        reps = [rep for rep, _ in recorder.requests]
        assert reps == list(range(len(reps)))
        actives = [set(active) for _, active in recorder.requests]
        for earlier, later in zip(actives, actives[1:]):
            assert later <= earlier


class TestRunBisection:
    def probe_with_threshold(self, threshold):
        calls = []

        def probe(index):
            calls.append(index)
            return 1.0 if index >= threshold else -1.0

        return probe, calls

    @settings(max_examples=80, deadline=None)
    @given(num_points=st.integers(2, 64), data=st.data())
    def test_bracket_encloses_the_sign_change(self, num_points, data):
        threshold = data.draw(st.integers(1, num_points - 1))
        probe, calls = self.probe_with_threshold(threshold)
        outcome = run_bisection(num_points, probe)
        assert outcome.bracket == (threshold - 1, threshold)
        # 2 endpoint probes + O(log n) bisection steps, never the full grid.
        assert len(calls) <= 2 + math.ceil(math.log2(num_points))
        assert outcome.skipped == num_points - len(calls)
        assert [index for index, _ in outcome.path] == calls

    def test_no_sign_change_stops_at_the_endpoints(self):
        probe, calls = self.probe_with_threshold(10**9)  # never crosses
        outcome = run_bisection(8, probe)
        assert outcome.bracket is None
        assert calls == [0, 7]
        assert outcome.skipped == 6

    def test_single_point_axis(self):
        outcome = run_bisection(1, lambda index: -1.0)
        assert outcome.bracket is None and [index for index, _ in outcome.path] == [0]

    def test_zero_points_rejected(self):
        with pytest.raises(ValueError, match="at least one axis point"):
            run_bisection(0, lambda index: 0.0)


# ---------------------------------------------------------------------------
# PointSampler: replication seed blocks and the round barrier
# ---------------------------------------------------------------------------


def small_race_spec(**extra) -> ScenarioSpec:
    """The fixed-seed campaign pinned by the regression tests below."""
    fields = {
        "benchmarks": ("164.gzip-1", "178.galgel"),
        "trace_length": 700,
        "max_phases": 1,
        "replications": 4,
        **extra,
    }
    return dataclasses.replace(builtin_scenario("adaptive-race"), **fields)


class TestReplicateProfile:
    def test_rep_zero_is_the_profile_itself(self):
        profile = profile_for("164.gzip-1")
        assert replicate_profile(profile, 0) is profile

    def test_later_reps_shift_the_seed_block_and_tag_the_name(self):
        profile = profile_for("164.gzip-1")
        replica = replicate_profile(profile, 3)
        assert replica.name == "164.gzip-1@r3"
        assert replica.base_seed == profile.base_seed + 3 * REPLICATION_SEED_STRIDE
        # Everything else is untouched -- same workload, different seeds.
        assert dataclasses.replace(
            replica, name=profile.name, base_seed=profile.base_seed
        ) == profile

    def test_negative_rep_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            replicate_profile(profile_for("164.gzip-1"), -1)


class TestPointSampler:
    def test_rejects_unexpanded_sweeps(self):
        spec = dataclasses.replace(
            small_race_spec(),
            sweep=(SweepAxis(parameter="link_latency", values=(1, 2)),),
        )
        with pytest.raises(ValueError, match="expanded sweep point"):
            PointSampler(spec, ParallelRunner(trace_root=None))

    def test_out_of_range_replication_rejected(self):
        sampler = PointSampler(small_race_spec(), ParallelRunner(trace_root=None))
        with pytest.raises(ValueError, match="outside the declared replications"):
            sampler.ensure([("OP", 4)])

    def test_fixed_seed_race_schedule_is_pinned(self):
        """Regression: the exact run set an adaptive race executes.  Any
        change here means a stopping decision moved -- deliberate changes
        must update the pin *and* the determinism argument in DESIGN.md."""
        engine = ParallelRunner(trace_root=None)
        spec = small_race_spec()
        (_, point_spec), = spec.expand_sweep()
        sampler = PointSampler(point_spec, engine)
        rule = spec.stopping
        outcome = run_race(
            [configuration.name for configuration in spec.configurations],
            sampler.sample_round,
            confidence=rule.confidence,
            min_reps=rule.min_replications,
            max_reps=spec.replications,
            tie_margin=rule.tie_margin,
        )
        assert outcome.winner == "OP"
        assert {c.name: c.reason for c in outcome.configs} == {
            "OP": "capped",
            "one-cluster": "retired",
            "OB": "retired",
            "RHOP": "capped",
            "VC": "tied",
        }
        assert sampler.executed_cells == [
            ("OP", 0), ("one-cluster", 0), ("OB", 0), ("RHOP", 0), ("VC", 0),
            ("OP", 1), ("one-cluster", 1), ("OB", 1), ("RHOP", 1), ("VC", 1),
            ("OP", 2), ("RHOP", 2), ("VC", 2),
            ("OP", 3), ("RHOP", 3), ("VC", 3),
        ]
        assert sampler.planned_jobs() == 40
        assert sampler.executed_jobs == 32

    def test_adaptive_schedule_is_engine_invariant(self):
        """The executed-cell sequence is bit-identical across serial and
        parallel engines -- decisions depend on metric values only, and those
        are bit-identical by the engine's contract."""
        spec = small_race_spec()
        (_, point_spec), = spec.expand_sweep()
        schedules = []
        for engine_kwargs in ({}, {"max_workers": 2, "shared_memory": False}):
            _TRACE_MEMO.clear()
            engine = ParallelRunner(trace_root=None, **engine_kwargs)
            try:
                sampler = PointSampler(point_spec, engine)
                run_race(
                    [c.name for c in spec.configurations],
                    sampler.sample_round,
                    confidence=spec.stopping.confidence,
                    min_reps=spec.stopping.min_replications,
                    max_reps=spec.replications,
                    tie_margin=spec.stopping.tie_margin,
                )
                schedules.append(list(sampler.executed_cells))
            finally:
                engine.shutdown()
        assert schedules[0] == schedules[1]

    def test_prefix_means_match_cell_averages(self):
        engine = ParallelRunner(trace_root=None)
        spec = small_race_spec(
            configurations=(TABLE3_CONFIGURATIONS["OP"],), replications=2,
        )
        spec = dataclasses.replace(spec, stopping=None)
        sampler = PointSampler(spec, engine)
        sampler.prefetch_all()
        means = sampler.prefix_means("OP", 2)
        for field in ("cycles", "copies", "allocation_stalls"):
            expected = (sampler.cell("OP", 0)[field] + sampler.cell("OP", 1)[field]) / 2
            assert means[field] == pytest.approx(expected)
        with pytest.raises(ValueError, match="at least one replication"):
            sampler.prefix_means("OP", 0)


# ---------------------------------------------------------------------------
# Adaptive == exhaustive: the replay identity, across engines
# ---------------------------------------------------------------------------


def engine_variants():
    variants = [
        ("serial", {}),
        ("parallel", {"max_workers": 2, "shared_memory": False}),
    ]
    if shared_memory_available():
        variants.append(("shm", {"max_workers": 2, "shared_memory": True}))
    return variants


class TestAdaptiveEqualsExhaustive:
    """The acceptance property: an adaptive run and a ``--no-adaptive``
    full-grid run print byte-identical report tables; adaptivity changes
    only what is paid for."""

    def run_on(self, spec, adaptive, **engine_kwargs):
        _TRACE_MEMO.clear()
        engine = ParallelRunner(trace_root=None, **engine_kwargs)
        try:
            text = run_scenario(spec, engine, adaptive=adaptive)
            return text, dict(engine.adaptive_stats)
        finally:
            engine.shutdown()

    @pytest.mark.parametrize(
        "engine_name,engine_kwargs", engine_variants(),
        ids=[name for name, _ in engine_variants()],
    )
    def test_race_report_is_replay_identical(self, engine_name, engine_kwargs):
        spec = small_race_spec()
        adaptive_text, adaptive_stats = self.run_on(spec, True, **engine_kwargs)
        exhaustive_text, exhaustive_stats = self.run_on(spec, False)
        assert adaptive_text == exhaustive_text
        assert 0 < adaptive_stats["executed"] < adaptive_stats["planned"]
        # --no-adaptive leaves no [adaptive] trace at all.
        assert all(value == 0 for value in exhaustive_stats.values())

    def test_replicated_report_is_replay_identical(self):
        spec = small_race_spec(
            stopping=StoppingRule(mode="ci", min_replications=2, rel_precision=0.1),
        )
        spec = dataclasses.replace(spec, report="replicated")
        adaptive_text, adaptive_stats = self.run_on(spec, True)
        exhaustive_text, _ = self.run_on(spec, False)
        assert adaptive_text == exhaustive_text
        assert "Replicated estimates" in adaptive_text
        assert adaptive_stats["executed"] <= adaptive_stats["planned"]

    def test_crossover_report_is_replay_identical(self):
        spec = dataclasses.replace(
            builtin_scenario("crossover-link-latency"),
            benchmarks=("164.gzip-1", "181.mcf"),
            trace_length=700,
            max_phases=1,
            replications=2,
            sweep=(SweepAxis(parameter="link_latency", values=(4, 16, 64)),),
        )
        adaptive_text, adaptive_stats = self.run_on(spec, True)
        exhaustive_text, _ = self.run_on(spec, False)
        assert adaptive_text == exhaustive_text
        assert "Crossover" in adaptive_text
        assert adaptive_stats["executed"] <= adaptive_stats["planned"]

    def test_race_savings_on_the_builtin_shape(self):
        """The headline mechanism: racing retires clearly-worse configs after
        a couple of paired replications, so the executed job count drops well
        below the grid."""
        spec = small_race_spec()
        _, stats = self.run_on(spec, True)
        assert stats["planned"] == 40
        assert stats["executed"] == 32
        assert stats["stop_retired"] == 2
        assert stats["stop_tied"] == 1

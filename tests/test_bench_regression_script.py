"""Tests of scripts/check_bench_regression.py (schema gate + name drift).

A structurally broken bench JSON must fail hard (exit 2) regardless of
``--strict`` -- a zero/missing ``stats.mean`` in the baseline would make
every throughput ratio meaningless -- and a renamed benchmark must at least
warn, because it would otherwise silently stop being regression-checked.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_bench_regression.py"
spec = importlib.util.spec_from_file_location("check_bench_regression", SCRIPT)
cbr = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cbr)


def bench_json(path: Path, means: dict, extra: dict | None = None) -> Path:
    entries = []
    for name, mean in means.items():
        entry = {"name": name, "stats": {"mean": mean}}
        if extra and name in extra:
            entry["extra_info"] = extra[name]
        entries.append(entry)
    path.write_text(json.dumps({"benchmarks": entries}))
    return path


GOOD = {cbr.SHM_BASELINE: 0.25, cbr.SHM_SUBJECT: 0.125}


class TestSchemaGate:
    def test_self_comparison_passes(self, tmp_path):
        snap = bench_json(tmp_path / "snap.json", GOOD)
        assert cbr.main(["--snapshot", str(snap), "--fresh", str(snap)]) == 0

    @pytest.mark.parametrize(
        "payload",
        [
            "not json {",
            json.dumps({}),
            json.dumps({"benchmarks": []}),
            json.dumps({"benchmarks": [{"stats": {"mean": 1.0}}]}),
            json.dumps({"benchmarks": [{"name": "b"}]}),
            json.dumps({"benchmarks": [{"name": "b", "stats": {"mean": 0.0}}]}),
            json.dumps({"benchmarks": [{"name": "b", "stats": {"mean": -1.0}}]}),
            json.dumps({"benchmarks": [{"name": "b", "stats": {"mean": "fast"}}]}),
        ],
        ids=[
            "truncated",
            "no-benchmarks-key",
            "empty-list",
            "missing-name",
            "missing-mean",
            "zero-mean",
            "negative-mean",
            "non-numeric-mean",
        ],
    )
    def test_broken_baseline_exits_2(self, tmp_path, payload):
        snap = tmp_path / "snap.json"
        snap.write_text(payload)
        fresh = bench_json(tmp_path / "fresh.json", GOOD)
        assert cbr.main(["--snapshot", str(snap), "--fresh", str(fresh)]) == 2

    def test_broken_fresh_exits_2(self, tmp_path):
        snap = bench_json(tmp_path / "snap.json", GOOD)
        fresh = bench_json(tmp_path / "fresh.json", {"b": 1.0})
        fresh.write_text(json.dumps({"benchmarks": [{"name": "b", "stats": {}}]}))
        assert cbr.main(["--snapshot", str(snap), "--fresh", str(fresh)]) == 2

    def test_broken_substrate_exits_2(self, tmp_path):
        snap = bench_json(tmp_path / "snap.json", GOOD)
        bad = tmp_path / "sub.json"
        bad.write_text(json.dumps({"benchmarks": [{"name": "s", "stats": {"mean": 0}}]}))
        assert (
            cbr.main(
                [
                    "--snapshot", str(snap), "--fresh", str(snap),
                    "--substrate-snapshot", str(bad), "--substrate-fresh", str(bad),
                ]
            )
            == 2
        )


class TestNameDrift:
    def test_rename_warns(self, tmp_path, capsys):
        snap = bench_json(tmp_path / "snap.json", dict(GOOD, test_old_name=0.5))
        fresh = bench_json(tmp_path / "fresh.json", dict(GOOD, test_new_name=0.5))
        assert cbr.main(["--snapshot", str(snap), "--fresh", str(fresh), "--strict"]) == 1
        out = capsys.readouterr().out
        assert "names drifted" in out
        assert "test_old_name" in out and "test_new_name" in out

    def test_new_benchmark_alone_only_notes(self, tmp_path, capsys):
        snap = bench_json(tmp_path / "snap.json", GOOD)
        fresh = bench_json(tmp_path / "fresh.json", dict(GOOD, test_brand_new=0.5))
        assert cbr.main(["--snapshot", str(snap), "--fresh", str(fresh), "--strict"]) == 0
        out = capsys.readouterr().out
        assert "no snapshot entry" in out

    def test_regression_beyond_threshold_warns(self, tmp_path):
        snap = bench_json(tmp_path / "snap.json", GOOD)
        slowed = {name: mean * 2.0 for name, mean in GOOD.items()}
        fresh = bench_json(tmp_path / "fresh.json", slowed)
        assert cbr.main(["--snapshot", str(snap), "--fresh", str(fresh), "--strict"]) == 1


class TestAdaptiveHeadlines:
    def _run(self, tmp_path, means, extra=None):
        snap = bench_json(tmp_path / "snap.json", means, extra)
        return cbr.main(["--snapshot", str(snap), "--fresh", str(snap), "--strict"])

    def test_savings_headline_skipped_without_race_benchmark(self, tmp_path, capsys):
        assert self._run(tmp_path, GOOD) == 0
        assert "adaptive-savings headline skipped" in capsys.readouterr().out

    def test_savings_above_floor_passes(self, tmp_path, capsys):
        means = dict(GOOD, **{cbr.ADAPTIVE_BENCH: 0.8})
        extra = {cbr.ADAPTIVE_BENCH: {"planned_runs": 200, "executed_runs": 40}}
        assert self._run(tmp_path, means, extra) == 0
        out = capsys.readouterr().out
        assert "adaptive-savings run ratio: 5.00x" in out
        assert "200 planned / 40 executed" in out

    def test_savings_below_floor_warns(self, tmp_path, capsys):
        # The scheduler stopped retiring racers: it now executes most of the
        # grid and the count-ratio headline collapses below 3x.
        means = dict(GOOD, **{cbr.ADAPTIVE_BENCH: 0.8})
        extra = {cbr.ADAPTIVE_BENCH: {"planned_runs": 200, "executed_runs": 150}}
        assert self._run(tmp_path, means, extra) == 1
        assert "WARNING: adaptive savings 1.33x" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "counts",
        [
            {},
            {"planned_runs": 200},
            {"planned_runs": "many", "executed_runs": 40},
            {"planned_runs": 200, "executed_runs": 0},
            {"planned_runs": 40, "executed_runs": 200},
        ],
        ids=["no-counts", "missing-executed", "non-numeric", "zero-executed", "inverted"],
    )
    def test_broken_race_counts_exit_2(self, tmp_path, counts):
        # The race benchmark ran but its counts are unusable: broken tooling,
        # not machine variance, so it fails hard even without --strict.
        means = dict(GOOD, **{cbr.ADAPTIVE_BENCH: 0.8})
        snap = bench_json(tmp_path / "snap.json", means, {cbr.ADAPTIVE_BENCH: counts})
        assert cbr.main(["--snapshot", str(snap), "--fresh", str(snap)]) == 2

    def test_adaptivity_off_above_floor_passes(self, tmp_path, capsys):
        means = dict(
            GOOD,
            **{cbr.ADAPTIVE_OFF_BASELINE: 0.22, cbr.ADAPTIVE_OFF_SUBJECT: 0.20},
        )
        assert self._run(tmp_path, means) == 0
        assert "adaptivity-off-overhead speedup: 1.10x" in capsys.readouterr().out

    def test_adaptivity_off_below_floor_warns(self, tmp_path, capsys):
        # The disabled-rule scheduler costing >10% over the hand-rolled grid
        # means the scheduling layer grew real overhead.
        means = dict(
            GOOD,
            **{cbr.ADAPTIVE_OFF_BASELINE: 0.20, cbr.ADAPTIVE_OFF_SUBJECT: 0.25},
        )
        assert self._run(tmp_path, means) == 1
        assert "WARNING: adaptivity-off-overhead" in capsys.readouterr().out


def substrate_means(**overrides):
    """A substrate bench run where every headline sits above its floor."""
    means = {
        cbr.KERNEL_OP_BASELINE: 0.40,
        cbr.KERNEL_OP_SUBJECT: 0.10,   # fused default: 4x over the interpreter
        cbr.KERNEL_VC_BASELINE: 0.40,
        cbr.KERNEL_VC_SUBJECT: 0.10,
        cbr.FUSED_OP_BASELINE: 0.12,   # callback path: 1.2x slower than fused
        cbr.FUSED_VC_BASELINE: 0.12,
    }
    means.update(overrides)
    return means


class TestCompiledSteeringHeadlines:
    def _run(self, tmp_path, means):
        snap = bench_json(tmp_path / "snap.json", GOOD)
        sub = bench_json(tmp_path / "sub.json", means)
        return cbr.main(
            [
                "--snapshot", str(snap), "--fresh", str(snap),
                "--substrate-snapshot", str(sub), "--substrate-fresh", str(sub),
                "--strict",
            ]
        )

    def test_fused_headline_above_floor_passes(self, tmp_path, capsys):
        assert self._run(tmp_path, substrate_means()) == 0
        out = capsys.readouterr().out
        assert "fused-steering-vs-callback (OP) speedup: 1.20x" in out
        assert "fused-steering-vs-callback (VC) speedup: 1.20x" in out

    def test_fused_headline_below_floor_warns(self, tmp_path, capsys):
        # Fused path slower than the callback path: the tier regressed.
        means = substrate_means(**{cbr.FUSED_OP_BASELINE: 0.09})
        assert self._run(tmp_path, means) == 1
        assert "WARNING: fused-steering-vs-callback (OP)" in capsys.readouterr().out

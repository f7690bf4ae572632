"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import inspect
import os
import subprocess
import sys

import pytest

from repro.cli import _cache_dir, build_parser, resolve_cache_dir, main
from repro.workloads.spec2000 import all_trace_names


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands_parse(self):
        parser = build_parser()
        for argv in (
            ["list-benchmarks"],
            ["run", "table1"],
            ["quickstart", "--benchmark", "181.mcf"],
            ["run", "figure5", "--benchmarks", "164.gzip-1", "--trace-length", "500"],
            ["run", "figure7", "--phases", "2"],
            ["run", "figure5", "--jobs", "2"],
            ["scenarios", "list"],
            ["list-configs"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.handler)

    def test_help_lists_five_subcommands(self):
        help_text = build_parser().format_help()
        assert "{run,scenarios,list-configs,list-benchmarks,quickstart}" in help_text

    @pytest.mark.parametrize(
        "command", ["table1", "figure5", "figure6", "figure7", "ablations", "analyze"]
    )
    def test_removed_commands_are_invalid_choices(self, command, capsys):
        """The pre-scenario commands are gone (``run <scenario>`` replaces
        them), and so is ``analyze`` (``python -m repro.analysis`` is the
        lint's only front end)."""
        with pytest.raises(SystemExit) as excinfo:
            main([command])
        assert excinfo.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err


class TestBatchOptions:
    def test_batching_is_the_default(self):
        """Batching is the only scheduler: neither the CLI nor the engine has
        a knob that turns it off."""
        from repro.engine import ParallelRunner

        args = build_parser().parse_args(["quickstart", "--no-cache"])
        assert not hasattr(args, "batch")
        parameters = list(inspect.signature(ParallelRunner.__init__).parameters)
        assert parameters == ["self", "max_workers", "cache", "trace_root", "shared_memory"]

    def test_batch_footer_printed(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert (
            main(
                [
                    "quickstart",
                    "--benchmark",
                    "164.gzip-1",
                    "--trace-length",
                    "400",
                    "--no-cache",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        # One trace, the five Table 3 configurations, nothing cached.
        assert (
            "[batch] traces=1 configs=5 executed=5 cached=0 max-width=5 "
            "fully-cached-batches=0" in out
        )


class TestSharedMemoryOptions:
    def test_pickle_is_the_default(self):
        """Without --shared-mem the CLI builds a pickle-path engine: parallel
        workers acquire their own traces and the parent publishes none."""
        from repro.cli import _engine

        for command in (["quickstart"], ["run", "figure5"]):
            args = build_parser().parse_args([*command, "--no-cache", "--jobs", "2"])
            assert args.shared_mem is False
            assert _engine(args).shared_memory is False

    def test_flags_parse(self, capsys):
        args = build_parser().parse_args(["quickstart", "--no-cache", "--shared-mem"])
        assert args.shared_mem is True
        # The pickle path is the default, so its opt-out flag is gone.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["quickstart", "--no-cache", "--no-shared-mem"])
        assert excinfo.value.code == 2
        assert "--no-shared-mem" in capsys.readouterr().err

    def test_shm_footer_on_parallel_multi_trace_run(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        argv = [
            "run", "figure5",
            "--benchmarks", "164.gzip-1", "178.galgel",
            "--trace-length", "400", "--phases", "1",
            "--jobs", "2", "--no-cache", "--shared-mem",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        # Two benchmarks, one phase each: two published segments, resident
        # when the footer is read (the engine is shut down right after).
        assert "[shm] segments=2 " in out
        assert "published=2" in out

    def test_no_shm_footer_by_default(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        argv = [
            "run", "figure5",
            "--benchmarks", "164.gzip-1", "178.galgel",
            "--trace-length", "400", "--phases", "1",
            "--jobs", "2", "--no-cache",
        ]
        assert main(argv) == 0
        assert "[shm]" not in capsys.readouterr().out

    def test_no_shm_footer_on_serial_runs(self, capsys, monkeypatch):
        """--jobs 1 executes inline: no segments, and the footer says nothing
        about them (it must not claim substrate activity that never happened)."""
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        argv = [
            "quickstart", "--benchmark", "164.gzip-1",
            "--trace-length", "400", "--no-cache", "--shared-mem",
        ]
        assert main(argv) == 0
        assert "[shm]" not in capsys.readouterr().out


class TestFooterConsistency:
    """The [batch]/[traces]/[shm] footers under every scheduling combination.

    The audited invariant: ``configs == executed + cached`` in the [batch]
    footer, and [traces] only appears when an artifact store saw traffic.
    """

    def _parse_batch_footer(self, out):
        import re

        match = re.search(
            r"\[batch\] traces=(\d+) configs=(\d+) executed=(\d+) cached=(\d+) "
            r"max-width=(\d+) fully-cached-batches=(\d+)",
            out,
        )
        assert match, f"no [batch] footer in: {out!r}"
        return tuple(int(group) for group in match.groups())

    def test_replay_accounts_every_cached_config(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        argv = [
            "quickstart", "--benchmark", "164.gzip-1", "--trace-length", "400",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        traces, configs, executed, cached, _, fully = self._parse_batch_footer(
            capsys.readouterr().out
        )
        assert (executed, cached, fully) == (configs, 0, 0)

        assert main(argv) == 0
        traces, configs, executed, cached, _, fully = self._parse_batch_footer(
            capsys.readouterr().out
        )
        # Full replay: every config cached, every batch fully cached.
        assert (executed, cached, fully) == (0, configs, traces)

    def test_no_trace_footer_without_artifacts(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        argv = [
            "quickstart", "--benchmark", "164.gzip-1", "--trace-length", "400",
            "--no-cache",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "[traces]" not in out
        configs, executed, cached = self._parse_batch_footer(out)[1:4]
        assert configs == executed + cached


class TestAdaptiveOptions:
    """The --no-adaptive flag and the [adaptive] footer."""

    #: A small adaptive race scenario, written to disk per test.
    RACE_SPEC = {
        "name": "mini-race",
        "report": "race",
        "machine": "table2-2c",
        "benchmarks": ["164.gzip-1", "178.galgel"],
        "configurations": ["OP", "one-cluster", "OB"],
        "trace_length": 500,
        "max_phases": 1,
        "replications": 4,
        "stopping": {"mode": "race", "tie_margin": 0.02},
    }

    def _write_spec(self, tmp_path):
        import json

        path = tmp_path / "mini_race.json"
        path.write_text(json.dumps(self.RACE_SPEC), encoding="utf-8")
        return str(path)

    def test_flag_parses_and_defaults_to_the_spec(self):
        parser = build_parser()
        assert parser.parse_args(["run", "quickstart"]).adaptive is True
        assert parser.parse_args(["run", "quickstart", "--no-adaptive"]).adaptive is False

    def test_forcing_adaptive_on_is_not_an_option(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", self._write_spec(tmp_path), "--no-cache", "--adaptive"])
        assert exc.value.code == 2
        assert "--adaptive" in capsys.readouterr().err

    def test_adaptive_footer_reports_the_savings(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        path = self._write_spec(tmp_path)
        assert main(["run", path, "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Race -- mini-race" in out
        assert "[adaptive] planned=" in out
        import re

        match = re.search(r"\[adaptive\] planned=(\d+) executed=(\d+) saved=(\d+)", out)
        assert match, f"no [adaptive] footer in: {out!r}"
        planned, executed, saved = (int(group) for group in match.groups())
        assert planned == executed + saved
        assert executed < planned

    def test_no_adaptive_prints_identical_tables_and_no_footer(
        self, capsys, tmp_path, monkeypatch
    ):
        """--no-adaptive pays for the full grid but prints the same report,
        and its footers are indistinguishable from a pre-adaptive build."""
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        path = self._write_spec(tmp_path)
        assert main(["run", path, "--no-cache"]) == 0
        adaptive = capsys.readouterr().out
        assert main(["run", path, "--no-cache", "--no-adaptive"]) == 0
        exhaustive = capsys.readouterr().out
        assert "[adaptive]" not in exhaustive

        def tables(text):
            return [
                line for line in text.splitlines()
                if not line.startswith(("[batch]", "[adaptive]", "[shm]", "[traces]"))
            ]

        assert tables(adaptive) == tables(exhaustive)

    def test_non_adaptive_scenarios_never_print_the_footer(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        argv = ["quickstart", "--benchmark", "164.gzip-1", "--trace-length", "400",
                "--no-cache"]
        assert main(argv) == 0
        assert "[adaptive]" not in capsys.readouterr().out


class TestMachineLimitGuard:
    """A machine override no simulation can run fails at validation.

    With ``regfile_int_size=0`` or ``l1_read_ports=0`` both kernels used to
    spin to ``max_cycles`` (8-28 s on a 300-µop trace) before reporting a
    "possible deadlock"; ``l1_hit_latency=-1`` ran silently.  A zero
    associativity or copy bandwidth, or a cache with fewer lines than ways,
    failed only once the run built its caches or interconnect, with a
    message naming no scenario field.
    """

    @pytest.mark.parametrize(
        "field_name,value",
        [
            ("regfile_int_size", 0),
            ("l1_read_ports", 0),
            ("l1_hit_latency", -1),
            ("l1_assoc", 0),
            ("l2_assoc", 0),
            ("copies_per_link_per_cycle", 0),
        ],
    )
    def test_override_fails_naming_the_field(self, tmp_path, monkeypatch, field_name, value):
        self._run_expecting(tmp_path, monkeypatch, {field_name: value}, field_name)

    def test_cache_with_fewer_lines_than_ways_fails_naming_the_field(self, tmp_path, monkeypatch):
        self._run_expecting(tmp_path, monkeypatch, {"l1_size_kb": 1, "l1_assoc": 64}, "l1_assoc")

    @staticmethod
    def _run_expecting(tmp_path, monkeypatch, overrides, field_name):
        import json

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        path = tmp_path / "bad_machine.json"
        path.write_text(
            json.dumps(
                {
                    "name": "bad-machine",
                    "report": "table",
                    "machine": {"preset": "table2-2c", "overrides": overrides},
                    "benchmarks": ["164.gzip-1"],
                    "configurations": [{"name": "OP", "policy": "OP"}],
                    "trace_length": 300,
                    "max_phases": 1,
                }
            ),
            encoding="utf-8",
        )
        with pytest.raises(SystemExit, match=f"invalid scenario.*{field_name}"):
            main(["run", str(path), "--no-cache"])


class TestCacheDirResolution:
    """$REPRO_CACHE_DIR is read when the command runs, not at import time."""

    def test_env_var_set_after_import_is_honoured(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/late-bound-cache")
        assert resolve_cache_dir() == "/tmp/late-bound-cache"
        args = build_parser().parse_args(["quickstart"])
        assert _cache_dir(args) == "/tmp/late-bound-cache"

    def test_explicit_flag_beats_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/ignored")
        args = build_parser().parse_args(["quickstart", "--cache-dir", "/tmp/explicit"])
        assert _cache_dir(args) == "/tmp/explicit"

    def test_no_cache_wins(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        args = build_parser().parse_args(["quickstart", "--no-cache"])
        assert _cache_dir(args) is None
        assert resolve_cache_dir() == ".repro_cache"


class TestScenarioCommands:
    def test_scenarios_list(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("figure5", "figure7", "table1", "sweep-link-latency"):
            assert name in out

    def test_list_configs(self, capsys):
        assert main(["list-configs"]) == 0
        out = capsys.readouterr().out
        assert "steering policies" in out and "partitioners" in out
        assert "table2-4c" in out and "RHOP" in out

    def test_run_builtin_scenario(self, capsys):
        assert (
            main(
                [
                    "run", "quickstart",
                    "--benchmarks", "164.gzip-1",
                    "--trace-length", "600",
                    "--no-cache",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "164.gzip-1: quickstart" in out and "one-cluster" in out

    def test_run_scenario_file_matches_builtin_figure5(self, capsys, tmp_path):
        """`run <figure5.json> --jobs 2` and `run figure5` print byte-identical
        tables."""
        from repro.scenarios.builtin import builtin_scenario

        path = tmp_path / "figure5.json"
        builtin_scenario("figure5").save(path)
        common = ["--benchmarks", "164.gzip-1", "--trace-length", "600", "--no-cache"]
        assert main(["run", str(path), "--jobs", "2"] + common) == 0
        from_scenario = capsys.readouterr().out
        assert main(["run", "figure5"] + common) == 0
        from_builtin = capsys.readouterr().out
        assert from_scenario == from_builtin
        assert "Figure 5(c)" in from_scenario

    def test_run_unknown_scenario(self):
        with pytest.raises(SystemExit, match="unknown scenario"):
            main(["run", "bogus-scenario"])

    def test_run_missing_file(self):
        with pytest.raises(SystemExit, match="not found"):
            main(["run", "no/such/scenario.json"])

    def test_run_directory_rejected_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="invalid scenario file"):
            main(["run", str(tmp_path)])

    def test_stray_file_cannot_shadow_builtin_scenario(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "table1").mkdir()  # a directory named like a built-in
        assert main(["run", "table1"]) == 0
        assert "dependence check" in capsys.readouterr().out

    def test_run_wrongly_typed_scenario_field_fails_cleanly(self, tmp_path):
        path = tmp_path / "bad_type.json"
        path.write_text('{"name": "x", "machine": 5}', encoding="utf-8")
        with pytest.raises(SystemExit, match="invalid scenario file"):
            main(["run", str(path)])

    def test_run_malformed_scenario_field_fails_cleanly(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x", "trace_length": "abc"}', encoding="utf-8")
        with pytest.raises(SystemExit, match="invalid scenario file.*'trace_length'"):
            main(["run", str(path)])

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["run", "quickstart", "--trace-length", "0"], "trace_length"),
            (["run", "quickstart", "--phases", "0"], "max_phases"),
            (["quickstart", "--trace-length", "0"], "trace_length"),
        ],
        ids=["run-trace-length", "run-phases", "quickstart-trace-length"],
    )
    def test_non_positive_override_fails_naming_the_field(self, argv, field):
        message = f"invalid scenario 'quickstart': scenario '{field}' must be a positive integer"
        with pytest.raises(SystemExit, match=message):
            main(argv + ["--no-cache"])

    def test_run_unknown_policy_name_fails_cleanly(self, tmp_path):
        path = tmp_path / "typo.json"
        path.write_text(
            '{"name": "typo", "configurations": '
            '[{"name": "x", "policy": "stciky"}]}',
            encoding="utf-8",
        )
        with pytest.raises(SystemExit, match="unknown steering policy 'stciky'"):
            main(["run", str(path)])

    def test_quickstart_matches_run_quickstart(self, capsys):
        common = ["--trace-length", "600", "--no-cache"]
        assert main(["quickstart", "--benchmark", "164.gzip-1"] + common) == 0
        from_command = capsys.readouterr().out
        assert main(["run", "quickstart", "--benchmarks", "164.gzip-1"] + common) == 0
        from_scenario = capsys.readouterr().out
        assert from_command == from_scenario

    def test_run_invalid_machine_for_figure_kind_fails_cleanly(self, tmp_path):
        path = tmp_path / "wrong_machine.json"
        path.write_text(
            '{"name": "bad", "report": "figure5", "machine": "table2-4c", '
            '"configurations": ["OP", "VC"], "benchmarks": ["164.gzip-1"], '
            '"trace_length": 400}',
            encoding="utf-8",
        )
        with pytest.raises(SystemExit, match="2-cluster machine"):
            main(["run", str(path), "--no-cache"])

    def test_python_dash_m_repro(self):
        """`python -m repro` works (not just `python -m repro.cli`)."""
        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "list-benchmarks", "--suite", "int"],
            capture_output=True, text=True, env=env, cwd=root,
        )
        assert proc.returncode == 0
        assert "164.gzip-1" in proc.stdout


class TestCommands:
    def test_list_benchmarks(self, capsys):
        assert main(["list-benchmarks", "--suite", "fp"]) == 0
        out = capsys.readouterr().out
        assert "178.galgel" in out
        assert len(out.strip().splitlines()) == len(all_trace_names("fp"))

    def test_table1(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "dependence check" in out and "VC" in out

    def test_quickstart(self, capsys):
        assert main(["quickstart", "--benchmark", "164.gzip-1", "--trace-length", "800"]) == 0
        out = capsys.readouterr().out
        assert "one-cluster" in out and "slowdown vs OP (%)" in out

    def test_figure5_subset(self, capsys):
        assert (
            main(
                [
                    "run",
                    "figure5",
                    "--benchmarks",
                    "164.gzip-1",
                    "178.galgel",
                    "--trace-length",
                    "800",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Figure 5(c)" in out and "CPU2000 AVG (%)" in out

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "figure5", "--benchmarks", "999.bogus", "--trace-length", "500"])

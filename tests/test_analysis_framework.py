"""The multi-pass analysis framework: registry, classification, CLI.

Contracts pinned here:

* **The registry knows both built-in passes** (detlint, lifelint), in
  canonical report order, with globally unique rule-id prefixes, and
  ``scan_paths`` runs them over one shared parse of each file.
* **Suppression tags are pass-scoped**: ``# detlint: ok`` never mutes a
  lifelint finding on the same line and vice versa.
* **Strict mode requires rationales**: a bare ``# <pass>: ok RULE`` keeps
  the finding fresh (with a pointed message) under ``--strict`` while still
  suppressing in normal mode.
* **Baseline hygiene**: fingerprints that match no finding are reported as
  stale, ``--prune-baseline`` rewrites the file without them, and malformed
  baseline entries are a load error (exit 2), not a silent accept.
* **Reports**: ``--format github`` emits ``::error file=...,line=...``
  workflow commands for fresh findings; ``--format json`` carries per-pass
  counts.  Exit codes stay 0/1/2 across all formats.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

from repro.analysis.framework import (
    Baseline,
    all_passes,
    exit_code,
    get_pass,
    parse_suppression,
    run,
    scan_paths,
)

#: One detlint violation and one lifelint violation in the same module.
MIXED_SOURCE = (
    "import time\n"
    "from multiprocessing.shared_memory import SharedMemory\n"
    "\n"
    "stamp = time.time()\n"
    "\n"
    "\n"
    "def scrub(name):\n"
    "    shm = SharedMemory(name=name)\n"
    "    shm.unlink()\n"
)


def _run(*argv):
    out = io.StringIO()
    code = run(list(argv), out=out)
    return code, out.getvalue()


class TestRegistry:
    def test_builtin_passes_register_in_report_order(self):
        names = [p.name for p in all_passes()]
        assert names == ["detlint", "lifelint"]

    def test_rule_id_prefixes_are_globally_unique(self):
        seen = {}
        for analysis_pass in all_passes():
            for rule in analysis_pass.rules:
                assert rule.rule_id not in seen, (
                    f"{rule.rule_id} registered by both "
                    f"{seen[rule.rule_id]} and {analysis_pass.name}"
                )
                seen[rule.rule_id] = analysis_pass.name
        assert any(r.startswith("DET1") for r in seen)
        assert any(r.startswith("RES3") for r in seen)

    def test_get_pass_rejects_unknown_names(self):
        try:
            get_pass("fluxlint")
        except KeyError as exc:
            assert "fluxlint" in str(exc)
        else:  # pragma: no cover
            raise AssertionError("expected KeyError")


class TestMultiPassScan:
    def test_one_scan_classifies_findings_per_pass(self, tmp_path):
        (tmp_path / "mod.py").write_text(MIXED_SOURCE)
        result = scan_paths([tmp_path])
        by_pass = {(i.pass_name, i.finding.rule) for i in result.findings}
        assert ("detlint", "DET102") in by_pass
        assert ("lifelint", "RES302") in by_pass
        assert result.pass_counts("detlint")["fresh"] >= 1
        assert result.pass_counts("lifelint")["fresh"] >= 1
        assert exit_code(result) == 1

    def test_selected_pass_only_sees_its_own_rules(self, tmp_path):
        (tmp_path / "mod.py").write_text(MIXED_SOURCE)
        result = scan_paths([tmp_path], passes=(get_pass("lifelint"),))
        rules = {i.finding.rule for i in result.findings}
        assert rules and all(r.startswith("RES") for r in rules)


class TestPassScopedSuppression:
    def test_detlint_tag_does_not_mute_lifelint(self, tmp_path):
        source = MIXED_SOURCE.replace(
            "    shm.unlink()\n",
            "    shm.unlink()  # detlint: ok (wrong tag for this finding)\n",
        )
        (tmp_path / "mod.py").write_text(source)
        result = scan_paths([tmp_path], passes=(get_pass("lifelint"),))
        assert [i.status for i in result.findings] == ["fresh"]

    def test_matching_tag_suppresses(self, tmp_path):
        source = MIXED_SOURCE.replace(
            "    shm.unlink()\n",
            "    shm.unlink()  # lifelint: ok RES302 (fixture exercises the owner API)\n",
        )
        (tmp_path / "mod.py").write_text(source)
        result = scan_paths([tmp_path], passes=(get_pass("lifelint"),))
        assert [i.status for i in result.findings] == ["suppressed"]

    def test_rationale_parsing(self):
        suppression = parse_suppression(
            "x = 1  # lifelint: ok RES302 (fixture owns the segment)", tag="lifelint"
        )
        assert suppression.rules == {"RES302"}
        assert suppression.rationale == "fixture owns the segment"
        assert parse_suppression("x = 1  # lifelint: ok", tag="detlint") is None


class TestStrictRationale:
    def _write(self, tmp_path, comment):
        (tmp_path / "mod.py").write_text(
            f"import time\nstamp = time.time()  {comment}\n"
        )
        return tmp_path

    def test_bare_suppression_suppresses_in_normal_mode(self, tmp_path):
        self._write(tmp_path, "# detlint: ok DET102")
        result = scan_paths([tmp_path], passes=(get_pass("detlint"),))
        assert [i.status for i in result.findings] == ["suppressed"]

    def test_bare_suppression_stays_fresh_in_strict_mode(self, tmp_path):
        self._write(tmp_path, "# detlint: ok DET102")
        result = scan_paths([tmp_path], passes=(get_pass("detlint"),), strict=True)
        assert [i.status for i in result.findings] == ["fresh"]
        assert "no rationale" in result.findings[0].finding.message

    def test_rationale_satisfies_strict_mode(self, tmp_path):
        self._write(tmp_path, "# detlint: ok DET102 (display-only timestamp)")
        result = scan_paths([tmp_path], passes=(get_pass("detlint"),), strict=True)
        assert [i.status for i in result.findings] == ["suppressed"]


class TestBaselineHygiene:
    def _baseline_with(self, tmp_path, fingerprints, extra=()):
        target = tmp_path / "detlint-baseline.json"
        entries = [{"fingerprint": fp} for fp in [*fingerprints, *extra]]
        Baseline.write_entries(target, entries)
        return target

    def test_stale_entries_are_reported(self, tmp_path):
        (tmp_path / "mod.py").write_text("import time\nstamp = time.time()\n")
        first = scan_paths([tmp_path], passes=(get_pass("detlint"),))
        target = self._baseline_with(
            tmp_path, [i.fingerprint for i in first.findings], extra=["feedfacedeadbeef0000"]
        )
        result = scan_paths(
            [tmp_path], passes=(get_pass("detlint"),), baseline=Baseline.load(target)
        )
        assert [i.status for i in result.findings] == ["baselined"]
        assert result.stale_fingerprints == ["feedfacedeadbeef0000"]

    def test_prune_baseline_drops_only_stale_entries(self, tmp_path):
        (tmp_path / "mod.py").write_text("import time\nstamp = time.time()\n")
        first = scan_paths([tmp_path], passes=(get_pass("detlint"),))
        live = [i.fingerprint for i in first.findings]
        target = self._baseline_with(tmp_path, live, extra=["feedfacedeadbeef0000"])
        code, text = _run(
            str(tmp_path), "--baseline", str(target), "--prune-baseline"
        )
        assert code == 0 and "pruned 1 stale entries" in text
        pruned = Baseline.load(target)
        assert set(pruned.fingerprints) == set(live)

    def test_prune_without_baseline_is_an_error(self, tmp_path):
        (tmp_path / "mod.py").write_text("value = 1\n")
        code, text = _run(str(tmp_path), "--no-baseline", "--prune-baseline")
        assert code == 2 and "needs a baseline" in text

    def test_malformed_entry_is_a_load_error(self, tmp_path):
        target = tmp_path / "detlint-baseline.json"
        target.write_text(json.dumps({"version": 1, "entries": [{"rule": "DET101"}]}))
        (tmp_path / "mod.py").write_text("value = 1\n")
        code, text = _run(str(tmp_path), "--baseline", str(target))
        assert code == 2
        assert "entry 0 has no string 'fingerprint'" in text

    def test_string_entries_still_load(self, tmp_path):
        target = tmp_path / "detlint-baseline.json"
        target.write_text(json.dumps({"version": 1, "entries": ["ab" * 10]}))
        assert Baseline.load(target).fingerprints == frozenset(["ab" * 10])


class TestFormats:
    def test_github_format_emits_error_annotations(self, tmp_path):
        (tmp_path / "bad.py").write_text("import time\nstamp = time.time()\n")
        code, text = _run(
            str(tmp_path), "--pass", "detlint", "--no-baseline", "--format", "github"
        )
        assert code == 1
        assert "::error file=" in text
        assert "line=2,title=DET102::" in text

    def test_github_format_warns_on_stale_entries(self, tmp_path):
        (tmp_path / "ok.py").write_text("value = 1\n")
        target = tmp_path / "detlint-baseline.json"
        Baseline.write_entries(target, [{"fingerprint": "feedfacedeadbeef0000"}])
        code, text = _run(
            str(tmp_path), "--baseline", str(target), "--format", "github"
        )
        assert code == 0
        assert "::warning::stale baseline entry feedfacedeadbeef0000" in text

    def test_json_format_carries_per_pass_counts(self, tmp_path):
        (tmp_path / "mod.py").write_text(MIXED_SOURCE)
        code, text = _run(str(tmp_path), "--no-baseline", "--format", "json")
        assert code == 1
        payload = json.loads(text)
        assert set(payload["passes"]) == {"detlint", "lifelint"}
        assert payload["passes"]["lifelint"]["fresh"] >= 1
        passes = {f["pass"] for f in payload["findings"]}
        assert {"detlint", "lifelint"} <= passes


class TestCliPassSelection:
    def test_single_pass_footer_only(self, tmp_path):
        (tmp_path / "ok.py").write_text("value = 1\n")
        code, text = _run(str(tmp_path), "--pass", "lifelint", "--no-baseline")
        assert code == 0
        assert "[lifelint]" in text
        assert "[detlint]" not in text

    def test_all_passes_footer_order(self, tmp_path):
        (tmp_path / "ok.py").write_text("value = 1\n")
        code, text = _run(str(tmp_path), "--no-baseline")
        assert code == 0
        assert text.index("[detlint]") < text.index("[lifelint]")

    def test_list_rules_groups_by_pass(self):
        code, text = _run("--list-rules")
        assert code == 0
        for header in ("[detlint]", "[lifelint]"):
            assert header in text
        for rule_id in ("DET101", "RES301"):
            assert rule_id in text

    def test_repro_analyze_forwards_pass_selection(self, tmp_path, capsys):
        from repro.cli import main as repro_main

        bad = tmp_path / "bad.py"
        bad.write_text(MIXED_SOURCE)
        assert (
            repro_main(
                ["analyze", str(bad), "--pass", "lifelint", "--no-baseline"]
            )
            == 1
        )
        out = capsys.readouterr().out
        assert "RES302" in out and "[lifelint]" in out and "[detlint]" not in out


class TestRepositoryIsCleanAllPasses:
    def test_whole_tree_strict_scan_is_finding_free(self):
        root = Path(__file__).resolve().parent.parent
        result = scan_paths(
            [root / "src", root / "scripts", root / "tests", root / "benchmarks"],
            strict=True,
        )
        assert result.errors == []
        assert [i.finding.render() for i in result.fresh] == []

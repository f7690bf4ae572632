"""detlint's driver: classification, reports, the repository gate.

Contracts pinned here:

* **Suppressions are tag-scoped**: only ``# detlint: ok`` comments count;
  another tool's ``ok`` comment on the same line mutes nothing.
* **A suppression needs a rationale**: a bare ``# detlint: ok RULE`` keeps
  the finding fresh, with a message saying why; there is no laxer mode.
* **Reports**: ``--format github`` emits ``::error file=...,line=...``
  workflow commands for fresh findings.  Exit codes stay 0/1/2.
* **The committed tree is finding-free** under the same scan CI runs.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

from repro.analysis.framework import main, parse_suppression, scan_paths


def _run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


class TestPassScopedSuppression:
    def test_matching_tag_suppresses(self, tmp_path):
        (tmp_path / "mod.py").write_text(
            "import time\n"
            "stamp = time.time()  # detlint: ok DET102 (display-only timestamp)\n"
        )
        result = scan_paths([tmp_path])
        assert [i.status for i in result.findings] == ["suppressed"]

    def test_rationale_parsing(self):
        suppression = parse_suppression(
            "x = 1  # detlint: ok DET102 (fixture owns the clock)"
        )
        assert suppression.rules == {"DET102"}
        assert suppression.rationale == "fixture owns the clock"
        assert parse_suppression("x = 1  # otherlint: ok") is None


class TestStrictRationale:
    def _write(self, tmp_path, comment):
        (tmp_path / "mod.py").write_text(
            f"import time\nstamp = time.time()  {comment}\n"
        )
        return tmp_path

    def test_bare_suppression_stays_fresh_in_strict_mode(self, tmp_path):
        self._write(tmp_path, "# detlint: ok DET102")
        result = scan_paths([tmp_path])
        assert [i.status for i in result.findings] == ["fresh"]
        assert "no rationale" in result.findings[0].finding.message
        assert result.exit_code == 1

    def test_rationale_satisfies_strict_mode(self, tmp_path):
        self._write(tmp_path, "# detlint: ok DET102 (display-only timestamp)")
        result = scan_paths([tmp_path])
        assert [i.status for i in result.findings] == ["suppressed"]
        assert result.exit_code == 0


class TestFormats:
    def test_github_format_emits_error_annotations(self, tmp_path):
        (tmp_path / "bad.py").write_text("import time\nstamp = time.time()\n")
        code, text = _run(str(tmp_path), "--format", "github")
        assert code == 1
        assert "::error file=" in text
        assert "line=2,title=DET102::" in text
        assert "[detlint] files=1 findings=1 fresh=1 suppressed=0" in text


class TestRepositoryIsCleanAllPasses:
    def test_whole_tree_strict_scan_is_finding_free(self):
        root = Path(__file__).resolve().parent.parent
        result = scan_paths(
            [root / name for name in ("src", "scripts", "benchmarks", "examples", "tests")]
        )
        assert result.errors == []
        assert [i.finding.render() for i in result.fresh] == []

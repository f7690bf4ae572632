"""The determinism lint: rules, suppression, baseline, CLI.

detlint runs as a pass of :mod:`repro.analysis.framework`; every scan and
CLI call below selects exactly that pass.

Contracts pinned here:

* **Every rule fires on its minimal violation** at the exact line, and stays
  silent on the sanctioned idiom next to it (seeded RNG, ``sorted(...)``
  wrappers, ``resolve_*`` helpers, benchmark timing code, ...).  The
  violations live in :data:`CASES` as source *strings*, so the lint scanning
  this test tree sees no code to flag.
* **Suppression is line-scoped and rule-scoped.**  ``# detlint: ok`` mutes
  everything on its line, ``# detlint: ok DET103`` only that rule, and a
  trailing rationale does not break parsing.
* **The baseline grandfathers by content, not line number** -- moving a
  finding does not resurrect it -- and strict mode ignores it entirely.
* **Exit codes**: 0 clean/suppressed/baselined, 1 fresh findings, 2 scan or
  usage errors.  ``repro analyze`` forwards them.
* **DET109's column table tracks the IR**: ``TRACE_COLUMN_ATTRS`` must equal
  ``CompiledTrace.STORED_FIELDS`` (synced by this test, not by an import, so
  the linter needs no numpy).
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from repro.analysis import framework
from repro.analysis.detlint.rules import (
    DETLINT_PASS,
    RULES,
    RULES_BY_ID,
    TRACE_COLUMN_ATTRS,
    check_module,
)
from repro.analysis.framework import Baseline, fingerprint, parse_suppression
from repro.uops.compiled import CompiledTrace


def scan_paths(paths, baseline=None, strict=False):
    """A detlint-only framework scan."""
    return framework.scan_paths(
        paths, passes=(DETLINT_PASS,), baseline=baseline, strict=strict
    )


def suppressed_rules(line):
    """The rule ids a ``# detlint: ok`` comment on ``line`` suppresses, or ``None``."""
    suppression = parse_suppression(line, tag="detlint")
    return None if suppression is None else suppression.rules


class Case:
    """One rule's minimal violation and its sanctioned counterpart."""

    def __init__(self, rule, bad, bad_line, good, path="pkg/mod.py", module="pkg.mod"):
        self.rule = rule
        self.bad = bad
        self.bad_line = bad_line
        self.good = good
        self.path = path
        self.module = module

    def __repr__(self):
        return self.rule


CASES = [
    Case(
        "DET101",
        bad="import random\nvalue = random.random()\n",
        bad_line=2,
        good="import random\nrng = random.Random(7)\nvalue = rng.random()\n",
    ),
    Case(
        "DET101",
        bad="import numpy as np\nnoise = np.random.rand(4)\n",
        bad_line=2,
        good="import numpy as np\nrng = np.random.default_rng(1234)\nnoise = rng.random(4)\n",
    ),
    Case(
        "DET101",
        bad="from numpy.random import default_rng\nrng = default_rng()\n",
        bad_line=2,
        good="from numpy.random import default_rng\nrng = default_rng(42)\n",
    ),
    Case(
        "DET102",
        bad="import time\nstamp = time.time()\n",
        bad_line=2,
        good="import time\n\ndef bench_sweep():\n    return time.perf_counter()\n",
    ),
    Case(
        "DET103",
        bad='import os\ncap = os.environ.get("REPRO_CAP")\n',
        bad_line=2,
        good=(
            "import os\n\ndef resolve_cap():\n"
            '    return os.environ.get("REPRO_CAP")\n'
        ),
    ),
    Case(
        "DET103",
        bad='import os\ncap = os.environ["REPRO_CAP"]\n',
        bad_line=2,
        good=(
            "import os\n\ndef _resolve_cap():\n"
            '    return os.environ["REPRO_CAP"]\n'
        ),
    ),
    Case(
        "DET104",
        bad="for item in {1, 2, 3}:\n    print(item)\n",
        bad_line=1,
        good="for item in sorted({1, 2, 3}):\n    print(item)\n",
    ),
    Case(
        "DET104",
        bad='names = list({"b", "a"})\n',
        bad_line=1,
        good='names = sorted({"b", "a"})\n',
    ),
    Case(
        "DET105",
        bad="total = sum({0.1, 0.2, 0.3})\n",
        bad_line=1,
        good="total = sum(sorted({0.1, 0.2, 0.3}))\n",
    ),
    Case(
        "DET105",
        bad="best = min({(1, 2), (2, 1)}, key=lambda p: p[0])\n",
        bad_line=1,
        good="smallest = min({3, 1, 2})\n",  # unkeyed min of a set is a total order
    ),
    Case(
        "DET106",
        bad="def accumulate(x, acc=[]):\n    acc.append(x)\n    return acc\n",
        bad_line=1,
        good="def accumulate(x, acc=None):\n    return [x] if acc is None else acc + [x]\n",
    ),
    Case(
        "DET107",
        bad="def memo(cache, obj):\n    cache[id(obj)] = obj\n",
        bad_line=2,
        good="def label(obj):\n    return id(obj)\n",  # id() not used as a key
    ),
    Case(
        "DET108",
        bad='digest = hash(("trace", 42))\n',
        bad_line=1,
        good=(
            "class Key:\n    def __hash__(self):\n"
            "        return hash((1, 2))\n"
        ),
    ),
    Case(
        "DET109",
        bad="def patch(trace):\n    trace.opclass[0] = 3\n",
        bad_line=2,
        good="def replace(trace, column):\n    trace.opclass = column\n",
    ),
    Case(
        "DET110",
        bad='import os\nfor name in os.listdir("."):\n    print(name)\n',
        bad_line=2,
        good='import os\nfor name in sorted(os.listdir(".")):\n    print(name)\n',
    ),
    Case(
        "DET110",
        bad="from pathlib import Path\nentries = list(Path('.').iterdir())\n",
        bad_line=2,
        good="from pathlib import Path\nentries = sorted(Path('.').iterdir())\n",
    ),
    Case(
        "DET111",
        bad="import numba\n",
        bad_line=1,
        good="try:\n    import numba\nexcept ImportError:\n    numba = None\n",
    ),
    Case(
        "DET111",
        bad="from numba import njit\nfast = njit(abs)\n",
        bad_line=1,
        good=(
            "try:\n    from numba import njit\n"
            "except ImportError:\n    njit = None\n"
        ),
    ),
]


# ---------------------------------------------------------------------------
# Rule catalogue and per-rule fire/silent pairs
# ---------------------------------------------------------------------------


class TestRuleCatalogue:
    def test_at_least_eight_rules(self):
        assert len(RULES) >= 8
        assert len({rule.rule_id for rule in RULES}) == len(RULES)
        assert RULES_BY_ID == {rule.rule_id: rule for rule in RULES}

    def test_every_rule_has_a_case(self):
        assert {case.rule for case in CASES} == set(RULES_BY_ID)

    def test_trace_column_table_matches_compiled_trace(self):
        assert TRACE_COLUMN_ATTRS == frozenset(CompiledTrace.STORED_FIELDS)


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c.rule}-{c.bad_line}")
class TestRuleCases:
    def test_fires_on_violation_at_exact_line(self, case):
        findings = check_module(case.bad, case.path, case.module)
        hits = [f for f in findings if f.rule == case.rule]
        assert hits, f"{case.rule} did not fire on:\n{case.bad}"
        assert hits[0].line == case.bad_line
        assert hits[0].path == case.path

    def test_silent_on_sanctioned_idiom(self, case):
        findings = check_module(case.good, case.path, case.module)
        assert [f for f in findings if f.rule == case.rule] == [], (
            f"{case.rule} fired on the sanctioned idiom:\n{case.good}"
        )


class TestContextSanctions:
    def test_wall_clock_allowed_in_benchmarks_tree(self):
        source = "import time\nstamp = time.time()\n"
        assert check_module(source, "benchmarks/test_x.py", "benchmarks.test_x") == []
        assert check_module(source, "pkg/mod.py", "pkg.mod") != []

    def test_trace_column_writes_allowed_in_uops_package(self):
        source = "def patch(trace):\n    trace.opclass[0] = 3\n"
        assert check_module(source, "src/repro/uops/compiled.py", "repro.uops.compiled") == []

    def test_import_alias_is_resolved(self):
        source = "import numpy.random as nr\nx = nr.rand(3)\n"
        assert [f.rule for f in check_module(source, "m.py")] == ["DET101"]

    def test_set_comprehension_sink_is_order_insensitive(self):
        source = "import os\nnames = {entry for entry in os.listdir('.')}\n"
        assert check_module(source, "m.py") == []


# ---------------------------------------------------------------------------
# Suppression comments
# ---------------------------------------------------------------------------


class TestSuppression:
    def test_no_comment_is_no_suppression(self):
        assert suppressed_rules("x = 1") is None

    def test_bare_ok_suppresses_everything(self):
        assert suppressed_rules("x = 1  # detlint: ok") == frozenset()

    def test_named_rules(self):
        assert suppressed_rules("x = 1  # detlint: ok DET103") == {"DET103"}
        assert suppressed_rules("x = 1  # detlint: ok DET103, DET104") == {
            "DET103",
            "DET104",
        }

    def test_trailing_rationale_is_ignored(self):
        line = "x = 1  # detlint: ok DET102 (reported as elapsed wall time)"
        assert suppressed_rules(line) == {"DET102"}

    def test_suppressed_finding_is_not_fresh(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(
            "import time\nstamp = time.time()  # detlint: ok DET102 (display only)\n"
        )
        result = scan_paths([target])
        assert [item.status for item in result.findings] == ["suppressed"]

    def test_wrong_rule_name_does_not_suppress(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("import time\nstamp = time.time()  # detlint: ok DET101\n")
        result = scan_paths([target])
        assert [item.status for item in result.findings] == ["fresh"]


# ---------------------------------------------------------------------------
# Fingerprints and the baseline
# ---------------------------------------------------------------------------


class TestBaseline:
    def _scan(self, tmp_path, source, baseline=None, strict=False):
        target = tmp_path / "mod.py"
        target.write_text(source)
        return scan_paths([target], baseline=baseline, strict=strict)

    def test_fingerprint_survives_a_line_move(self, tmp_path):
        before = self._scan(tmp_path, "import time\nstamp = time.time()\n")
        moved = self._scan(
            tmp_path, "import time\n\n# a comment pushed it down\nstamp = time.time()\n"
        )
        assert before.findings[0].fingerprint == moved.findings[0].fingerprint
        assert before.findings[0].finding.line != moved.findings[0].finding.line

    def test_duplicate_lines_get_distinct_fingerprints(self, tmp_path):
        result = self._scan(tmp_path, "import time\na = time.time()\na = time.time()\n")
        prints = [item.fingerprint for item in result.findings]
        assert len(prints) == 2 and len(set(prints)) == 2

    def test_baselined_findings_are_not_fresh(self, tmp_path):
        source = "import time\nstamp = time.time()\n"
        first = self._scan(tmp_path, source)
        baseline = Baseline(fingerprints=frozenset(i.fingerprint for i in first.findings))
        again = self._scan(tmp_path, source, baseline=baseline)
        assert [item.status for item in again.findings] == ["baselined"]

    def test_strict_ignores_the_baseline(self, tmp_path):
        source = "import time\nstamp = time.time()\n"
        first = self._scan(tmp_path, source)
        baseline = Baseline(fingerprints=frozenset(i.fingerprint for i in first.findings))
        strict = self._scan(tmp_path, source, baseline=baseline, strict=True)
        assert [item.status for item in strict.findings] == ["fresh"]

    def test_fingerprint_is_deterministic(self):
        assert fingerprint("a.py", "DET101", "x = 1", 0) == fingerprint(
            "a.py", "DET101", "x  =  1", 0  # whitespace-normalised
        )
        assert fingerprint("a.py", "DET101", "x = 1", 0) != fingerprint(
            "a.py", "DET101", "x = 1", 1
        )


# ---------------------------------------------------------------------------
# CLI: exit codes, reports, baseline round-trip
# ---------------------------------------------------------------------------


def _run(*argv):
    out = io.StringIO()
    code = framework.run([*argv, "--pass", "detlint"], out=out)
    return code, out.getvalue()


class TestCli:
    def test_clean_tree_exits_zero_with_footer(self, tmp_path):
        (tmp_path / "ok.py").write_text("value = 1\n")
        code, text = _run(str(tmp_path))
        assert code == 0
        assert "[detlint] files=1 findings=0 fresh=0" in text

    def test_fresh_finding_exits_one_and_renders_line(self, tmp_path):
        (tmp_path / "bad.py").write_text("import time\nstamp = time.time()\n")
        code, text = _run(str(tmp_path), "--no-baseline")
        assert code == 1
        assert "DET102" in text and "stamp = time.time()" in text

    def test_suppressed_finding_exits_zero(self, tmp_path):
        (tmp_path / "bad.py").write_text(
            "import time\nstamp = time.time()  # detlint: ok DET102\n"
        )
        code, text = _run(str(tmp_path), "--no-baseline")
        assert code == 0
        assert "suppressed=1" in text

    def test_write_baseline_then_rescan_exits_zero(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.py").write_text("import time\nstamp = time.time()\n")
        code, text = _run("bad.py", "--write-baseline")
        assert code == 0 and "wrote baseline" in text
        code, text = _run("bad.py")
        assert code == 0
        assert "baselined=1" in text
        # ... but strict mode sees through the baseline.
        code, _ = _run("bad.py", "--strict")
        assert code == 1

    def test_missing_path_exits_two(self, tmp_path):
        code, text = _run(str(tmp_path / "nope"))
        assert code == 2 and "no such path" in text

    def test_syntax_error_exits_two(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        code, text = _run(str(tmp_path), "--no-baseline")
        assert code == 2 and "error:" in text

    def test_corrupt_baseline_exits_two(self, tmp_path):
        (tmp_path / "ok.py").write_text("value = 1\n")
        bad = tmp_path / "base.json"
        bad.write_text('{"version": 99}')
        code, text = _run(str(tmp_path), "--baseline", str(bad))
        assert code == 2 and "cannot load baseline" in text

    def test_list_rules_names_every_rule(self):
        code, text = _run("--list-rules")
        assert code == 0
        for rule in RULES:
            assert rule.rule_id in text

    def test_json_report_parses(self, tmp_path):
        (tmp_path / "bad.py").write_text("import time\nstamp = time.time()\n")
        code, text = _run(str(tmp_path), "--no-baseline", "--format", "json")
        assert code == 1
        payload = json.loads(text)
        assert payload["counts"]["fresh"] == 1
        assert payload["findings"][0]["rule"] == "DET102"


class TestReproAnalyze:
    """`repro analyze` forwards the lint's report and exit code."""

    def test_analyze_clean_and_dirty(self, tmp_path, capsys):
        from repro.cli import main as repro_main

        clean = tmp_path / "clean.py"
        clean.write_text("value = 1\n")
        assert repro_main(["analyze", str(clean), "--no-baseline"]) == 0
        assert "[detlint]" in capsys.readouterr().out

        dirty = tmp_path / "dirty.py"
        dirty.write_text("import time\nstamp = time.time()\n")
        assert repro_main(["analyze", str(dirty), "--no-baseline"]) == 1
        assert "DET102" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# The committed gate: this repository itself scans clean
# ---------------------------------------------------------------------------


class TestRepositoryIsClean:
    def test_src_is_finding_free_in_strict_mode(self):
        root = Path(__file__).resolve().parent.parent
        result = scan_paths([root / "src"], strict=True)
        assert result.errors == []
        assert [i.finding.render() for i in result.fresh] == []

    def test_committed_baseline_is_empty(self):
        root = Path(__file__).resolve().parent.parent
        baseline = Baseline.load(root / "detlint-baseline.json")
        assert baseline.fingerprints == frozenset()

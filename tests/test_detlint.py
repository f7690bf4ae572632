"""The determinism lint: rules, suppression, CLI.

Contracts pinned here:

* **Every rule fires on its minimal violation** at the exact line, and stays
  silent on the sanctioned idiom next to it (seeded RNG, ``sorted(...)``
  wrappers, ``resolve_*`` helpers, benchmark timing code, ...).  The
  violations live in :data:`CASES` as source *strings*, so the lint scanning
  this test tree sees no code to flag.
* **Suppression is line-scoped and rule-scoped.**  ``# detlint: ok
  (reason)`` mutes everything on its line, ``# detlint: ok DET103
  (reason)`` only that rule, and a trailing rationale does not break parsing.
* **Exit codes**: 0 clean/suppressed, 1 fresh findings, 2 scan or usage
  errors -- including a run that scans no ``.py`` file, so a mistyped path
  cannot pass the gate.
* **DET109's column table tracks the IR**: ``TRACE_COLUMN_ATTRS`` must equal
  ``CompiledTrace.STORED_FIELDS`` plus ``Program.COLUMNS`` (synced by this
  test, not by an import, so the linter needs no numpy).
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from repro.analysis import framework
from repro.analysis.detlint.rules import (
    RULES,
    RULES_BY_ID,
    TRACE_COLUMN_ATTRS,
    check_module,
)
from repro.analysis.framework import parse_suppression, scan_paths
from repro.program.program import Program
from repro.uops.compiled import CompiledTrace


def suppressed_rules(line):
    """The rule ids a ``# detlint: ok`` comment on ``line`` suppresses, or ``None``."""
    suppression = parse_suppression(line)
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
        assert TRACE_COLUMN_ATTRS == frozenset(CompiledTrace.STORED_FIELDS) | frozenset(
            Program.COLUMNS
        )


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
# CLI: exit codes and reports
# ---------------------------------------------------------------------------


def _run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = framework.main(list(argv))
    return code, out.getvalue()


class TestCli:
    def test_clean_tree_exits_zero_with_footer(self, tmp_path):
        (tmp_path / "ok.py").write_text("value = 1\n")
        code, text = _run(str(tmp_path))
        assert code == 0
        assert "[detlint] files=1 findings=0 fresh=0" in text

    def test_fresh_finding_exits_one_and_renders_line(self, tmp_path):
        (tmp_path / "bad.py").write_text("import time\nstamp = time.time()\n")
        code, text = _run(str(tmp_path))
        assert code == 1
        assert "DET102" in text and "stamp = time.time()" in text

    def test_suppressed_finding_exits_zero(self, tmp_path):
        (tmp_path / "bad.py").write_text(
            "import time\nstamp = time.time()  # detlint: ok DET102 (display only)\n"
        )
        code, text = _run(str(tmp_path))
        assert code == 0
        assert "suppressed=1" in text

    def test_missing_path_exits_two(self, tmp_path):
        code, text = _run(str(tmp_path / "nope"))
        assert code == 2 and "no such path" in text

    def test_syntax_error_exits_two(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        code, text = _run(str(tmp_path))
        assert code == 2 and "error:" in text

    @pytest.mark.parametrize(
        "target, message",
        [("README.md", "not a .py file: "), ("docs", "no .py file under ")],
        ids=["non-py-file", "no-py-under-dir"],
    )
    def test_scan_of_no_python_file_exits_two(self, tmp_path, target, message):
        """A mistyped path must not pass the gate by scanning nothing."""
        (tmp_path / "README.md").write_text("# notes\n")
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "index.md").write_text("text\n")
        code, text = _run(str(tmp_path / target))
        assert code == 2
        assert f"error: {message}{tmp_path / target}" in text
        assert "files=0" in text

    def test_list_rules_names_every_rule(self):
        code, text = _run("--list-rules")
        assert code == 0
        for rule in RULES:
            assert rule.rule_id in text


# ---------------------------------------------------------------------------
# The committed gate: this repository itself scans clean
# ---------------------------------------------------------------------------


class TestRepositoryIsClean:
    def test_src_is_finding_free_in_strict_mode(self):
        root = Path(__file__).resolve().parent.parent
        result = scan_paths([root / "src"])
        assert result.errors == []
        assert [i.finding.render() for i in result.fresh] == []

"""detlint's driver: scan, classify, report (``python -m repro.analysis``).

* **Scanning**: walk files/directories and run detlint's checks
  (:func:`repro.analysis.detlint.rules.check_module`) on each ``.py`` file.
* **Classification**: a finding is **suppressed** when the offending line
  carries ``# detlint: ok <RULE> (rationale)`` naming its rule (a bare
  ``ok`` names every rule), and **fresh** otherwise.  A suppression must
  carry a rationale; one without it does not suppress, so the finding stays
  fresh with a message saying why.
* **Exit codes**: ``0`` no fresh findings, ``1`` fresh findings, ``2`` usage
  or scan errors -- a missing path, a file argument that is not ``.py``, a
  scan that visits no ``.py`` file, or a file that does not parse.

DESIGN.md §7 describes the model.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, TextIO

from repro.analysis.detlint.rules import RULES, Finding, check_module

__all__ = [
    "ClassifiedFinding",
    "ScanResult",
    "Suppression",
    "build_parser",
    "main",
    "parse_suppression",
    "render_report",
    "scan_paths",
]


# ---------------------------------------------------------------------------
# Suppression comments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Suppression:
    """One inline suppression: the named rules (empty = all) and rationale."""

    rules: frozenset
    rationale: str

    def covers(self, rule_id: str) -> bool:
        return not self.rules or rule_id in self.rules


_RULE_TOKEN_RE = re.compile(r"[A-Z]+\d+$")

_SUPPRESS_RE = re.compile(r"#\s*detlint:\s*ok(?P<rest>[^\n]*)")


def parse_suppression(line: str) -> Optional[Suppression]:
    """The ``# detlint: ok [RULES...] (rationale)`` suppression on ``line``.

    Returns ``None`` when the line carries no suppression.  The rule list is
    empty for a bare ``ok`` (suppress every rule); everything after the rule
    tokens is the rationale.
    """
    match = _SUPPRESS_RE.search(line)
    if match is None:
        return None
    tokens = match.group("rest").replace(",", " ").split()
    names: List[str] = []
    for token in tokens:
        if not _RULE_TOKEN_RE.match(token):
            break  # rationale text starts here
        names.append(token)
    rationale = " ".join(tokens[len(names):]).strip(" ()-:;")
    return Suppression(rules=frozenset(names), rationale=rationale)


# ---------------------------------------------------------------------------
# Scanning and classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassifiedFinding:
    """A finding plus its disposition (fresh / suppressed)."""

    finding: Finding
    status: str  # "fresh" | "suppressed"
    line_text: str = ""


@dataclass
class ScanResult:
    """Everything one scan produced, ready for reporting and exit codes."""

    findings: List[ClassifiedFinding] = field(default_factory=list)
    files_scanned: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def fresh(self) -> List[ClassifiedFinding]:
        return [item for item in self.findings if item.status == "fresh"]

    @property
    def suppressed(self) -> List[ClassifiedFinding]:
        return [item for item in self.findings if item.status == "suppressed"]

    def counts(self) -> Dict[str, int]:
        return {
            "files": self.files_scanned,
            "findings": len(self.findings),
            "fresh": len(self.fresh),
            "suppressed": len(self.suppressed),
        }

    @property
    def exit_code(self) -> int:
        """2 errors, 1 fresh findings, 0 clean."""
        if self.errors:
            return 2
        return 1 if self.fresh else 0


def _module_name(file_path: Path) -> str:
    """Best-effort dotted module name (for package-aware rules)."""
    parts = list(file_path.with_suffix("").parts)
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    return ".".join(parts)


def _relative(path: Path) -> str:
    try:
        return str(path.relative_to(Path.cwd()))
    except ValueError:
        return str(path)


def _classify(finding: Finding, lines: Sequence[str]) -> ClassifiedFinding:
    line_text = lines[finding.line - 1] if 0 < finding.line <= len(lines) else ""
    suppression = parse_suppression(line_text)
    status = "fresh"
    if suppression is not None and suppression.covers(finding.rule):
        if suppression.rationale:
            status = "suppressed"
        else:
            finding = Finding(
                finding.rule,
                finding.path,
                finding.line,
                finding.message
                + " [suppression has no rationale; write "
                f"`# detlint: ok {finding.rule} (reason)`]",
            )
    return ClassifiedFinding(finding, status, line_text=line_text.strip())


def _python_files(paths: Sequence[Path], errors: List[str]) -> List[Path]:
    """The ``.py`` files under ``paths``; bad arguments become ``errors``."""
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif not path.exists():
            errors.append(f"no such path: {path}")
        elif path.suffix == ".py":
            files.append(path)
        else:
            errors.append(f"not a .py file: {path}")
    if not files and not errors:
        errors.append(
            "no .py file under " + ", ".join(str(path) for path in paths)
        )
    return files


def scan_paths(paths: Sequence[Path]) -> ScanResult:
    """Scan ``paths`` (files and/or directory trees) with detlint."""
    result = ScanResult()
    for file_path in _python_files([Path(p) for p in paths], result.errors):
        rel = _relative(file_path)
        result.files_scanned += 1
        try:
            source = file_path.read_text(encoding="utf-8")
            findings = check_module(source, rel, _module_name(file_path))
        except (OSError, SyntaxError, ValueError) as exc:
            result.errors.append(f"{rel}: {exc}")
            continue
        lines = source.splitlines()
        result.findings.extend(_classify(finding, lines) for finding in findings)
    return result


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def render_report(result: ScanResult, fmt: str, out: TextIO) -> None:
    """Write the findings report (text / github) for ``result``."""
    if fmt == "github":
        # GitHub Actions workflow commands: CI failures annotate the PR diff
        # at the offending file/line.
        for item in result.fresh:
            out.write(
                "::error file={path},line={line},title={rule}::{message}\n".format(
                    path=item.finding.path,
                    line=item.finding.line,
                    rule=item.finding.rule,
                    message=item.finding.message,
                )
            )
        for error in result.errors:
            out.write(f"::error::{error}\n")
    else:
        for item in result.fresh:
            out.write(item.finding.render() + "\n")
            if item.line_text:
                out.write(f"    {item.line_text}\n")
        for error in result.errors:
            out.write(f"error: {error}\n")
    out.write(
        "[detlint] files={files} findings={findings} fresh={fresh} "
        "suppressed={suppressed}\n".format(**result.counts())
    )


# ---------------------------------------------------------------------------
# CLI (``python -m repro.analysis``)
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "detlint: determinism hazards that break the bit-identity "
            "contract (unseeded RNG, wall clocks, env reads, unordered "
            "iteration, shared-column writes)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directory trees to scan (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "github"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console entry point: parse ``argv``, scan, report to stdout; return the exit code."""
    out = sys.stdout
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule in RULES:
            out.write(f"{rule.rule_id}  {rule.name}\n    {rule.hazard}\n")
        return 0
    result = scan_paths(args.paths)
    render_report(result, args.format, out)
    return result.exit_code

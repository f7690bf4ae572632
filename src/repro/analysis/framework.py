"""The multi-pass static-analysis framework behind ``repro analyze``.

One engine, many passes.  A pass (:class:`AnalysisPass`) owns a rule
catalogue and a scanner; the framework owns everything the passes share
(DESIGN.md §7):

* **Scanning**: walk files/directories, parse each ``.py`` file once, feed
  the tree to every selected pass, and classify each finding as **fresh**,
  **suppressed** (an inline ``# <pass>: ok <RULE>`` comment on the offending
  line) or **baselined** (its fingerprint appears in the committed baseline).
* **Suppression** is line-scoped, rule-scoped and pass-tagged: ``# detlint:
  ok DET102 (reason)`` mutes detlint on that line only; lifelint reads
  ``# lifelint: ok``.  Strict mode additionally
  requires a non-empty rationale -- a suppression without one does not
  suppress.
* **Fingerprints** hash the *content* of the offending line, not its number,
  so unrelated edits above a grandfathered finding do not resurrect it; a
  per-content occurrence index keeps duplicate lines distinct.
* **Baseline hygiene**: entries whose fingerprint no longer matches any
  finding are reported as *stale* (they would otherwise silently accumulate)
  and ``--prune-baseline`` rewrites the file without them.
* **Exit codes**: ``0`` no fresh findings, ``1`` fresh findings, ``2`` usage
  or scan errors.  Strict mode disables the baseline entirely; CI runs every
  pass strict, which is the end state this repo maintains.

The two built-in passes are *detlint* (determinism hazards, DET1xx) and
*lifelint* (resource lifecycles, RES3xx); :func:`load_builtin_passes`
registers them.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    TextIO,
    Tuple,
)

__all__ = [
    "AnalysisPass",
    "Baseline",
    "ClassifiedFinding",
    "Finding",
    "Rule",
    "ScanResult",
    "Suppression",
    "all_passes",
    "build_parser",
    "fingerprint",
    "find_default_baseline",
    "get_pass",
    "load_builtin_passes",
    "main",
    "parse_suppression",
    "register_pass",
    "render_report",
    "run",
    "scan_paths",
]


# ---------------------------------------------------------------------------
# Shared vocabulary: findings, rules, passes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


@dataclass(frozen=True)
class Rule:
    """Static description of one lint rule (the check lives in the scanner)."""

    rule_id: str
    name: str
    hazard: str


class PassScanner:
    """Per-scan state for one pass; subclasses override :meth:`check`."""

    def check(
        self, tree: ast.Module, source: str, path: str, module_name: str
    ) -> List[Finding]:
        raise NotImplementedError


@dataclass(frozen=True)
class AnalysisPass:
    """One registered analyzer: a name (the suppression tag), rules, scanner."""

    name: str
    description: str
    rules: Tuple[Rule, ...]
    scanner: Callable[[], PassScanner]

    @property
    def rules_by_id(self) -> Dict[str, Rule]:
        return {rule.rule_id: rule for rule in self.rules}


_PASSES: Dict[str, AnalysisPass] = {}

#: The built-in pass modules, imported on demand (registration happens at
#: their import).  Tuple order is the canonical report order -- registration
#: order cannot be trusted for it, because anything may import a single pass
#: module directly before :func:`load_builtin_passes` runs.
_BUILTIN_PASS_MODULES = (
    "repro.analysis.detlint.rules",
    "repro.analysis.lifelint.rules",
)

_BUILTIN_PASS_ORDER = ("detlint", "lifelint")


def register_pass(analysis_pass: AnalysisPass) -> AnalysisPass:
    """Register (or re-register) a pass under its name; returns it."""
    _PASSES[analysis_pass.name] = analysis_pass
    return analysis_pass


def load_builtin_passes() -> None:
    """Import the built-in pass modules so they self-register."""
    import importlib

    for module in _BUILTIN_PASS_MODULES:
        importlib.import_module(module)


def all_passes() -> Tuple[AnalysisPass, ...]:
    """Every registered pass, built-ins first in canonical order."""
    load_builtin_passes()
    ordered = [_PASSES[name] for name in _BUILTIN_PASS_ORDER if name in _PASSES]
    ordered.extend(
        analysis_pass
        for name, analysis_pass in _PASSES.items()
        if name not in _BUILTIN_PASS_ORDER
    )
    return tuple(ordered)


def get_pass(name: str) -> AnalysisPass:
    load_builtin_passes()
    try:
        return _PASSES[name]
    except KeyError:
        raise KeyError(
            f"unknown analysis pass {name!r}; registered: {sorted(_PASSES)}"
        ) from None


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

_SUPPRESS_RES: Dict[str, re.Pattern] = {}


def _suppress_re(tag: str) -> re.Pattern:
    pattern = _SUPPRESS_RES.get(tag)
    if pattern is None:
        pattern = re.compile(rf"#\s*{re.escape(tag)}:\s*ok(?P<rest>[^\n]*)")
        _SUPPRESS_RES[tag] = pattern
    return pattern


def parse_suppression(line: str, tag: str = "detlint") -> Optional[Suppression]:
    """The ``# <tag>: ok [RULES...] (rationale)`` suppression on ``line``.

    Returns ``None`` when the line carries no suppression for ``tag``.  The
    rule list is empty for a bare ``ok`` (suppress every rule of the pass);
    everything after the rule tokens is the rationale (strict mode requires
    it to be non-empty).
    """
    match = _suppress_re(tag).search(line)
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
# Fingerprints and the baseline
# ---------------------------------------------------------------------------

#: Baseline file schema version.
BASELINE_VERSION = 1

#: Default baseline filename, looked up at each scan root's top level.  One
#: file serves every pass: rule ids are globally unique, so fingerprints
#: cannot collide across passes.
BASELINE_FILENAME = "detlint-baseline.json"


def fingerprint(path: str, rule: str, line_text: str, occurrence: int) -> str:
    """Stable identity of a finding: content-addressed, line-number-free."""
    normalized = " ".join(line_text.split())
    payload = f"{path}::{rule}::{normalized}::{occurrence}".encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:20]


@dataclass
class Baseline:
    """The committed set of grandfathered finding fingerprints."""

    path: Optional[Path] = None
    fingerprints: frozenset = frozenset()
    #: The normalized entry dicts as loaded, for stale-pruning rewrites.
    entries: Tuple[dict, ...] = ()

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        data = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(data, dict) or int(data.get("version", -1)) != BASELINE_VERSION:
            raise ValueError(
                f"baseline {path} has unsupported schema "
                f"(expected version {BASELINE_VERSION})"
            )
        raw_entries = data.get("entries", [])
        if not isinstance(raw_entries, list):
            raise ValueError(f"baseline {path}: 'entries' must be a list")
        entries: List[dict] = []
        for index, entry in enumerate(raw_entries):
            if isinstance(entry, str):
                entries.append({"fingerprint": entry})
            elif isinstance(entry, dict) and isinstance(entry.get("fingerprint"), str):
                entries.append(dict(entry))
            else:
                # Malformed entries used to slip through silently (and then
                # never match anything -- a permanently stale accept).
                raise ValueError(
                    f"baseline {path}: entry {index} has no string 'fingerprint'"
                )
        prints = frozenset(entry["fingerprint"] for entry in entries)
        return cls(path=path, fingerprints=prints, entries=tuple(entries))

    @staticmethod
    def write(path: Path, findings: Sequence["ClassifiedFinding"]) -> None:
        """Persist ``findings`` as the new baseline (sorted, reviewable)."""
        entries = [
            {
                "rule": item.finding.rule,
                "path": item.finding.path,
                "fingerprint": item.fingerprint,
            }
            for item in findings
        ]
        Baseline.write_entries(path, entries)

    @staticmethod
    def write_entries(path: Path, entries: Sequence[dict]) -> None:
        ordered = sorted(
            entries,
            key=lambda entry: (
                entry.get("path", ""),
                entry.get("rule", ""),
                entry["fingerprint"],
            ),
        )
        payload = {"version": BASELINE_VERSION, "entries": ordered}
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def find_default_baseline(paths: Sequence[Path]) -> Optional[Path]:
    """The nearest committed baseline for ``paths``: cwd, then parents of each path."""
    candidates = [Path.cwd() / BASELINE_FILENAME]
    for path in paths:
        resolved = Path(path).resolve()
        for parent in [resolved, *resolved.parents]:
            candidates.append(parent / BASELINE_FILENAME)
    for candidate in candidates:
        if candidate.is_file():
            return candidate
    return None


# ---------------------------------------------------------------------------
# Scanning and classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassifiedFinding:
    """A finding plus its disposition (fresh / suppressed / baselined)."""

    finding: Finding
    fingerprint: str
    status: str  # "fresh" | "suppressed" | "baselined"
    line_text: str = ""
    pass_name: str = "detlint"


@dataclass
class ScanResult:
    """Everything one scan produced, ready for reporting and exit codes."""

    findings: List[ClassifiedFinding] = field(default_factory=list)
    files_scanned: int = 0
    errors: List[str] = field(default_factory=list)
    #: Names of the passes that ran, in report order.
    passes: Tuple[str, ...] = ("detlint",)
    #: Baseline fingerprints that matched no finding this scan (hygiene).
    stale_fingerprints: List[str] = field(default_factory=list)

    @property
    def fresh(self) -> List[ClassifiedFinding]:
        return [item for item in self.findings if item.status == "fresh"]

    @property
    def suppressed(self) -> List[ClassifiedFinding]:
        return [item for item in self.findings if item.status == "suppressed"]

    @property
    def baselined(self) -> List[ClassifiedFinding]:
        return [item for item in self.findings if item.status == "baselined"]

    def counts(self) -> Dict[str, int]:
        return {
            "files": self.files_scanned,
            "findings": len(self.findings),
            "fresh": len(self.fresh),
            "suppressed": len(self.suppressed),
            "baselined": len(self.baselined),
            "errors": len(self.errors),
            "stale": len(self.stale_fingerprints),
        }

    def pass_counts(self, pass_name: str) -> Dict[str, int]:
        subset = [item for item in self.findings if item.pass_name == pass_name]
        return {
            "files": self.files_scanned,
            "findings": len(subset),
            "fresh": sum(1 for item in subset if item.status == "fresh"),
            "suppressed": sum(1 for item in subset if item.status == "suppressed"),
            "baselined": sum(1 for item in subset if item.status == "baselined"),
        }


def _iter_python_files(paths: Sequence[Path]) -> Iterable[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def _module_name(file_path: Path) -> str:
    """Best-effort dotted module name (for package-aware rules)."""
    parts = list(file_path.with_suffix("").parts)
    for marker in ("src",):
        if marker in parts:
            parts = parts[parts.index(marker) + 1:]
            break
    return ".".join(parts)


def _relative(path: Path) -> str:
    try:
        return str(path.relative_to(Path.cwd()))
    except ValueError:
        return str(path)


class _Classifier:
    """Shared per-scan classification state (occurrences, baseline matches)."""

    def __init__(self, baseline: Optional[Baseline], strict: bool) -> None:
        self.baseline_prints = (
            baseline.fingerprints if baseline is not None else frozenset()
        )
        self.strict = strict
        self.matched_prints: set = set()
        self._occurrences: Dict[Tuple[str, str, str], int] = {}

    def classify(
        self,
        analysis_pass: AnalysisPass,
        finding: Finding,
        lines: Sequence[str],
    ) -> Optional[ClassifiedFinding]:
        if finding.rule not in analysis_pass.rules_by_id:  # pragma: no cover
            return None  # rule-table drift guard
        line_text = (
            lines[finding.line - 1] if 0 < finding.line <= len(lines) else ""
        )
        normalized = " ".join(line_text.split())
        occ_key = (finding.path, finding.rule, normalized)
        occurrence = self._occurrences.get(occ_key, 0)
        self._occurrences[occ_key] = occurrence + 1
        print_ = fingerprint(finding.path, finding.rule, line_text, occurrence)
        if print_ in self.baseline_prints:
            self.matched_prints.add(print_)
        suppression = parse_suppression(line_text, tag=analysis_pass.name)
        if suppression is not None and suppression.covers(finding.rule):
            if self.strict and not suppression.rationale:
                finding = Finding(
                    finding.rule,
                    finding.path,
                    finding.line,
                    finding.message
                    + f" [suppression has no rationale; strict mode requires "
                    f"`# {analysis_pass.name}: ok {finding.rule} (reason)`]",
                )
                status = "fresh"
            else:
                status = "suppressed"
        elif print_ in self.baseline_prints:
            status = "baselined"
        else:
            status = "fresh"
        return ClassifiedFinding(
            finding,
            print_,
            status,
            line_text=line_text.strip(),
            pass_name=analysis_pass.name,
        )


def scan_paths(
    paths: Sequence[Path],
    passes: Optional[Sequence[AnalysisPass]] = None,
    baseline: Optional[Baseline] = None,
    strict: bool = False,
) -> ScanResult:
    """Scan ``paths`` (files and/or directory trees) with ``passes``.

    ``strict`` disables the baseline (grandfathered findings are classified
    as fresh) and requires every inline suppression to carry a rationale --
    suppressions remain visible, reviewed decisions at the offending line,
    never a side file.  ``passes`` defaults to every registered pass.
    """
    selected = tuple(passes) if passes is not None else all_passes()
    result = ScanResult(passes=tuple(p.name for p in selected))
    effective = None if strict else baseline
    classifier = _Classifier(effective, strict)
    scanners = [(p, p.scanner()) for p in selected]
    for file_path in _iter_python_files([Path(p) for p in paths]):
        rel = _relative(file_path)
        result.files_scanned += 1
        try:
            source = file_path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=rel)
        except (OSError, SyntaxError, ValueError) as exc:
            result.errors.append(f"{rel}: {exc}")
            continue
        lines = source.splitlines()
        module = _module_name(file_path)
        for analysis_pass, scanner in scanners:
            for finding in scanner.check(tree, source, rel, module):
                item = classifier.classify(analysis_pass, finding, lines)
                if item is not None:
                    result.findings.append(item)
    if effective is not None:
        result.stale_fingerprints = sorted(
            effective.fingerprints - classifier.matched_prints
        )
    return result


def scan_file(
    file_path: Path,
    passes: Optional[Sequence[AnalysisPass]] = None,
    baseline: Optional[Baseline] = None,
) -> Tuple[List[ClassifiedFinding], Optional[str]]:
    """Scan one file; returns ``(classified findings, error message or None)``."""
    result = scan_paths([file_path], passes=passes, baseline=baseline)
    return result.findings, (result.errors[0] if result.errors else None)


def exit_code(result: ScanResult) -> int:
    """The shared exit-code model: 2 errors, 1 fresh findings, 0 clean."""
    if result.errors:
        return 2
    return 1 if result.fresh else 0


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def render_report(result: ScanResult, fmt: str, out: TextIO) -> None:
    """Write the findings report (text / json / github) for ``result``."""
    if fmt == "json":
        payload = {
            "counts": result.counts(),
            "passes": {name: result.pass_counts(name) for name in result.passes},
            "findings": [
                {
                    "pass": item.pass_name,
                    "rule": item.finding.rule,
                    "path": item.finding.path,
                    "line": item.finding.line,
                    "status": item.status,
                    "fingerprint": item.fingerprint,
                    "message": item.finding.message,
                }
                for item in result.findings
            ],
            "errors": result.errors,
            "stale": result.stale_fingerprints,
        }
        out.write(json.dumps(payload, indent=2) + "\n")
        return
    if fmt == "github":
        # GitHub Actions workflow commands: strict CI failures annotate the
        # PR diff at the offending file/line.
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
        for print_ in result.stale_fingerprints:
            out.write(
                f"::warning::stale baseline entry {print_} matches no finding "
                "(run --prune-baseline)\n"
            )
        _render_footers(result, out)
        return
    for item in result.fresh:
        out.write(item.finding.render() + "\n")
        if item.line_text:
            out.write(f"    {item.line_text}\n")
    for error in result.errors:
        out.write(f"error: {error}\n")
    if result.stale_fingerprints:
        out.write(
            f"[analyze] baseline: {len(result.stale_fingerprints)} stale "
            "entries match no finding (run --prune-baseline to drop them)\n"
        )
    _render_footers(result, out)


def _render_footers(result: ScanResult, out: TextIO) -> None:
    for name in result.passes:
        counts = result.pass_counts(name)
        out.write(
            "[{name}] files={files} findings={findings} fresh={fresh} "
            "suppressed={suppressed} baselined={baselined}\n".format(
                name=name, **counts
            )
        )


# ---------------------------------------------------------------------------
# CLI (``repro analyze`` / ``python -m repro.analysis``)
# ---------------------------------------------------------------------------


def build_parser(prog: str = "repro-analyze") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description=(
            "Static-analysis passes for the bit-identity contract: detlint "
            "(determinism hazards) and lifelint (shared-memory and executor "
            "lifecycles)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directory trees to scan (default: src)",
    )
    parser.add_argument(
        "--pass",
        dest="pass_name",
        choices=("detlint", "lifelint", "all"),
        default="all",
        help="which analyzer to run (default: all)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="ignore the baseline and require suppression rationales: every "
        "unsuppressed finding fails (CI mode)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help="baseline file of grandfathered findings "
        f"(default: nearest {BASELINE_FILENAME})",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="do not load any baseline file",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="rewrite the baseline to grandfather every current finding, "
        "then exit 0",
    )
    parser.add_argument(
        "--prune-baseline",
        action="store_true",
        help="rewrite the baseline without stale entries (fingerprints that "
        "no longer match any finding), then exit 0",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue of the selected passes and exit",
    )
    return parser


def _selected_passes(pass_name: str) -> Tuple[AnalysisPass, ...]:
    if pass_name == "all":
        return all_passes()
    return (get_pass(pass_name),)


def run(argv: Optional[Sequence[str]] = None, out: Optional[TextIO] = None) -> int:
    """Parse ``argv``, scan, report to ``out`` (default stdout); return exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    selected = _selected_passes(args.pass_name)

    if args.list_rules:
        for analysis_pass in selected:
            out.write(f"[{analysis_pass.name}] {analysis_pass.description}\n")
            for rule in analysis_pass.rules:
                out.write(f"{rule.rule_id}  {rule.name}\n    {rule.hazard}\n")
        return 0

    paths: List[Path] = [Path(p) for p in args.paths]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        out.write(f"error: no such path: {', '.join(missing)}\n")
        return 2

    baseline: Optional[Baseline] = None
    if not args.no_baseline:
        baseline_path = (
            Path(args.baseline) if args.baseline else find_default_baseline(paths)
        )
        if args.baseline and not Path(args.baseline).is_file():
            out.write(f"error: baseline file {args.baseline} does not exist\n")
            return 2
        if baseline_path is not None:
            try:
                baseline = Baseline.load(baseline_path)
            except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
                out.write(f"error: cannot load baseline {baseline_path}: {exc}\n")
                return 2

    result = scan_paths(paths, passes=selected, baseline=baseline, strict=args.strict)

    if args.write_baseline:
        target = (
            Path(args.baseline)
            if args.baseline
            else (
                baseline.path
                if baseline and baseline.path
                else Path(BASELINE_FILENAME)
            )
        )
        # Grandfather everything that is not inline-suppressed.
        Baseline.write(
            target,
            [item for item in result.findings if item.status != "suppressed"],
        )
        out.write(
            f"[analyze] wrote baseline {target} ({len(result.findings)} findings)\n"
        )
        return 0

    if args.prune_baseline:
        if baseline is None or baseline.path is None:
            out.write("error: --prune-baseline needs a baseline file to prune\n")
            return 2
        stale = set(result.stale_fingerprints)
        kept = [e for e in baseline.entries if e["fingerprint"] not in stale]
        Baseline.write_entries(baseline.path, kept)
        out.write(
            f"[analyze] pruned {len(stale)} stale entries from {baseline.path} "
            f"({len(kept)} kept)\n"
        )
        return 0

    render_report(result, args.format, out)
    return exit_code(result)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console entry point (kept separate so tests can call :func:`run`)."""
    return run(argv)

"""Command-line front end for the determinism lint, detlint only.

This is the PR 7 single-pass CLI, kept byte-compatible for
``scripts/detlint.py`` and existing callers.  The multi-pass front end
(detlint + lifelint, ``--pass`` selection, ``--format github``,
``--prune-baseline``) lives in :mod:`repro.analysis.framework` and backs
``python -m repro.analysis`` and ``repro analyze``.

Exit codes: ``0`` no fresh findings, ``1`` fresh findings, ``2`` usage or
scan errors (unparseable file, broken baseline).  Strict mode ignores the
baseline so CI enforces a zero-finding tree; see DESIGN.md §7.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence, TextIO

from repro.analysis.detlint.engine import (
    Baseline,
    ScanResult,
    find_default_baseline,
    scan_paths,
)
from repro.analysis.detlint.rules import RULES

__all__ = ["main", "build_parser", "run", "render_report"]


def build_parser(prog: str = "detlint") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description=(
            "Determinism lint: static checks for the hazards that break the "
            "bit-identity contract (unseeded RNG, wall-clock reads, stray "
            "env lookups, unordered iteration, shared-state writes)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directory trees to scan (default: src)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="ignore the baseline: every unsuppressed finding fails (CI mode)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help="baseline file of grandfathered findings "
        "(default: nearest detlint-baseline.json)",
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
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def render_report(result: ScanResult, fmt: str, out: TextIO) -> None:
    """Write the findings report (text or json) for ``result`` to ``out``."""
    if fmt == "json":
        payload = {
            "counts": result.counts(),
            "findings": [
                {
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
        }
        out.write(json.dumps(payload, indent=2) + "\n")
        return
    for item in result.findings:
        if item.status == "fresh":
            out.write(item.finding.render() + "\n")
            if item.line_text:
                out.write(f"    {item.line_text}\n")
    for error in result.errors:
        out.write(f"error: {error}\n")
    counts = result.counts()
    out.write(
        "[detlint] files={files} findings={findings} fresh={fresh} "
        "suppressed={suppressed} baselined={baselined}\n".format(**counts)
    )


def run(argv: Optional[Sequence[str]] = None, out: Optional[TextIO] = None) -> int:
    """Parse ``argv``, scan, report to ``out`` (default stdout); return exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
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

    result = scan_paths(paths, baseline=baseline, strict=args.strict)

    if args.write_baseline:
        target = (
            Path(args.baseline)
            if args.baseline
            else (baseline.path if baseline and baseline.path else Path("detlint-baseline.json"))
        )
        # Grandfather everything that is not inline-suppressed.
        Baseline.write(
            target,
            [item for item in result.findings if item.status != "suppressed"],
        )
        out.write(f"[detlint] wrote baseline {target} ({len(result.findings)} findings)\n")
        return 0

    render_report(result, args.format, out)
    if result.errors:
        return 2
    return 1 if result.fresh else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console entry point (kept separate so tests can call :func:`run`)."""
    return run(argv)

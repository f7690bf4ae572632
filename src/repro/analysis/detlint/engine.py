"""detlint's scanning surface, now hosted by the analysis framework.

The suppression/fingerprint/baseline machinery began here and now lives,
generalized, in :mod:`repro.analysis.framework`, where lifelint shares it.  This module keeps detlint's original programmatic API --
``scan_paths(paths, baseline, strict)``, ``suppressed_rules(line)``,
``Baseline``, ``fingerprint`` -- as thin delegations that run exactly the
detlint pass, so PR 7 callers and tests see identical behavior.  See
DESIGN.md §7 for the framework model (fresh / suppressed / baselined,
content-addressed fingerprints, strict mode).
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.analysis.framework import (
    BASELINE_FILENAME,
    BASELINE_VERSION,
    Baseline,
    ClassifiedFinding,
    ScanResult,
    find_default_baseline,
    fingerprint,
    parse_suppression,
)
from repro.analysis.framework import scan_file as _framework_scan_file
from repro.analysis.framework import scan_paths as _framework_scan_paths
from repro.analysis.detlint.rules import DETLINT_PASS

__all__ = [
    "BASELINE_FILENAME",
    "BASELINE_VERSION",
    "Baseline",
    "ScanResult",
    "ClassifiedFinding",
    "find_default_baseline",
    "scan_file",
    "scan_paths",
    "suppressed_rules",
    "fingerprint",
]


def suppressed_rules(line: str) -> Optional[frozenset]:
    """The rule ids suppressed on ``line``.

    Returns ``None`` when the line carries no suppression, an empty frozenset
    for a bare ``# detlint: ok`` (suppress every rule) and the named ids
    otherwise.
    """
    suppression = parse_suppression(line, tag=DETLINT_PASS.name)
    return None if suppression is None else suppression.rules


def scan_file(
    file_path: Path, baseline: Optional[Baseline] = None
) -> Tuple[List[ClassifiedFinding], Optional[str]]:
    """Scan one file with detlint; ``(classified findings, error or None)``."""
    return _framework_scan_file(file_path, passes=(DETLINT_PASS,), baseline=baseline)


def scan_paths(
    paths: Sequence[Path],
    baseline: Optional[Baseline] = None,
    strict: bool = False,
) -> ScanResult:
    """Scan ``paths`` (files and/or directory trees) with the detlint pass.

    ``strict`` disables the baseline: grandfathered findings are classified
    as fresh (inline suppressions still apply -- they are visible, reviewed
    decisions at the offending line, not a side file -- but must carry a
    rationale).
    """
    return _framework_scan_paths(
        paths, passes=(DETLINT_PASS,), baseline=baseline, strict=strict
    )

"""Applying simlint auto-fixes: ``eona lint --fix`` / ``--fix --check``.

A :class:`~repro.analysis.core.Fix` is a bundle of textual edits inside
one file.  This module groups the fixes carried by a finding list per
file, resolves them to absolute offsets, drops any fix that overlaps an
already-accepted one (first-come in finding order wins; the dropped
finding simply stays reported), and rewrites the files.

``--fix`` applies the edits and the runner re-lints from disk, so the
final report reflects the repaired tree.  ``--fix --check`` computes
the same edits but writes nothing: it reports the files that *would*
change, which is the CI idempotency gate (a committed tree must be a
fixed point of the fixer).
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.core import Edit, Finding


@dataclasses.dataclass(frozen=True)
class FileFixResult:
    """Outcome of fixing one file."""

    path: str
    fixed_findings: int
    skipped_findings: int  # fixes dropped because they overlapped
    changed: bool
    new_source: str


@dataclasses.dataclass(frozen=True)
class FixReport:
    """Outcome of a whole ``--fix`` pass."""

    files: Tuple[FileFixResult, ...]

    @property
    def changed_files(self) -> List[str]:
        return [f.path for f in self.files if f.changed]


def _line_offsets(source: str) -> List[int]:
    offsets = [0]
    for line in source.splitlines(keepends=True):
        offsets.append(offsets[-1] + len(line))
    return offsets


def _to_span(edit: Edit, offsets: List[int]) -> Optional[Tuple[int, int, str]]:
    """(start, end, text) absolute span, or ``None`` if out of range."""
    last_line = len(offsets) - 1
    if not (1 <= edit.line <= last_line) or not (1 <= edit.end_line <= last_line + 1):
        return None
    start = offsets[edit.line - 1] + edit.col
    if edit.end_line > last_line:
        end = offsets[-1]
    else:
        end = offsets[edit.end_line - 1] + edit.end_col
    if start > end or end > offsets[-1]:
        return None
    return start, end, edit.text


def fix_file(source: str, findings: Sequence[Finding]) -> Tuple[str, int, int]:
    """Apply every non-overlapping fix to ``source``.

    Returns ``(new_source, fixed, skipped)``.  Findings are processed in
    their sorted (report) order; a fix whose edits overlap an accepted
    one is skipped whole, so the result never interleaves half-applied
    repairs.
    """
    offsets = _line_offsets(source)
    accepted: List[Tuple[int, int, str]] = []
    fixed = skipped = 0
    for finding in sorted(findings):
        if finding.fix is None:
            continue
        spans = [_to_span(edit, offsets) for edit in finding.fix.edits]
        if any(span is None for span in spans):
            skipped += 1
            continue
        resolved = sorted(s for s in spans if s is not None)
        if _overlaps(resolved, accepted):
            skipped += 1
            continue
        accepted.extend(resolved)
        fixed += 1
    if not accepted:
        return source, 0, skipped
    accepted.sort(reverse=True)
    out = source
    for start, end, text in accepted:
        out = out[:start] + text + out[end:]
    return out, fixed, skipped


def _overlaps(
    candidate: Sequence[Tuple[int, int, str]],
    accepted: Sequence[Tuple[int, int, str]],
) -> bool:
    for start, end, _ in candidate:
        for other_start, other_end, _ in accepted:
            # Two pure insertions at the same point do conflict (order
            # would be ambiguous); otherwise touching endpoints are fine.
            if start == end and other_start == other_end:
                if start == other_start:
                    return True
                continue
            if start < other_end and other_start < end:
                return True
            if start == end and other_start < start < other_end:
                return True
            if other_start == other_end and start < other_start < end:
                return True
    return False


def plan_fixes(
    findings: Sequence[Finding],
    sources: Dict[str, str],
) -> FixReport:
    """Compute (without writing) the result of fixing each file."""
    by_path: Dict[str, List[Finding]] = {}
    for finding in findings:
        if finding.fix is not None:
            by_path.setdefault(finding.path, []).append(finding)
    results: List[FileFixResult] = []
    for path in sorted(by_path):
        source = sources.get(path)
        if source is None:
            continue
        new_source, fixed, skipped = fix_file(source, by_path[path])
        results.append(
            FileFixResult(
                path=path,
                fixed_findings=fixed,
                skipped_findings=skipped,
                changed=new_source != source,
                new_source=new_source,
            )
        )
    return FixReport(files=tuple(results))


def write_fixes(report: FixReport, abs_paths: Dict[str, Path]) -> List[str]:
    """Write changed files back to disk; returns the paths written."""
    written: List[str] = []
    for result in report.files:
        if not result.changed:
            continue
        target = abs_paths.get(result.path)
        if target is None:
            continue
        target.write_text(result.new_source, encoding="utf-8")
        written.append(result.path)
    return written

"""Committed-baseline workflow: ratchet simlint instead of big-banging it.

A baseline is a committed JSON snapshot of the findings a tree is known
(and for now allowed) to have.  CI then gates on the *delta*: new
findings fail the build, pre-existing ones do not, and the baseline can
only shrink over time.

Entries are keyed by ``(path, rule, message)`` with a count -- no line
numbers -- so unrelated edits that shift code up or down never
invalidate the baseline; only genuinely new findings (or more instances
of an old one in the same file) surface as delta.

* ``eona lint --baseline simlint-baseline.json`` writes the snapshot,
* ``eona lint --against-baseline simlint-baseline.json`` reports only
  findings in excess of it (exit 1 when any exist).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.analysis.core import Finding

BASELINE_VERSION = 1

_Key = Tuple[str, str, str]


class BaselineError(ValueError):
    """Raised for unreadable or structurally invalid baseline files."""


def _key(finding: Finding) -> _Key:
    return (finding.path, finding.rule, finding.message)


def counts(findings: Sequence[Finding]) -> Dict[_Key, int]:
    out: Dict[_Key, int] = {}
    for finding in findings:
        key = _key(finding)
        out[key] = out.get(key, 0) + 1
    return out


def render_baseline(findings: Sequence[Finding]) -> str:
    """Serialize findings to the committed baseline format (stable order)."""
    entries = [
        {"path": path, "rule": rule, "message": message, "count": count}
        for (path, rule, message), count in sorted(counts(findings).items())
    ]
    payload = {
        "tool": "simlint",
        "version": BASELINE_VERSION,
        "entries": entries,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def load_baseline(path: Path) -> Dict[_Key, int]:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise BaselineError(f"cannot read baseline {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("tool") != "simlint":
        raise BaselineError(f"{path} is not a simlint baseline file")
    version = payload.get("version")
    if version != BASELINE_VERSION:
        raise BaselineError(
            f"{path} has baseline version {version!r}; this simlint "
            f"understands version {BASELINE_VERSION}"
        )
    entries = payload.get("entries")
    if not isinstance(entries, list):
        raise BaselineError(f"{path} has no 'entries' list")
    out: Dict[_Key, int] = {}
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise BaselineError(f"{path}: entries[{index}] is not an object")
        try:
            key = (str(entry["path"]), str(entry["rule"]), str(entry["message"]))
            count = int(entry.get("count", 1))
        except (KeyError, TypeError, ValueError) as exc:
            raise BaselineError(
                f"{path}: entries[{index}] is malformed: {exc}"
            ) from exc
        out[key] = out.get(key, 0) + count
    return out


def delta(
    findings: Sequence[Finding], baseline: Dict[_Key, int]
) -> List[Finding]:
    """Findings in excess of the baseline, in report order.

    When a file has more instances of an identical (rule, message) than
    the baseline recorded, the *last* instances in line order are the
    ones reported -- a stable, if arbitrary, choice.
    """
    remaining = dict(baseline)
    out: List[Finding] = []
    for finding in sorted(findings):
        key = _key(finding)
        if remaining.get(key, 0) > 0:
            remaining[key] -= 1
        else:
            out.append(finding)
    return out

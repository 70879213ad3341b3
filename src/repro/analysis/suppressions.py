"""Per-line suppression of simlint findings.

A trailing comment disarms rules on its physical line::

    if rate != 0.0:  # simlint: ignore[float-eq]
    foo()            # simlint: ignore          (all rules on this line)
    bar()            # simlint: ignore[rule-a, rule-b]

Suppressions are parsed from the token stream (not regex over raw lines)
so comments inside string literals never count.

:func:`collect_suppression_comments` returns the precise spans of each
comment and of every rule id inside it, which is what the
``stale-suppression`` meta-rule needs to delete a single stale id (or
the whole comment) without touching the code before it.
"""

from __future__ import annotations

import dataclasses
import io
import re
import tokenize
from typing import Dict, FrozenSet, List, Tuple

#: Sentinel meaning "suppress every rule on this line".
ALL_RULES: FrozenSet[str] = frozenset({"*"})

_PATTERN = re.compile(
    r"#\s*simlint:\s*ignore(?:\[(?P<rules>[A-Za-z0-9_,\- ]+)\])?"
)


@dataclasses.dataclass(frozen=True)
class SuppressionComment:
    """One ``# simlint: ignore[...]`` comment, with spans for auto-fix.

    ``col`` / ``end_col`` cover the simlint directive inside the comment
    token; ``comment_col`` is where the comment token itself starts
    (deleting from there removes any ``#`` and padding before the
    directive).  ``rule_spans`` maps each listed rule id to its
    ``(start_col, end_col)`` inside the line; empty for a bare
    ``# simlint: ignore``.
    """

    line: int
    col: int
    end_col: int
    comment_col: int
    rules: FrozenSet[str]
    rule_spans: Tuple[Tuple[str, int, int], ...]

    @property
    def is_blanket(self) -> bool:
        return self.rules == ALL_RULES


def collect_suppression_comments(source: str) -> List[SuppressionComment]:
    """Every simlint suppression comment in the file, in line order."""
    out: List[SuppressionComment] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _PATTERN.search(token.string)
            if not match:
                continue
            base = token.start[1]
            rules_group = match.group("rules")
            spans: List[Tuple[str, int, int]] = []
            if rules_group is None:
                ids = ALL_RULES
            else:
                offset = base + match.start("rules")
                cursor = 0
                names: List[str] = []
                for part in rules_group.split(","):
                    stripped = part.strip()
                    if stripped:
                        start = offset + cursor + part.index(stripped)
                        spans.append((stripped, start, start + len(stripped)))
                        names.append(stripped)
                    cursor += len(part) + 1  # +1 for the comma
                ids = frozenset(names)
            out.append(
                SuppressionComment(
                    line=token.start[0],
                    col=base + match.start(),
                    end_col=base + match.end(),
                    comment_col=base,
                    rules=ids,
                    rule_spans=tuple(spans),
                )
            )
    except tokenize.TokenError:
        # Unterminated constructs: the AST parse will have failed anyway.
        pass
    return out


def collect_suppressions(source: str) -> Dict[int, FrozenSet[str]]:
    """Map line number -> set of suppressed rule ids ('*' = all)."""
    suppressed: Dict[int, FrozenSet[str]] = {}
    for comment in collect_suppression_comments(source):
        suppressed[comment.line] = (
            suppressed.get(comment.line, frozenset()) | comment.rules
        )
    return suppressed


def is_suppressed(
    suppressions: Dict[int, FrozenSet[str]], line: int, rule_id: str
) -> bool:
    ids = suppressions.get(line)
    if ids is None:
        return False
    return "*" in ids or rule_id in ids

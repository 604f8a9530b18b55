"""Inline suppressions: ``# repro: allow[RULE] — justification``.

A suppression silences a rule on the line it sits on; a comment standing
alone on its own line silences the *next* source line (so long violating
lines can keep the justification above them).  Every suppression must carry
a one-line justification after the bracket — the point of a suppression is
to record *why* the invariant provably holds here, not to make the linter
quiet.  The checker itself enforces that:

* ``SUP001`` — an *orphan* suppression: no violation of the named rule was
  produced on the covered line, so the comment is stale (the code was fixed,
  the rule changed, or the code was never violating).  Orphans rot into
  misleading documentation and can mask a future real violation, so they
  fail the build exactly like the violation they once silenced.
* ``SUP002`` — a suppression without a justification.

Multiple rules can share one comment: ``# repro: allow[DET001,DET002] — ...``.
The meta codes SUP001/SUP002 are themselves not suppressible.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from repro.analysis.base import Violation

#: Matches the suppression comment anywhere in a line.
SUPPRESSION_RE = re.compile(
    r"#\s*repro:\s*allow\[(?P<codes>[A-Za-z0-9_,\s]+)\]\s*(?P<rest>.*)$"
)

#: Leading separators allowed between the bracket and the justification.
_JUSTIFICATION_PREFIX_RE = re.compile(r"^[-—–:\s]+")

#: Codes that can never be suppressed (the suppression checker itself).
UNSUPPRESSIBLE = frozenset({"SUP001", "SUP002"})


@dataclass
class Suppression:
    """One parsed suppression comment."""

    path: str
    line: int           #: line the comment sits on (1-based)
    target_line: int    #: line whose violations it silences
    codes: Tuple[str, ...]
    justification: str
    used: Dict[str, bool] = field(default_factory=dict)


def _comment_tokens(source: str) -> List[Tuple[int, int, str]]:
    """(line, column, text) of every real comment token in *source*.

    Tokenizing (rather than regex over raw lines) keeps suppression examples
    inside docstrings and string literals from being treated as live
    suppressions.
    """
    comments: List[Tuple[int, int, str]] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type == tokenize.COMMENT:
                comments.append((token.start[0], token.start[1], token.string))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass  # unparsable files are reported as PARSE001 by the walker
    return comments


def parse_suppressions(path: str, lines: List[str]) -> List[Suppression]:
    """Extract every suppression comment from *lines* (1-based line numbers)."""
    found: List[Suppression] = []
    for line, column, text in _comment_tokens("\n".join(lines)):
        match = SUPPRESSION_RE.search(text)
        if match is None:
            continue
        codes = tuple(
            code.strip().upper()
            for code in match.group("codes").split(",")
            if code.strip()
        )
        justification = _JUSTIFICATION_PREFIX_RE.sub("", match.group("rest")).strip()
        # A comment on its own line covers the next line; a trailing comment
        # covers its own line.
        comment_only = lines[line - 1][:column].strip() == ""
        target_line = line + 1 if comment_only else line
        found.append(
            Suppression(
                path=path,
                line=line,
                target_line=target_line,
                codes=codes,
                justification=justification,
                used={code: False for code in codes},
            )
        )
    return found


def apply_suppressions(
    violations: Iterable[Violation], suppressions: Iterable[Suppression]
) -> Tuple[List[Violation], List[Violation]]:
    """Filter suppressed violations and report suppression misuse.

    Returns ``(kept, meta)``: the violations that survive, and the SUP001
    (orphan) / SUP002 (missing justification) findings for the suppression
    comments themselves.
    """
    by_target: Dict[Tuple[str, int], List[Suppression]] = {}
    all_suppressions: List[Suppression] = []
    for suppression in suppressions:
        all_suppressions.append(suppression)
        by_target.setdefault(
            (suppression.path, suppression.target_line), []
        ).append(suppression)

    kept: List[Violation] = []
    for violation in violations:
        matched = False
        if violation.code not in UNSUPPRESSIBLE:
            for suppression in by_target.get((violation.path, violation.line), ()):
                if violation.code in suppression.codes:
                    suppression.used[violation.code] = True
                    matched = True
        if not matched:
            kept.append(violation)

    meta: List[Violation] = []
    for suppression in all_suppressions:
        if not suppression.justification:
            meta.append(
                Violation(
                    path=suppression.path,
                    line=suppression.line,
                    column=1,
                    code="SUP002",
                    message=(
                        "suppression is missing a justification; write "
                        "'# repro: allow[CODE] — why this is safe'"
                    ),
                )
            )
        for code in suppression.codes:
            if not suppression.used.get(code, False):
                meta.append(
                    Violation(
                        path=suppression.path,
                        line=suppression.line,
                        column=1,
                        code="SUP001",
                        message=(
                            f"orphan suppression: no {code} violation on line "
                            f"{suppression.target_line}; remove the stale "
                            f"allow[{code}]"
                        ),
                    )
                )
    return kept, meta

"""Core datatypes of the static-analysis framework.

A :class:`Rule` inspects one parsed module (:class:`ModuleContext`) — or,
for project-scoped rules, every parsed module at once — and yields
:class:`Violation` records.  Rules never mutate anything and never execute
the code under analysis; everything is derived from the AST, the module's
summary and the raw source lines, so analysis is safe to run on arbitrary
trees.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.callgraph import ProgramModel
    from repro.analysis.config import AnalysisConfig
    from repro.analysis.summaries import ModuleSummary

#: Rules that look at one file at a time (its tree and its summary).
FILE_SCOPE = "file"

#: Rules that need every parsed module at once (run once, in-process).
PROJECT_SCOPE = "project"

#: Rules that need the whole-program call graph and dataflow summaries.
PROGRAM_SCOPE = "program"


@dataclass(frozen=True)
class Violation:
    """One finding: a rule code anchored to a source location."""

    path: str
    line: int
    column: int
    code: str
    message: str

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.column, self.code)

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "code": self.code,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.column}: {self.code} {self.message}"


@dataclass
class ModuleContext:
    """A parsed module handed to rules: path, source text, AST, lines, and
    the module's summary (attached by the walker)."""

    path: str
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)
    summary: Optional["ModuleSummary"] = None

    @classmethod
    def parse(cls, path: str, source: str) -> "ModuleContext":
        """Parse *source*; raises :class:`SyntaxError` on unparsable input."""
        tree = ast.parse(source, filename=path)
        return cls(path=path, source=source, tree=tree, lines=source.splitlines())

    def violation(
        self, node: ast.AST, code: str, message: str
    ) -> Violation:
        """Build a violation anchored at *node*'s location."""
        return Violation(
            path=self.path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            code=code,
            message=message,
        )


class Rule:
    """Base class every checker derives from.

    Subclasses set ``code`` (e.g. ``"DET001"``), ``summary`` (one line,
    shown by ``--list-rules``) and ``scope`` (:data:`FILE_SCOPE`,
    :data:`PROJECT_SCOPE` or :data:`PROGRAM_SCOPE`), then implement
    :meth:`check` (file scope), :meth:`check_project` (project scope) or
    :meth:`check_program` (whole-program scope).
    """

    code: str = ""
    summary: str = ""
    scope: str = FILE_SCOPE

    def check(self, module: ModuleContext) -> Iterator[Violation]:
        """Yield violations for one module (file-scope rules)."""
        return iter(())

    def check_project(
        self, modules: Sequence[ModuleContext]
    ) -> Iterator[Violation]:
        """Yield violations across all modules (project-scope rules)."""
        return iter(())

    def check_program(self, program: "ProgramModel") -> Iterator[Violation]:
        """Yield violations over the whole-program model (program scope)."""
        return iter(())

    def is_enabled(self, config: "AnalysisConfig") -> bool:
        """Whether this rule can produce findings under *config*.

        Config-gated rules (ASY101, DEAD101) override this; a rule that is
        selected but inert cannot verify its suppressions, so the orphan
        check must leave them alone.
        """
        return True


def call_name(node: ast.AST) -> Optional[str]:
    """Dotted name of a call target, e.g. ``np.random.choice`` — or None.

    Only resolves plain ``Name``/``Attribute`` chains; anything dynamic
    (subscripts, calls) yields None.
    """
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def terminal_name(node: ast.AST) -> Optional[str]:
    """Last segment of a call target (``pool.imap_unordered`` → ``imap_unordered``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None

"""File discovery, one parse per file, and the three analysis stages.

The walker discovers ``.py`` files under the given paths and reads and
parses each one once into a :class:`~repro.analysis.base.ModuleContext`
that also carries its :class:`~repro.analysis.summaries.ModuleSummary`:
from the content-hash :class:`~repro.analysis.summaries.SummaryCache` when
the source is unchanged, otherwise summarized from that same tree.  It then
runs the file-scope rules on each module, the project-scope rules once over
all of them and the program-scope rules over the whole-program model built
from the summaries, applies the inline suppressions, and returns one report
sorted by (path, line, column, code).

``--changed-only`` narrows the *file-scope* stage to git-modified files
while the project and program stages still see the whole tree.
"""

from __future__ import annotations

import ast
import logging
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.base import (
    FILE_SCOPE,
    PROGRAM_SCOPE,
    PROJECT_SCOPE,
    ModuleContext,
    Violation,
)
from repro.analysis.callgraph import ProgramModel, build_program_model
from repro.analysis.config import AnalysisConfig, load_config
from repro.analysis.registry import AnalysisError, build_rules, rule_codes
from repro.analysis.summaries import (
    ModuleSummary,
    SummaryCache,
    module_name_for,
    source_sha,
    summarize_module,
)
from repro.analysis.suppressions import (
    Suppression,
    apply_suppressions,
    parse_suppressions,
)

LOGGER = logging.getLogger(__name__)

#: Files under these directory names are never analyzed.
SKIPPED_DIRECTORIES = frozenset(
    {"__pycache__", ".git", ".fubar-cache", ".repro-analysis-cache"}
)


@dataclass(frozen=True)
class OrphanSuppression:
    """A stale ``# repro: allow[CODE]`` comment (surfaced for ``--fix-orphans``)."""

    path: str
    line: int
    code: str

    def to_dict(self) -> Dict[str, object]:
        return {"path": self.path, "line": self.line, "code": self.code}


@dataclass
class AnalysisReport:
    """The outcome of one analysis run."""

    violations: List[Violation] = field(default_factory=list)
    files_analyzed: int = 0
    rules_run: Tuple[str, ...] = ()
    files_summarized: int = 0
    summary_cache_hits: int = 0
    orphans: List[OrphanSuppression] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, object]:
        counts: Dict[str, int] = {}
        for violation in self.violations:
            counts[violation.code] = counts.get(violation.code, 0) + 1
        return {
            "files_analyzed": self.files_analyzed,
            "files_summarized": self.files_summarized,
            "summary_cache_hits": self.summary_cache_hits,
            "rules": list(self.rules_run),
            "violations": [violation.to_dict() for violation in self.violations],
            "counts": {code: counts[code] for code in sorted(counts)},
            "clean": self.clean,
        }


def discover_files(paths: Sequence[str]) -> List[Path]:
    """Python files under *paths* (files or directories), sorted, deduplicated."""
    found: Dict[Path, None] = {}
    for entry in paths:
        path = Path(entry)
        if path.is_file():
            if path.suffix == ".py":
                found.setdefault(path.resolve(), None)
        elif path.is_dir():
            for candidate in sorted(path.rglob("*.py")):  # repro: allow[PURE101] — file discovery defines the analysis input set; it is not a cached computation
                if any(part in SKIPPED_DIRECTORIES for part in candidate.parts):
                    continue
                found.setdefault(candidate.resolve(), None)
        else:
            raise AnalysisError(f"no such file or directory: {entry}")
    return sorted(found)


def _display_path(path: Path) -> str:
    """Repo-relative path when possible (stable across machines), else absolute."""
    try:
        return str(path.relative_to(Path.cwd()))
    except ValueError:
        return str(path)


def git_changed_files() -> Optional[Set[Path]]:
    """Resolved paths of files git reports as modified/added/untracked.

    Returns ``None`` (caller falls back to a full run) when git is absent or
    the working directory is not inside a repository.
    """
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True,
            text=True,
            check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError) as error:
        LOGGER.warning("--changed-only: git unavailable (%s); analyzing all files", error)
        return None
    changed: Set[Path] = set()
    root = Path(top)
    for line in status.splitlines():
        if len(line) < 4:
            continue
        entry = line[3:]
        if " -> " in entry:
            entry = entry.split(" -> ", 1)[1]
        entry = entry.strip().strip('"')
        if entry:
            changed.add((root / entry).resolve())
    return changed


def _load_modules(
    files: Sequence[Path], cache: SummaryCache
) -> Tuple[List[ModuleContext], List[Violation]]:
    """Read and parse each file once and attach its summary.

    The summary comes from *cache* when the file's content sha matches,
    otherwise from the tree just parsed.  A file that does not parse yields
    a PARSE001 violation instead of a module.
    """
    modules: List[ModuleContext] = []
    unparsable: List[Violation] = []
    for path in files:
        display = _display_path(path)
        source = path.read_text(encoding="utf-8")
        try:
            module = ModuleContext.parse(display, source)
        except SyntaxError as error:
            unparsable.append(
                Violation(
                    path=display,
                    line=error.lineno or 1,
                    column=(error.offset or 0) + 1,
                    code="PARSE001",
                    message=f"file does not parse: {error.msg}",
                )
            )
            continue
        module_name = module_name_for(path)
        sha = source_sha(source)
        summary = cache.get(display, sha, module_name)
        if summary is None:
            summary = summarize_module(
                display,
                module.tree,
                module_name,
                sha,
                is_package=path.name == "__init__.py",
            )
            cache.put(summary)
        module.summary = summary
        modules.append(module)
    cache.flush()
    return modules, unparsable


def _program_model(
    modules: Sequence[ModuleContext], config: AnalysisConfig
) -> ProgramModel:
    summaries: Dict[str, ModuleSummary] = {}
    for module in modules:
        assert module.summary is not None
        # Later files win on module-name collisions; sorted input keeps this
        # deterministic (collisions only happen outside package roots).
        summaries[module.summary.module] = module.summary
    return build_program_model(
        summaries,
        config=config,
        reference_loader=lambda: _reference_name_loader(config),
    )


def _reference_name_loader(
    config: AnalysisConfig,
) -> "FrozenSet[str]":
    """Terminal names referenced anywhere under the configured reference roots."""
    names: Set[str] = set()
    for root in config.reference_root_paths():
        for candidate in sorted(root.rglob("*.py")):
            if any(part in SKIPPED_DIRECTORIES for part in candidate.parts):
                continue
            try:
                tree = ast.parse(candidate.read_text(encoding="utf-8"))
            except (OSError, SyntaxError) as error:
                LOGGER.warning("skipping reference file %s: %s", candidate, error)
                continue
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:
                        names.add(alias.name.rsplit(".", 1)[-1])
    return frozenset(names)


def build_program(
    paths: Sequence[str],
    config: Optional[AnalysisConfig] = None,
    summary_cache_dir: Optional[Path] = None,
) -> "ProgramModel":
    """Summarize *paths* and build the whole-program model (no rules run).

    Backs ``--async-map`` and the call-graph unit tests: everything the
    program-scope rules see, without producing violations.
    """
    modules, _ = _load_modules(
        discover_files(paths), SummaryCache(summary_cache_dir)
    )
    return _program_model(
        modules, config if config is not None else load_config()
    )


def analyze_paths(
    paths: Sequence[str],
    select: Optional[Sequence[str]] = None,
    project_rules: Optional[Sequence[object]] = None,
    config: Optional[AnalysisConfig] = None,
    summary_cache_dir: Optional[Path] = None,
    changed_only: bool = False,
) -> AnalysisReport:
    """Analyze every Python file under *paths* and return the report.

    Parameters
    ----------
    paths:
        Files and/or directories to analyze.
    select:
        Rule codes to run (default: every registered rule).  SUP001/SUP002
        always run — suppression hygiene is not optional.
    project_rules:
        Pre-instantiated project-scope rules to use instead of the
        registered ones (tests inject custom SIG001 tables this way).
    config:
        Interprocedural configuration; ``None`` probes ``analysis.toml`` in
        the working directory.
    summary_cache_dir:
        Directory for the on-disk summary cache; ``None`` keeps summaries
        in memory only (every run is cold).
    changed_only:
        Restrict the *file-scope* stage to git-modified files.  The project
        and program stages still cover the full tree (warm summaries make
        that cheap); suppressions of file-scope rules in unchanged files
        are exempted from the orphan check since they were not verifiable.
    """
    selected = list(select) if select is not None else rule_codes()
    rules = build_rules(selected)  # fails loudly on unknown codes before any work
    files = discover_files(paths)
    changed: Optional[Set[Path]] = None
    if changed_only:
        changed = git_changed_files()
    file_stage_paths = {
        _display_path(path)
        for path in files
        if changed is None or path in changed
    }

    summary_cache = SummaryCache(summary_cache_dir)
    modules, unparsable = _load_modules(files, summary_cache)
    violations = [
        violation for violation in unparsable if violation.path in file_stage_paths
    ]

    # File-scope rules on the (possibly narrowed) file stage; suppressions
    # come from every module, so program-scope violations anywhere in the
    # tree can still be suppressed inline.
    file_rules = [rule for rule in rules if rule.scope == FILE_SCOPE]
    suppressions: List[Suppression] = []
    for module in modules:
        if module.path in file_stage_paths:
            for rule in file_rules:
                violations.extend(rule.check(module))
        suppressions.extend(parse_suppressions(module.path, module.lines))

    if project_rules is None:
        project_rules = [rule for rule in rules if rule.scope == PROJECT_SCOPE]
    for rule in project_rules:
        violations.extend(rule.check_project(modules))  # type: ignore[attr-defined]

    # Program-scope rules: summaries -> call graph -> interprocedural checks.
    program_rules = [rule for rule in rules if rule.scope == PROGRAM_SCOPE]
    effective_config = config if config is not None else load_config()
    if program_rules:
        program = _program_model(modules, effective_config)
        for rule in program_rules:
            violations.extend(rule.check_program(program))

    # Codes outside the selected set did not run, so their suppressions are
    # unverifiable this run — exempt them from the orphan check.  With
    # --changed-only the file-scope rules did not run on unchanged files, so
    # their file-scope suppressions are likewise exempt.
    active = set(selected) | {rule.code for rule in project_rules}  # type: ignore[attr-defined]
    active |= {rule.code for rule in program_rules}
    verifiable_everywhere = {
        rule.code
        for rule in list(project_rules) + list(program_rules)  # type: ignore[arg-type]
    }
    # Config-gated rules (ASY101 with no async-ready modules, DEAD101 with
    # no audited packages) ran as no-ops: their suppressions are likewise
    # unverifiable and must not surface as orphans.
    inert = {
        rule.code
        for rule in program_rules
        if not rule.is_enabled(effective_config)
    }
    for suppression in suppressions:
        for code in suppression.codes:
            if code not in active or code in inert:
                suppression.used[code] = True
            elif (
                suppression.path not in file_stage_paths
                and code not in verifiable_everywhere
            ):
                suppression.used[code] = True
    kept, meta = apply_suppressions(violations, suppressions)
    orphans = [
        OrphanSuppression(
            path=suppression.path,
            line=suppression.line,
            code=code,
        )
        for suppression in suppressions
        for code in suppression.codes
        if not suppression.used.get(code, False)
    ]
    orphans.sort(key=lambda orphan: (orphan.path, orphan.line, orphan.code))
    kept.extend(meta)
    kept.sort(key=Violation.sort_key)
    return AnalysisReport(
        violations=kept,
        files_analyzed=len(file_stage_paths),
        rules_run=tuple(sorted(active)),
        files_summarized=summary_cache.summarized,
        summary_cache_hits=summary_cache.hits,
        orphans=orphans,
    )

"""Static analysis for reproducibility invariants (``python -m repro.analysis``).

An AST-based linter with project-specific rules, in three tiers:

* per-file — unseeded entropy (DET001), order-escaping set iteration
  (DET002), unseeded RNG construction (DET003), pickle-unsafe worker
  dispatch (MP001), silently swallowed exceptions (EXC001);
* project — cache-signature completeness (SIG001);
* whole-program (call graph + forward taint over per-function summaries) —
  seed provenance (SEED101), cache purity (PURE101), async readiness
  (ASY101), worker-safe module state (MP101), dead public functions
  (DEAD101).

Each file is read and parsed once per run.  Its per-function summary
(:mod:`repro.analysis.summaries`, cached by content sha) is the one import
resolver and call classifier: the whole-program tier builds its call graph
from it, and DET001, DET003 and MP001 read the entropy sites and pickle-unsafe
submissions it records; DET002 and EXC001 walk the tree.

Inline suppressions use ``# repro: allow[CODE] — justification`` and are
themselves checked for staleness (SUP001) and missing justifications
(SUP002).

See README «Static analysis» for the catalogue and how to add a rule.
"""

from repro.analysis.base import (
    FILE_SCOPE,
    PROGRAM_SCOPE,
    PROJECT_SCOPE,
    ModuleContext,
    Rule,
    Violation,
)
from repro.analysis.callgraph import (
    CallGraph,
    ProgramModel,
    build_call_graph,
    build_program_model,
)
from repro.analysis.config import AnalysisConfig, AnalysisConfigError, load_config
from repro.analysis.summaries import (
    ModuleSummary,
    SummaryCache,
    module_name_for,
    summarize_module,
)
from repro.analysis.registry import (
    AnalysisError,
    build_rules,
    get_rule,
    register_rule,
    rule_codes,
)
from repro.analysis.suppressions import (
    Suppression,
    apply_suppressions,
    parse_suppressions,
)
from repro.analysis.walker import (
    AnalysisReport,
    OrphanSuppression,
    analyze_paths,
    build_program,
    discover_files,
)

__all__ = [
    "FILE_SCOPE",
    "PROGRAM_SCOPE",
    "PROJECT_SCOPE",
    "AnalysisConfig",
    "AnalysisConfigError",
    "AnalysisError",
    "AnalysisReport",
    "CallGraph",
    "ModuleContext",
    "ModuleSummary",
    "OrphanSuppression",
    "ProgramModel",
    "Rule",
    "SummaryCache",
    "Suppression",
    "Violation",
    "analyze_paths",
    "apply_suppressions",
    "build_call_graph",
    "build_program",
    "build_program_model",
    "build_rules",
    "discover_files",
    "get_rule",
    "load_config",
    "module_name_for",
    "parse_suppressions",
    "register_rule",
    "rule_codes",
    "summarize_module",
]

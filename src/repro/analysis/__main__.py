"""CLI: ``python -m repro.analysis [paths...]``.

Exit status: 0 clean, 1 violations found, 2 usage/configuration error —
the same contract as the test suite, so CI can gate on it directly.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.config import AnalysisConfig, AnalysisConfigError, load_config
from repro.analysis.fixes import fix_orphan_suppressions
from repro.analysis.iprules import async_readiness_map
from repro.analysis.registry import AnalysisError, get_rule, rule_codes
from repro.analysis.reporters import REPORTERS
from repro.analysis.walker import analyze_paths, build_program

#: Default directory for the on-disk per-function summary cache.
DEFAULT_SUMMARY_CACHE = ".repro-analysis-cache"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Determinism & invariant linter: per-file AST rules plus "
            "whole-program call-graph/taint rules guarding the repo's "
            "reproducibility invariants (seed provenance, cache purity, "
            "async readiness, worker-safe state, dead code)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--format",
        choices=sorted(REPORTERS),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--config",
        metavar="PATH",
        default=None,
        help="analysis.toml to load (default: probe the working directory)",
    )
    parser.add_argument(
        "--changed-only",
        action="store_true",
        help="run file-scope rules only on git-modified files (project and "
        "whole-program rules still cover the full tree via the summary "
        "cache); the pre-commit hook uses this",
    )
    parser.add_argument(
        "--summary-cache",
        metavar="DIR",
        default=DEFAULT_SUMMARY_CACHE,
        help=f"on-disk summary cache directory (default: {DEFAULT_SUMMARY_CACHE})",
    )
    parser.add_argument(
        "--no-summary-cache",
        action="store_true",
        help="disable the on-disk summary cache (every run is cold)",
    )
    parser.add_argument(
        "--async-map",
        action="store_true",
        help="print the per-module async-readiness map (which modules reach "
        "blocking calls) and exit",
    )
    parser.add_argument(
        "--fix-orphans",
        action="store_true",
        help="delete SUP001-orphaned '# repro: allow[...]' comments in place, "
        "then re-run the analysis",
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="with --fix-orphans: report the edits without touching any file",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _load_cli_config(path: Optional[str]) -> Optional[AnalysisConfig]:
    if path is None:
        return None  # analyze_paths probes the working directory
    probe = Path(path)
    if not probe.is_file():
        raise AnalysisConfigError(f"no such config file: {path}")
    return load_config(probe)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        for code in rule_codes():
            print(f"{code}  {get_rule(code).summary}")
        print("SUP001  orphan suppression: allow[...] comment with no matching violation")
        print("SUP002  suppression without a one-line justification")
        return 0
    select = (
        [code.strip().upper() for code in args.select.split(",") if code.strip()]
        if args.select
        else None
    )
    cache_dir = (
        None if args.no_summary_cache else Path(args.summary_cache)
    )
    try:
        config = _load_cli_config(args.config)
        if args.async_map:
            program = build_program(
                args.paths, config=config, summary_cache_dir=cache_dir
            )
            for module_name, entry in async_readiness_map(program).items():
                sites = entry["blocking_sites"]
                assert isinstance(sites, list)
                status = "ready" if entry["ready"] else f"{len(sites)} blocking"
                print(f"{module_name}: {status}")
                for site in sites[:5]:
                    print(f"  {site}")
                if len(sites) > 5:
                    print(f"  … and {len(sites) - 5} more")
            return 0
        report = analyze_paths(
            args.paths,
            select=select,
            config=config,
            summary_cache_dir=cache_dir,
            changed_only=args.changed_only,
        )
        if args.fix_orphans:
            for message in fix_orphan_suppressions(
                report.orphans, dry_run=args.dry_run
            ):
                print(message)
            if not args.dry_run and report.orphans:
                # The tree changed under us: re-run for an honest report.
                report = analyze_paths(
                    args.paths,
                    select=select,
                    config=config,
                    summary_cache_dir=cache_dir,
                    changed_only=args.changed_only,
                )
    except (AnalysisError, AnalysisConfigError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    REPORTERS[args.format](report, sys.stdout)
    return 0 if report.clean else 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Tests for the repro.analysis determinism & invariant linter.

Every rule is exercised against the fixtures corpus in
``tests/fixtures/analysis`` (≥1 known-bad, ≥1 known-good and ≥1 suppressed
case per rule); the known-bad files carry ``# expect: CODE`` markers on each
line a violation must anchor to, and the tests assert the match in *both*
directions — no missed line, no spurious line.  A meta-test then runs the
CLI over the committed tree and requires it to exit clean.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    AnalysisConfig,
    AnalysisError,
    ModuleContext,
    Violation,
    analyze_paths,
    build_program,
    parse_suppressions,
    rule_codes,
)
from repro.analysis.rules import (
    FieldCoverageSpec,
    FrozenKeySpec,
    SignatureCompletenessRule,
)
from repro.exceptions import FailureError
from repro.failures.degraded import normalize_failed_links
from repro.topology.builders import line_topology

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"
REPO_ROOT = Path(__file__).parent.parent
EXPECT_RE = re.compile(r"#\s*expect:\s*([A-Z]+\d+)")


def expected_markers(path: Path) -> set:
    """(line, code) pairs declared by ``# expect: CODE`` markers in *path*."""
    markers = set()
    for line_number, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        match = EXPECT_RE.search(line)
        if match:
            markers.add((line_number, match.group(1)))
    return markers


def run_fixture(name: str, select=None):
    """Serial analysis of one fixture file."""
    return analyze_paths([str(FIXTURES / name)], select=select)


def flagged(report) -> set:
    return {(violation.line, violation.code) for violation in report.violations}


# ---------------------------------------------------------------------------
# per-rule corpus: known-bad, known-good, suppressed
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "fixture, code",
    [
        ("det001_bad.py", "DET001"),
        ("det002_bad.py", "DET002"),
        ("det003_bad.py", "DET003"),
        ("mp001_bad.py", "MP001"),
        ("exc001_bad.py", "EXC001"),
    ],
)
def test_known_bad_flags_exactly_the_marked_lines(fixture, code):
    report = run_fixture(fixture, select=[code])
    assert flagged(report) == expected_markers(FIXTURES / fixture)


@pytest.mark.parametrize(
    "fixture, code",
    [
        ("det001_bad.py", "DET001"),
        ("det002_bad.py", "DET002"),
        ("det003_bad.py", "DET003"),
        ("mp001_bad.py", "MP001"),
        ("exc001_bad.py", "EXC001"),
    ],
)
def test_known_bad_is_flagged_by_exactly_the_expected_rule(fixture, code):
    """Each seeded-bad fixture trips its own rule and no other."""
    report = run_fixture(fixture)  # all rules
    codes = {violation.code for violation in report.violations}
    assert codes == {code}


@pytest.mark.parametrize(
    "fixture, code",
    [
        ("det001_good.py", "DET001"),
        ("det002_good.py", "DET002"),
        ("det003_good.py", "DET003"),
        ("det003_own_default_rng.py", "DET003"),
        ("mp001_good.py", "MP001"),
        ("exc001_good.py", "EXC001"),
    ],
)
def test_known_good_is_clean(fixture, code):
    assert run_fixture(fixture, select=[code]).clean


def test_a_modules_own_default_rng_is_no_rng_to_any_rule():
    """A module that defines and calls its own ``default_rng`` builds no
    unseeded numpy generator: DET003 reads the bare name as SEED101 does,
    and no rule flags the file."""
    report = run_fixture("det003_own_default_rng.py")
    assert report.clean, [v.render() for v in report.violations]


@pytest.mark.parametrize(
    "fixture",
    [
        "det001_suppressed.py",
        "det002_suppressed.py",
        "det003_suppressed.py",
        "mp001_suppressed.py",
        "exc001_suppressed.py",
    ],
)
def test_justified_suppression_silences_without_orphans(fixture):
    report = run_fixture(fixture)
    assert report.clean, [v.render() for v in report.violations]


# ---------------------------------------------------------------------------
# suppression hygiene
# ---------------------------------------------------------------------------


def test_orphan_suppression_is_reported():
    report = run_fixture("sup001_orphan.py")
    assert {v.code for v in report.violations} == {"SUP001"}


def test_missing_justification_is_reported():
    report = run_fixture("sup002_missing_justification.py")
    # The DET001 is suppressed, but the naked suppression fails the build.
    assert {v.code for v in report.violations} == {"SUP002"}


def test_suppression_examples_in_docstrings_are_ignored():
    source = '"""Example: ``# repro: allow[DET001] — not real``"""\nX = 1\n'
    assert parse_suppressions("doc.py", source.splitlines()) == []


def test_trailing_and_standalone_comment_targets():
    source = "\n".join(
        [
            "bad = 1  # repro: allow[AAA111] — same line",
            "# repro: allow[BBB222] — next line",
            "worse = 2",
        ]
    )
    suppressions = parse_suppressions("f.py", source.splitlines())
    targets = {s.codes[0]: s.target_line for s in suppressions}
    assert targets == {"AAA111": 1, "BBB222": 3}


# ---------------------------------------------------------------------------
# SIG001: signature completeness (custom spec table over the corpus)
# ---------------------------------------------------------------------------


def _sig001_rule():
    return SignatureCompletenessRule(
        specs=(
            FieldCoverageSpec(
                function_module="sig001_bad_signature.py",
                function_name="thing_signature",
                class_module="sig001_bad_class.py",
                class_name="CachedThing",
            ),
            FrozenKeySpec(
                class_module="sig001_bad_class.py", class_name="MutableKey"
            ),
            FieldCoverageSpec(
                function_module="sig001_good.py",
                function_name="good_signature",
                class_module="sig001_good.py",
                class_name="GoodThing",
            ),
            FrozenKeySpec(class_module="sig001_good.py", class_name="FrozenKey"),
        )
    )


def test_sig001_flags_missing_field_and_unfrozen_key():
    paths = [str(FIXTURES / "sig001_bad_class.py"), str(FIXTURES / "sig001_bad_signature.py")]
    report = analyze_paths(paths, select=[], project_rules=[_sig001_rule()])
    expected = expected_markers(FIXTURES / "sig001_bad_class.py") | expected_markers(
        FIXTURES / "sig001_bad_signature.py"
    )
    assert flagged(report) == expected
    messages = "\n".join(v.message for v in report.violations)
    assert "CachedThing.colour" in messages
    assert "MutableKey" in messages


def test_sig001_complete_signature_is_clean():
    report = analyze_paths(
        [str(FIXTURES / "sig001_good.py")],
        select=[],
        project_rules=[_sig001_rule()],
    )
    assert report.clean


def test_sig001_suppression_applies_to_project_scope_findings():
    # Violations from project-scope rules go through the same suppression
    # machinery; a justified allow on the signature's def line silences it.
    source = (FIXTURES / "sig001_bad_signature.py").read_text(encoding="utf-8")
    patched = source.replace(
        "def thing_signature(thing) -> str:  # expect: SIG001 (misses CachedThing.colour)",
        "# repro: allow[SIG001] — colour is render-only, never read by the model\n"
        "def thing_signature(thing) -> str:",
    )
    target = FIXTURES / "sig001_suppressed_tmp.py"
    target.write_text(patched, encoding="utf-8")
    try:
        rule = SignatureCompletenessRule(
            specs=(
                FieldCoverageSpec(
                    function_module="sig001_suppressed_tmp.py",
                    function_name="thing_signature",
                    class_module="sig001_bad_class.py",
                    class_name="CachedThing",
                ),
            )
        )
        report = analyze_paths(
            [str(target), str(FIXTURES / "sig001_bad_class.py")],
            select=[],
            project_rules=[rule],
        )
        assert report.clean, [v.render() for v in report.violations]
    finally:
        target.unlink()


def test_sig001_stale_exclusion_is_reported():
    rule = SignatureCompletenessRule(
        specs=(
            FieldCoverageSpec(
                function_module="sig001_good.py",
                function_name="good_signature",
                class_module="sig001_good.py",
                class_name="GoodThing",
                excluded={"label": "stale: the function hashes label now"},
            ),
        )
    )
    report = analyze_paths(
        [str(FIXTURES / "sig001_good.py")], select=[], project_rules=[rule]
    )
    assert [v.code for v in report.violations] == ["SIG001"]
    assert "stale exclusion" in report.violations[0].message


# ---------------------------------------------------------------------------
# SIG001 against the real tree: the stale-cache regression gates
# ---------------------------------------------------------------------------


def _real_modules(extra_mutation=None):
    paths = [
        "src/repro/paths/cache.py",
        "src/repro/topology/graph.py",
        "src/repro/runner/spec.py",
        "src/repro/trafficmodel/waterfill.py",
        "src/repro/paths/policy.py",
    ]
    modules = []
    for relative in paths:
        source = (REPO_ROOT / relative).read_text(encoding="utf-8")
        if extra_mutation is not None:
            source = extra_mutation(relative, source)
        modules.append(ModuleContext.parse(relative, source))
    return modules


def test_sig001_committed_tree_is_complete():
    rule = SignatureCompletenessRule()
    assert list(rule.check_project(_real_modules())) == []


def test_sig001_catches_dropped_capacity_hash():
    """Removing capacity from topology_signature must trip the gate."""

    def drop_capacity(relative, source):
        if relative.endswith("paths/cache.py"):
            return source.replace("{link.capacity_bps!r}", "x")
        return source

    violations = list(
        SignatureCompletenessRule().check_project(_real_modules(drop_capacity))
    )
    assert any("Link.capacity_bps" in v.message for v in violations)


def test_sig001_catches_new_link_field_missing_from_signature():
    """Adding a behaviour-affecting Link field without extending the
    signature is the stale-cache bug class; the rule must catch it."""

    def add_field(relative, source):
        if relative.endswith("topology/graph.py"):
            return source.replace(
                "    src: str\n    dst: str\n",
                "    src: str\n    dst: str\n    weight: float = 1.0\n",
                1,
            )
        return source

    violations = list(
        SignatureCompletenessRule().check_project(_real_modules(add_field))
    )
    assert any("Link.weight" in v.message for v in violations)


def test_sig001_catches_unfrozen_traffic_model_config():
    def unfreeze(relative, source):
        if relative.endswith("trafficmodel/waterfill.py"):
            return source.replace(
                "@dataclass(frozen=True)\nclass TrafficModelConfig",
                "@dataclass\nclass TrafficModelConfig",
                1,
            )
        return source

    violations = list(
        SignatureCompletenessRule().check_project(_real_modules(unfreeze))
    )
    assert any("TrafficModelConfig" in v.message for v in violations)


# ---------------------------------------------------------------------------
# interprocedural rules: fixture packages (known-bad / known-good / suppressed)
# ---------------------------------------------------------------------------


def package_markers(package: str) -> set:
    """(file, line, code) triples from every ``# expect:`` marker in *package*."""
    markers = set()
    for path in sorted((FIXTURES / package).rglob("*.py")):
        for line, code in expected_markers(path):
            markers.add((path.name, line, code))
    return markers


def flagged_files(report) -> set:
    return {
        (Path(v.path).name, v.line, v.code) for v in report.violations
    }


def run_package(package: str, code: str, config=None):
    return analyze_paths(
        [str(FIXTURES / package)], select=[code], config=config
    )


_ASY_CONFIG = AnalysisConfig(async_ready_modules=("asy101_pkg.fast",))
_DEAD_CONFIG = AnalysisConfig(
    dead_code_packages=("dead101_pkg",),
    reference_roots=("dead101_refs",),
    base_directory=FIXTURES,
)


@pytest.mark.parametrize(
    "package, code, config",
    [
        ("seed101_pkg", "SEED101", None),
        ("pure101_pkg", "PURE101", None),
        ("asy101_pkg", "ASY101", _ASY_CONFIG),
        ("mp101_pkg", "MP101", None),
        ("dead101_pkg", "DEAD101", _DEAD_CONFIG),
    ],
)
def test_program_rule_flags_exactly_the_marked_lines(package, code, config):
    """Bidirectional ``# expect:`` match: no missed line, no spurious line.

    Each package carries a known-bad, a known-good and a suppressed case, so
    this single assertion also proves the good case stays clean and the
    justified suppression silences without going orphan (an orphan would
    surface as an unexpected SUP001)."""
    report = run_package(package, code, config=config)
    assert flagged_files(report) == package_markers(package), [
        v.render() for v in report.violations
    ]


def test_seed101_chain_message_names_the_entry_point():
    report = run_package("seed101_pkg", "SEED101")
    messages = [v.message for v in report.violations]
    assert all("evaluate_cell" in message for message in messages)
    # The chain spells out both interprocedural levels.
    assert any("run_middle" in message for message in messages)


def test_seed101_family_builder_counts_as_entry(tmp_path):
    """A builder registered via ScenarioFamily(builder=...) is a seed root:
    re-seeding its RNG leaf from the clock must trip SEED101 even though
    evaluate_cell never reaches it."""
    package = tmp_path / "seed101_pkg"
    shutil.copytree(FIXTURES / "seed101_pkg", package)
    (package / "entry.py").unlink()  # leave only the family entry point
    rngs = package / "rngs.py"
    source = rngs.read_text(encoding="utf-8")
    rngs.write_text(
        source.replace(
            "np.random.default_rng(2 * seed)",
            "np.random.default_rng(int(time.time()))",
        ),
        encoding="utf-8",
    )
    report = analyze_paths([str(package)], select=["SEED101"])
    flagged_now = flagged_files(report)
    assert any(
        name == "rngs.py" and code == "SEED101"
        for name, line, code in flagged_now
    )
    assert any("build_family" in v.message for v in report.violations)


def test_stdlib_jitter_in_a_family_builder_is_det001s_not_seed101s(tmp_path):
    """A topology builder that draws ``random.uniform`` latency jitter (the
    shape of a tiered-ISP generator) is DET001's finding: SEED101 audits RNG
    constructions, and a draw from the stdlib global RNG constructs none.
    The builder is a live SEED101 entry: seeding an RNG in the same helper
    from a constant trips SEED101."""
    package = tmp_path / "jitter_pkg"
    package.mkdir()
    (package / "__init__.py").write_text('"""Jittered topology."""\n', encoding="utf-8")
    topology = package / "topology.py"
    topology.write_text(
        "import math\n"
        "import random\n"
        "\n"
        "\n"
        "def calculate_latency(pos1, pos2, base_overhead=0):\n"
        "    dist_km = math.dist(pos1, pos2)\n"
        "    jitter = random.uniform(0.9, 1.1)\n"
        "    return max(1, int(dist_km / 200.0 * jitter) + base_overhead)\n"
        "\n"
        "\n"
        "def build(seed):\n"
        "    return [calculate_latency((0.0, 0.0), (float(seed), 1.0))]\n",
        encoding="utf-8",
    )
    (package / "families.py").write_text(
        "from .topology import build\n"
        "\n"
        "\n"
        "class ScenarioFamily:\n"
        "    def __init__(self, name, builder):\n"
        "        self.name = name\n"
        "        self.builder = builder\n"
        "\n"
        "\n"
        'FAMILY = ScenarioFamily(name="jitter", builder=build)\n',
        encoding="utf-8",
    )
    report = analyze_paths([str(package)], select=["DET001", "SEED101"])
    assert flagged_files(report) == {("topology.py", 7, "DET001")}

    topology.write_text(
        topology.read_text(encoding="utf-8").replace(
            "random.uniform(0.9, 1.1)", "random.Random(7).uniform(0.9, 1.1)"
        ),
        encoding="utf-8",
    )
    reseeded = analyze_paths([str(package)], select=["DET001", "SEED101"])
    assert flagged_files(reseeded) == {
        ("topology.py", 7, "DET001"),
        ("topology.py", 7, "SEED101"),
    }
    seed_messages = [v.message for v in reseeded.violations if v.code == "SEED101"]
    assert all("build" in message for message in seed_messages)


def test_pure101_message_names_the_store_site():
    report = run_package("pure101_pkg", "PURE101")
    assert len(report.violations) == 1
    message = report.violations[0].message
    assert "store.py:16" in message
    assert "ambient_payload" in message


def test_asy101_inert_without_config():
    assert run_package("asy101_pkg", "ASY101", config=AnalysisConfig()).clean


def test_dead101_inert_without_config():
    assert run_package("dead101_pkg", "DEAD101", config=AnalysisConfig()).clean


# ---------------------------------------------------------------------------
# call-graph resolution
# ---------------------------------------------------------------------------


def _edge_pairs(graph):
    return {
        (edge.caller, edge.callee)
        for edges in graph.edges_from.values()
        for edge in edges
    }


def test_callgraph_resolves_aliases_partials_and_methods():
    program = build_program(
        [str(FIXTURES / "callgraph_pkg")], config=AnalysisConfig()
    )
    pairs = _edge_pairs(program.graph)
    leaf = "callgraph_pkg.leaf.leaf_value"
    assert ("callgraph_pkg.alias.through_module_alias", leaf) in pairs
    assert ("callgraph_pkg.alias.through_symbol_alias", leaf) in pairs
    assert ("callgraph_pkg.alias.through_partial", leaf) in pairs
    # drive() infers worker = Child() and dispatches run through the
    # nearest ancestor that defines it.
    assert ("callgraph_pkg.methods.drive", "callgraph_pkg.methods.Base.run") in pairs
    # self.helper() inside Base.run targets the base method and the override.
    assert (
        "callgraph_pkg.methods.Base.run",
        "callgraph_pkg.methods.Base.helper",
    ) in pairs
    assert (
        "callgraph_pkg.methods.Base.run",
        "callgraph_pkg.methods.Child.helper",
    ) in pairs


def test_mp101_submission_edges_are_typed():
    program = build_program(
        [str(FIXTURES / "mp101_pkg")], config=AnalysisConfig()
    )
    submit_edges = {
        (edge.caller, edge.callee)
        for edges in program.graph.edges_from.values()
        for edge in edges
        if edge.kind == "submit"
    }
    assert submit_edges == {
        ("mp101_pkg.driver.run_all", "mp101_pkg.worker.handle"),
        ("mp101_pkg.driver.run_all", "mp101_pkg.worker.handle_with_caches"),
        ("mp101_pkg.driver.run_all", "mp101_pkg.worker.audited_handle"),
        ("mp101_pkg.driver.run_all", "mp101_pkg.worker.handle_arrays"),
        ("mp101_pkg.driver.run_all", "mp101_pkg.worker.handle_events"),
    }


# ---------------------------------------------------------------------------
# summary cache: warm runs and invalidation
# ---------------------------------------------------------------------------


def test_warm_run_resummarizes_zero_files(tmp_path):
    cache_dir = tmp_path / "cache"
    cold = analyze_paths(
        [str(FIXTURES / "seed101_pkg")],
        select=["SEED101"],
        summary_cache_dir=cache_dir,
    )
    assert cold.files_summarized == cold.files_analyzed > 0
    assert cold.summary_cache_hits == 0
    warm = analyze_paths(
        [str(FIXTURES / "seed101_pkg")],
        select=["SEED101"],
        summary_cache_dir=cache_dir,
    )
    assert warm.files_summarized == 0
    assert warm.summary_cache_hits == warm.files_analyzed
    assert flagged_files(warm) == flagged_files(cold)


def test_leaf_edit_resummarizes_only_the_leaf_and_reflags_callers(tmp_path):
    package = tmp_path / "seed101_pkg"
    shutil.copytree(FIXTURES / "seed101_pkg", package)
    cache_dir = tmp_path / "cache"
    first = analyze_paths(
        [str(package)], select=["SEED101"], summary_cache_dir=cache_dir
    )
    baseline = {(Path(v.path).name, v.line) for v in first.violations}
    # Break the known-good leaf: the entry chain (two files above, summaries
    # still cached) must re-flag through the edited leaf alone.
    rngs = package / "rngs.py"
    source = rngs.read_text(encoding="utf-8")
    rngs.write_text(
        source.replace(
            "np.random.default_rng(seed + 1)",
            "np.random.default_rng(int(time.time()))",
        ),
        encoding="utf-8",
    )
    second = analyze_paths(
        [str(package)], select=["SEED101"], summary_cache_dir=cache_dir
    )
    assert second.files_summarized == 1
    assert second.summary_cache_hits == second.files_analyzed - 1
    flagged_now = {(Path(v.path).name, v.line) for v in second.violations}
    assert baseline < flagged_now and len(flagged_now) == len(baseline) + 1
    refreshed = [v for v in second.violations if "derived_stream" in v.message]
    assert refreshed and all("evaluate_cell" in v.message for v in refreshed)


# ---------------------------------------------------------------------------
# interprocedural rules against the real tree: the mutation gates
# ---------------------------------------------------------------------------


def _copy_repro_tree(tmp_path):
    target = tmp_path / "repro"
    shutil.copytree(
        REPO_ROOT / "src" / "repro",
        target,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    return target


def test_seed101_mutation_gate_clock_reseed_below_entry(tmp_path):
    """Re-seeding sampled_paper_traffic from the wall clock — below the
    registered tiered-scenario builder — must trip SEED101.  (The fixture
    package covers the deeper two-level chain under evaluate_cell.)"""
    tree = _copy_repro_tree(tmp_path)
    tiered = tree / "experiments" / "tiered.py"
    source = tiered.read_text(encoding="utf-8")
    needle = "np.random.default_rng(seed)"
    assert needle in source
    tiered.write_text(
        "import time\n"
        + source.replace(needle, "np.random.default_rng(int(time.time()))", 1),
        encoding="utf-8",
    )
    report = analyze_paths([str(tree)], select=["SEED101"])
    assert [v.code for v in report.violations] == ["SEED101"]
    message = report.violations[0].message
    assert "opaque" in message and "sampled_paper_traffic" in message


def test_pure101_mutation_gate_env_read_in_cached_helper(tmp_path):
    """An os.environ read inside evaluate_cell — whose payload is
    cache-stored — must trip PURE101 on the inserted line."""
    tree = _copy_repro_tree(tmp_path)
    engine = tree / "runner" / "engine.py"
    source = engine.read_text(encoding="utf-8")
    needle = "    started = time.perf_counter()"
    assert needle in source
    engine.write_text(
        "import os\n"
        + source.replace(
            needle,
            '    _ambient = os.environ.get("REPRO_MUTATION", "")\n' + needle,
            1,
        ),
        encoding="utf-8",
    )
    report = analyze_paths([str(tree)], select=["PURE101"])
    assert {v.code for v in report.violations} == {"PURE101"}
    assert any("os.environ" in v.message for v in report.violations)


def test_committed_tree_has_no_unsuppressed_interprocedural_findings():
    """The five program rules, alone, on the real tree (config from repo
    root) — the committed suppressions must be exactly sufficient."""
    result = _run_cli(
        "src/repro",
        "benchmarks",
        "--select",
        "SEED101,PURE101,ASY101,MP101,DEAD101",
    )
    assert result.returncode == 0, result.stdout + result.stderr


# ---------------------------------------------------------------------------
# framework behaviour
# ---------------------------------------------------------------------------


def test_unknown_rule_code_raises():
    with pytest.raises(AnalysisError):
        analyze_paths([str(FIXTURES / "det001_good.py")], select=["NOPE999"])


def test_missing_path_raises():
    with pytest.raises(AnalysisError):
        analyze_paths([str(FIXTURES / "does_not_exist.py")])


def test_syntax_error_becomes_parse_violation(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def broken(:\n", encoding="utf-8")
    report = analyze_paths([str(bad)])
    assert [v.code for v in report.violations] == ["PARSE001"]


def test_report_dict_shape():
    report = run_fixture("det001_bad.py", select=["DET001"])
    payload = report.to_dict()
    assert payload["clean"] is False
    assert payload["counts"]["DET001"] == len(payload["violations"])
    assert all(
        set(v) == {"path", "line", "column", "code", "message"}
        for v in payload["violations"]
    )


def test_registry_exposes_all_project_rules():
    assert {
        "DET001",
        "DET002",
        "DET003",
        "MP001",
        "SIG001",
        "EXC001",
        "SEED101",
        "PURE101",
        "ASY101",
        "MP101",
        "DEAD101",
    } <= set(rule_codes())


def test_violation_ordering_is_stable():
    report = analyze_paths([str(FIXTURES)])
    keys = [v.sort_key() for v in report.violations]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# the CLI and the committed tree
# ---------------------------------------------------------------------------


def _run_cli(*arguments, cwd=REPO_ROOT):
    environment = dict(os.environ)
    environment["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + environment["PYTHONPATH"] if environment.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *arguments],
        cwd=str(cwd),
        env=environment,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_cli_list_rules():
    result = _run_cli("--list-rules")
    assert result.returncode == 0
    for code in (
        "DET001",
        "DET002",
        "DET003",
        "MP001",
        "SIG001",
        "EXC001",
        "SEED101",
        "PURE101",
        "ASY101",
        "MP101",
        "DEAD101",
        "SUP001",
    ):
        assert code in result.stdout


def test_cli_flags_bad_fixture_with_exit_one_and_json():
    result = _run_cli(
        str(FIXTURES / "det003_bad.py"), "--select", "DET003", "--format", "json"
    )
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload["clean"] is False
    assert payload["counts"] == {
        "DET003": len(expected_markers(FIXTURES / "det003_bad.py"))
    }


def test_cli_sarif_format():
    result = _run_cli(
        str(FIXTURES / "det003_bad.py"),
        "--select",
        "DET003",
        "--format",
        "sarif",
    )
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload["version"] == "2.1.0"
    run = payload["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-analysis"
    assert {r["ruleId"] for r in run["results"]} == {"DET003"}
    declared = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    assert "DET003" in declared
    location = run["results"][0]["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"].endswith("det003_bad.py")
    assert location["region"]["startLine"] >= 1


def test_cli_sarif_clean_report_is_valid():
    result = _run_cli(
        str(FIXTURES / "det003_good.py"),
        "--select",
        "DET003",
        "--format",
        "sarif",
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["runs"][0]["results"] == []


def test_cli_fix_orphans_dry_run_then_apply(tmp_path):
    target = tmp_path / "sup001_orphan.py"
    source = (FIXTURES / "sup001_orphan.py").read_text(encoding="utf-8")
    target.write_text(source, encoding="utf-8")
    dry = _run_cli(str(target), "--fix-orphans", "--dry-run")
    assert dry.returncode == 1  # the orphan is still a violation
    assert "would remove stale allow[DET003]" in dry.stdout
    assert target.read_text(encoding="utf-8") == source
    applied = _run_cli(str(target), "--fix-orphans")
    assert "removed stale allow[DET003]" in applied.stdout
    assert "repro: allow" not in target.read_text(encoding="utf-8")
    # The post-fix re-run reports the now-clean file.
    assert applied.returncode == 0


def test_cli_fix_orphans_leaves_live_suppressions_alone(tmp_path):
    for fixture in ("det001_suppressed.py", "det003_suppressed.py"):
        target = tmp_path / fixture
        source = (FIXTURES / fixture).read_text(encoding="utf-8")
        target.write_text(source, encoding="utf-8")
        result = _run_cli(str(target), "--fix-orphans")
        assert result.returncode == 0, result.stdout + result.stderr
        assert target.read_text(encoding="utf-8") == source


def test_cli_changed_only_skips_unchanged_files(tmp_path):
    """In a scratch git repo with two committed bad files, --changed-only
    flags only the dirty one (file-scope rules narrowed; suppressions in the
    untouched file stay exempt from SUP001)."""
    repo = tmp_path / "scratch"
    repo.mkdir()
    git = ["git", "-C", str(repo), "-c", "user.email=t@t", "-c", "user.name=t"]
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    for fixture in ("det001_bad.py", "det003_bad.py"):
        shutil.copy(FIXTURES / fixture, repo / fixture)
    subprocess.run([*git, "add", "."], check=True)
    subprocess.run([*git, "commit", "-qm", "seed"], check=True)
    full = _run_cli(
        ".", "--select", "DET001,DET003", "--no-summary-cache", cwd=repo
    )
    assert full.returncode == 1
    narrowed = _run_cli(
        ".",
        "--select",
        "DET001,DET003",
        "--no-summary-cache",
        "--changed-only",
        cwd=repo,
    )
    assert narrowed.returncode == 0, narrowed.stdout + narrowed.stderr
    (repo / "det003_bad.py").write_text(
        (repo / "det003_bad.py").read_text(encoding="utf-8") + "\n",
        encoding="utf-8",
    )
    dirty = _run_cli(
        ".",
        "--select",
        "DET001,DET003",
        "--no-summary-cache",
        "--changed-only",
        cwd=repo,
    )
    assert dirty.returncode == 1
    assert {Path(v["path"]).name for v in json.loads(
        _run_cli(
            ".",
            "--select",
            "DET001,DET003",
            "--no-summary-cache",
            "--changed-only",
            "--format",
            "json",
            cwd=repo,
        ).stdout
    )["violations"]} == {"det003_bad.py"}


def test_cli_unknown_select_exits_two():
    result = _run_cli(str(FIXTURES / "det001_good.py"), "--select", "NOPE999")
    assert result.returncode == 2
    assert "unknown rule" in result.stderr


def test_committed_tree_is_clean():
    """The gate the lint CI job enforces: src/repro and benchmarks are clean."""
    result = _run_cli("src/repro", "benchmarks")
    assert result.returncode == 0, result.stdout + result.stderr


def test_mypy_strict_gate():
    """The second half of the lint gate; runs wherever mypy is installed.

    The container image does not ship mypy (and the repo rules forbid
    installing it ad hoc), so this skips locally and bites in CI, which
    installs the pinned version from .github/workflows/ci.yml.
    """
    try:
        import mypy  # noqa: F401
    except ImportError:
        pytest.skip("mypy not installed; the CI lint job runs this gate")
    result = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file", "mypy.ini"],
        cwd=str(REPO_ROOT),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr


# ---------------------------------------------------------------------------
# determinism regressions for the DET002 fix in normalize_failed_links
# ---------------------------------------------------------------------------


def test_normalize_failed_links_output_unchanged_by_sorting_fix():
    network = line_topology(4)
    names = network.node_names
    dead, nodes = normalize_failed_links(network, failed_nodes=[names[1], names[2]])
    # Byte-identical contract: the same frozensets as the pre-fix code
    # (set-union results are order-insensitive; only error *selection* moved).
    expected_dead = {
        link.link_id
        for name in (names[1], names[2])
        for link in (*network.out_links(name), *network.in_links(name))
    }
    assert dead == frozenset(expected_dead)
    assert nodes == frozenset({names[1], names[2]})


def test_normalize_failed_links_error_is_deterministic():
    network = line_topology(3)
    with pytest.raises(FailureError) as caught:
        normalize_failed_links(network, failed_nodes=["zzz", "aaa"])
    # Iteration over the unknown-node set is now sorted, so the first
    # (alphabetically) unknown node is always the one reported.
    assert "'aaa'" in str(caught.value)


def test_load_jsonl_corrupt_tail_is_logged(tmp_path, caplog):
    from repro.runner.report import load_jsonl_records

    stream = tmp_path / "records.jsonl"
    stream.write_text(
        json.dumps({"config_hash": "a", "value": 1}) + "\n" + '{"truncated": ',
        encoding="utf-8",
    )
    with caplog.at_level("WARNING", logger="repro.runner.report"):
        records = load_jsonl_records(stream)
    assert [r["config_hash"] for r in records] == ["a"]
    assert any("skipped 1" in message for message in caplog.messages)

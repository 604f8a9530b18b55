"""Project-specific determinism and invariant rules.

Every rule here guards an invariant the repo's correctness story depends on
(see README «Static analysis» for the catalogue):

* **DET001** — unseeded entropy: the stdlib ``random`` global API, the
  legacy ``np.random.*`` global API, ``os.urandom``, builtin ``hash()``
  (salted per process for ``str``), and wall-clock time used as a seed.
  All randomness must flow through an explicitly seeded
  ``np.random.Generator``.
* **DET002** — iteration over an unordered ``set``/``frozenset`` whose
  order escapes (for-loops, comprehensions, ``list``/``tuple``/``zip``/
  ``enumerate``/``join``) without an explicit ``sorted()``.  Hash-salted
  string sets iterate in a different order every *process*, which silently
  perturbs results, cache keys and RNG draw order.  Dict iteration is
  insertion-ordered on the supported interpreters and is not flagged.
* **DET003** — an RNG constructed without a seed: ``default_rng()`` /
  ``SeedSequence()`` / bit generators with no argument (or a literal
  ``None``) fall back to OS entropy.  Seeds must come from a config/spec
  field so a record's seed regenerates its run.
* **MP001** — pickle-unsafe callables handed to worker pools /
  processes: lambdas, nested functions and ``self``-bound methods cannot
  cross a ``spawn`` boundary and break the sweep engine's workers.
* **SIG001** — content-signature completeness: the fields of the classes
  that feed :func:`repro.paths.cache.topology_signature` and
  :meth:`repro.runner.spec.CellSpec.canonical` must each be hashed (or be
  on the rule's explicit, justified exclusion list), and classes used
  verbatim as cache-key components must stay frozen dataclasses.  This is
  the stale-cache bug class: add a behaviour-affecting field without
  extending the signature and every cache silently serves wrong results.
* **EXC001** — silently swallowed exceptions: a handler for a broad type
  (bare / ``Exception`` / ``BaseException``) or for I/O + decode errors
  (``OSError``, ``json.JSONDecodeError``) must re-raise, use the bound
  exception, log, or record an error — never just ``pass``/``continue``/
  ``return None``.  (``FileNotFoundError`` alone is a legitimate cache
  miss and is not flagged.)

DET001, DET003 and MP001 read the facts :mod:`repro.analysis.summaries`
extracts for every call of the module (entropy sites and pickle-unsafe
submissions); DET002 and EXC001 walk the tree.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.analysis.base import (
    PROJECT_SCOPE,
    ModuleContext,
    Rule,
    Violation,
    terminal_name,
)
from repro.analysis.registry import register_rule
from repro.analysis.summaries import (
    ModuleSummary,
    module_name_for,
    source_sha,
    summarize_module,
)

# --------------------------------------------------------------------------
# summary-based rules: DET001, DET003, MP001
# --------------------------------------------------------------------------


def _summary(module: ModuleContext) -> ModuleSummary:
    """The module's summary: attached by the walker, else summarized here."""
    if module.summary is None:
        path = Path(module.path)
        module.summary = summarize_module(
            module.path,
            module.tree,
            module_name_for(path),
            source_sha(module.source),
            is_package=path.name == "__init__.py",
        )
    return module.summary


def _entropy_violations(
    module: ModuleContext, code: str, messages: Mapping[str, str]
) -> Iterator[Violation]:
    """One violation per entropy site of *module* whose kind *messages* names."""
    for function in _summary(module).functions:
        for site in function.entropy_sites:
            if site.kind in messages:
                message = messages[site.kind].format(name=site.name)
                yield Violation(module.path, site.line, site.column, code, message)


#: DET001 messages by entropy-site kind.
_ENTROPY_MESSAGES: Mapping[str, str] = {
    "stdlib-random": "call to the process-global stdlib RNG {name}; draw from "
    "an explicitly seeded np.random.Generator instead",
    "numpy-global": "call to the legacy numpy global RNG {name}; use a seeded "
    "np.random.Generator",
    "os-entropy": "os.urandom draws OS entropy; results cannot be regenerated",
    "salted-hash": "builtin hash() is salted per process for str "
    "(PYTHONHASHSEED); use hashlib for any value that feeds results or cache "
    "keys",
    "clock-seed": "{name}() used as a seed; seeds must come from a config/spec "
    "field so runs are regenerable",
}

#: DET003 messages by entropy-site kind.
_UNSEEDED_MESSAGES: Mapping[str, str] = {
    "no-seed": "{name}() without a seed draws OS entropy; pass a seed derived "
    "from a config/spec field",
    "none-seed": "{name}(None) is explicitly unseeded; pass a seed derived "
    "from a config/spec field",
}


@register_rule
class UnseededEntropyRule(Rule):
    code = "DET001"
    summary = (
        "unseeded entropy: stdlib random, legacy np.random globals, os.urandom, "
        "builtin hash(), or wall-clock time used as a seed"
    )

    def check(self, module: ModuleContext) -> Iterator[Violation]:
        return _entropy_violations(module, self.code, _ENTROPY_MESSAGES)


@register_rule
class UnseededGeneratorRule(Rule):
    code = "DET003"
    summary = (
        "np.random RNG constructed without a seed (default_rng()/SeedSequence()/"
        "bit generators with no argument fall back to OS entropy)"
    )

    def check(self, module: ModuleContext) -> Iterator[Violation]:
        return _entropy_violations(module, self.code, _UNSEEDED_MESSAGES)


@register_rule
class PickleUnsafeCallableRule(Rule):
    code = "MP001"
    summary = (
        "pickle-unsafe callable (lambda / nested function / self-bound method) "
        "submitted to a worker pool or Process"
    )

    def check(self, module: ModuleContext) -> Iterator[Violation]:
        for function in _summary(module).functions:
            for site in function.unsafe_submissions:
                yield Violation(
                    module.path,
                    site.line,
                    site.column,
                    self.code,
                    f"{site.name} handed to {site.kind} cannot be pickled by a "
                    f"spawn-based worker; move it to module level",
                )


# --------------------------------------------------------------------------
# DET002 — order-sensitive iteration over unordered sets
# --------------------------------------------------------------------------

#: Calling one of these on a set is order-insensitive, hence safe.
_ORDER_SAFE_CONSUMERS = frozenset(
    {
        "sorted",
        "len",
        "min",
        "max",
        "sum",
        "any",
        "all",
        "set",
        "frozenset",
        "bool",
        "isdisjoint",
        "issubset",
        "issuperset",
        "union",
        "intersection",
        "difference",
        "symmetric_difference",
        "update",
    }
)

#: Calling one of these *exposes* iteration order.
_ORDER_EXPOSING_CONSUMERS = frozenset(
    {"list", "tuple", "iter", "enumerate", "zip", "join", "next", "fromkeys"}
)

#: Attribute names the project guarantees to be sets (degraded-view fields).
_KNOWN_SET_ATTRIBUTES = frozenset({"failed_links", "failed_nodes"})

_SET_ANNOTATION_RE = re.compile(
    r"^(typing\.)?(Set|FrozenSet|MutableSet|AbstractSet|set|frozenset)\b"
)


def _annotation_is_set(annotation: Optional[ast.AST]) -> bool:
    if annotation is None:
        return False
    text = ast.unparse(annotation) if hasattr(ast, "unparse") else ""
    return bool(_SET_ANNOTATION_RE.match(text.strip()))


class _SetTracker:
    """Track which plain names are definitely sets, per function scope."""

    def __init__(self) -> None:
        self.set_names: Set[str] = set()

    def is_set_expression(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = terminal_name(node.func)
            if name in {"set", "frozenset"}:
                return True
            if name in {
                "union",
                "intersection",
                "difference",
                "symmetric_difference",
            } and isinstance(node.func, ast.Attribute):
                return self.is_set_expression(node.func.value)
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self.is_set_expression(node.left) or self.is_set_expression(
                node.right
            )
        if isinstance(node, ast.Name):
            return node.id in self.set_names
        if isinstance(node, ast.Attribute):
            return node.attr in _KNOWN_SET_ATTRIBUTES
        return False

    def learn_assignment(self, node: ast.AST) -> None:
        if isinstance(node, ast.Assign) and self.is_set_expression(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.set_names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if _annotation_is_set(node.annotation) or (
                node.value is not None and self.is_set_expression(node.value)
            ):
                self.set_names.add(node.target.id)

    def learn_parameters(self, node: ast.AST) -> None:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        arguments = node.args
        for argument in [
            *arguments.posonlyargs,
            *arguments.args,
            *arguments.kwonlyargs,
        ]:
            if _annotation_is_set(argument.annotation):
                self.set_names.add(argument.arg)


@register_rule
class UnorderedIterationRule(Rule):
    code = "DET002"
    summary = (
        "iteration order of an unordered set escapes (loop/comprehension/"
        "list/tuple/zip/join) without sorted()"
    )

    def check(self, module: ModuleContext) -> Iterator[Violation]:
        # One pass per function scope (plus module top level) so local
        # set-ness does not leak across functions.
        scopes: List[Tuple[ast.AST, _SetTracker]] = []
        module_tracker = _SetTracker()
        scopes.append((module.tree, module_tracker))
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                tracker = _SetTracker()
                tracker.learn_parameters(node)
                scopes.append((node, tracker))
        for scope_root, tracker in scopes:
            yield from self._check_scope(module, scope_root, tracker)

    def _direct_children(self, scope_root: ast.AST) -> Iterator[ast.AST]:
        """Walk the scope but do not descend into nested function scopes."""
        stack = list(ast.iter_child_nodes(scope_root))
        while stack:
            node = stack.pop(0)
            yield node
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stack.extend(ast.iter_child_nodes(node))

    def _check_scope(
        self, module: ModuleContext, scope_root: ast.AST, tracker: _SetTracker
    ) -> Iterator[Violation]:
        nodes = list(self._direct_children(scope_root))
        for node in nodes:  # learn assignments first: order-independent result
            tracker.learn_assignment(node)
        for node in nodes:
            yield from self._check_node(module, node, tracker)

    def _message(self, node: ast.AST, how: str) -> str:
        described = ast.unparse(node) if hasattr(ast, "unparse") else "set"
        if len(described) > 40:
            described = described[:37] + "..."
        return (
            f"iteration order of unordered set {described!r} escapes via {how}; "
            f"wrap it in sorted() to fix the order"
        )

    def _check_node(
        self, module: ModuleContext, node: ast.AST, tracker: _SetTracker
    ) -> Iterator[Violation]:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            if tracker.is_set_expression(node.iter):
                yield module.violation(node.iter, self.code, self._message(node.iter, "a for-loop"))
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp, ast.SetComp)):
            for generator in node.generators:
                if tracker.is_set_expression(generator.iter):
                    # A set comprehension produces another unordered set, so
                    # its own draw order never escapes.
                    if isinstance(node, ast.SetComp):
                        continue
                    yield module.violation(
                        generator.iter,
                        self.code,
                        self._message(generator.iter, "a comprehension"),
                    )
        elif isinstance(node, ast.Call):
            name = terminal_name(node.func)
            if name in _ORDER_EXPOSING_CONSUMERS:
                for argument in node.args:
                    if tracker.is_set_expression(argument):
                        yield module.violation(
                            argument,
                            self.code,
                            self._message(argument, f"{name}()"),
                        )
        elif isinstance(node, ast.Starred) and tracker.is_set_expression(node.value):
            yield module.violation(
                node.value, self.code, self._message(node.value, "unpacking")
            )


# --------------------------------------------------------------------------
# SIG001 — content-signature completeness
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldCoverageSpec:
    """One audited (signature function ← source class) pair.

    ``excluded`` maps field names that are *deliberately* not hashed to the
    one-line justification recorded here; the rule re-reports an exclusion
    that the function in fact references (a stale exclusion is as wrong as
    a missing field).
    """

    function_module: str        #: module path suffix, e.g. "repro/paths/cache.py"
    function_name: str          #: plain or Class.method name
    class_module: str
    class_name: str
    excluded: Mapping[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class FrozenKeySpec:
    """A class used verbatim as a cache-key component: must stay a frozen
    dataclass so equality/hash cover every field by construction."""

    class_module: str
    class_name: str


#: The project's cache-key audit table.  PathSetCache and CompiledModelCache
#: key on topology_signature (× TrafficModelConfig); ResultCache keys on
#: CellSpec.canonical().  Every behaviour-affecting field of the source
#: classes must be hashed; exclusions carry their safety argument.
PROJECT_SIGNATURE_SPECS: Tuple[object, ...] = (
    FieldCoverageSpec(
        function_module="repro/paths/cache.py",
        function_name="topology_signature",
        class_module="repro/topology/graph.py",
        class_name="Link",
        excluded={
            "index": "assigned from insertion order, which the per-link hash "
            "loop already covers ordinally",
            "metadata": "free-form annotations; no routing/model/optimizer "
            "code path reads link metadata",
        },
    ),
    FieldCoverageSpec(
        function_module="repro/paths/cache.py",
        function_name="topology_signature",
        class_module="repro/topology/graph.py",
        class_name="Node",
        excluded={
            "latitude": "coordinates only shape delays at topology build "
            "time; the derived per-link delay_s is hashed",
            "longitude": "coordinates only shape delays at topology build "
            "time; the derived per-link delay_s is hashed",
            "metadata": "free-form annotations; no routing/model/optimizer "
            "code path reads node metadata",
        },
    ),
    FieldCoverageSpec(
        function_module="repro/runner/spec.py",
        function_name="CellSpec.canonical",
        class_module="repro/runner/spec.py",
        class_name="CellSpec",
    ),
    FrozenKeySpec(
        class_module="repro/trafficmodel/waterfill.py",
        class_name="TrafficModelConfig",
    ),
    FrozenKeySpec(
        class_module="repro/paths/policy.py",
        class_name="PathPolicy",
    ),
)


def _module_matches(path: str, suffix: str) -> bool:
    normalized = path.replace("\\", "/")
    return normalized.endswith(suffix)


def _class_field_names(class_node: ast.ClassDef) -> List[str]:
    """Field names of a dataclass (annotated class attributes) or, failing
    that, the ``self.X = ...`` assignments of ``__init__``."""
    annotated = [
        statement.target.id
        for statement in class_node.body
        if isinstance(statement, ast.AnnAssign)
        and isinstance(statement.target, ast.Name)
        and not statement.target.id.startswith("_")
    ]
    if annotated:
        return annotated
    fields: List[str] = []
    for statement in class_node.body:
        if (
            isinstance(statement, ast.FunctionDef)
            and statement.name == "__init__"
        ):
            for child in ast.walk(statement):
                if (
                    isinstance(child, ast.Assign)
                    and len(child.targets) == 1
                    and isinstance(child.targets[0], ast.Attribute)
                    and isinstance(child.targets[0].value, ast.Name)
                    and child.targets[0].value.id == "self"
                    and not child.targets[0].attr.startswith("_")
                ):
                    if child.targets[0].attr not in fields:
                        fields.append(child.targets[0].attr)
    return fields


def _referenced_names(function_node: ast.AST) -> Set[str]:
    """Every identifier a signature function can possibly read a field by:
    attribute accesses, plain names, and string literals (getattr keys)."""
    names: Set[str] = set()
    for node in ast.walk(function_node):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _is_frozen_dataclass(class_node: ast.ClassDef) -> bool:
    for decorator in class_node.decorator_list:
        if isinstance(decorator, ast.Call) and terminal_name(
            decorator.func
        ) == "dataclass":
            for keyword in decorator.keywords:
                if (
                    keyword.arg == "frozen"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True
                ):
                    return True
    return False


@register_rule
class SignatureCompletenessRule(Rule):
    code = "SIG001"
    summary = (
        "cache-key signature functions must hash every behaviour-affecting "
        "field of the classes they fingerprint (stale-cache bug class)"
    )
    scope = PROJECT_SCOPE

    def __init__(self, specs: Optional[Sequence[object]] = None) -> None:
        self.specs: Tuple[object, ...] = tuple(
            specs if specs is not None else PROJECT_SIGNATURE_SPECS
        )

    def check_project(
        self, modules: Sequence[ModuleContext]
    ) -> Iterator[Violation]:
        for spec in self.specs:
            if isinstance(spec, FieldCoverageSpec):
                yield from self._check_coverage(spec, modules)
            elif isinstance(spec, FrozenKeySpec):
                yield from self._check_frozen(spec, modules)

    # -- helpers

    def _find_class(
        self, modules: Sequence[ModuleContext], module_suffix: str, name: str
    ) -> Optional[Tuple[ModuleContext, ast.ClassDef]]:
        for module in modules:
            if not _module_matches(module.path, module_suffix):
                continue
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef) and node.name == name:
                    return module, node
        return None

    def _find_function(
        self, modules: Sequence[ModuleContext], module_suffix: str, dotted: str
    ) -> Optional[Tuple[ModuleContext, ast.AST]]:
        class_name, _, method_name = dotted.rpartition(".")
        for module in modules:
            if not _module_matches(module.path, module_suffix):
                continue
            if class_name:
                found = self._find_class(
                    [module], module_suffix, class_name
                )
                if found is None:
                    continue
                for node in found[1].body:
                    if (
                        isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and node.name == method_name
                    ):
                        return module, node
            else:
                for node in module.tree.body:
                    if (
                        isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and node.name == dotted
                    ):
                        return module, node
        return None

    def _check_coverage(
        self, spec: FieldCoverageSpec, modules: Sequence[ModuleContext]
    ) -> Iterator[Violation]:
        relevant = [
            module
            for module in modules
            if _module_matches(module.path, spec.function_module)
            or _module_matches(module.path, spec.class_module)
        ]
        if not relevant:
            return  # the audited files are outside the analyzed paths
        class_found = self._find_class(modules, spec.class_module, spec.class_name)
        function_found = self._find_function(
            modules, spec.function_module, spec.function_name
        )
        if class_found is None or function_found is None:
            # Only complain when the analyzed paths include the file that
            # should contain the missing definition — analysing a subtree
            # must not produce spurious config-rot findings.
            missing_suffix = (
                spec.class_module if class_found is None else spec.function_module
            )
            for module in modules:
                if _module_matches(module.path, missing_suffix):
                    missing = (
                        f"class {spec.class_name}"
                        if class_found is None
                        else f"function {spec.function_name}"
                    )
                    yield Violation(
                        path=module.path,
                        line=1,
                        column=1,
                        code=self.code,
                        message=(
                            f"signature audit table names {missing} in "
                            f"{missing_suffix} but it was not found; update "
                            f"PROJECT_SIGNATURE_SPECS"
                        ),
                    )
                    break
            return
        function_module, function_node = function_found
        _, class_node = class_found
        fields = _class_field_names(class_node)
        referenced = _referenced_names(function_node)
        anchor_line = getattr(function_node, "lineno", 1)
        for field_name in fields:
            if field_name in spec.excluded:
                continue
            if field_name not in referenced:
                yield Violation(
                    path=function_module.path,
                    line=anchor_line,
                    column=1,
                    code=self.code,
                    message=(
                        f"{spec.function_name} does not hash field "
                        f"{spec.class_name}.{field_name}; cached entries will "
                        f"be served stale when it changes (add it to the "
                        f"signature or record a justified exclusion in "
                        f"PROJECT_SIGNATURE_SPECS)"
                    ),
                )
        for field_name in spec.excluded:
            if field_name in fields and field_name in referenced:
                yield Violation(
                    path=function_module.path,
                    line=anchor_line,
                    column=1,
                    code=self.code,
                    message=(
                        f"stale exclusion: {spec.function_name} now references "
                        f"{spec.class_name}.{field_name}, which the audit "
                        f"table excludes; drop the exclusion"
                    ),
                )

    def _check_frozen(
        self, spec: FrozenKeySpec, modules: Sequence[ModuleContext]
    ) -> Iterator[Violation]:
        found = self._find_class(modules, spec.class_module, spec.class_name)
        if found is None:
            return
        module, class_node = found
        if not _is_frozen_dataclass(class_node):
            yield Violation(
                path=module.path,
                line=class_node.lineno,
                column=1,
                code=self.code,
                message=(
                    f"{spec.class_name} is used verbatim as a cache-key "
                    f"component and must stay a @dataclass(frozen=True) so "
                    f"equality and hash cover every field"
                ),
            )


# --------------------------------------------------------------------------
# EXC001 — silently swallowed exceptions
# --------------------------------------------------------------------------

#: Handler types that must never swallow silently.  FileNotFoundError alone
#: is a legitimate cache miss and deliberately absent.
_BROAD_EXCEPTION_NAMES = frozenset({"Exception", "BaseException"})
_NOISY_IO_NAMES = frozenset(
    {"OSError", "IOError", "EnvironmentError", "JSONDecodeError"}
)

#: A call whose terminal name matches this is "recording" the failure.
_RECORDING_CALL_RE = re.compile(
    r"log|warn|print|error|record|report|debug|info|exception|critical|fail",
    re.IGNORECASE,
)

#: An assignment target matching this counts as an error record / counter.
_RECORDING_TARGET_RE = re.compile(
    r"error|corrupt|skip|drop|fail|invalid|stale", re.IGNORECASE
)


@register_rule
class SwallowedExceptionRule(Rule):
    code = "EXC001"
    summary = (
        "broad or I/O exception handler swallows silently: re-raise, use the "
        "exception, log, or record an error"
    )

    def check(self, module: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            matched = self._matched_types(node.type)
            if not matched:
                continue
            if self._is_silent(node):
                yield module.violation(
                    node,
                    self.code,
                    f"handler for {', '.join(sorted(matched))} swallows the "
                    f"exception without re-raising, logging, or recording an "
                    f"error",
                )

    def _matched_types(self, type_node: Optional[ast.AST]) -> List[str]:
        if type_node is None:
            return ["bare except"]
        candidates = (
            list(type_node.elts) if isinstance(type_node, ast.Tuple) else [type_node]
        )
        matched: List[str] = []
        for candidate in candidates:
            name = terminal_name(candidate)
            if name in _BROAD_EXCEPTION_NAMES or name in _NOISY_IO_NAMES:
                matched.append(str(name))
        return matched

    def _is_silent(self, handler: ast.ExceptHandler) -> bool:
        bound_name = handler.name
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return False
            if (
                bound_name
                and isinstance(node, ast.Name)
                and node.id == bound_name
                and isinstance(node.ctx, ast.Load)
            ):
                return False
            if isinstance(node, ast.Call):
                name = terminal_name(node.func) or ""
                if _RECORDING_CALL_RE.search(name):
                    return False
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    target_name = terminal_name(target) or ""
                    if _RECORDING_TARGET_RE.search(target_name):
                        return False
        return True

"""Per-function dataflow summaries — the unit the whole-program rules consume.

One :class:`ModuleSummary` captures everything the interprocedural stage
needs to know about a file *without* re-reading it: every call site with the
derivation of each argument (which enclosing parameters and which producing
calls the value may flow from), every RNG construction with the provenance
of its seed expression, every ambient read (env vars, wall clock,
filesystem, host identity), every blocking call, every write to
module-level state, and every cache-store site.  The extraction is a small
forward abstract interpretation per function: names map to *may-derive*
sets of parameters and call indices, iterated to a fixpoint so loops and
re-assignments over-approximate instead of missing flows.

The same pass records the facts the per-file rules read: entropy sites
(DET001, DET003) and pickle-unsafe pool submissions (MP001).  Those cover
every call in the file — including class bodies, decorators, defaults and
definitions nested in compound statements, which the dataflow scopes skip —
so each call is classified once, by one import resolver.

Summaries are pure data (plain tuples of frozen dataclasses) so they
serialize to JSON; :class:`SummaryCache` keys them by a content hash of the
source, which makes warm whole-program runs re-summarize only changed
files.
"""

from __future__ import annotations

import ast
import collections
import hashlib
import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.analysis.base import call_name, terminal_name

LOGGER = logging.getLogger(__name__)

#: Bump when the summary data model, or the facts recorded for a given
#: source, change; stale cache files are ignored.
SUMMARY_SCHEMA_VERSION = 3

#: Synthetic function name holding a module's import-time statements.
MODULE_BODY = "<module>"

#: numpy constructors whose first argument is the seed; without one they
#: draw OS entropy (DET003).
_SEEDABLE_TERMINALS = frozenset(
    {"default_rng", "SeedSequence", "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937"}
)

#: Terminal names of RNG constructors (numpy and stdlib).
RNG_CONSTRUCTOR_TERMINALS = _SEEDABLE_TERMINALS | {
    "Generator",
    "RandomState",
    "Random",
    "SystemRandom",
}

#: ``numpy.random`` attributes that are not the legacy global RNG.
_NUMPY_RNG_TYPES = _SEEDABLE_TERMINALS | {"Generator", "BitGenerator"}

#: Canonical prefixes an RNG constructor must live under to count.
_RNG_MODULE_PREFIXES = ("numpy.random", "random", "numpy")

#: Canonical dotted names whose *call* reads ambient process state.
_AMBIENT_CALLS: Mapping[str, str] = {
    "os.environ.get": "env",
    "os.environb.get": "env",
    "os.getenv": "env",
    "os.getenvb": "env",
    "time.time": "clock",
    "time.time_ns": "clock",
    "time.monotonic": "clock",
    "time.monotonic_ns": "clock",
    "time.perf_counter": "clock",
    "time.perf_counter_ns": "clock",
    "time.process_time": "clock",
    "time.process_time_ns": "clock",
    "time.localtime": "clock",
    "time.gmtime": "clock",
    "time.ctime": "clock",
    "datetime.datetime.now": "clock",
    "datetime.datetime.utcnow": "clock",
    "datetime.datetime.today": "clock",
    "datetime.date.today": "clock",
    "os.listdir": "filesystem",
    "os.scandir": "filesystem",
    "os.stat": "filesystem",
    "os.getcwd": "filesystem",
    "glob.glob": "filesystem",
    "glob.iglob": "filesystem",
    "os.getpid": "process",
    "os.getppid": "process",
    "os.cpu_count": "process",
    "os.sched_getaffinity": "process",
    "os.uname": "process",
    "platform.node": "process",
    "platform.platform": "process",
    "socket.gethostname": "process",
    "getpass.getuser": "process",
}

#: Canonical dotted names whose bare *load* reads ambient state.
_AMBIENT_NAME_READS: Mapping[str, str] = {
    "os.environ": "env",
    "os.environb": "env",
    "sys.argv": "process",
}

#: Method terminals that read filesystem state regardless of receiver.
_AMBIENT_FS_METHOD_TERMINALS = frozenset(
    {"read_text", "read_bytes", "iterdir", "glob", "rglob"}
)

#: Canonical dotted names that always block (exact match).
_BLOCKING_EXACT = frozenset(
    {
        "time.sleep",
        "os.system",
        "os.popen",
        "input",
        "open",
        "socket.create_connection",
        "socket.socket",
        "select.select",
        "urllib.request.urlopen",
    }
)

#: Canonical prefixes that always block.
_BLOCKING_PREFIXES = ("subprocess.", "requests.", "http.client.", "shutil.")

#: Method terminals that block on any receiver (sync file I/O on path-likes).
_BLOCKING_METHOD_TERMINALS = frozenset(
    {"read_text", "read_bytes", "write_text", "write_bytes"}
)

#: Method terminals that block on a pool/queue-like receiver.
_BLOCKING_POOL_TERMINALS = frozenset(
    {"join", "map", "starmap", "apply", "get", "acquire", "wait", "result"}
)

#: Pool-submission method terminals (callable escapes to another process).
_POOL_SUBMIT_TERMINALS = frozenset(
    {
        "submit",
        "apply",
        "apply_async",
        "map",
        "map_async",
        "imap",
        "imap_unordered",
        "starmap",
        "starmap_async",
    }
)

#: Keyword arguments that carry a callable into another process.
_CALLABLE_KEYWORDS = frozenset({"target", "initializer", "func"})

#: Constructor terminals that spawn workers (callable keywords count here).
_SPAWN_CONSTRUCTOR_TERMINALS = frozenset(
    {"Process", "Pool", "Thread", "ProcessPoolExecutor", "ThreadPoolExecutor", "Timer"}
)

#: Receiver-name fragments that mark a pool/process/queue-like object.
_POOLISH_FRAGMENTS = ("pool", "executor", "worker", "proc", "thread", "queue", "future")

#: Cache-store method terminals.
_STORE_TERMINALS = frozenset({"store", "store_error", "put"})

#: Mutating method terminals on module-level containers (MP101).
_MUTATING_TERMINALS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
    }
)


@dataclass(frozen=True)
class ArgFlow:
    """Derivation of one expression inside a function body."""

    #: Enclosing-function parameters the value may derive from.
    params: Tuple[str, ...] = ()
    #: Indices (into the function's call list) whose results may flow in.
    calls: Tuple[int, ...] = ()
    #: Free dotted names (module globals, captures) that may flow in.
    names: Tuple[str, ...] = ()
    #: True when the expression is a literal constant tree.
    constant: bool = False

    def to_dict(self) -> Dict[str, object]:
        return {
            "params": list(self.params),
            "calls": list(self.calls),
            "names": list(self.names),
            "constant": self.constant,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ArgFlow":
        return cls(
            params=tuple(str(p) for p in data["params"]),  # type: ignore[union-attr]
            calls=tuple(int(c) for c in data["calls"]),  # type: ignore[union-attr]
            names=tuple(str(n) for n in data["names"]),  # type: ignore[union-attr]
            constant=bool(data["constant"]),
        )


@dataclass(frozen=True)
class CallSite:
    """One call expression: its (canonicalized) target and argument flows."""

    index: int
    target: str            #: canonical dotted target ("" when dynamic)
    line: int
    column: int
    args: Tuple[ArgFlow, ...] = ()
    keywords: Tuple[Tuple[str, ArgFlow], ...] = ()
    #: Resolved candidate callees when the target is a dispatch-table local.
    candidates: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "target": self.target,
            "line": self.line,
            "column": self.column,
            "args": [arg.to_dict() for arg in self.args],
            "keywords": [[name, arg.to_dict()] for name, arg in self.keywords],
            "candidates": list(self.candidates),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CallSite":
        return cls(
            index=int(data["index"]),  # type: ignore[arg-type]
            target=str(data["target"]),
            line=int(data["line"]),  # type: ignore[arg-type]
            column=int(data["column"]),  # type: ignore[arg-type]
            args=tuple(
                ArgFlow.from_dict(arg) for arg in data["args"]  # type: ignore[union-attr]
            ),
            keywords=tuple(
                (str(pair[0]), ArgFlow.from_dict(pair[1]))
                for pair in data["keywords"]  # type: ignore[union-attr]
            ),
            candidates=tuple(str(c) for c in data["candidates"]),  # type: ignore[union-attr]
        )


@dataclass(frozen=True)
class RngSite:
    """One RNG construction and the provenance of its seed expression."""

    constructor: str
    line: int
    column: int
    seed: ArgFlow
    #: ``derived`` (flows from parameters), ``constant``, ``opaque``
    #: (ambient/global/call-derived with no parameter), or ``missing``.
    kind: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "constructor": self.constructor,
            "line": self.line,
            "column": self.column,
            "seed": self.seed.to_dict(),
            "kind": self.kind,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RngSite":
        return cls(
            constructor=str(data["constructor"]),
            line=int(data["line"]),  # type: ignore[arg-type]
            column=int(data["column"]),  # type: ignore[arg-type]
            seed=ArgFlow.from_dict(data["seed"]),  # type: ignore[arg-type]
            kind=str(data["kind"]),
        )


@dataclass(frozen=True)
class SiteFact:
    """A classified source location (ambient read / blocking call / write)."""

    name: str
    kind: str
    line: int
    column: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "kind": self.kind,
            "line": self.line,
            "column": self.column,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SiteFact":
        return cls(
            name=str(data["name"]),
            kind=str(data["kind"]),
            line=int(data["line"]),  # type: ignore[arg-type]
            column=int(data["column"]),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class StoreSite:
    """A value flowing into a cache (``cache.store(...)`` or ``self._x[k] =``)."""

    receiver: str
    line: int
    column: int
    value: ArgFlow

    def to_dict(self) -> Dict[str, object]:
        return {
            "receiver": self.receiver,
            "line": self.line,
            "column": self.column,
            "value": self.value.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "StoreSite":
        return cls(
            receiver=str(data["receiver"]),
            line=int(data["line"]),  # type: ignore[arg-type]
            column=int(data["column"]),  # type: ignore[arg-type]
            value=ArgFlow.from_dict(data["value"]),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class FunctionSummary:
    """Everything the interprocedural stage knows about one function."""

    qualname: str          #: ``f``, ``C.m``, ``outer.inner`` or ``<module>``
    name: str
    line: int
    params: Tuple[str, ...] = ()
    class_name: Optional[str] = None
    public: bool = False
    calls: Tuple[CallSite, ...] = ()
    #: (canonical callable, line, column) handed to a pool/process.
    submitted: Tuple[Tuple[str, int, int], ...] = ()
    rng_sites: Tuple[RngSite, ...] = ()
    ambient_reads: Tuple[SiteFact, ...] = ()
    blocking_calls: Tuple[SiteFact, ...] = ()
    global_writes: Tuple[SiteFact, ...] = ()
    store_sites: Tuple[StoreSite, ...] = ()
    references: Tuple[str, ...] = ()
    #: Entropy draws and unseeded RNG constructions (DET001, DET003):
    #: ``name`` is the canonical call, ``kind`` says which.
    entropy_sites: Tuple[SiteFact, ...] = ()
    #: Pickle-unsafe callables handed to a pool or process (MP001): ``name``
    #: describes the callable, ``kind`` the call it is handed to.
    unsafe_submissions: Tuple[SiteFact, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        return {
            "qualname": self.qualname,
            "name": self.name,
            "line": self.line,
            "params": list(self.params),
            "class_name": self.class_name,
            "public": self.public,
            "calls": [site.to_dict() for site in self.calls],
            "submitted": [list(entry) for entry in self.submitted],
            "rng_sites": [site.to_dict() for site in self.rng_sites],
            "ambient_reads": [site.to_dict() for site in self.ambient_reads],
            "blocking_calls": [site.to_dict() for site in self.blocking_calls],
            "global_writes": [site.to_dict() for site in self.global_writes],
            "store_sites": [site.to_dict() for site in self.store_sites],
            "references": list(self.references),
            "entropy_sites": [site.to_dict() for site in self.entropy_sites],
            "unsafe_submissions": [
                site.to_dict() for site in self.unsafe_submissions
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FunctionSummary":
        raw_class = data["class_name"]
        return cls(
            qualname=str(data["qualname"]),
            name=str(data["name"]),
            line=int(data["line"]),  # type: ignore[arg-type]
            params=tuple(str(p) for p in data["params"]),  # type: ignore[union-attr]
            class_name=None if raw_class is None else str(raw_class),
            public=bool(data["public"]),
            calls=tuple(
                CallSite.from_dict(site) for site in data["calls"]  # type: ignore[union-attr]
            ),
            submitted=tuple(
                (str(entry[0]), int(entry[1]), int(entry[2]))
                for entry in data["submitted"]  # type: ignore[union-attr]
            ),
            rng_sites=tuple(
                RngSite.from_dict(site) for site in data["rng_sites"]  # type: ignore[union-attr]
            ),
            ambient_reads=tuple(
                SiteFact.from_dict(site)
                for site in data["ambient_reads"]  # type: ignore[union-attr]
            ),
            blocking_calls=tuple(
                SiteFact.from_dict(site)
                for site in data["blocking_calls"]  # type: ignore[union-attr]
            ),
            global_writes=tuple(
                SiteFact.from_dict(site)
                for site in data["global_writes"]  # type: ignore[union-attr]
            ),
            store_sites=tuple(
                StoreSite.from_dict(site)
                for site in data["store_sites"]  # type: ignore[union-attr]
            ),
            references=tuple(str(n) for n in data["references"]),  # type: ignore[union-attr]
            entropy_sites=tuple(
                SiteFact.from_dict(site)
                for site in data["entropy_sites"]  # type: ignore[union-attr]
            ),
            unsafe_submissions=tuple(
                SiteFact.from_dict(site)
                for site in data["unsafe_submissions"]  # type: ignore[union-attr]
            ),
        )


@dataclass(frozen=True)
class ClassSummary:
    """One class: canonical base names and the methods it defines."""

    name: str
    line: int
    bases: Tuple[str, ...] = ()
    methods: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "line": self.line,
            "bases": list(self.bases),
            "methods": list(self.methods),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ClassSummary":
        return cls(
            name=str(data["name"]),
            line=int(data["line"]),  # type: ignore[arg-type]
            bases=tuple(str(b) for b in data["bases"]),  # type: ignore[union-attr]
            methods=tuple(str(m) for m in data["methods"]),  # type: ignore[union-attr]
        )


@dataclass(frozen=True)
class ModuleSummary:
    """The per-file unit of the whole-program model."""

    module: str
    path: str
    sha: str
    imports: Tuple[Tuple[str, str], ...] = ()
    classes: Tuple[ClassSummary, ...] = ()
    #: Module-level dicts/tuples whose values are plain callables.
    callable_tables: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()
    functions: Tuple[FunctionSummary, ...] = ()
    module_level_names: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        return {
            "module": self.module,
            "path": self.path,
            "sha": self.sha,
            "imports": [list(pair) for pair in self.imports],
            "classes": [cls_.to_dict() for cls_ in self.classes],
            "callable_tables": [
                [name, list(members)] for name, members in self.callable_tables
            ],
            "functions": [fn.to_dict() for fn in self.functions],
            "module_level_names": list(self.module_level_names),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ModuleSummary":
        return cls(
            module=str(data["module"]),
            path=str(data["path"]),
            sha=str(data["sha"]),
            imports=tuple(
                (str(pair[0]), str(pair[1]))
                for pair in data["imports"]  # type: ignore[union-attr]
            ),
            classes=tuple(
                ClassSummary.from_dict(entry)
                for entry in data["classes"]  # type: ignore[union-attr]
            ),
            callable_tables=tuple(
                (str(entry[0]), tuple(str(m) for m in entry[1]))
                for entry in data["callable_tables"]  # type: ignore[union-attr]
            ),
            functions=tuple(
                FunctionSummary.from_dict(entry)
                for entry in data["functions"]  # type: ignore[union-attr]
            ),
            module_level_names=tuple(
                str(n) for n in data["module_level_names"]  # type: ignore[union-attr]
            ),
        )


def source_sha(source: str) -> str:
    """Content hash keying the summary cache."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def module_name_for(path: Path) -> str:
    """Dotted module name derived by walking up ``__init__.py`` ancestors."""
    resolved = path.resolve()
    parts: List[str] = [] if resolved.stem == "__init__" else [resolved.stem]
    parent = resolved.parent
    while (parent / "__init__.py").is_file():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else resolved.stem


class _ImportMap:
    """Local-name → canonical dotted-name resolution for one module."""

    def __init__(self, module_name: str, is_package: bool) -> None:
        self.aliases: Dict[str, str] = {}
        self.module_aliases: Dict[str, str] = {}
        parts = module_name.split(".") if module_name else []
        self._package_parts = parts if is_package else parts[:-1]

    def add_import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.asname is not None:
                self.aliases[alias.asname] = alias.name
                self.module_aliases[alias.asname] = alias.name
            else:
                head = alias.name.split(".", 1)[0]
                self.aliases[head] = head
                self.module_aliases[head] = head

    def add_import_from(self, node: ast.ImportFrom) -> None:
        if node.level:
            keep = len(self._package_parts) - (node.level - 1)
            base_parts = self._package_parts[: max(keep, 0)]
            base = ".".join(base_parts)
            if node.module:
                base = f"{base}.{node.module}" if base else node.module
        else:
            base = node.module or ""
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            self.aliases[local] = f"{base}.{alias.name}" if base else alias.name

    def canonical(self, dotted: str) -> str:
        head, sep, rest = dotted.partition(".")
        target = self.aliases.get(head)
        if target is None:
            return dotted
        return f"{target}.{rest}" if sep else target

    def items(self) -> List[Tuple[str, str]]:
        return sorted(self.aliases.items())


class _FlowSet:
    """Mutable accumulator behind :class:`ArgFlow` (set-union semantics)."""

    __slots__ = ("params", "calls", "names", "constant")

    def __init__(self) -> None:
        self.params: Set[str] = set()
        self.calls: Set[int] = set()
        self.names: Set[str] = set()
        self.constant = False

    def merge(self, other: "_FlowSet") -> bool:
        before = (len(self.params), len(self.calls), len(self.names), self.constant)
        self.params |= other.params
        self.calls |= other.calls
        self.names |= other.names
        self.constant = self.constant or other.constant
        return before != (
            len(self.params),
            len(self.calls),
            len(self.names),
            self.constant,
        )

    def freeze(self) -> ArgFlow:
        return ArgFlow(
            params=tuple(sorted(self.params)),
            calls=tuple(sorted(self.calls)),
            names=tuple(sorted(self.names)),
            constant=self.constant,
        )


def _dotted_path(node: ast.AST) -> Optional[str]:
    """Like :func:`call_name` but also accepts a bare ``Name``."""
    return call_name(node)


def _iter_scope(nodes: Sequence[ast.stmt]) -> Iterator[ast.AST]:
    """Walk statements without descending into nested function/class defs."""
    stack: List[ast.AST] = list(nodes)
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            stack.append(child)


def _assigned_names(target: ast.AST) -> Iterator[str]:
    """Plain names bound by an assignment target."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            for name in _assigned_names(element):
                yield name
    elif isinstance(target, ast.Starred):
        for name in _assigned_names(target.value):
            yield name


def _looks_poolish(receiver: str) -> bool:
    lowered = receiver.lower()
    return any(fragment in lowered for fragment in _POOLISH_FRAGMENTS)


def _is_rng_constructor(target: str, shadowed: FrozenSet[str] = frozenset()) -> bool:
    """An RNG constructor under numpy/random, or a bare constructor name
    outside *shadowed*."""
    terminal = target.rsplit(".", 1)[-1]
    return terminal in RNG_CONSTRUCTOR_TERMINALS and (
        (target == terminal and target not in shadowed)
        or any(target.startswith(prefix + ".") for prefix in _RNG_MODULE_PREFIXES)
    )


def _constant_mode_is_write_only(call: ast.Call) -> bool:
    """True for ``open(path, "w")``-style calls (a write, not an ambient read)."""
    mode: Optional[str] = None
    if len(call.args) >= 2 and isinstance(call.args[1], ast.Constant):
        if isinstance(call.args[1].value, str):
            mode = call.args[1].value
    for keyword in call.keywords:
        if keyword.arg == "mode" and isinstance(keyword.value, ast.Constant):
            if isinstance(keyword.value.value, str):
                mode = keyword.value.value
    if mode is None:
        return False
    return any(flag in mode for flag in "wax") and "+" not in mode


class _FileFacts:
    """Entropy sites and pickle-unsafe submissions, classified per call.

    Needs no dataflow: a call is judged by its canonical target and its
    literal arguments, so the same classifier covers function bodies and
    the import-time code around them.
    """

    def __init__(
        self,
        imports: _ImportMap,
        nested_callables: FrozenSet[str],
        module_level_names: FrozenSet[str],
    ) -> None:
        self._imports = imports
        self._nested = nested_callables
        self._module_level_names = module_level_names

    def collect(
        self,
        roots: Sequence[ast.AST],
        summarized: FrozenSet[int],
        outermost: Optional[str],
    ) -> Tuple[Tuple[SiteFact, ...], Tuple[SiteFact, ...]]:
        """Facts of every call under *roots* outside the bodies of the
        *summarized* definitions (ids), which report their own.

        *outermost* names the outermost function enclosing *roots*; a
        ``hash()`` inside a ``__hash__`` is in-process identity, not entropy.
        """
        entropy: Set[SiteFact] = set()
        unsafe: Set[SiteFact] = set()
        stack: List[Tuple[ast.AST, Optional[str]]] = [
            (root, outermost) for root in roots
        ]
        while stack:
            node, enclosing = stack.pop()
            children: List[ast.AST] = list(ast.iter_child_nodes(node))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                enclosing = enclosing or node.name
                if id(node) in summarized:  # its body is summarized on its own
                    children = [*node.decorator_list, node.args]
                    if node.returns is not None:
                        children.append(node.returns)
            elif isinstance(node, ast.Call):
                self._entropy(node, enclosing, entropy)
                self._unsafe_submissions(node, unsafe)
            stack.extend((child, enclosing) for child in children)
        return tuple(sorted(entropy, key=_fact_order)), tuple(
            sorted(unsafe, key=_fact_order)
        )

    def _canonical(self, func: ast.AST) -> Optional[str]:
        dotted = _dotted_path(func)
        return None if dotted is None else self._imports.canonical(dotted)

    def _entropy(
        self, node: ast.Call, enclosing: Optional[str], entropy: Set[SiteFact]
    ) -> None:
        target = self._canonical(node.func)
        if target is None:
            return
        head, _, tail = target.partition(".")
        terminal = target.rsplit(".", 1)[-1]
        kind: Optional[str] = None
        if head == "random" and tail:
            kind = "stdlib-random"
        elif target.startswith("numpy.random.") and terminal not in _NUMPY_RNG_TYPES:
            kind = "numpy-global"
        elif target == "os.urandom":
            kind = "os-entropy"
        elif (
            target == "hash"
            and isinstance(node.func, ast.Name)
            and enclosing != "__hash__"
        ):
            kind = "salted-hash"
        if kind is not None:
            entropy.add(_site(target, kind, node))

        # The wall clock in a seed position: a seedable constructor's
        # arguments, or any ``*seed*=`` keyword.
        seed_values: List[ast.expr] = []
        if terminal in _SEEDABLE_TERMINALS or terminal == "Generator":
            seed_values.extend(node.args)
        seed_values.extend(
            keyword.value
            for keyword in node.keywords
            if keyword.arg is not None and "seed" in keyword.arg.lower()
        )
        for value in seed_values:
            for inner in ast.walk(value):
                if not isinstance(inner, ast.Call):
                    continue
                clock = self._canonical(inner.func)
                if clock is not None and _AMBIENT_CALLS.get(clock) == "clock":
                    entropy.add(_site(clock, "clock-seed", inner))

        # A seedable constructor given no seed, or a literal None.  A bare
        # name the module defines itself is not numpy's (as for SEED101).
        if terminal in _SEEDABLE_TERMINALS and _is_rng_constructor(
            target, self._module_level_names
        ):
            seeds = [*node.args[:1]] + [
                keyword.value for keyword in node.keywords if keyword.arg == "seed"
            ]
            if not seeds:
                entropy.add(_site(terminal, "no-seed", node))
            elif any(
                isinstance(seed, ast.Constant) and seed.value is None
                for seed in seeds
            ):
                entropy.add(_site(terminal, "none-seed", node))

    def _unsafe_submissions(self, node: ast.Call, unsafe: Set[SiteFact]) -> None:
        terminal = terminal_name(node.func) or ""
        handed: List[Tuple[ast.expr, str]] = []
        if (
            isinstance(node.func, ast.Attribute)
            and terminal in _POOL_SUBMIT_TERMINALS
            and node.args
            and _looks_poolish(terminal_name(node.func.value) or "")
        ):
            handed.append((node.args[0], f"{terminal}()"))
        for keyword in node.keywords:
            if keyword.arg in _CALLABLE_KEYWORDS and (
                keyword.arg != "func" or terminal in _POOL_SUBMIT_TERMINALS
            ):
                handed.append((keyword.value, f"{terminal}({keyword.arg}=...)"))
        for candidate, receiver in handed:
            problem = self._pickle_problem(candidate)
            if problem is not None:
                unsafe.add(_site(problem, receiver, candidate))

    def _pickle_problem(self, candidate: ast.expr) -> Optional[str]:
        if isinstance(candidate, ast.Lambda):
            return "lambda"
        if isinstance(candidate, ast.Name) and candidate.id in self._nested:
            return f"nested function {candidate.id!r}"
        if (
            isinstance(candidate, ast.Attribute)
            and isinstance(candidate.value, ast.Name)
            and candidate.value.id == "self"
        ):
            return f"bound method self.{candidate.attr}"
        if (
            isinstance(candidate, ast.Call)
            and terminal_name(candidate.func) == "partial"
            and candidate.args
        ):
            return self._pickle_problem(candidate.args[0])
        return None


def _site(name: str, kind: str, node: ast.expr) -> SiteFact:
    return SiteFact(name, kind, node.lineno, node.col_offset + 1)


def _fact_order(fact: SiteFact) -> Tuple[int, int, str, str]:
    return (fact.line, fact.column, fact.kind, fact.name)


class _FunctionSummarizer:
    """Extract one :class:`FunctionSummary` via fixpoint name derivation."""

    def __init__(
        self,
        body: Sequence[ast.stmt],
        params: Sequence[str],
        imports: _ImportMap,
        module_level_names: FrozenSet[str],
        tables: Mapping[str, Tuple[str, ...]],
        class_name: Optional[str],
    ) -> None:
        #: The scope's nodes, walked once and reread by every pass.
        self._scope = list(_iter_scope(body))
        self._params = tuple(params)
        self._imports = imports
        self._module_level_names = module_level_names
        self._tables = tables
        self._class_name = class_name
        self._env: Dict[str, _FlowSet] = {}
        self._local_types: Dict[str, str] = {}
        self._local_callables: Dict[str, Tuple[str, ...]] = {}
        self._local_names: Set[str] = set(params)
        self._global_decls: Set[str] = set()
        self._call_index: Dict[int, int] = {}
        self._calls_in_order: List[ast.Call] = []
        for param in params:
            flow = _FlowSet()
            flow.params.add(param)
            self._env[param] = flow

    # -- derivation ---------------------------------------------------------

    def _lookup(self, dotted: str) -> Optional[_FlowSet]:
        return self._env.get(dotted)

    def _derive(self, node: Optional[ast.AST]) -> _FlowSet:
        flow = _FlowSet()
        if node is None:
            return flow
        if isinstance(node, ast.Constant):
            flow.constant = True
            return flow
        if isinstance(node, (ast.Name, ast.Attribute)):
            dotted = _dotted_path(node)
            if dotted is not None:
                known = self._lookup(dotted)
                if known is not None:
                    flow.merge(known)
                    return flow
                head = dotted.split(".", 1)[0]
                base = self._lookup(head)
                if base is not None:
                    flow.merge(base)
                    return flow
                flow.names.add(self._imports.canonical(dotted))
                return flow
            flow.merge(self._derive(getattr(node, "value", None)))
            return flow
        if isinstance(node, ast.Call):
            index = self._call_index.get(id(node))
            if index is not None:
                flow.calls.add(index)
            for arg in node.args:
                flow.merge(self._derive(arg))
            for keyword in node.keywords:
                flow.merge(self._derive(keyword.value))
            if isinstance(node.func, ast.Attribute):
                flow.merge(self._derive(node.func.value))
            return flow
        if isinstance(node, ast.Subscript):
            flow.merge(self._derive(node.value))
            flow.merge(self._derive(node.slice))
            return flow
        if isinstance(node, ast.BinOp):
            flow.merge(self._derive(node.left))
            flow.merge(self._derive(node.right))
            return flow
        if isinstance(node, ast.UnaryOp):
            flow.merge(self._derive(node.operand))
            return flow
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                flow.merge(self._derive(value))
            return flow
        if isinstance(node, ast.Compare):
            flow.merge(self._derive(node.left))
            for comparator in node.comparators:
                flow.merge(self._derive(comparator))
            return flow
        if isinstance(node, ast.IfExp):
            flow.merge(self._derive(node.body))
            flow.merge(self._derive(node.orelse))
            return flow
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            flow.constant = True
            for element in node.elts:
                flow.merge(self._derive(element))
            return flow
        if isinstance(node, ast.Dict):
            flow.constant = True
            for key in node.keys:
                flow.merge(self._derive(key))
            for value in node.values:
                flow.merge(self._derive(value))
            return flow
        if isinstance(node, ast.Starred):
            flow.merge(self._derive(node.value))
            return flow
        if isinstance(node, ast.JoinedStr):
            for value in node.values:
                flow.merge(self._derive(value))
            return flow
        if isinstance(node, ast.FormattedValue):
            flow.merge(self._derive(node.value))
            return flow
        if isinstance(node, (ast.Await, ast.NamedExpr, ast.Expr)):
            flow.merge(self._derive(node.value))
            return flow
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            flow.merge(self._derive(node.elt))
            for generator in node.generators:
                flow.merge(self._derive(generator.iter))
            return flow
        if isinstance(node, ast.DictComp):
            flow.merge(self._derive(node.key))
            flow.merge(self._derive(node.value))
            for generator in node.generators:
                flow.merge(self._derive(generator.iter))
            return flow
        if isinstance(node, ast.Slice):
            flow.merge(self._derive(node.lower))
            flow.merge(self._derive(node.upper))
            flow.merge(self._derive(node.step))
            return flow
        return flow

    def _bind(self, dotted: str, flow: _FlowSet) -> bool:
        existing = self._env.get(dotted)
        if existing is None:
            self._env[dotted] = flow_copy = _FlowSet()
            flow_copy.merge(flow)
            return bool(flow.params or flow.calls or flow.names or flow.constant)
        return existing.merge(flow)

    def _bind_target(self, target: ast.AST, flow: _FlowSet) -> bool:
        changed = False
        if isinstance(target, ast.Name):
            self._local_names.add(target.id)
            changed = self._bind(target.id, flow) or changed
        elif isinstance(target, ast.Attribute):
            dotted = _dotted_path(target)
            if dotted is not None:
                changed = self._bind(dotted, flow) or changed
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                changed = self._bind_target(element, flow) or changed
        elif isinstance(target, ast.Starred):
            changed = self._bind_target(target.value, flow) or changed
        return changed

    def _note_table_iteration(self, target: ast.AST, iter_node: ast.AST) -> None:
        """``for name, fn in TABLE.items()`` binds fn to the table's members."""
        if not isinstance(iter_node, ast.Call):
            return
        func = iter_node.func
        if not isinstance(func, ast.Attribute) or func.attr not in ("items", "values"):
            return
        base = _dotted_path(func.value)
        if base is None:
            return
        members = self._tables.get(base)
        if members is None:
            return
        bound: Optional[str] = None
        if func.attr == "values" and isinstance(target, ast.Name):
            bound = target.id
        elif (
            func.attr == "items"
            and isinstance(target, (ast.Tuple, ast.List))
            and len(target.elts) == 2
            and isinstance(target.elts[1], ast.Name)
        ):
            bound = target.elts[1].id
        if bound is not None:
            self._local_callables[bound] = members

    def _note_local_type(self, target: ast.AST, value: ast.AST) -> None:
        if not isinstance(target, ast.Name) or not isinstance(value, ast.Call):
            return
        dotted = _dotted_path(value.func)
        if dotted is None:
            return
        canonical = self._imports.canonical(dotted)
        if canonical and canonical[0].isalpha():
            self._local_types[target.id] = canonical

    def annotate_param_type(self, param: str, annotation: Optional[ast.AST]) -> None:
        if annotation is None:
            return
        dotted = _dotted_path(annotation)
        if dotted is not None:
            self._local_types[param] = self._imports.canonical(dotted)

    # -- passes -------------------------------------------------------------

    def _collect_calls(self) -> None:
        calls = [
            node for node in self._scope if isinstance(node, ast.Call)
        ]
        calls.sort(key=lambda node: (node.lineno, node.col_offset))
        for index, node in enumerate(calls):
            self._call_index[id(node)] = index
        self._calls_in_order = calls

    def _collect_bindings(self) -> None:
        for node in self._scope:
            if isinstance(node, ast.Global):
                self._global_decls.update(node.names)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                self._note_table_iteration(node.target, node.iter)
                for name in _assigned_names(node.target):
                    self._local_names.add(name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    self._note_local_type(target, node.value)
                    for name in _assigned_names(target):
                        self._local_names.add(name)
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name):
                    self._local_names.add(node.target.id)
                    if node.value is not None:
                        self._note_local_type(node.target, node.value)
                    else:
                        self.annotate_param_type(node.target.id, node.annotation)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if item.optional_vars is not None:
                        for name in _assigned_names(item.optional_vars):
                            self._local_names.add(name)
            elif isinstance(node, ast.ExceptHandler):
                if node.name:
                    self._local_names.add(node.name)
            elif isinstance(node, ast.comprehension):
                self._note_table_iteration(node.target, node.iter)
                for name in _assigned_names(node.target):
                    self._local_names.add(name)
            elif isinstance(node, ast.NamedExpr):
                if isinstance(node.target, ast.Name):
                    self._local_names.add(node.target.id)

    def _propagate(self) -> None:
        for _ in range(4):
            changed = False
            for node in self._scope:
                if isinstance(node, ast.Assign):
                    flow = self._derive(node.value)
                    for target in node.targets:
                        changed = self._bind_target(target, flow) or changed
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    flow = self._derive(node.value)
                    changed = self._bind_target(node.target, flow) or changed
                elif isinstance(node, ast.AugAssign):
                    flow = self._derive(node.value)
                    changed = self._bind_target(node.target, flow) or changed
                elif isinstance(node, (ast.For, ast.AsyncFor)):
                    flow = self._derive(node.iter)
                    changed = self._bind_target(node.target, flow) or changed
                elif isinstance(node, (ast.With, ast.AsyncWith)):
                    for item in node.items:
                        if item.optional_vars is not None:
                            flow = self._derive(item.context_expr)
                            changed = (
                                self._bind_target(item.optional_vars, flow) or changed
                            )
                elif isinstance(node, ast.comprehension):
                    flow = self._derive(node.iter)
                    changed = self._bind_target(node.target, flow) or changed
                elif isinstance(node, ast.NamedExpr):
                    flow = self._derive(node.value)
                    changed = self._bind_target(node.target, flow) or changed
            if not changed:
                break

    # -- classification -----------------------------------------------------

    def _call_target(self, node: ast.Call) -> Tuple[str, Tuple[str, ...]]:
        func = node.func
        if isinstance(func, ast.Subscript):
            base = _dotted_path(func.value)
            if base is not None:
                members = self._tables.get(base)
                if members is not None:
                    return f"{base}[]", members
                return f"{self._imports.canonical(base)}[]", ()
            return "", ()
        dotted = _dotted_path(func)
        if dotted is None:
            return "", ()
        head, sep, rest = dotted.partition(".")
        if head == "self":
            return dotted, ()
        if not sep and dotted in self._local_callables:
            return dotted, self._local_callables[dotted]
        if sep and head in self._local_types:
            return f"{self._local_types[head]}.{rest}", ()
        return self._imports.canonical(dotted), ()

    def _seed_kind(self, flow: ArgFlow, present: bool) -> str:
        if not present:
            return "missing"
        if flow.params:
            return "derived"
        if flow.calls or flow.names:
            return "opaque"
        return "constant"

    def _classify_call(
        self,
        node: ast.Call,
        site: CallSite,
        rng_sites: List[RngSite],
        ambient: List[SiteFact],
        blocking: List[SiteFact],
        submitted: List[Tuple[str, int, int]],
        stores: List[StoreSite],
        global_writes: List[SiteFact],
    ) -> None:
        target = site.target
        terminal = target.rsplit(".", 1)[-1] if target else ""
        receiver = target.rsplit(".", 1)[0] if "." in target else ""

        # RNG constructions (SEED101).  A bare target only counts when it is
        # not shadowed by a same-named local definition in this module.
        if _is_rng_constructor(target, self._module_level_names):
            seed_node: Optional[ast.AST] = None
            if node.args:
                seed_node = node.args[0]
            for keyword in node.keywords:
                if keyword.arg == "seed":
                    seed_node = keyword.value
            seed_flow = self._derive(seed_node).freeze()
            rng_sites.append(
                RngSite(
                    constructor=target,
                    line=node.lineno,
                    column=node.col_offset + 1,
                    seed=seed_flow,
                    kind=self._seed_kind(seed_flow, seed_node is not None),
                )
            )

        # Ambient reads (PURE101).
        ambient_kind = _AMBIENT_CALLS.get(target)
        if ambient_kind is not None:
            ambient.append(
                SiteFact(target, ambient_kind, node.lineno, node.col_offset + 1)
            )
        elif target == "open" and not _constant_mode_is_write_only(node):
            ambient.append(
                SiteFact(target, "filesystem", node.lineno, node.col_offset + 1)
            )
        elif terminal == "open" and receiver and not _constant_mode_is_write_only(
            node
        ):
            ambient.append(
                SiteFact(target, "filesystem", node.lineno, node.col_offset + 1)
            )
        elif terminal in _AMBIENT_FS_METHOD_TERMINALS and receiver:
            ambient.append(
                SiteFact(target, "filesystem", node.lineno, node.col_offset + 1)
            )

        # Blocking calls (ASY101).
        blocking_hit = (
            target in _BLOCKING_EXACT
            or any(target.startswith(prefix) for prefix in _BLOCKING_PREFIXES)
            or (terminal in _BLOCKING_METHOD_TERMINALS and receiver)
            or (terminal == "open" and receiver)
            or (
                terminal in _BLOCKING_POOL_TERMINALS
                and receiver
                and _looks_poolish(receiver)
            )
        )
        if blocking_hit:
            blocking.append(
                SiteFact(target, "blocking", node.lineno, node.col_offset + 1)
            )

        # Pool submissions (MP101 roots).
        if terminal in _POOL_SUBMIT_TERMINALS and receiver and _looks_poolish(
            receiver
        ):
            if node.args:
                dotted = _dotted_path(node.args[0])
                if dotted is not None:
                    submitted.append(
                        (
                            self._imports.canonical(dotted),
                            node.lineno,
                            node.col_offset + 1,
                        )
                    )
        # ``Process(target=f)`` / ``Pool(initializer=f)`` / ``submit(func=f)``:
        # the keyword only counts on a process/pool-like constructor or method.
        spawnish = (
            terminal in _SPAWN_CONSTRUCTOR_TERMINALS
            or terminal in _POOL_SUBMIT_TERMINALS
            or (receiver != "" and _looks_poolish(receiver))
        )
        if spawnish:
            for keyword in node.keywords:
                if keyword.arg in _CALLABLE_KEYWORDS:
                    dotted = _dotted_path(keyword.value)
                    if dotted is not None:
                        submitted.append(
                            (
                                self._imports.canonical(dotted),
                                node.lineno,
                                node.col_offset + 1,
                            )
                        )

        # Cache stores (PURE101 sinks).
        if terminal in _STORE_TERMINALS and "cache" in receiver.lower():
            value_node: Optional[ast.AST] = None
            if node.args:
                value_node = node.args[-1]
            for keyword in node.keywords:
                if keyword.arg in ("value", "record", "entry", "result"):
                    value_node = keyword.value
            if value_node is not None:
                stores.append(
                    StoreSite(
                        receiver=target,
                        line=node.lineno,
                        column=node.col_offset + 1,
                        value=self._derive(value_node).freeze(),
                    )
                )

        # Mutating method calls on module-level containers (MP101).  Checked
        # against the receiver *as written* — the type-inferred rewrite in
        # ``site.target`` must not turn a local instance's mutation into a
        # write of the module-level class name.  A receiver that is exactly
        # a plain-``import`` module alias (``np.insert(...)``,
        # ``np.append(...)``) calls a module function; a container reached
        # through a module (``mod.CONTAINER.append``) still counts.
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            _MUTATING_TERMINALS
        ):
            written = _dotted_path(node.func.value)
            if written is not None and written not in self._imports.module_aliases:
                head = written.split(".", 1)[0]
                # Imported names count: mutating a container imported from
                # another module is still a module-level write.
                if head not in self._local_names and (
                    head in self._module_level_names
                    or head in self._imports.aliases
                ):
                    global_writes.append(
                        SiteFact(
                            written, "mutate", node.lineno, node.col_offset + 1
                        )
                    )

    def _collect_global_writes(self, global_writes: List[SiteFact]) -> None:
        for node in self._scope:
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    if target.id in self._global_decls:
                        global_writes.append(
                            SiteFact(
                                target.id,
                                "assign",
                                node.lineno,
                                node.col_offset + 1,
                            )
                        )
                elif isinstance(target, (ast.Attribute, ast.Subscript)):
                    base = target.value if isinstance(target, ast.Subscript) else target
                    dotted = _dotted_path(base)
                    if isinstance(target, ast.Attribute):
                        dotted = _dotted_path(target.value)
                    if dotted is None:
                        continue
                    head = dotted.split(".", 1)[0]
                    if head == "self" or head in self._local_names:
                        continue
                    if (
                        head in self._module_level_names
                        or head in self._imports.aliases
                    ):
                        global_writes.append(
                            SiteFact(
                                dotted,
                                "mutate",
                                node.lineno,
                                node.col_offset + 1,
                            )
                        )

    def _collect_subscript_stores(self, stores: List[StoreSite]) -> None:
        """``self._slot[key] = value`` inside a ``*Cache`` class is a store."""
        if not self._class_name or "cache" not in self._class_name.lower():
            return
        for node in self._scope:
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if not isinstance(target, ast.Subscript):
                    continue
                dotted = _dotted_path(target.value)
                if dotted is None or not dotted.startswith("self."):
                    continue
                stores.append(
                    StoreSite(
                        receiver=dotted,
                        line=node.lineno,
                        column=node.col_offset + 1,
                        value=self._derive(node.value).freeze(),
                    )
                )

    def _collect_name_reads(self, ambient: List[SiteFact]) -> None:
        seen: Set[Tuple[str, int]] = set()
        for node in self._scope:
            if not isinstance(node, ast.Attribute):
                continue
            dotted = _dotted_path(node)
            if dotted is None:
                continue
            canonical = self._imports.canonical(dotted)
            kind = _AMBIENT_NAME_READS.get(canonical)
            if kind is None or (kind, node.lineno) in seen:
                continue
            seen.add((kind, node.lineno))
            ambient.append(
                SiteFact(canonical, kind, node.lineno, node.col_offset + 1)
            )

    def summarize(
        self,
        qualname: str,
        name: str,
        line: int,
        references: Sequence[str],
        facts: Tuple[Tuple[SiteFact, ...], Tuple[SiteFact, ...]],
    ) -> FunctionSummary:
        self._collect_calls()
        self._collect_bindings()
        self._propagate()

        call_sites: List[CallSite] = []
        rng_sites: List[RngSite] = []
        ambient: List[SiteFact] = []
        blocking: List[SiteFact] = []
        submitted: List[Tuple[str, int, int]] = []
        stores: List[StoreSite] = []
        global_writes: List[SiteFact] = []

        for node in self._calls_in_order:
            target, candidates = self._call_target(node)
            site = CallSite(
                index=self._call_index[id(node)],
                target=target,
                line=node.lineno,
                column=node.col_offset + 1,
                args=tuple(
                    self._derive(arg).freeze()
                    for arg in node.args
                    if not isinstance(arg, ast.Starred)
                ),
                keywords=tuple(
                    (keyword.arg, self._derive(keyword.value).freeze())
                    for keyword in node.keywords
                    if keyword.arg is not None
                ),
                candidates=candidates,
            )
            call_sites.append(site)
            self._classify_call(
                node, site, rng_sites, ambient, blocking, submitted, stores,
                global_writes,
            )

        self._collect_global_writes(global_writes)
        self._collect_subscript_stores(stores)
        self._collect_name_reads(ambient)

        dedup_ambient: Dict[Tuple[str, int, int], SiteFact] = {
            (fact.kind, fact.line, fact.column): fact for fact in ambient
        }
        return FunctionSummary(
            qualname=qualname,
            name=name,
            line=line,
            params=self._params,
            class_name=self._class_name,
            public=not name.startswith("_") and name != MODULE_BODY,
            calls=tuple(call_sites),
            submitted=tuple(sorted(set(submitted))),
            rng_sites=tuple(rng_sites),
            ambient_reads=tuple(
                dedup_ambient[key] for key in sorted(dedup_ambient)
            ),
            blocking_calls=tuple(blocking),
            global_writes=tuple(global_writes),
            store_sites=tuple(stores),
            references=tuple(sorted(set(references))),
            entropy_sites=facts[0],
            unsafe_submissions=facts[1],
        )


def _references_in(nodes: Sequence[ast.AST], skip_imports: bool) -> List[str]:
    """Terminal names referenced anywhere under *nodes* (liveness signal)."""
    names: Set[str] = set()
    for root in nodes:
        for node in ast.walk(root):
            if skip_imports and isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return sorted(names)


def _function_params(node: ast.AST) -> List[str]:
    args = getattr(node, "args", None)
    if args is None:
        return []
    params: List[str] = []
    for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
        params.append(arg.arg)
    if args.vararg is not None:
        params.append(args.vararg.arg)
    if args.kwarg is not None:
        params.append(args.kwarg.arg)
    return params


def _callable_table_members(
    value: ast.AST, imports: _ImportMap
) -> Optional[Tuple[str, ...]]:
    """Members of a module-level callable dispatch table, if *value* is one."""
    candidates: List[ast.AST]
    if isinstance(value, ast.Dict):
        candidates = [entry for entry in value.values if entry is not None]
    elif isinstance(value, (ast.Tuple, ast.List)):
        candidates = list(value.elts)
    else:
        return None
    if not candidates:
        return None
    members: List[str] = []
    for entry in candidates:
        dotted = _dotted_path(entry)
        if dotted is None:
            return None
        members.append(imports.canonical(dotted))
    return tuple(members)


def _scan_module(tree: ast.Module, imports: _ImportMap) -> FrozenSet[str]:
    """Record every import in *imports*; return the nested-callable names.

    Those are functions defined inside another function, plus names bound to
    a lambda anywhere: neither pickles by reference.  The walk is
    breadth-first, like :func:`ast.walk`, so a name imported twice resolves
    to the later binding in that order.
    """
    nested: Set[str] = set()
    todo: "collections.deque[Tuple[ast.AST, bool]]" = collections.deque(
        [(tree, False)]
    )
    while todo:
        node, in_function = todo.popleft()
        if isinstance(node, ast.Import):
            imports.add_import(node)
        elif isinstance(node, ast.ImportFrom):
            imports.add_import_from(node)
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
            nested.update(
                target.id for target in node.targets if isinstance(target, ast.Name)
            )
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if in_function:
                nested.add(node.name)
            in_function = True
        todo.extend((child, in_function) for child in ast.iter_child_nodes(node))
    return frozenset(nested)


_Definition = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _definitions(body: Sequence[ast.stmt]) -> List[_Definition]:
    return [
        node
        for node in body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def summarize_module(
    display_path: str,
    tree: ast.Module,
    module_name: str,
    sha: str,
    is_package: bool = False,
) -> ModuleSummary:
    """Summarize one parsed module; *sha* is its source's :func:`source_sha`."""
    imports = _ImportMap(module_name, is_package)
    nested_callables = _scan_module(tree, imports)

    module_level: Set[str] = set()
    tables: Dict[str, Tuple[str, ...]] = {}
    classes: List[ClassSummary] = []
    functions: List[FunctionSummary] = []

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            module_level.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for name in _assigned_names(target):
                    module_level.add(name)
                if (
                    isinstance(target, ast.Name)
                    and len(node.targets) == 1
                ):
                    members = _callable_table_members(node.value, imports)
                    if members is not None:
                        tables[target.id] = members
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            module_level.add(node.target.id)

    frozen_module_level = frozenset(module_level)
    file_facts = _FileFacts(imports, nested_callables, frozen_module_level)

    def summarize_function(
        node: _Definition,
        qual_prefix: str,
        class_name: Optional[str],
        outermost: Optional[str],
    ) -> None:
        qualname = f"{qual_prefix}{node.name}" if qual_prefix else node.name
        enclosing = outermost or node.name
        params = _function_params(node)
        summarizer = _FunctionSummarizer(
            node.body,
            params,
            imports,
            frozen_module_level,
            tables,
            class_name,
        )
        for arg in list(node.args.posonlyargs) + list(node.args.args) + list(
            node.args.kwonlyargs
        ):
            summarizer.annotate_param_type(arg.arg, arg.annotation)
        references = _references_in(list(node.body), skip_imports=True)
        nested = _definitions(node.body)
        facts = file_facts.collect(
            node.body, frozenset(map(id, nested)), enclosing
        )
        functions.append(
            summarizer.summarize(qualname, node.name, node.lineno, references, facts)
        )
        for child in nested:
            summarize_function(child, f"{qualname}.", class_name, enclosing)

    methods: List[_Definition] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            summarize_function(node, "", None, None)
        elif isinstance(node, ast.ClassDef):
            class_methods = _definitions(node.body)
            methods.extend(class_methods)
            for child in class_methods:
                summarize_function(child, f"{node.name}.", node.name, None)
            bases: List[str] = []
            for base in node.bases:
                dotted = _dotted_path(base)
                if dotted is not None:
                    bases.append(imports.canonical(dotted))
            classes.append(
                ClassSummary(
                    name=node.name,
                    line=node.lineno,
                    bases=tuple(bases),
                    methods=tuple(method.name for method in class_methods),
                )
            )

    # Module body (import-time statements) as a synthetic function.
    body_statements = [
        node
        for node in tree.body
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        )
    ]
    module_refs: List[ast.AST] = [
        node
        for node in body_statements
        if not isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    # Decorators, defaults and class-level statements execute at import time,
    # so their references count as module references for liveness.
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            module_refs.extend(node.decorator_list)
            module_refs.extend(
                default for default in node.args.defaults if default is not None
            )
        elif isinstance(node, ast.ClassDef):
            module_refs.extend(node.decorator_list)
            module_refs.extend(node.bases)
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    module_refs.extend(child.decorator_list)
                else:
                    module_refs.append(child)
    body_summarizer = _FunctionSummarizer(
        body_statements, [], imports, frozen_module_level, tables, None
    )
    # The module body's facts also cover that import-time code and any
    # definition the loops above do not summarize.
    summarized = frozenset(map(id, _definitions(tree.body) + methods))
    functions.append(
        body_summarizer.summarize(
            MODULE_BODY,
            MODULE_BODY,
            1,
            _references_in(module_refs, skip_imports=True),
            file_facts.collect(tree.body, summarized, None),
        )
    )

    return ModuleSummary(
        module=module_name,
        path=display_path,
        sha=sha,
        imports=tuple(imports.items()),
        classes=tuple(classes),
        callable_tables=tuple(sorted(tables.items())),
        functions=tuple(functions),
        module_level_names=tuple(sorted(module_level)),
    )


class SummaryCache:
    """Content-hash-keyed disk cache of :class:`ModuleSummary` records.

    One JSON document maps display paths to summaries; :meth:`get` returns a
    cached summary only when the stored sha matches the current source, so
    warm whole-program runs re-summarize only changed files.
    """

    FILENAME = "summaries.json"

    def __init__(self, directory: Optional[Path]) -> None:
        self._directory = directory
        self._entries: Dict[str, Dict[str, object]] = {}
        self._dirty = False
        self.hits = 0
        self.summarized = 0
        if directory is not None:
            self._load(directory / self.FILENAME)

    def _load(self, path: Path) -> None:
        if not path.is_file():
            return
        try:
            document = json.loads(path.read_text(encoding="utf-8"))  # repro: allow[PURE101] — the summary cache is keyed by content sha, so disk state never changes an analysis result
        except (OSError, ValueError) as error:
            LOGGER.warning("ignoring unreadable summary cache %s: %s", path, error)
            return
        if (
            not isinstance(document, dict)
            or document.get("version") != SUMMARY_SCHEMA_VERSION
        ):
            return
        entries = document.get("entries")
        if isinstance(entries, dict):
            self._entries = {str(key): value for key, value in entries.items()}

    def get(
        self, display_path: str, sha: str, module_name: str
    ) -> Optional[ModuleSummary]:
        """The cached summary of *display_path* if its source sha is *sha*."""
        entry = self._entries.get(display_path)
        if entry is None:
            return None
        if entry.get("sha") != sha:
            return None
        if entry.get("module") != module_name:
            return None
        try:
            summary = ModuleSummary.from_dict(entry)
        except (KeyError, TypeError, ValueError) as error:
            LOGGER.warning(
                "ignoring corrupt summary-cache entry for %s: %s",
                display_path,
                error,
            )
            return None
        self.hits += 1
        return summary

    def put(self, summary: ModuleSummary) -> None:
        self._entries[summary.path] = summary.to_dict()
        self._dirty = True
        self.summarized += 1

    def flush(self) -> None:
        if self._directory is None or not self._dirty:
            return
        self._directory.mkdir(parents=True, exist_ok=True)
        path = self._directory / self.FILENAME
        document = {
            "version": SUMMARY_SCHEMA_VERSION,
            "entries": {key: self._entries[key] for key in sorted(self._entries)},
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(
            json.dumps(document, indent=None, sort_keys=True), encoding="utf-8"
        )
        tmp.replace(path)
        self._dirty = False

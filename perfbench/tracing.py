"""In-memory span recorder and the wrappers that feed it.

The traced run patches the public callables of each layer (the attribute a
caller resolves: a class attribute, or a module global where a caller
imported the function by name) with thin wrappers that record one span per
call: its id, its parent span on the same thread, the layer name, the op it
belongs to, and its start and end on the system-wide monotonic clock.  A
wrapper may also attach counts to its span (blocks solved, rules churned).

No wrapper is installed in an untraced workload process: the wrappers
exist only in the processes that asked for them.  A layer's self time is
its spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: One recorded span: (id, parent id or -1, layer, phase, op, start, end, counts).
Span = Tuple[int, int, str, str, str, float, float, Optional[Dict[str, float]]]

#: Result hook of a wrapper: (args, kwargs, result) -> counts for the span.
CountHook = Callable[[tuple, dict, Any], Optional[Dict[str, float]]]


class SpanRecorder:
    """Collects spans from any thread of one process.

    ``phase`` is ``"setup"`` until the benchmark (or, in the daemon, the
    first timed measurement) switches it to ``"run"``; per-layer metrics of
    the timed ops read only run-phase spans.  ``op`` is the id of the op the
    calling thread is working on.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.phase = "setup"
        self.op = "-"
        self.samples: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}
        self._ids = itertools.count()
        self._local = threading.local()

    # ------------------------------------------------------------- context

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current_op(self) -> str:
        return getattr(self._local, "op", None) or self.op

    def set_thread_op(self, op: Optional[str]) -> None:
        self._local.op = op

    def sample(self, name: str, value: float) -> None:
        """Record one measured interval (waits) that is not a call span."""
        if self.phase == "run":
            self.samples.setdefault(name, []).append(value)

    def count(self, name: str) -> None:
        """Count one untimed call in the run phase."""
        if self.phase == "run":
            self.counters[name] = self.counters.get(name, 0.0) + 1.0

    # --------------------------------------------------------------- spans

    def wrap(self, layer: str, func: Callable, counts: Optional[CountHook] = None) -> Callable:
        """A wrapper recording one *layer* span around every call of *func*."""
        recorder = self

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = recorder._stack()
            parent = stack[-1] if stack else -1
            span_id = next(recorder._ids)
            stack.append(span_id)
            start = time.monotonic()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
            recorder.spans.append(
                (
                    span_id,
                    parent,
                    layer,
                    recorder.phase,
                    recorder.current_op(),
                    start,
                    end,
                    counts(args, kwargs, result) if counts is not None else None,
                )
            )
            return result

        return traced

    def dump(self, path: str) -> None:
        """Write every span and sample (the end-of-run record)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"spans": self.spans, "samples": self.samples, "counters": self.counters},
                handle,
            )


def patch(module: str, owner: Optional[str], attr: str, factory: Callable[[Callable], Callable]) -> None:
    """Replace one attribute with ``factory(original)``.

    *owner* names a class of *module* (the attribute is then read from the
    class's own namespace, so class- and static methods keep their kind) or
    is ``None`` for a module global.  Traced processes never un-patch: each
    run is a fresh process.
    """
    target: Any = importlib.import_module(module)
    if owner is not None:
        target = getattr(target, owner)
        raw = target.__dict__[attr]
    else:
        raw = getattr(target, attr)
    if isinstance(raw, classmethod):
        replacement: Any = classmethod(factory(raw.__func__))
    elif isinstance(raw, staticmethod):
        replacement = staticmethod(factory(raw.__func__))
    else:
        replacement = factory(raw)
    setattr(target, attr, replacement)


# ------------------------------------------------------------- count hooks


def _one(name: str) -> CountHook:
    return lambda args, kwargs, result: {name: 1.0}


def _solve_counts(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    return {"solve_calls": 1.0, "blocks": float(len(args[1]))}


def _score_counts(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    return {"candidates": float(len(args[1]))}


def _optimize_counts(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    return {"evaluations": float(result.model_evaluations)}


def _step_counts(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    return {"step_calls": 1.0, "steps": 1.0 if result.progress else 0.0}


def _install_counts(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    return {"rule_churn": float(result.rules_added + result.rules_removed + result.rules_updated)}


def _invalidated_counts(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    return {"rules_invalidated": float(result)}


def _split_counts(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    return {"stranded": float(len(result[1]))}


def _decide_counts(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    return {"decisions": 1.0, "reoptimizations": 1.0 if result.reoptimize else 0.0}


def _encode_counts(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    return {"wire_bytes": float(len(result))}


def _decode_counts(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    return {"wire_bytes": float(len(args[0]))}


#: Layers whose work is input generation, timed in the set-up phase.
SETUP_LAYERS = ("topology", "traffic", "experiments", "dynamics")

#: (module, class or None, attribute, layer span name, count hook).
#: Module globals are patched where the caller resolves them.
LAYER_TARGETS: Tuple[Tuple[str, Optional[str], str, str, Optional[CountHook]], ...] = (
    # trafficmodel: compiled engine and batched scorer
    ("repro.trafficmodel.compiled", "CompiledTrafficModel", "solve_batched", "trafficmodel.solve", _solve_counts),
    ("repro.trafficmodel.compiled", "CompiledTrafficModel", "compile_patched", "trafficmodel.patch", _one("patches")),
    ("repro.trafficmodel.compiled", "CompiledTrafficModel", "weighted_utility", "trafficmodel.weighted", None),
    ("repro.trafficmodel.compiled", "CompiledTrafficModel", "compile", "trafficmodel.compile", _one("compiles")),
    ("repro.trafficmodel.compiled", "CompiledTrafficModel", "result_of", "trafficmodel.assemble", None),
    ("repro.trafficmodel.compiled", "BatchedCandidateScorer", "score", "trafficmodel.score", _score_counts),
    # trafficmodel: result roll-ups and full evaluations
    ("repro.trafficmodel.result", "TrafficModelResult", "network_utility", "trafficmodel.rollup", _one("rollups")),
    ("repro.trafficmodel.result", "TrafficModelResult", "per_class_utilities", "trafficmodel.rollup", _one("rollups")),
    ("repro.trafficmodel.result", "TrafficModelResult", "aggregate_utilities", "trafficmodel.rollup", _one("rollups")),
    ("repro.trafficmodel.result", "TrafficModelResult", "congested_links_by_oversubscription", "trafficmodel.rollup", _one("rollups")),
    ("repro.trafficmodel.waterfill", "TrafficModel", "evaluate", "trafficmodel.evaluate", _one("evaluations")),
    # core
    ("repro.core.optimizer", "FubarOptimizer", "run", "core.optimize", _optimize_counts),
    ("repro.core.optimizer", None, "perform_step", "core.step", _step_counts),
    ("repro.core.optimizer", None, "build_path_sets", "core.state", None),
    ("repro.core.state", "AllocationState", "initial", "core.initial", None),
    ("repro.core.state", "AllocationState", "warm_start", "core.warm_start", None),
    ("repro.core.state", "AllocationState", "with_move", "core.state", None),
    ("repro.core.state", "AllocationState", "move_delta", "core.state", None),
    ("repro.core.state", "AllocationState", "bundles", "core.state", None),
    ("repro.core.recorder", "OptimizationRecorder", "record", "core.record", _one("records")),
    ("repro.core.routing", "RoutingTable", "from_state", "core.routing", None),
    # paths
    ("repro.paths.generator", None, "shortest_path_or_none", "paths.dijkstra", _one("dijkstra_runs")),
    ("repro.core.step", None, "candidate_paths_for_bundle", "paths.candidates", _one("candidate_calls")),
    # sdn
    ("repro.sdn.controller", "SdnController", "install_routing", "sdn.install", _install_counts),
    ("repro.sdn.controller", "SdnController", "uninstall_rules_crossing", "sdn.install", _invalidated_counts),
    ("repro.sdn.controller", "SdnController", "measured_traffic_matrix", "sdn.measure", None),
    ("repro.service.core", None, "feed_model_result", "sdn.feed", None),
    # failures
    ("repro.service.core", None, "prune_warm_start", "failures.prune", _one("prunes")),
    ("repro.service.core", None, "split_routable", "failures.split", _split_counts),
    # service
    ("repro.service.core", "ControllerCore", "install", "service.install", None),
    ("repro.service.core", "ControllerCore", "on_failure_event", "service.topology", None),
    ("repro.service.core", "ControllerCore", "on_repair", "service.topology", None),
    ("repro.service.debounce", "Debouncer", "decide", "service.decide", _decide_counts),
    ("repro.service.bus", None, "encode_event", "service.encode", _encode_counts),
    ("repro.service.bus", None, "decode_event", "service.decode", _decode_counts),
    # set-up layers
    ("repro.experiments.scenarios", None, "hurricane_electric_core", "topology.build", None),
    ("repro.experiments.scenarios", None, "reduced_core", "topology.build", None),
    ("repro.experiments.scenarios", None, "abilene", "topology.build", None),
    ("repro.experiments.scenarios", None, "waxman_topology", "topology.build", None),
    ("repro.experiments.scenarios", None, "paper_traffic_matrix", "traffic.generate", None),
    ("repro.experiments.tiered", None, "sampled_paper_traffic", "traffic.generate", None),
    ("repro.experiments.scenarios", None, "calibrate_flow_counts", "experiments.calibrate", None),
    ("repro.dynamics.processes", "TrafficProcess", "matrix_at", "dynamics.trace", None),
)


def _layer_factory(recorder: SpanRecorder, layer: str, counts: Optional[CountHook]) -> Callable[[Callable], Callable]:
    return lambda func: recorder.wrap(layer, func, counts)


def install_setup_wrappers(recorder: SpanRecorder) -> None:
    """Wrap only the set-up layers (the load generator of the daemon run)."""
    for module, owner, attr, layer, counts in LAYER_TARGETS:
        if layer.split(".")[0] in SETUP_LAYERS:
            patch(module, owner, attr, _layer_factory(recorder, layer, counts))


def install_layer_wrappers(recorder: SpanRecorder) -> None:
    """Wrap every layer callable, plus the service's wait stamps and op tags."""
    for module, owner, attr, layer, counts in LAYER_TARGETS:
        patch(module, owner, attr, _layer_factory(recorder, layer, counts))
    # Shortest-path queries: counted, not timed (the generator memoizes
    # them, so a miss is exactly one paths.dijkstra span).
    def count_queries(func: Callable) -> Callable:
        @functools.wraps(func)
        def counted(*args: Any, **kwargs: Any) -> Any:
            recorder.count("paths.queries")
            return func(*args, **kwargs)

        return counted

    patch("repro.paths.generator", "PathGenerator", "_query", count_queries)
    _install_service_stamps(recorder)


def _install_service_stamps(recorder: SpanRecorder) -> None:
    """Inbox and executor waits, and per-event op ids, inside the daemon.

    The inbox wait runs from ``ControllerDaemon.submit`` to the start of
    ``ControllerCore.on_measurement``; the executor wait from the end of
    ``on_measurement`` to the start of the tenant's next ``reoptimize`` or
    ``carry``.  Executor-thread spans take the op id (matrix name) of the
    measurement their core is handling, event-loop spans that of the last
    measurement handed to a core.  The run phase starts at the first
    measurement whose matrix name lacks the load generator's ``setup-``
    prefix.
    """
    from repro.service.events import MeasurementEvent

    submitted: Dict[int, float] = {}
    handed_off: Dict[int, float] = {}
    core_ops: Dict[int, str] = {}

    def stamp_submit(func: Callable) -> Callable:
        @functools.wraps(func)
        async def submit(self: Any, event: Any) -> Any:
            if isinstance(event, MeasurementEvent):
                if not event.matrix.name.startswith("setup-"):
                    recorder.phase = "run"
                submitted[id(event.matrix)] = time.monotonic()
            return await func(self, event)

        return submit

    def stamp_measurement(func: Callable) -> Callable:
        @functools.wraps(func)
        def on_measurement(self: Any, matrix: Any) -> Any:
            started = time.monotonic()
            queued = submitted.pop(id(matrix), None)
            if queued is not None:
                recorder.sample("service.inbox_wait", started - queued)
            core_ops[id(self)] = matrix.name
            recorder.set_thread_op(matrix.name)
            try:
                return func(self, matrix)
            finally:
                handed_off[id(self)] = time.monotonic()

        return on_measurement

    def executor_entry(layer: str) -> Callable[[Callable], Callable]:
        def factory(func: Callable) -> Callable:
            inner = recorder.wrap(layer, func)

            @functools.wraps(func)
            def entry(self: Any, *args: Any, **kwargs: Any) -> Any:
                waited_from = handed_off.pop(id(self), None)
                if waited_from is not None:
                    recorder.sample("service.executor_wait", time.monotonic() - waited_from)
                recorder.set_thread_op(core_ops.get(id(self)))
                try:
                    return inner(self, *args, **kwargs)
                finally:
                    recorder.set_thread_op(None)

            return entry

        return factory

    patch("repro.service.daemon", "ControllerDaemon", "submit", stamp_submit)
    patch("repro.service.core", "ControllerCore", "on_measurement", stamp_measurement)
    patch("repro.service.core", "ControllerCore", "reoptimize", executor_entry("service.reoptimize"))
    patch("repro.service.core", "ControllerCore", "carry", executor_entry("service.carry"))


# ------------------------------------------------------------ aggregation


def self_times(spans: Iterable[Span]) -> List[Tuple[Span, float]]:
    """Each span with its self time: duration minus its children's durations."""
    spans = list(spans)
    covered: Dict[int, float] = {}
    for span in spans:
        if span[1] >= 0:
            covered[span[1]] = covered.get(span[1], 0.0) + (span[6] - span[5])
    return [(span, (span[6] - span[5]) - covered.get(span[0], 0.0)) for span in spans]


def layer_totals(spans: Iterable[Span], phase: str) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-layer self time (ms) and per-layer counts over one phase."""
    self_ms: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    for span, own in self_times(spans):
        if span[3] != phase:
            continue
        layer = span[2]
        self_ms[layer] = self_ms.get(layer, 0.0) + own * 1000.0
        if span[7]:
            for name, value in span[7].items():
                key = f"{layer.split('.')[0]}.{name}"
                counts[key] = counts.get(key, 0.0) + value
    return self_ms, counts


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile (q in [0, 100]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _hit_ratio(stats: Optional[Dict[str, float]]) -> float:
    if not stats:
        return 0.0
    return _ratio(stats["hits"], stats["hits"] + stats["misses"])


#: Every per-layer metric the traced run reports: (name, unit).
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("trafficmodel.solve_ms", "ms"),
    ("trafficmodel.solve_calls", "count"),
    ("trafficmodel.blocks", "count"),
    ("trafficmodel.score_ms", "ms"),
    ("trafficmodel.candidates", "count"),
    ("trafficmodel.patch_ms", "ms"),
    ("trafficmodel.patches", "count"),
    ("trafficmodel.weighted_ms", "ms"),
    ("trafficmodel.compile_ms", "ms"),
    ("trafficmodel.compiles", "count"),
    ("trafficmodel.assemble_ms", "ms"),
    ("trafficmodel.rollup_ms", "ms"),
    ("trafficmodel.rollups", "count"),
    ("trafficmodel.evaluate_ms", "ms"),
    ("trafficmodel.evaluations", "count"),
    ("trafficmodel.engine_hit_ratio", "fraction"),
    ("core.optimize_ms", "ms"),
    ("core.step_ms", "ms"),
    ("core.step_calls", "count"),
    ("core.steps", "count"),
    ("core.progress_ratio", "fraction"),
    ("core.initial_ms", "ms"),
    ("core.warm_start_ms", "ms"),
    ("core.state_ms", "ms"),
    ("core.record_ms", "ms"),
    ("core.records", "count"),
    ("core.routing_ms", "ms"),
    ("core.evaluations", "count"),
    ("paths.dijkstra_ms", "ms"),
    ("paths.dijkstra_runs", "count"),
    ("paths.candidates_ms", "ms"),
    ("paths.candidate_calls", "count"),
    ("paths.query_hit_ratio", "fraction"),
    ("paths.generator_hit_ratio", "fraction"),
    ("sdn.install_ms", "ms"),
    ("sdn.rule_churn", "count"),
    ("sdn.feed_ms", "ms"),
    ("sdn.measure_ms", "ms"),
    ("sdn.rules_invalidated", "count"),
    ("failures.prune_ms", "ms"),
    ("failures.prunes", "count"),
    ("failures.split_ms", "ms"),
    ("failures.stranded", "count"),
    ("service.inbox_wait_ms_p50", "ms"),
    ("service.inbox_wait_ms_p90", "ms"),
    ("service.executor_wait_ms_p50", "ms"),
    ("service.executor_wait_ms_p90", "ms"),
    ("service.reoptimize_ms", "ms"),
    ("service.carry_ms", "ms"),
    ("service.install_ms", "ms"),
    ("service.topology_ms", "ms"),
    ("service.decide_ms", "ms"),
    ("service.reopt_share", "fraction"),
    ("service.encode_ms", "ms"),
    ("service.decode_ms", "ms"),
    ("service.wire_bytes", "bytes"),
    ("topology.build_ms", "ms"),
    ("traffic.generate_ms", "ms"),
    ("experiments.calibrate_ms", "ms"),
    ("dynamics.trace_ms", "ms"),
    ("client.send_lag_ms_max", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
)

def setup_layer_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Time (ms) under each set-up layer's calls, path and model work included.

    Set-up layers drive other layers (calibration routes the matrix through
    the path generator and the traffic model), and that work is what
    ``setup_s`` pays for, so these times are inclusive: the outermost span
    of each set-up layer counts whole.
    """
    spans = list(spans)
    layer_of = {span[0]: span[2] for span in spans}
    totals: Dict[str, float] = {}
    for span in spans:
        layer = span[2]
        if span[3] == "setup" and layer.split(".")[0] in SETUP_LAYERS and layer_of.get(span[1]) != layer:
            totals[layer] = totals.get(layer, 0.0) + (span[6] - span[5]) * 1000.0
    return totals


#: Per-layer metrics read from set-up phase spans; the rest read the run.
_SETUP_METRICS = {
    "topology.build_ms": "topology.build",
    "traffic.generate_ms": "traffic.generate",
    "experiments.calibrate_ms": "experiments.calibrate",
    "dynamics.trace_ms": "dynamics.trace",
}


def layer_metrics(
    spans: List[Span],
    samples: Dict[str, List[float]],
    counters: Dict[str, float],
    cache_stats: Dict[str, Dict[str, float]],
) -> Dict[str, float]:
    """The per-layer metrics of one traced process (benchmark-side ones excluded).

    ``_ms`` values are run-phase self time, except the set-up layers' (see
    :func:`setup_layer_times`); counts are summed span counts;
    ``_ratio``/``_share`` are useful outcomes over attempts.
    """
    run_ms, counts = layer_totals(spans, "run")
    setup_ms = setup_layer_times(spans)
    metrics: Dict[str, float] = {}
    for name, unit in PER_LAYER:
        if name in _SETUP_METRICS:
            metrics[name] = setup_ms.get(_SETUP_METRICS[name], 0.0)
        elif name.endswith("_ms") and unit == "ms":
            metrics[name] = run_ms.get(name[: -len("_ms")], 0.0)
        elif unit == "count":
            metrics[name] = counts.get(name, 0.0)
    metrics["core.progress_ratio"] = _ratio(counts.get("core.steps", 0.0), counts.get("core.step_calls", 0.0))
    runs = counts.get("paths.dijkstra_runs", 0.0)
    queries = counters.get("paths.queries", 0.0)
    metrics["paths.query_hit_ratio"] = _ratio(queries - runs, queries)
    metrics["paths.generator_hit_ratio"] = _hit_ratio(cache_stats.get("path_cache"))
    metrics["trafficmodel.engine_hit_ratio"] = _hit_ratio(cache_stats.get("model_cache"))
    metrics["sdn.install_ms"] = run_ms.get("sdn.install", 0.0)
    metrics["service.reopt_share"] = _ratio(
        counts.get("service.reoptimizations", 0.0), counts.get("service.decisions", 0.0)
    )
    metrics["service.wire_bytes"] = counts.get("service.wire_bytes", 0.0)
    for wait in ("inbox_wait", "executor_wait"):
        values = [value * 1000.0 for value in samples.get(f"service.{wait}", [])]
        metrics[f"service.{wait}_ms_p50"] = percentile(values, 50)
        metrics[f"service.{wait}_ms_p90"] = percentile(values, 90)
    return metrics

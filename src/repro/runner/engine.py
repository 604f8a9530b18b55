"""The fleet-scale parallel sweep engine.

:func:`evaluate_cell` runs one sweep cell end to end — build the scenario,
run FUBAR, run every baseline (shortest path, ECMP, min-max LP), compute the
upper bound — and returns a :class:`CellOutcome` holding both the rich
in-process objects (for benchmarks that want the optimizer trace) and a
JSON-serializable record (for the cache and the reports).

:func:`iter_sweep` streams a sweep: it resolves cache hits first, dispatches
the remaining cells to worker processes grouped by
:meth:`~repro.runner.spec.CellSpec.cache_affinity_key` — same-topology cells
land on the same worker, whose process-local :class:`~repro.runner.worker.
WorkerCaches` keep warm path generators and compiled-model rows between
cells — and yields ``(event, record)`` pairs the moment each cell finishes.
Every finished cell is written back to the cache on arrival, so an
interrupted sweep keeps all completed cells and a rerun resumes from them.
:func:`run_sweep` consumes the stream and returns the familiar spec-ordered
:class:`SweepResult`.

Cells are fully described by their picklable specs and derive all randomness
from the spec seed, so parallel execution is exactly as reproducible as a
serial run; cache sharing keys on topology *content* and is correctness-
gated by the test suite (shared-cache records byte-identical to isolated
runs).
"""

from __future__ import annotations

import math
import multiprocessing
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from queue import Empty
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.baselines.common import BaselineResult
from repro.baselines.ecmp import ecmp_routing
from repro.baselines.minmax_lp import minmax_lp_routing
from repro.baselines.shortest_path import shortest_path_routing
from repro.baselines.upper_bound import upper_bound_utility
from repro.core.controller import Fubar, FubarPlan
from repro.dynamics.loop import ControlLoopResult
from repro.dynamics.scenarios import is_dynamic, run_scenario_loop
from repro.exceptions import ExperimentError
from repro.experiments.scenarios import Scenario
from repro.metrics.reporting import relative_improvement
from repro.paths.cache import path_generator_for
from repro.provisioning.scenarios import (
    ProvisioningOutcome,
    is_provisioning,
    run_scenario_provisioning,
)
from repro.runner.cache import ResultCache
from repro.runner.registry import build_scenario, resolve_spec
from repro.runner.spec import SPEC_SCHEMA_VERSION, CellSpec
from repro.runner.worker import (
    WorkerCaches,
    active_worker_caches,
    clear_worker_caches,
    install_worker_caches,
)
from repro.trafficmodel.waterfill import traffic_model_for

#: Records and spec hashing share one schema version: an incompatible record
#: change must bump ``SPEC_SCHEMA_VERSION`` in :mod:`repro.runner.spec`,
#: which also invalidates every cached entry.
RECORD_SCHEMA_VERSION = SPEC_SCHEMA_VERSION

_BASELINE_RUNNERS: Dict[str, Callable] = {
    "shortest-path": shortest_path_routing,
    "ecmp": ecmp_routing,
    "minmax-lp": minmax_lp_routing,
}

#: The baseline schemes every cell is compared against, in report order.
BASELINE_SCHEMES = tuple(_BASELINE_RUNNERS)


@dataclass
class CellOutcome:
    """The full in-process result of evaluating one cell."""

    spec: CellSpec
    scenario: Scenario
    plan: FubarPlan
    baselines: Dict[str, BaselineResult]
    upper_bound: float
    wall_clock_s: float
    #: Per-epoch control-loop trajectory; None for static (single-shot) cells.
    dynamics: Optional[ControlLoopResult] = None
    #: Capacity-planning answer (frontier / upgrade plan / survivable
    #: capacity); None for cells without provisioning metadata.
    provisioning: Optional[ProvisioningOutcome] = None

    @property
    def final_utility(self) -> float:
        """FUBAR's final (unweighted) network utility."""
        return self.plan.network_utility

    @property
    def shortest_path_utility(self) -> float:
        """The shortest-path lower-bound reference."""
        return self.baselines["shortest-path"].network_utility

    def improvement_over_shortest_path(self) -> Optional[float]:
        """Relative utility improvement of FUBAR over shortest-path routing,
        or ``None`` when the shortest-path utility is non-positive.

        Also ``None`` for dynamic cells: the loop's final plan is scored on
        the final *measured* matrix while the baseline routes the base
        matrix, so the ratio would compare different demand; reports render
        it "n/a" and show the per-epoch trajectory instead."""
        if self.dynamics is not None:
            return None
        return relative_improvement(self.final_utility, self.shortest_path_utility)

    def to_record(self) -> Dict[str, object]:
        """The JSON-serializable record cached and consumed by reports."""
        weights = self.scenario.fubar_config.priority_weights
        model = self.plan.result.model_result
        schemes: Dict[str, Dict[str, object]] = {
            "fubar": {
                "utility": model.network_utility(),
                "weighted_utility": model.network_utility(weights),
                "total_utilization": model.total_utilization(),
                "demanded_utilization": model.demanded_utilization(),
                "congested_links": len(model.congested_links),
                "steps": self.plan.result.num_steps,
                "wall_clock_s": self.plan.result.wall_clock_s,
                "termination": self.plan.result.termination_reason,
            }
        }
        for name, baseline in self.baselines.items():
            schemes[name] = {
                "utility": baseline.network_utility,
                "weighted_utility": baseline.weighted_utility(weights),
                "total_utilization": baseline.model_result.total_utilization(),
                "demanded_utilization": baseline.model_result.demanded_utilization(),
                "congested_links": len(baseline.model_result.congested_links),
            }
        record = {
            "schema": RECORD_SCHEMA_VERSION,
            "spec": self.spec.to_dict(),
            "config_hash": self.spec.config_hash(),
            "label": self.spec.label(),
            "scenario": dict(self.scenario.summary()),
            "schemes": schemes,
            "upper_bound_utility": self.upper_bound,
            "improvement_over_shortest_path": self.improvement_over_shortest_path(),
            "wall_clock_s": self.wall_clock_s,
        }
        if self.dynamics is not None:
            record["dynamics"] = self.dynamics.to_record()
        if self.provisioning is not None:
            record["provisioning"] = self.provisioning.to_record()
        return record


def evaluate_cell(
    spec: CellSpec, caches: Optional[WorkerCaches] = None
) -> CellOutcome:
    """Evaluate one cell: FUBAR plus every baseline on the same scenario.

    Static cells run one optimization; dynamic cells (scenarios carrying
    control-loop metadata) run the closed measure → optimize → install loop
    and report its final plan plus the per-epoch trajectory.  Provisioning
    cells (capacity-planning metadata) additionally answer their capacity
    question — the single-shot optimization still runs on the scenario
    network, so the comparison table stays populated.  Baselines and the
    upper bound are always computed on the base (epoch-0) matrix, which for
    dynamic cells is the reference the loop's trajectory starts from.

    *caches* are a worker's warm :class:`~repro.runner.worker.WorkerCaches`;
    when given, the optimization, the control loop, the capacity searches,
    the baselines and the upper bound all draw their path generators and
    traffic-model engines from them instead of building fresh ones.  The
    results are byte-identical either way (both caches key on topology
    content, and cached answers are deterministic), so sharing only changes
    how fast consecutive same-topology cells run.
    """
    started = time.perf_counter()  # repro: allow[PURE101] — wall-clock duration is telemetry on the record, never part of result equality or the cache key
    scenario = build_scenario(spec)
    path_cache = caches.path_cache if caches is not None else None
    model_cache = caches.model_cache if caches is not None else None
    provisioning_outcome: Optional[ProvisioningOutcome] = None
    if is_provisioning(scenario):
        provisioning_outcome = run_scenario_provisioning(
            scenario, path_cache=path_cache, model_cache=model_cache
        )
    loop_result: Optional[ControlLoopResult] = None
    if is_dynamic(scenario):
        loop_result = run_scenario_loop(
            scenario, path_cache=path_cache, model_cache=model_cache
        )
        if loop_result.final_plan is None:
            # Only possible when a failure strands every aggregate from the
            # very first epoch — there is no plan to compare against, so the
            # cell reports a clean per-cell error instead of crashing the
            # record builder.
            raise ExperimentError(
                f"cell {spec.label()} stranded every aggregate in every "
                "epoch; no plan was ever computed"
            )
        plan = loop_result.final_plan
    else:
        controller = Fubar(
            scenario.network,
            config=scenario.fubar_config,
            path_cache=path_cache,
            model_cache=model_cache,
        )
        plan = controller.optimize(scenario.traffic_matrix)
    generator = path_generator_for(scenario.network, cache=path_cache)
    model = traffic_model_for(scenario.network, cache=model_cache)
    baselines = {
        name: runner(
            scenario.network,
            scenario.traffic_matrix,
            generator=generator,
            model=model,
        )
        for name, runner in _BASELINE_RUNNERS.items()
    }
    bound = upper_bound_utility(
        scenario.network,
        scenario.traffic_matrix,
        generator=generator,
        model=model,
    )
    return CellOutcome(
        spec=spec,
        scenario=scenario,
        plan=plan,
        baselines=baselines,
        upper_bound=bound,
        wall_clock_s=time.perf_counter() - started,  # repro: allow[PURE101] — wall-clock duration is telemetry on the record, never part of result equality or the cache key
        dynamics=loop_result,
        provisioning=provisioning_outcome,
    )


def _evaluate_payload(payload: Mapping[str, object]) -> Dict[str, object]:
    """Worker entry point: evaluate a spec dict, never raise across the pipe.

    ``run_sweep`` sends resolved specs (every default explicit) tagged with
    the parent-computed cache key and the original, compact display label;
    both are applied to the record so the cache filename, the record body
    and the report tables stay consistent.
    """
    spec = CellSpec.from_dict(payload)
    config_hash = payload.get("_config_hash", spec.config_hash())
    label = payload.get("_label", spec.label())
    try:
        record = evaluate_cell(spec, caches=active_worker_caches()).to_record()
        record["config_hash"] = config_hash
        record["label"] = label
        return record
    except Exception as error:  # noqa: BLE001 — reported per cell, sweep continues
        return {
            "schema": RECORD_SCHEMA_VERSION,
            "spec": spec.to_dict(),
            "config_hash": config_hash,
            "label": label,
            "error": f"{type(error).__name__}: {error}",
            "traceback": traceback.format_exc(),
        }


@dataclass
class SweepStats:
    """Bookkeeping of one sweep run."""

    cells: int = 0
    cache_hits: int = 0
    computed: int = 0
    failures: int = 0
    duplicates: int = 0
    wall_clock_s: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        # cells == cache_hits + computed + failures + duplicates, always.
        return {
            "cells": self.cells,
            "cache_hits": self.cache_hits,
            "computed": self.computed,
            "failures": self.failures,
            "duplicates": self.duplicates,
            "wall_clock_s": self.wall_clock_s,
        }


@dataclass
class SweepResult:
    """Every cell record of a sweep, in spec order, plus run statistics."""

    records: List[Dict[str, object]] = field(default_factory=list)
    stats: SweepStats = field(default_factory=SweepStats)

    @property
    def succeeded(self) -> List[Dict[str, object]]:
        return [record for record in self.records if "error" not in record]

    @property
    def failed(self) -> List[Dict[str, object]]:
        return [record for record in self.records if "error" in record]


def default_jobs(num_cells: int) -> int:
    """Worker count used when the caller does not pick one.

    Uses the scheduling affinity mask where the platform exposes one:
    ``os.cpu_count()`` reports the machine's cores even inside a
    cgroup-limited CI container, which would oversubscribe the box.
    """
    try:
        available = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - macOS / Windows
        available = os.cpu_count() or 1
    return max(1, min(num_cells, available))


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer fork on Linux (cheap, inherits the imported interpreter).

    macOS lists fork as available but forking after Objective-C / Accelerate
    BLAS initialization is unsafe (which is why CPython switched its default
    to spawn there); everywhere except Linux the platform default is used.
    """
    if sys.platform == "linux" and "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context(None)


def _worker_main(
    task_queue: "multiprocessing.queues.Queue",
    result_queue: "multiprocessing.queues.Queue",
    share_caches: bool,
) -> None:
    """Worker-process loop: evaluate affinity chunks until the sentinel.

    The pool initializer installs this process's :class:`WorkerCaches` once;
    every cell the worker evaluates then shares them (via
    :func:`active_worker_caches` inside :func:`_evaluate_payload`).
    """
    if share_caches:
        install_worker_caches()
    while True:
        chunk = task_queue.get()
        if chunk is None:
            break
        for payload in chunk:
            result_queue.put((payload["_config_hash"], _evaluate_payload(payload)))


def _affinity_chunks(
    payloads: Sequence[Mapping[str, object]], num_workers: int
) -> List[List[Mapping[str, object]]]:
    """Group payloads by cache affinity, splitting only to fill the pool.

    Cells sharing an affinity key stay in one chunk — and therefore on one
    worker, whose warm caches they hit back to back.  A group is split only
    when the sweep has fewer groups than workers (e.g. twelve seeds of one
    topology on a four-worker pool), trading some re-warming for
    parallelism.  Longest chunks are dispatched first (LPT scheduling) so a
    big topology group cannot arrive last and leave the pool idle behind it.
    """
    groups: Dict[str, List[Mapping[str, object]]] = {}
    for payload in payloads:
        groups.setdefault(str(payload["_affinity"]), []).append(payload)
    total = len(payloads)
    chunks: List[List[Mapping[str, object]]] = []
    for group in groups.values():
        # Number of pieces this group contributes, proportional to its share
        # of the work but never more than one piece per cell.
        parts = max(1, min(len(group), round(num_workers * len(group) / total)))
        size = math.ceil(len(group) / parts)
        for start in range(0, len(group), size):
            chunks.append(group[start : start + size])
    chunks.sort(key=len, reverse=True)
    return chunks


def iter_sweep(
    specs: Sequence[CellSpec],
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    force: bool = False,
    retry_errors: bool = True,
    share_caches: bool = True,
    progress: Optional[Callable[[str, CellSpec], None]] = None,
    stats: Optional[SweepStats] = None,
) -> Iterator[Tuple[str, Dict[str, object]]]:
    """Stream a sweep: yield ``(event, record)`` as each cell resolves.

    Events are ``"hit"`` (served from the result cache), ``"done"`` (freshly
    computed) and ``"error"`` (computed and failed, or a cached error served
    with ``retry_errors=False``).  Duplicate specs are counted in *stats*
    but not yielded.  Completed cells are cached the moment they arrive, so
    closing the generator mid-sweep (or killing the process) loses only the
    in-flight cells — a rerun serves everything finished as hits.

    Parameters
    ----------
    specs:
        The cells to evaluate.  Duplicate specs are computed once.
    jobs:
        Worker processes; defaults to ``min(len(specs), available cpus)``.
        ``jobs=1`` runs serially in-process (no pool), which is also the
        fallback when only one cell needs computing.
    cache:
        Result cache; defaults to :class:`ResultCache` at the default
        directory.  Pass ``force=True`` to recompute (and re-store) cells
        even when cached.
    retry_errors:
        When True (the default) cells with a cached error record are
        recomputed (and the error discarded if the retry succeeds).  When
        False, cached errors are served as ``"error"`` events without
        rerunning the cell — reruns of deterministic failures become
        explicit, not accidental.
    share_caches:
        Install process-local :class:`~repro.runner.worker.WorkerCaches` in
        every worker (and around the serial loop) so same-affinity cells
        reuse warm path/model state.  Disable to force the isolated
        cold-start behaviour (the correctness reference).
    progress:
        Optional callback invoked as ``progress(event, spec)`` with events
        ``"hit"``, ``"queued"``, ``"done"`` and ``"error"``.
    stats:
        Optional :class:`SweepStats` to update in place (``wall_clock_s`` is
        left to the caller, who knows when consumption finished).
    """
    cache = cache if cache is not None else ResultCache()
    notify = progress or (lambda event, spec: None)
    stats = stats if stats is not None else SweepStats()
    stats.cells += len(specs)

    # Cache keys come from the *resolved* specs (family defaults and the
    # environment scale made explicit) so that changing either can never be
    # served a stale cached result; the original compact specs are kept for
    # progress events and report labels.
    seen: set = set()
    pending: List[tuple] = []  # (original spec, resolved spec, config hash)
    for spec in specs:
        resolved = resolve_spec(spec)
        config_hash = resolved.config_hash()
        if config_hash in seen:
            stats.duplicates += 1
            continue
        seen.add(config_hash)
        cached = None if force else cache.load(config_hash)
        if cached is not None and "error" not in cached:
            stats.cache_hits += 1
            notify("hit", spec)
            yield "hit", cached
            continue
        if not force and not retry_errors:
            cached_error = cache.load_error(config_hash)
            if cached_error is not None:
                stats.failures += 1
                notify("error", spec)
                yield "error", cached_error
                continue
        pending.append((spec, resolved, config_hash))

    if not pending:
        return

    def finish(
        config_hash: str, spec: CellSpec, record: Dict[str, object]
    ) -> Tuple[str, Dict[str, object]]:
        # Store each record the moment it arrives, so an interrupted sweep
        # keeps every completed cell.
        if "error" in record:
            cache.store_error(config_hash, record)
            stats.failures += 1
            notify("error", spec)
            return "error", record
        cache.store(config_hash, record)
        cache.discard_error(config_hash)
        stats.computed += 1
        notify("done", spec)
        return "done", record

    resolved_jobs = jobs if jobs is not None else default_jobs(len(pending))
    payloads = []
    spec_by_hash: Dict[str, CellSpec] = {}
    for spec, resolved, config_hash in pending:
        payload = resolved.to_dict()
        payload["_config_hash"] = config_hash
        payload["_label"] = spec.label()
        payload["_affinity"] = resolved.cache_affinity_key()
        payloads.append(payload)
        spec_by_hash[config_hash] = spec
        notify("queued", spec)

    if resolved_jobs <= 1 or len(payloads) == 1:
        # Serial: the parent process plays the single worker.  Caches already
        # active in the process are reused when sharing (so repeated serial
        # sweeps stay warm) and suspended when not (so ``share_caches=False``
        # really is isolated); either way the prior state is restored.
        previous = active_worker_caches()
        if share_caches:
            if previous is None:
                install_worker_caches()
        elif previous is not None:
            clear_worker_caches()
        try:
            for payload in payloads:
                config_hash = payload["_config_hash"]
                yield finish(
                    config_hash, spec_by_hash[config_hash], _evaluate_payload(payload)
                )
        finally:
            if previous is not None:
                install_worker_caches(previous)
            elif share_caches:
                clear_worker_caches()
        return

    num_workers = min(resolved_jobs, len(payloads))
    chunks = _affinity_chunks(payloads, num_workers)
    num_workers = min(num_workers, len(chunks))
    context = _pool_context()
    task_queue = context.Queue()
    result_queue = context.Queue()
    workers = [
        context.Process(
            target=_worker_main,
            args=(task_queue, result_queue, share_caches),
            daemon=True,
        )
        for _ in range(num_workers)
    ]
    for worker in workers:
        worker.start()
    for chunk in chunks:
        task_queue.put(chunk)
    for _ in workers:
        task_queue.put(None)

    outstanding = len(payloads)
    try:
        while outstanding:
            try:
                config_hash, record = result_queue.get(timeout=1.0)
            except Empty:
                if any(worker.is_alive() for worker in workers):
                    continue
                # All workers exited; drain what they managed to produce.
                while outstanding:
                    try:
                        config_hash, record = result_queue.get_nowait()
                    except Empty:
                        break
                    outstanding -= 1
                    yield finish(config_hash, spec_by_hash[config_hash], record)
                if outstanding:
                    raise ExperimentError(
                        f"sweep lost {outstanding} cells: every worker exited "
                        "before the queue drained (a worker was killed?)"
                    )
                break
            outstanding -= 1
            yield finish(config_hash, spec_by_hash[config_hash], record)
    finally:
        for worker in workers:
            if worker.is_alive():
                worker.terminate()
        for worker in workers:
            worker.join(timeout=5.0)


def run_sweep(
    specs: Sequence[CellSpec],
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    force: bool = False,
    retry_errors: bool = True,
    share_caches: bool = True,
    progress: Optional[Callable[[str, CellSpec], None]] = None,
    on_record: Optional[Callable[[str, Dict[str, object]], None]] = None,
) -> SweepResult:
    """Run every cell in *specs*, in parallel, through the result cache.

    A convenience wrapper over :func:`iter_sweep` (which see, for the
    parameters): consumes the stream, invokes ``on_record(event, record)``
    on every yielded cell (the CLI's ``--stream-jsonl`` hook), and returns
    the records re-assembled in spec order — one record per input spec,
    duplicates sharing the dict — plus the run statistics.
    """
    started = time.perf_counter()
    stats = SweepStats()
    hashes = [resolve_spec(spec).config_hash() for spec in specs]
    records_by_hash: Dict[str, Dict[str, object]] = {}
    for event, record in iter_sweep(
        specs,
        jobs=jobs,
        cache=cache,
        force=force,
        retry_errors=retry_errors,
        share_caches=share_caches,
        progress=progress,
        stats=stats,
    ):
        records_by_hash[str(record["config_hash"])] = record
        if on_record is not None:
            on_record(event, record)
    stats.wall_clock_s = time.perf_counter() - started
    return SweepResult(
        records=[records_by_hash[config_hash] for config_hash in hashes], stats=stats
    )

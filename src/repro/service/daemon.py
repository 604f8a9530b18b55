"""The asyncio controller daemon: many tenants, one event loop.

:class:`ControllerDaemon` is the event-driven driver over
:class:`~repro.service.core.ControllerCore` — the deployment shape the
paper gestures at in §5, scaled to multi-tenancy: one daemon process
manages N independent networks ("tenants") concurrently, each with its own
core (switches, warm-start seed, standing plan) and its own
:class:`~repro.service.debounce.Debouncer`.  Tenants share warm state
through one :class:`~repro.runner.worker.WorkerCaches` — path generators
and compiled traffic-model engines are keyed by topology content, so
same-topology tenants reuse each other's compilation work exactly like
affinity-scheduled sweep cells do.

Event flow per tenant (all inbound events are serialized through the
tenant's inbox, so core transitions never race):

1. a :class:`~repro.service.events.MeasurementEvent` arrives; the tenant's
   debouncer compares it against the matrix the standing plan was
   optimized for;
2. when the decision is *reoptimize* (drift above threshold, max-interval
   forcing, failure pending, or no plan yet), the optimize + install cycle
   runs **in an executor** — the event loop never blocks on the optimizer;
3. either way the measurement's traffic is carried over the installed
   rules (also in the executor), so delivered utility is tracked for
   skipped cycles too;
4. a :class:`~repro.service.events.DecisionTelemetry` is emitted to every
   subscribed listener with the full per-epoch accounting.

The executor is a single thread: optimizer cycles of different tenants
serialize against each other, which keeps the shared caches race free,
while the event loop stays responsive throughout.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.config import FubarConfig
from repro.dynamics.loop import EpochRecord
from repro.exceptions import ReproError, ServiceError
from repro.paths.policy import PathPolicy
from repro.runner.worker import WorkerCaches
from repro.sdn.controller import InstallReport
from repro.service.core import CarryOutcome, ControllerCore, ReoptimizeOutcome
from repro.service.debounce import DebounceConfig, DebounceDecision, Debouncer
from repro.service.events import (
    DecisionTelemetry,
    Event,
    FailureEvent,
    MeasurementEvent,
    RepairEvent,
    TenantStatus,
)
from repro.topology.graph import Network
from repro.trafficmodel.waterfill import TrafficModelConfig

__all__ = ["ControllerDaemon", "TenantConfig"]

#: Listener signature: called on the event loop with each telemetry event;
#: implementations must not block (enqueue and return).
TelemetryListener = Callable[[Event], None]

#: Inbox sentinel asking a tenant task to drain and exit.
_DRAIN = object()


@dataclass(frozen=True)
class TenantConfig:
    """One tenant network and its controller knobs."""

    name: str
    network: Network
    fubar_config: Optional[FubarConfig] = None
    model_config: Optional[TrafficModelConfig] = None
    policy: Optional[PathPolicy] = None
    debounce: DebounceConfig = field(default_factory=DebounceConfig)
    warm_start: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise ServiceError("tenant name must be non-empty")


@dataclass
class _Tenant:
    """One tenant's live state inside the daemon."""

    config: TenantConfig
    core: ControllerCore
    debouncer: Debouncer
    inbox: "asyncio.Queue[object]"
    runner: Optional["asyncio.Task[None]"] = None
    epoch: int = 0
    reoptimizations: int = 0
    skips: int = 0
    #: Rules invalidated by failures, folded into the next install report.
    pending_invalidated: int = 0
    last_record: Optional[EpochRecord] = None


def _build_core(config: TenantConfig, caches: Optional[WorkerCaches]) -> ControllerCore:
    """Construct one tenant's core (runs in the executor: validates + compiles)."""
    return ControllerCore(
        config.network,
        config.fubar_config,
        warm_start=config.warm_start,
        policy=config.policy,
        model_config=config.model_config,
        path_cache=caches.path_cache if caches is not None else None,
        model_cache=caches.model_cache if caches is not None else None,
    )


def _optimize_cycle(
    core: ControllerCore, invalidated: int
) -> Tuple[ReoptimizeOutcome, InstallReport, float]:
    """One optimize + install cycle (runs in the executor), wall-clock timed.

    Mirrors the batch driver: the wall time spans re-optimization and
    differential install, and failure invalidations recorded since the last
    cycle are folded into the install report.
    """
    started = time.perf_counter()
    outcome = core.reoptimize()
    install = core.install(outcome.plan)
    wall = time.perf_counter() - started
    if invalidated:
        install = install.with_invalidated(invalidated)
    return outcome, install, wall


def _standing_install_report(core: ControllerCore, invalidated: int) -> InstallReport:
    """The install accounting of a skipped cycle: every rule left untouched."""
    installed = core.sdn.num_rules_installed
    report = InstallReport(
        rules_installed=installed,
        rules_added=0,
        rules_removed=0,
        rules_updated=0,
        rules_unchanged=installed,
    )
    if invalidated:
        report = report.with_invalidated(invalidated)
    return report


class ControllerDaemon:
    """The multi-tenant asyncio controller service (see module docstring).

    Parameters
    ----------
    caches:
        Warm state shared by every tenant (created when omitted).  Pass
        ``None`` explicitly via ``share_caches=False`` semantics is not
        supported — sharing is the point of the daemon; isolated tenants
        can simply run in separate daemons.
    """

    def __init__(self, caches: Optional[WorkerCaches] = None) -> None:
        self.caches = caches or WorkerCaches()
        self._tenants: Dict[str, _Tenant] = {}
        self._listeners: List[TelemetryListener] = []
        # One thread: optimizer cycles must not race on the shared caches.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="fubar-optimizer"
        )
        self._draining = False

    # ------------------------------------------------------------- telemetry

    def add_telemetry_listener(self, listener: TelemetryListener) -> None:
        """Subscribe *listener* to every telemetry event the daemon emits."""
        self._listeners.append(listener)

    def remove_telemetry_listener(self, listener: TelemetryListener) -> None:
        """Unsubscribe a listener previously added (no-op when absent)."""
        if listener in self._listeners:
            self._listeners.remove(listener)

    def _emit(self, event: Event) -> None:
        for listener in self._listeners:
            listener(event)

    # --------------------------------------------------------------- tenants

    @property
    def tenant_names(self) -> Tuple[str, ...]:
        """Registered tenants, in registration order."""
        return tuple(self._tenants)

    def tenant_stats(self, name: str) -> Dict[str, object]:
        """Decision counters of one tenant (for reports and tests)."""
        tenant = self._require_tenant(name)
        return {
            "tenant": name,
            "epochs": tenant.epoch,
            "reoptimizations": tenant.reoptimizations,
            "skips": tenant.skips,
            "installed_rules": tenant.core.sdn.num_rules_installed,
        }

    def _require_tenant(self, name: str) -> _Tenant:
        try:
            return self._tenants[name]
        except KeyError:
            known = ", ".join(self._tenants) or "<none>"
            raise ServiceError(
                f"unknown tenant {name!r}; registered tenants: {known}"
            ) from None

    async def add_tenant(self, config: TenantConfig) -> None:
        """Register a tenant and start its event-processing task.

        Core construction (topology validation, first path generator and
        traffic-model build) runs in the executor — adding a large tenant
        does not stall the event loop.
        """
        if config.name in self._tenants:
            raise ServiceError(f"tenant {config.name!r} is already registered")
        if self._draining:
            raise ServiceError("daemon is draining; no new tenants accepted")
        running = asyncio.get_running_loop()
        core = await running.run_in_executor(
            self._executor, _build_core, config, self.caches
        )
        tenant = _Tenant(
            config=config,
            core=core,
            debouncer=Debouncer(config.debounce),
            inbox=asyncio.Queue(),
        )
        self._tenants[config.name] = tenant
        tenant.runner = asyncio.ensure_future(self._serve_tenant(tenant))
        self._emit(TenantStatus(tenant=config.name, status="added"))

    # ----------------------------------------------------------------- events

    async def submit(self, event: Event) -> None:
        """Enqueue one inbound event onto its tenant's inbox."""
        tenant_name = getattr(event, "tenant", None)
        if not isinstance(tenant_name, str):
            raise ServiceError(f"event {event!r} names no tenant")
        tenant = self._require_tenant(tenant_name)
        tenant.inbox.put_nowait(event)

    async def _serve_tenant(self, tenant: _Tenant) -> None:
        while True:
            event = await tenant.inbox.get()
            if event is _DRAIN:
                break
            try:
                if isinstance(event, MeasurementEvent):
                    await self._handle_measurement(tenant, event)
                elif isinstance(event, FailureEvent):
                    await self._handle_failure(tenant, event)
                elif isinstance(event, RepairEvent):
                    await self._handle_repair(tenant)
                else:
                    raise ServiceError(
                        f"tenant {tenant.config.name!r} cannot process event {event!r}"
                    )
            except ReproError as error:
                # One bad event (unknown link, empty matrix...) must not
                # take the tenant down; surface it as telemetry instead.
                self._emit(
                    TenantStatus(
                        tenant=tenant.config.name,
                        status="error",
                        detail=f"{type(error).__name__}: {error}",
                    )
                )
        self._emit(TenantStatus(tenant=tenant.config.name, status="drained"))

    async def _handle_measurement(
        self, tenant: _Tenant, event: MeasurementEvent
    ) -> None:
        running = asyncio.get_running_loop()
        core = tenant.core
        epoch = event.epoch if event.epoch is not None else tenant.epoch
        core.on_measurement(event.matrix)
        decision = tenant.debouncer.decide(event.matrix)
        invalidated = tenant.pending_invalidated
        tenant.pending_invalidated = 0
        if decision.reoptimize:
            outcome, install, wall = await running.run_in_executor(
                self._executor, _optimize_cycle, core, invalidated
            )
            tenant.debouncer.mark_reoptimized(event.matrix)
            tenant.reoptimizations += 1
        else:
            outcome, install, wall = None, _standing_install_report(core, invalidated), 0.0
            tenant.debouncer.mark_skipped()
            tenant.skips += 1
        carry = await running.run_in_executor(
            self._executor, core.carry, event.matrix, event.interval_s
        )
        record = self._assemble_record(core, epoch, outcome, install, wall, carry, event)
        tenant.last_record = record
        tenant.epoch += 1
        self._emit(
            DecisionTelemetry(
                tenant=tenant.config.name,
                epoch=epoch,
                action="reoptimize" if decision.reoptimize else "skip",
                reason=decision.reason,
                drift=decision.drift,
                record=record.as_dict(),
            )
        )

    def _assemble_record(
        self,
        core: ControllerCore,
        epoch: int,
        outcome: Optional[ReoptimizeOutcome],
        install: InstallReport,
        wall: float,
        carry: CarryOutcome,
        event: MeasurementEvent,
    ) -> EpochRecord:
        if outcome is not None:
            planned = outcome.planned_utility
            observed = outcome.observed_aggregates
            evaluations = outcome.model_evaluations
            steps = outcome.steps
        else:
            # Skipped cycle: the standing plan's belief is the planned
            # utility; no optimizer work happened.
            plan = core.last_plan
            planned = plan.network_utility if plan is not None else 0.0
            observed = len(event.matrix)
            evaluations = 0
            steps = 0
        return EpochRecord(
            epoch=epoch,
            observed_aggregates=observed,
            planned_utility=planned,
            delivered_utility=carry.delivered_utility,
            model_evaluations=evaluations,
            steps=steps,
            optimize_wall_clock_s=wall,
            install=install,
            unrouted_aggregates=carry.unrouted_aggregates,
            failed_links=core.failed_links,
            failed_nodes=core.failed_nodes,
            stranded_aggregates=carry.stranded_aggregates,
            stranded_demand_bps=carry.stranded_demand_bps,
        )

    async def _handle_failure(self, tenant: _Tenant, event: FailureEvent) -> None:
        running = asyncio.get_running_loop()
        invalidated = await running.run_in_executor(
            self._executor,
            tenant.core.on_failure_event,
            event.failed_links,
            event.failed_nodes,
        )
        if invalidated or tenant.core.degraded:
            tenant.debouncer.notify_failure()
            tenant.pending_invalidated += invalidated
        self._emit(
            TenantStatus(
                tenant=tenant.config.name,
                status="failure-applied",
                detail=(
                    f"failed_links={tenant.core.failed_links} "
                    f"failed_nodes={tenant.core.failed_nodes} "
                    f"rules_invalidated={invalidated}"
                ),
            )
        )

    async def _handle_repair(self, tenant: _Tenant) -> None:
        running = asyncio.get_running_loop()
        was_degraded = tenant.core.degraded
        await running.run_in_executor(self._executor, tenant.core.on_repair)
        if was_degraded:
            # A repair changes the topology under the standing plan just
            # like a failure does: force the next cycle to re-optimize so
            # traffic moves back onto the restored elements.
            tenant.debouncer.notify_failure()
        self._emit(TenantStatus(tenant=tenant.config.name, status="repaired"))

    # --------------------------------------------------------------- lifecycle

    async def drain(self) -> None:
        """Process every queued event, stop the tenant tasks, keep the state.

        Idempotent; new events submitted after a drain raise.
        """
        if self._draining:
            return
        self._draining = True
        pending: List["asyncio.Task[None]"] = []
        for tenant in self._tenants.values():
            if tenant.runner is not None:
                tenant.inbox.put_nowait(_DRAIN)
                pending.append(tenant.runner)
        if pending:
            # Collect every task before surfacing failures: a dead tenant
            # must not leave its siblings undrained.
            outcomes = await asyncio.gather(*pending, return_exceptions=True)
            failures = [result for result in outcomes if isinstance(result, BaseException)]
            if failures:
                details = "; ".join(
                    f"{type(failure).__name__}: {failure}" for failure in failures
                )
                raise ServiceError(f"tenant task(s) died during drain: {details}")

    async def close(self) -> None:
        """Drain and release the executor."""
        await self.drain()
        self._executor.shutdown(wait=True)

"""The open-loop ``daemon-drift`` workload: measurement events over the bus.

Three small underprovisioned tenants (HE, Abilene and Waxman) run in one
``ControllerDaemon`` in its own process, behind a ``ServiceBus`` on a Unix
socket.  One load-generator process sends every event over one connection:
each tenant sends one measurement per fixed period, tenants staggered by a
third of a period.  A tenant's demand trace is a seeded random walk replayed
forwards then backwards, so it stays stationary, and every trace cycle's
length of the run holds one seeded link failure and its repair.  Latency
runs from each event's due time to the arrival of its ``DecisionTelemetry``.

The tenant networks and base matrices are fixed; the seed argument draws
the walks and the failure schedule.  The daemon's decisions do not depend
on timing (each tenant's inbox is processed in order), so they are checked
against an offline ``Debouncer`` replay of the same trace.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.dynamics.processes import RandomWalkProcess
from repro.experiments import scenarios, tiered
from repro.experiments.scenarios import Scenario
from repro.service.bus import decode_event
from repro.service.debounce import DebounceConfig, Debouncer
from repro.service.events import (
    ByeEvent,
    DecisionTelemetry,
    FailureEvent,
    MeasurementEvent,
    RepairEvent,
    ShutdownEvent,
    TenantStatus,
    event_to_dict,
)
from repro.traffic.matrix import TrafficMatrix

#: (tenant name, topology family, POPs, scenario seed): the service's
#: default replay tenants.  POPs is ignored by Abilene.
TENANTS: Tuple[Tuple[str, str, Optional[int], int], ...] = (
    ("he", "hurricane-electric", 8, 1),
    ("abilene", "abilene", None, 2),
    ("waxman", "waxman", 8, 3),
)
PROVISIONING_RATIO = 0.75
#: Aggregates per tenant: all pairs of 8 POPs; Abilene's 11 nodes are
#: sampled down to the same count so no tenant dominates the executor.
TENANT_AGGREGATES = 56
#: Optimizer step cap per re-optimization (the service default is 60): each
#: re-optimization commits at most 2 moves and the next one continues warm.
#: With a larger cap, a re-optimization that runs out of improving moves
#: before the cap pays the full escalation search: at a cap of 8, one run's
#: re-optimizations took 13 to 626 model evaluations each.  At 2 nearly
#: every one commits both moves, and the runs of six seeds took 3519 to
#: 4083 evaluations in all.
MAX_STEPS = 2
#: Log-multiplier standard deviation of one random-walk step.
STEP_STD = 0.02
#: Distinct trace matrices per tenant; a cycle replays them forwards then
#: backwards (2 x HALF_CYCLE measurements).
HALF_CYCLE = 17
#: Every tenant sends one measurement per period; the slowest handling of a
#: measurement (a re-optimization, ~0.15 s) stays well below it.
PERIOD_S = 0.3
#: Measurements per tenant in a run, at least (3 x 34 >= 100 events).
MIN_EVENTS_PER_TENANT = 34
#: The service's default drift threshold; a re-optimization is forced after
#: 4 calm measurements.  Rotated across the tenants (see build_plan), the
#: daemon re-optimizes on every 4th send, 0.4 s apart.
DEBOUNCE = DebounceConfig(max_interval=4)
INTERVAL_S = 60.0

#: How long the load generator waits for the daemon at each stage.
READY_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 60.0
_READ_LIMIT = 2**24


def tenant_scenario(topology: str, num_pops: Optional[int], seed: int) -> Scenario:
    """The scenario a tenant's network and base matrix come from.

    A sweep cell at 0.75 capacity; a matrix with more than
    TENANT_AGGREGATES aggregates is replaced by that many sampled pairs
    under the same recipe and calibration (against provisioned capacity).
    """
    scenario = scenarios.build_sweep_scenario(
        topology=topology,
        num_pops=num_pops,
        seed=seed,
        provisioning_ratio=PROVISIONING_RATIO,
        max_steps=MAX_STEPS,
    )
    if len(scenario.traffic_matrix) <= TENANT_AGGREGATES:
        return scenario
    network = scenario.network
    sampled = tiered.sampled_paper_traffic(network, TENANT_AGGREGATES, seed=seed)
    calibrated = scenarios.calibrate_flow_counts(
        network.with_uniform_capacity(scenarios.PROVISIONED_CAPACITY_BPS),
        sampled,
        scenarios.DEFAULT_TARGET_DEMANDED_UTILIZATION,
    )
    return replace(scenario, traffic_matrix=calibrated)


def events_per_tenant(seconds: int) -> int:
    return max(MIN_EVENTS_PER_TENANT, int(round(seconds / PERIOD_S)))


def trace_position(epoch: int) -> int:
    """Trace matrix index of measurement *epoch* (forwards, then backwards)."""
    position = epoch % (2 * HALF_CYCLE)
    return position if position < HALF_CYCLE else 2 * HALF_CYCLE - 1 - position


@dataclass
class Plan:
    """Everything a run sends, fixed by the seed before the first op."""

    #: Measurements sent during set-up: each tenant's bootstrap and warm-up.
    setup: List[bytes]
    #: (due offset s, tenant, epoch, wire lines sent at the due time)
    schedule: List[Tuple[float, str, int, List[bytes]]]
    #: Offline Debouncer replay: per tenant, (action, reason) per epoch.
    expected: Dict[str, List[Tuple[str, str]]]


def _line(payload: Dict[str, Any]) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


#: Matrix-name prefix of the measurements sent during set-up.  The traced
#: daemon starts its run phase at the first measurement without it.
SETUP_PREFIX = "setup-"


def _measurement_line(tenant: str, matrix: TrafficMatrix, epoch: int, timed: bool) -> bytes:
    """A measurement event, its matrix named after the event (the op id)."""
    payload = event_to_dict(
        MeasurementEvent(tenant=tenant, matrix=matrix, epoch=epoch, interval_s=INTERVAL_S)
    )
    payload["matrix"]["name"] = f"{'' if timed else SETUP_PREFIX}{tenant}-e{epoch}"
    return _line(payload)


def build_plan(seed: int, seconds: int) -> Plan:
    """Tenants, traces, failure schedule, wire lines and expected decisions.

    Without drift, a tenant re-optimizes on every ``max_interval``-th
    measurement (M).  Sends go out every PERIOD_S / 3, tenant by tenant;
    tenant *k* gets ``M - 1 - k (M - 1) / 3`` extra calm measurements in
    set-up, so the forced re-optimizations fall on every M-th send, tenants
    taking turns, instead of landing in the same round.  Every stretch of
    2 x HALF_CYCLE timed measurements (a trace cycle's length) holds one
    failure of a seeded link, on a seeded one of the stretch's forced
    re-optimizations, and its repair on the next, so the tenant runs
    degraded for M measurements and the rotation holds.
    """
    rng = np.random.default_rng(seed)
    count = events_per_tenant(seconds)
    interval = DEBOUNCE.max_interval
    if (interval - 1) % len(TENANTS):
        raise ValueError(f"max_interval - 1 must be a multiple of {len(TENANTS)}")
    setup_lines: List[bytes] = []
    timed: List[Tuple[float, str, int, List[bytes]]] = []
    expected: Dict[str, List[Tuple[str, str]]] = {}
    for slot, (name, topology, pops, tenant_seed) in enumerate(TENANTS):
        walk_seed = int(rng.integers(0, 2**31 - 1))
        scenario = tenant_scenario(topology, pops, tenant_seed)
        links = sorted({(min(link.link_id), max(link.link_id)) for link in scenario.network.links})
        warmup = interval - 1 - slot * (interval - 1) // len(TENANTS)
        last = warmup + count
        forced = [epoch for epoch in range(interval, last + 1, interval) if epoch > warmup]
        failures: Dict[int, Tuple[str, str]] = {}
        repairs: Set[int] = set()
        cycle = 2 * HALF_CYCLE
        for start in range(warmup + 1, last + 1, cycle):
            window = [e for e in forced if e >= start and e + interval < min(start + cycle, last + 1)]
            if window:
                failure_at = int(rng.choice(window))
                failures[failure_at] = links[int(rng.integers(len(links)))]
                repairs.add(failure_at + interval)

        process = RandomWalkProcess(scenario.traffic_matrix, seed=walk_seed, step_std=STEP_STD)
        trace = [process.matrix_at(index) for index in range(HALF_CYCLE)]
        debouncer = Debouncer(DEBOUNCE)
        decisions: List[Tuple[str, str]] = []
        for epoch in range(last + 1):
            matrix = trace[trace_position(epoch)]
            lines: List[bytes] = []
            if epoch in failures:
                failed = (failures[epoch],)
                lines.append(_line(event_to_dict(FailureEvent(tenant=name, failed_links=failed))))
                debouncer.notify_failure()
            if epoch in repairs:
                lines.append(_line(event_to_dict(RepairEvent(tenant=name))))
                debouncer.notify_failure()
            decision = debouncer.decide(matrix)
            if decision.reoptimize:
                debouncer.mark_reoptimized(matrix)
            else:
                debouncer.mark_skipped()
            decisions.append(("reoptimize" if decision.reoptimize else "skip", decision.reason))
            lines.append(_measurement_line(name, matrix, epoch, timed=epoch > warmup))
            if epoch <= warmup:
                setup_lines.extend(lines)
            else:
                due = (epoch - warmup - 1) * PERIOD_S + slot * PERIOD_S / len(TENANTS)
                timed.append((due, name, epoch, lines))
        expected[name] = decisions
    timed.sort(key=lambda item: (item[0], item[1]))
    return Plan(setup=setup_lines, schedule=timed, expected=expected)


@dataclass
class Observed:
    """What the load generator saw come back over the bus."""

    decisions: Dict[str, List[DecisionTelemetry]] = field(default_factory=dict)
    arrivals: Dict[Tuple[str, int], float] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    bye: Optional[str] = None
    total: int = 0


async def _receive(reader: asyncio.StreamReader, observed: Observed, progress: asyncio.Event) -> None:
    while True:
        line = await reader.readline()
        arrived = time.monotonic()
        if not line:
            return
        event = decode_event(line)
        if isinstance(event, DecisionTelemetry):
            observed.decisions.setdefault(event.tenant, []).append(event)
            observed.arrivals.setdefault((event.tenant, event.epoch), arrived)
            observed.total += 1
            progress.set()
        elif isinstance(event, TenantStatus) and event.status == "error":
            observed.errors.append(f"{event.tenant}: {event.detail}")
        elif isinstance(event, ByeEvent):
            observed.bye = event.detail
            return


async def _wait_for(observed: Observed, progress: asyncio.Event, total: int, timeout: float) -> None:
    deadline = time.monotonic() + timeout
    while observed.total < total:
        progress.clear()
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise RuntimeError(f"daemon sent {observed.total} of {total} decisions before timing out")
        try:
            await asyncio.wait_for(progress.wait(), remaining)
        except asyncio.TimeoutError:
            continue


@dataclass
class RunOutcome:
    ready: float
    observed: Observed
    due: Dict[Tuple[str, int], float]
    send_lag_max_s: float
    report: Dict[str, Any]


async def drive(
    plan: Plan,
    run_dir: str,
    env: Dict[str, str],
    trace: bool,
    setup_only: bool,
) -> RunOutcome:
    """Start the daemon, bootstrap every tenant, replay the schedule, drain."""
    tag = f"{os.getpid()}"
    # Relative to the working directory (both processes run in the checkout
    # root): a Unix socket path is limited to ~107 bytes.
    socket_path = os.path.relpath(os.path.join(run_dir, f"bus-{tag}.sock"))
    report_path = os.path.join(run_dir, f"daemon-{tag}.json")
    launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)), "daemon_main.py")
    process = await asyncio.create_subprocess_exec(
        sys.executable,
        launcher,
        "--socket",
        socket_path,
        "--report",
        report_path,
        "--trace",
        "1" if trace else "0",
        stdout=asyncio.subprocess.PIPE,
        env=env,
    )
    writer: Optional[asyncio.StreamWriter] = None
    try:
        assert process.stdout is not None
        banner = await asyncio.wait_for(process.stdout.readline(), READY_TIMEOUT_S)
        if banner.strip() != b"ready":
            raise RuntimeError(f"daemon did not start: {banner!r}")
        reader, writer = await asyncio.open_unix_connection(socket_path, limit=_READ_LIMIT)
        observed = Observed()
        progress = asyncio.Event()
        receiver = asyncio.ensure_future(_receive(reader, observed, progress))
        for line in plan.setup:
            writer.write(line)
        await writer.drain()
        await _wait_for(observed, progress, len(plan.setup), READY_TIMEOUT_S)
        ready = time.monotonic()

        due: Dict[Tuple[str, int], float] = {}
        lag = 0.0
        if not setup_only:
            start = time.monotonic() + 0.1
            for offset, tenant, epoch, lines in plan.schedule:
                due_at = start + offset
                delay = due_at - time.monotonic()
                if delay > 0:
                    await asyncio.sleep(delay)
                lag = max(lag, time.monotonic() - due_at)
                due[(tenant, epoch)] = due_at
                for line in lines:
                    writer.write(line)
                await writer.drain()
            total = len(plan.setup) + len(plan.schedule)
            await _wait_for(observed, progress, total, DRAIN_TIMEOUT_S)

        writer.write(_line(event_to_dict(ShutdownEvent())))
        await writer.drain()
        await asyncio.wait_for(receiver, DRAIN_TIMEOUT_S)
        await asyncio.wait_for(process.wait(), DRAIN_TIMEOUT_S)
        if process.returncode != 0:
            raise RuntimeError(f"daemon exited with code {process.returncode}")
        with open(report_path, encoding="utf-8") as handle:
            report = json.load(handle)
        os.remove(report_path)
        return RunOutcome(ready, observed, due, lag, report)
    finally:
        if writer is not None:
            writer.close()
        if process.returncode is None:
            process.kill()
            await process.wait()


def check(plan: Plan, observed: Observed) -> Tuple[int, List[str]]:
    """Failed measurement events and the reasons.

    Each tenant must get exactly one decision per measurement, in epoch
    order, equal to the offline Debouncer replay; no tenant may report an
    error, and the daemon must say ``bye`` after its drain.
    """
    failures: List[str] = []
    failed = 0
    for name, expected in plan.expected.items():
        got = observed.decisions.get(name, [])
        for epoch, want in enumerate(expected):
            if epoch >= len(got):
                failed += 1
                failures.append(f"{name}: no decision for epoch {epoch}")
                continue
            decision = got[epoch]
            if decision.epoch != epoch or (decision.action, decision.reason) != want:
                failed += 1
                failures.append(
                    f"{name}: epoch {epoch} got {decision.epoch}/{decision.action}"
                    f"/{decision.reason!r}, replay says {want}"
                )
        if len(got) > len(expected):
            failed += len(got) - len(expected)
            failures.append(f"{name}: {len(got) - len(expected)} extra decisions")
    failures.extend(f"tenant error: {error}" for error in observed.errors)
    if observed.bye != "daemon drained; closing":
        failures.append(f"no bye after the drain (got {observed.bye!r})")
    if failures and not failed:
        failed = 1
    return failed, failures

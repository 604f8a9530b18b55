"""Tests for the controller-as-a-service subsystem (repro.service)."""

import asyncio
import json

import pytest

from repro.exceptions import DynamicsError, ServiceError
from repro.experiments.scenarios import build_sweep_scenario
from repro.paths.policy import PathPolicy
from repro.runner.worker import WorkerCaches
from repro.service import (
    CarryOutcome,
    ControllerCore,
    ControllerDaemon,
    DebounceConfig,
    Debouncer,
    ReoptimizeOutcome,
    TenantConfig,
    demand_drift,
)
from repro.service.bus import (
    BusClient,
    ServiceBus,
    decode_event,
    encode_event,
    replay_summary,
)
from repro.service.cli import main as service_main
from repro.service.cli import parse_tenant_spec
from repro.service.daemon import _build_core
from repro.service.debounce import (
    REASON_BOOTSTRAP,
    REASON_CALM,
    REASON_DRIFT,
    REASON_FAILURE,
    REASON_MAX_INTERVAL,
    REASON_MIN_INTERVAL,
)
from repro.service.events import (
    PROTOCOL_VERSION,
    ByeEvent,
    DecisionTelemetry,
    FailureEvent,
    MeasurementEvent,
    RepairEvent,
    ShutdownEvent,
    TenantStatus,
    event_from_dict,
    event_to_dict,
)
from repro.traffic.matrix import TrafficMatrix
from repro.units import kbps
from tests.conftest import make_aggregate


@pytest.fixture(scope="module")
def scenario():
    return build_sweep_scenario(
        topology="hurricane-electric",
        num_pops=6,
        provisioning_ratio=0.75,
        seed=1,
        max_steps=40,
    )


def _scaled(matrix: TrafficMatrix, factor: float, name: str = "scaled") -> TrafficMatrix:
    scaled = TrafficMatrix(name=name)
    for aggregate in matrix:
        scaled.add(
            aggregate.with_num_flows(max(1, int(round(aggregate.num_flows * factor))))
        )
    return scaled


# --------------------------------------------------------------------- core


class TestControllerCore:
    def test_measure_optimize_install_carry_cycle(self, scenario):
        core = ControllerCore(scenario.network, scenario.fubar_config)
        core.on_measurement(scenario.traffic_matrix)
        outcome = core.reoptimize()
        assert isinstance(outcome, ReoptimizeOutcome)
        assert outcome.plan is not None
        assert outcome.planned_utility > 0.0
        install = core.install(outcome.plan)
        assert install.rules_installed > 0
        carry = core.carry(scenario.traffic_matrix, 60.0)
        assert isinstance(carry, CarryOutcome)
        assert carry.delivered_utility > 0.0
        assert core.epochs_carried == 1
        # The carry produced the next cycle's measured matrix.
        assert core.observed is not None
        assert len(core.observed) > 0

    def test_reoptimize_requires_measurement(self, scenario):
        core = ControllerCore(scenario.network, scenario.fubar_config)
        with pytest.raises(DynamicsError):
            core.reoptimize()

    def test_carry_requires_install(self, scenario):
        core = ControllerCore(scenario.network, scenario.fubar_config)
        core.on_measurement(scenario.traffic_matrix)
        with pytest.raises(DynamicsError):
            core.carry(scenario.traffic_matrix, 60.0)

    def test_failure_and_repair_transitions(self, scenario):
        core = ControllerCore(scenario.network, scenario.fubar_config)
        core.on_measurement(scenario.traffic_matrix)
        outcome = core.reoptimize()
        core.install(outcome.plan)
        link = next(iter(scenario.network.links))
        invalidated = core.on_failure_event(failed_links=((link.src, link.dst),))
        assert core.degraded
        assert core.failed_links == 2  # fibre cut: both directions
        assert invalidated >= 0
        # Re-applying the same failure set is a no-op.
        assert core.on_failure_event(failed_links=((link.src, link.dst),)) == 0
        assert core.on_repair() == 0  # repair invalidates nothing by itself
        assert not core.degraded
        assert core.failed_links == 0

    def test_shared_caches_are_reused(self, scenario):
        caches = WorkerCaches()
        first = ControllerCore(
            scenario.network,
            scenario.fubar_config,
            path_cache=caches.path_cache,
            model_cache=caches.model_cache,
        )
        second = ControllerCore(
            scenario.network,
            scenario.fubar_config,
            path_cache=caches.path_cache,
            model_cache=caches.model_cache,
        )
        # Same topology content -> both cores share one generator and engine.
        assert first._generator is second._generator
        assert first._model.engine is second._model.engine

    def test_shared_path_cache_respects_tenant_policy(self):
        # The daemon always hands its cores shared caches built for the
        # unrestricted policy; a tenant's own policy must still shape its
        # paths, exactly as without caches.
        scenario = build_sweep_scenario(
            topology="hurricane-electric", num_pops=6, seed=1
        )
        forbidden = ("SanJose", "LosAngeles")
        config = TenantConfig(
            name="policy",
            network=scenario.network,
            fubar_config=scenario.fubar_config,
            policy=PathPolicy.avoiding_links([forbidden]),
        )
        plans = {}
        for label, caches in (("shared", WorkerCaches()), ("uncached", None)):
            core = _build_core(config, caches)
            core.on_measurement(scenario.traffic_matrix)
            plans[label] = core.reoptimize().plan
        crossing = [
            split
            for route in plans["shared"].routing
            for split in route.splits
            if forbidden in zip(split.path, split.path[1:])
        ]
        assert crossing == []
        assert plans["shared"].network_utility == plans["uncached"].network_utility


# ----------------------------------------------------------------- debounce


class TestDebounce:
    def test_drift_metrics(self, scenario):
        base = scenario.traffic_matrix
        assert demand_drift(base, base) == 0.0
        assert demand_drift(base, _scaled(base, 2.0)) == pytest.approx(1.0, rel=0.05)
        assert demand_drift(base, base, metric="max") == 0.0
        with pytest.raises(ServiceError):
            demand_drift(base, base, metric="nope")

    def test_aggregate_churn_counts_as_drift(self):
        base = TrafficMatrix([make_aggregate("A", "B", num_flows=10, demand_bps=kbps(100))])
        grown = TrafficMatrix(
            [
                make_aggregate("A", "B", num_flows=10, demand_bps=kbps(100)),
                make_aggregate("B", "A", num_flows=10, demand_bps=kbps(100)),
            ]
        )
        assert demand_drift(base, grown) == pytest.approx(1.0)
        assert demand_drift(base, grown, metric="max") == float("inf")

    def test_decision_sequence(self, scenario):
        base = scenario.traffic_matrix
        debouncer = Debouncer(
            DebounceConfig(drift_threshold=0.2, min_interval=2, max_interval=4)
        )
        first = debouncer.decide(base)
        assert first.reoptimize and first.reason == REASON_BOOTSTRAP
        debouncer.mark_reoptimized(base)

        calm = debouncer.decide(_scaled(base, 1.01))
        assert not calm.reoptimize and calm.reason == REASON_CALM
        debouncer.mark_skipped()

        # Large drift, but still within the hysteresis floor of 2.
        floored = debouncer.decide(_scaled(base, 2.0))
        assert floored.reoptimize  # waited == min_interval == 2 -> allowed
        assert floored.reason == REASON_DRIFT
        debouncer.mark_reoptimized(_scaled(base, 2.0))

        blocked = debouncer.decide(_scaled(base, 4.0))
        assert not blocked.reoptimize and blocked.reason == REASON_MIN_INTERVAL
        debouncer.mark_skipped()

        # Calm measurements eventually hit the max-interval ceiling.
        debouncer.mark_reoptimized(base)
        for _ in range(3):
            decision = debouncer.decide(base)
            assert not decision.reoptimize
            debouncer.mark_skipped()
        forced = debouncer.decide(base)
        assert forced.reoptimize and forced.reason == REASON_MAX_INTERVAL

    def test_failure_overrides_debounce(self, scenario):
        base = scenario.traffic_matrix
        debouncer = Debouncer(DebounceConfig(drift_threshold=0.5, min_interval=3))
        debouncer.mark_reoptimized(base)
        debouncer.notify_failure()
        decision = debouncer.decide(base)
        assert decision.reoptimize and decision.reason == REASON_FAILURE

    def test_always_config_emulates_fixed_epochs(self, scenario):
        base = scenario.traffic_matrix
        debouncer = Debouncer(DebounceConfig.always())
        debouncer.mark_reoptimized(base)
        assert debouncer.decide(base).reoptimize

    def test_config_validation(self):
        with pytest.raises(ServiceError):
            DebounceConfig(drift_threshold=-0.1)
        with pytest.raises(ServiceError):
            DebounceConfig(min_interval=0)
        with pytest.raises(ServiceError):
            DebounceConfig(min_interval=3, max_interval=2)
        with pytest.raises(ServiceError):
            DebounceConfig(metric="nope")


# ------------------------------------------------------------------- events


class TestEvents:
    def test_measurement_round_trip(self, scenario):
        event = MeasurementEvent(
            tenant="t1", matrix=scenario.traffic_matrix, epoch=3, interval_s=30.0
        )
        data = event_to_dict(event)
        assert data["v"] == PROTOCOL_VERSION and data["type"] == "measurement"
        clone = event_from_dict(json.loads(json.dumps(data)))
        assert isinstance(clone, MeasurementEvent)
        assert clone.tenant == "t1" and clone.epoch == 3 and clone.interval_s == 30.0
        assert clone.matrix.keys == scenario.traffic_matrix.keys
        assert clone.matrix.total_demand_bps == pytest.approx(
            scenario.traffic_matrix.total_demand_bps
        )

    def test_all_other_types_round_trip(self):
        events = [
            FailureEvent(tenant="t", failed_links=(("A", "B"),), failed_nodes=("C",)),
            RepairEvent(tenant="t"),
            ShutdownEvent(),
            DecisionTelemetry(
                tenant="t", epoch=1, action="skip", reason="calm", drift=0.01,
                record={"delivered_utility": 0.9},
            ),
            TenantStatus(tenant="t", status="added", detail="x"),
            ByeEvent(detail="done"),
        ]
        for event in events:
            assert event_from_dict(event_to_dict(event)) == event

    def test_version_and_type_validation(self):
        with pytest.raises(ServiceError):
            event_from_dict({"v": 99, "type": "repair", "tenant": "t"})
        with pytest.raises(ServiceError):
            event_from_dict({"v": PROTOCOL_VERSION, "type": "nope"})
        with pytest.raises(ServiceError):
            event_from_dict({"v": PROTOCOL_VERSION, "type": "measurement", "tenant": "t"})

    def test_wire_codec(self):
        line = encode_event(RepairEvent(tenant="t"))
        assert line.endswith(b"\n")
        assert decode_event(line) == RepairEvent(tenant="t")
        with pytest.raises(ServiceError):
            decode_event(b"not json\n")
        with pytest.raises(ServiceError):
            decode_event(b"[1, 2]\n")


# ------------------------------------------------------------------- daemon


def _tenant_config(scenario, name: str, **debounce) -> TenantConfig:
    return TenantConfig(
        name=name,
        network=scenario.network,
        fubar_config=scenario.fubar_config,
        debounce=DebounceConfig(**debounce) if debounce else DebounceConfig(),
    )


class TestDaemon:
    def test_single_tenant_debounces(self, scenario):
        async def run():
            daemon = ControllerDaemon()
            telemetry = []
            daemon.add_telemetry_listener(telemetry.append)
            await daemon.add_tenant(
                _tenant_config(scenario, "t1", drift_threshold=0.25, max_interval=10)
            )
            base = scenario.traffic_matrix
            for epoch, factor in enumerate([1.0, 1.02, 1.04, 2.0]):
                await daemon.submit(
                    MeasurementEvent(
                        tenant="t1", matrix=_scaled(base, factor), epoch=epoch
                    )
                )
            await daemon.close()
            return daemon, telemetry

        daemon, telemetry = asyncio.run(run())
        decisions = [e for e in telemetry if isinstance(e, DecisionTelemetry)]
        assert [d.action for d in decisions] == ["reoptimize", "skip", "skip", "reoptimize"]
        assert [d.epoch for d in decisions] == [0, 1, 2, 3]
        stats = daemon.tenant_stats("t1")
        assert stats["reoptimizations"] == 2 and stats["skips"] == 2
        # Skipped cycles still carry traffic and report real delivered utility.
        for decision in decisions:
            assert decision.record["delivered_utility"] > 0.0
        # Skips do no optimizer work.
        skip_records = [d.record for d in decisions if d.action == "skip"]
        assert all(r["model_evaluations"] == 0 for r in skip_records)

    def test_multi_tenant_isolation_and_failure_override(self, scenario):
        other = build_sweep_scenario(
            topology="waxman", num_pops=6, provisioning_ratio=0.75, seed=2, max_steps=40
        )
        link = next(iter(scenario.network.links))

        async def run():
            daemon = ControllerDaemon()
            telemetry = []
            daemon.add_telemetry_listener(telemetry.append)
            await daemon.add_tenant(
                _tenant_config(scenario, "he", drift_threshold=5.0, max_interval=50)
            )
            await daemon.add_tenant(
                TenantConfig(
                    name="wax",
                    network=other.network,
                    fubar_config=other.fubar_config,
                    debounce=DebounceConfig(drift_threshold=5.0, max_interval=50),
                )
            )
            for epoch in range(2):
                await daemon.submit(
                    MeasurementEvent(
                        tenant="he", matrix=scenario.traffic_matrix, epoch=epoch
                    )
                )
                await daemon.submit(
                    MeasurementEvent(
                        tenant="wax", matrix=other.traffic_matrix, epoch=epoch
                    )
                )
            # A failure on one tenant must not make the other re-optimize.
            await daemon.submit(
                FailureEvent(tenant="he", failed_links=((link.src, link.dst),))
            )
            await daemon.submit(
                MeasurementEvent(tenant="he", matrix=scenario.traffic_matrix, epoch=2)
            )
            await daemon.submit(
                MeasurementEvent(tenant="wax", matrix=other.traffic_matrix, epoch=2)
            )
            await daemon.close()
            return daemon, telemetry

        daemon, telemetry = asyncio.run(run())
        by_tenant = {}
        for event in telemetry:
            if isinstance(event, DecisionTelemetry):
                by_tenant.setdefault(event.tenant, []).append(event)
        assert [d.action for d in by_tenant["he"]] == ["reoptimize", "skip", "reoptimize"]
        assert [d.action for d in by_tenant["wax"]] == ["reoptimize", "skip", "skip"]
        failure_decision = by_tenant["he"][2]
        assert failure_decision.reason == REASON_FAILURE
        assert failure_decision.record["failed_links"] == 2
        assert failure_decision.record["install"]["rules_invalidated"] >= 0
        # Both tenants shared one cache set.
        assert daemon.tenant_stats("he")["epochs"] == 3
        assert daemon.tenant_stats("wax")["epochs"] == 3

    def test_bad_event_emits_error_telemetry_and_keeps_tenant_alive(self, scenario):
        async def run():
            daemon = ControllerDaemon()
            telemetry = []
            daemon.add_telemetry_listener(telemetry.append)
            await daemon.add_tenant(_tenant_config(scenario, "t1"))
            await daemon.submit(
                FailureEvent(tenant="t1", failed_links=(("No", "Such"),))
            )
            await daemon.submit(
                MeasurementEvent(tenant="t1", matrix=scenario.traffic_matrix, epoch=0)
            )
            await daemon.close()
            return telemetry

        telemetry = asyncio.run(run())
        errors = [
            e for e in telemetry
            if isinstance(e, TenantStatus) and e.status == "error"
        ]
        assert errors and "No" in errors[0].detail
        decisions = [e for e in telemetry if isinstance(e, DecisionTelemetry)]
        assert len(decisions) == 1  # the tenant survived and processed the measurement

    def test_submit_validates_tenant(self, scenario):
        async def run():
            daemon = ControllerDaemon()
            with pytest.raises(ServiceError):
                await daemon.submit(RepairEvent(tenant="ghost"))
            with pytest.raises(ServiceError):
                await daemon.submit(ShutdownEvent())  # names no tenant
            await daemon.close()

        asyncio.run(run())

    def test_duplicate_tenant_rejected(self, scenario):
        async def run():
            daemon = ControllerDaemon()
            await daemon.add_tenant(_tenant_config(scenario, "t1"))
            with pytest.raises(ServiceError):
                await daemon.add_tenant(_tenant_config(scenario, "t1"))
            await daemon.close()

        asyncio.run(run())


# ---------------------------------------------------------------------- bus


class TestBus:
    def _replay_over(self, scenario, bus_factory, connect):
        async def run():
            daemon = ControllerDaemon()
            await daemon.add_tenant(
                _tenant_config(scenario, "t1", drift_threshold=0.25, max_interval=10)
            )
            bus = bus_factory(daemon)
            await bus.start()
            serving = asyncio.ensure_future(bus.serve_until_shutdown())
            client = await connect(bus)
            base = scenario.traffic_matrix
            for epoch, factor in enumerate([1.0, 1.03, 2.0]):
                await client.send(
                    MeasurementEvent(
                        tenant="t1", matrix=_scaled(base, factor), epoch=epoch
                    )
                )
            await client.send(ShutdownEvent())
            telemetry, bye = await client.receive_until_bye()
            await client.close()
            await serving
            await daemon.close()
            return telemetry, bye

        return asyncio.run(run())

    def test_unix_socket_round_trip(self, scenario, tmp_path):
        socket_path = str(tmp_path / "bus.sock")
        telemetry, bye = self._replay_over(
            scenario,
            lambda daemon: ServiceBus(daemon, unix_path=socket_path),
            lambda bus: BusClient.connect_unix(socket_path),
        )
        decisions = [e for e in telemetry if isinstance(e, DecisionTelemetry)]
        assert [d.action for d in decisions] == ["reoptimize", "skip", "reoptimize"]
        assert bye is not None and "drained" in bye.detail
        summary = replay_summary(telemetry)
        assert summary["t1"]["decisions"] == 3
        assert summary["t1"]["reoptimizations"] == 2

    def test_tcp_round_trip(self, scenario):
        telemetry, bye = self._replay_over(
            scenario,
            lambda daemon: ServiceBus(daemon, port=0),
            lambda bus: BusClient.connect_tcp(bus.host, bus.port),
        )
        decisions = [e for e in telemetry if isinstance(e, DecisionTelemetry)]
        assert len(decisions) == 3
        assert bye is not None

    def test_malformed_line_gets_bye_not_crash(self, scenario, tmp_path):
        socket_path = str(tmp_path / "bus.sock")

        async def run():
            daemon = ControllerDaemon()
            await daemon.add_tenant(_tenant_config(scenario, "t1"))
            bus = ServiceBus(daemon, unix_path=socket_path)
            await bus.start()
            serving = asyncio.ensure_future(bus.serve_until_shutdown())
            bad_reader, bad_writer = await asyncio.open_unix_connection(socket_path)
            bad_writer.write(b"this is not json\n")
            await bad_writer.drain()
            bye_line = await bad_reader.readline()
            bad_writer.close()
            await bad_writer.wait_closed()
            # The daemon is still alive for well-behaved clients.
            client = await BusClient.connect_unix(socket_path)
            await client.send(
                MeasurementEvent(tenant="t1", matrix=scenario.traffic_matrix, epoch=0)
            )
            await client.send(ShutdownEvent())
            telemetry, bye = await client.receive_until_bye()
            await client.close()
            await serving
            await daemon.close()
            return bye_line, telemetry, bye

        bye_line, telemetry, bye = asyncio.run(run())
        error_bye = decode_event(bye_line)
        assert isinstance(error_bye, ByeEvent) and "undecodable" in error_bye.detail
        assert any(isinstance(e, DecisionTelemetry) for e in telemetry)

    def test_unknown_tenant_gets_bye(self, scenario, tmp_path):
        socket_path = str(tmp_path / "bus.sock")

        async def run():
            daemon = ControllerDaemon()
            await daemon.add_tenant(_tenant_config(scenario, "t1"))
            bus = ServiceBus(daemon, unix_path=socket_path)
            await bus.start()
            client = await BusClient.connect_unix(socket_path)
            await client.send(RepairEvent(tenant="ghost"))
            _, bye = await client.receive_until_bye()
            await client.close()
            await bus.stop()
            await daemon.close()
            return bye

        bye = asyncio.run(run())
        assert bye is not None and "ghost" in bye.detail

    def test_endpoint_validation(self, scenario):
        daemon_stub = object()
        with pytest.raises(ServiceError):
            ServiceBus(daemon_stub, unix_path="/tmp/x.sock", port=1234)
        with pytest.raises(ServiceError):
            ServiceBus(daemon_stub)


# ---------------------------------------------------------------------- cli


class TestCli:
    def test_parse_tenant_spec(self):
        spec = parse_tenant_spec("edge=hurricane-electric:6:3")
        assert (spec.name, spec.topology, spec.num_pops, spec.seed) == (
            "edge", "hurricane-electric", 6, 3,
        )
        assert parse_tenant_spec("b=abilene").num_pops is None
        assert parse_tenant_spec("b=abilene::7").seed == 7
        for bad in ("noequals", "x=", "=y", "a=b:c", "a=b:1:2:3"):
            with pytest.raises(ServiceError):
                parse_tenant_spec(bad)

    def test_replay_self_contained(self, tmp_path, capsys):
        out = tmp_path / "replay.json"
        code = service_main(
            [
                "replay",
                "--tenant", "t1=hurricane-electric:6:1",
                "--epochs", "3",
                "--max-steps", "30",
                "--json", str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "t1" in captured and "reoptimized" in captured
        payload = json.loads(out.read_text())
        assert payload["tenants"]["t1"]["decisions"] == 3
        assert payload["epochs"] == 3

    def test_cli_rejects_bad_endpoint(self):
        assert service_main(["replay", "--connect", "bogus"]) == 2

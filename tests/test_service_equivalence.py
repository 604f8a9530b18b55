"""Byte-identity gate: the refactored batch driver vs. the pre-refactor loop.

``run_control_loop`` was refactored into a thin driver over
:class:`repro.service.core.ControllerCore`.  This suite freezes the
pre-refactor loop body verbatim (``_reference_control_loop`` below is the
implementation that shipped before the extraction) and asserts the new
driver produces **byte-identical** ``ControlLoopResult`` records — across
static, dynamic and failure cells, warm and cold, cached and uncached —
once the wall-clock timing fields (the only intentionally non-deterministic
output) are stripped.

The JSON round-trip tests for ``EpochRecord`` / ``ControlLoopResult`` live
here too: serialization must survive exactly the trajectories the
equivalence cells produce.
"""

import json
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

import pytest

from repro.core.config import FubarConfig
from repro.core.controller import FubarPlan
from repro.core.optimizer import FubarOptimizer
from repro.core.routing import RoutingTable
from repro.core.state import AllocationState
from repro.dynamics.loop import (
    ControlLoopConfig,
    ControlLoopResult,
    EpochRecord,
    bundles_from_routing,
    run_control_loop,
)
from repro.dynamics.processes import RandomWalkProcess, StaticProcess, TrafficProcess
from repro.exceptions import DynamicsError
from repro.experiments.scenarios import build_sweep_scenario
from repro.failures.recovery import prune_warm_start, split_routable
from repro.failures.schedule import FailureSchedule
from repro.paths.cache import PathSetCache
from repro.paths.generator import PathGenerator
from repro.paths.policy import PathPolicy
from repro.sdn.controller import InstallReport, SdnController
from repro.sdn.deployment import feed_model_result
from repro.topology.graph import Network
from repro.topology.validation import require_routable
from repro.traffic.matrix import TrafficMatrix
from repro.trafficmodel.compiled import CompiledModelCache
from repro.trafficmodel.result import TrafficModelResult
from repro.trafficmodel.waterfill import TrafficModel, TrafficModelConfig

# --------------------------------------------------------------------------
# The frozen pre-refactor loop (verbatim copy of the implementation that the
# ControllerCore extraction replaced; do not "improve" it — its whole value
# is that it never changes).
# --------------------------------------------------------------------------


def _reference_carry_epoch_traffic(
    sdn: SdnController,
    model: TrafficModel,
    true_matrix: TrafficMatrix,
    interval_s: float,
) -> Tuple[Optional[TrafficModelResult], List]:
    routing = sdn.installed_routing
    if routing is None:
        raise DynamicsError("cannot carry traffic before any routing is installed")
    bundles, unrouted = bundles_from_routing(routing, true_matrix)
    if not bundles:
        sdn.reset_counters()
        return None, unrouted
    result = model.evaluate(bundles)
    sdn.reset_counters()
    feed_model_result(sdn, result, interval_s=interval_s)
    return result, unrouted


def _reference_control_loop(
    network: Network,
    process: TrafficProcess,
    fubar_config: Optional[FubarConfig] = None,
    loop_config: Optional[ControlLoopConfig] = None,
    policy: Optional[PathPolicy] = None,
    model_config: Optional[TrafficModelConfig] = None,
    failures: Optional[FailureSchedule] = None,
    path_cache: Optional[PathSetCache] = None,
    model_cache: Optional[CompiledModelCache] = None,
) -> ControlLoopResult:
    loop_config = loop_config or ControlLoopConfig()
    fubar_config = fubar_config or FubarConfig()
    require_routable(network)
    sdn = SdnController(network)

    def _generator_for(topology: Network) -> PathGenerator:
        if path_cache is not None:
            return path_cache.generator_for(topology)
        return PathGenerator(topology, policy)

    def _model_for(topology: Network) -> TrafficModel:
        if model_cache is not None:
            return model_cache.engine_for(topology, model_config)
        return TrafficModel(topology, model_config)

    current = network
    generator = _generator_for(network)
    model = _model_for(network)

    observed = process.matrix_at(0)
    plan: Optional[FubarPlan] = None
    last_plan: Optional[FubarPlan] = None
    warm_state: Optional[AllocationState] = None
    warm_path_sets: Dict = {}
    records: List[EpochRecord] = []
    for epoch in range(loop_config.num_epochs):
        invalidated = 0
        if failures is not None:
            epoch_network = failures.network_at(epoch, network)
            if epoch_network is not current:
                dead = getattr(epoch_network, "failed_links", frozenset())
                previously_dead = getattr(current, "failed_links", frozenset())
                newly_dead = dead - previously_dead
                if newly_dead:
                    invalidated = sdn.uninstall_rules_crossing(newly_dead)
                current = epoch_network
                generator = _generator_for(current)
                model = _model_for(current)
                if warm_state is not None:
                    pruned = prune_warm_start(
                        warm_state, warm_path_sets, current, generator
                    )
                    warm_state = pruned.state
                    warm_path_sets = pruned.path_sets

        if len(observed) == 0:
            raise DynamicsError(
                f"epoch {epoch} observed an empty traffic matrix; the loop "
                "cannot re-optimize without measurements"
            )
        degraded = current is not network
        if degraded:
            routable, _ = split_routable(observed, generator)
        else:
            routable = observed

        if len(routable) == 0:
            plan = None
            warm_state, warm_path_sets = None, {}
            install = sdn.install_routing(RoutingTable({}))
        else:
            optimizer = FubarOptimizer(
                current,
                routable,
                config=fubar_config,
                path_generator=generator,
                traffic_model=_model_for(current),
            )
            initial_state = None
            initial_path_sets = None
            if loop_config.warm_start and warm_state is not None:
                initial_state = AllocationState.warm_start(
                    warm_state, routable, generator
                )
                initial_path_sets = warm_path_sets
            result = optimizer.run(
                initial_state=initial_state, initial_path_sets=initial_path_sets
            )
            plan = FubarPlan(result=result, routing=RoutingTable.from_state(result.state))
            last_plan = plan
            if loop_config.warm_start:
                warm_state, warm_path_sets = result.state, result.path_sets
            install = sdn.install_routing(plan.routing)
        if invalidated:
            install = install.with_invalidated(invalidated)

        true_matrix = process.matrix_at(epoch)
        delivered, unrouted = _reference_carry_epoch_traffic(
            sdn, model, true_matrix, loop_config.epoch_duration_s
        )
        if degraded:
            stranded = [
                aggregate
                for aggregate in unrouted
                if generator.lowest_delay_path(aggregate.source, aggregate.destination)
                is None
            ]
        else:
            stranded = []
        records.append(
            EpochRecord(
                epoch=epoch,
                observed_aggregates=len(observed),
                planned_utility=plan.network_utility if plan is not None else 0.0,
                delivered_utility=(
                    delivered.network_utility() if delivered is not None else 0.0
                ),
                model_evaluations=plan.result.model_evaluations if plan else 0,
                steps=plan.result.num_steps if plan else 0,
                optimize_wall_clock_s=0.0,
                install=install,
                unrouted_aggregates=len(unrouted) - len(stranded),
                failed_links=len(getattr(current, "failed_links", ())),
                failed_nodes=len(getattr(current, "failed_nodes", ())),
                stranded_aggregates=len(stranded),
                stranded_demand_bps=sum(a.total_demand_bps for a in stranded),
            )
        )
        observed = sdn.measured_traffic_matrix(name=f"measured-epoch{epoch}")
        for aggregate in unrouted:
            if aggregate.key not in observed:
                observed.add(aggregate)

    return ControlLoopResult(
        records=records,
        final_plan=last_plan,
        config=loop_config,
        process_name=process.name,
        failures_name=failures.describe() if failures is not None else None,
    )


# --------------------------------------------------------------------------
# Equivalence harness
# --------------------------------------------------------------------------


def _strip_timing(result: ControlLoopResult) -> ControlLoopResult:
    """The result with every wall-clock field (the only nondeterminism) zeroed."""
    return ControlLoopResult(
        records=[replace(record, optimize_wall_clock_s=0.0) for record in result.records],
        final_plan=result.final_plan,
        config=result.config,
        process_name=result.process_name,
        failures_name=result.failures_name,
    )


def _canonical_bytes(result: ControlLoopResult) -> bytes:
    """The byte string the equivalence gate compares."""
    return _strip_timing(result).to_json().encode("utf-8")


@pytest.fixture(scope="module")
def cell_scenario():
    return build_sweep_scenario(
        topology="hurricane-electric",
        num_pops=6,
        provisioning_ratio=0.75,
        seed=1,
        max_steps=40,
    )


def _run_both(scenario, process, loop_config, failures=None, with_caches=False):
    kwargs = dict(
        fubar_config=scenario.fubar_config,
        loop_config=loop_config,
        failures=failures,
    )
    if with_caches:
        reference = _reference_control_loop(
            scenario.network,
            process,
            path_cache=PathSetCache(),
            model_cache=CompiledModelCache(),
            **kwargs,
        )
        refactored = run_control_loop(
            scenario.network,
            process,
            path_cache=PathSetCache(),
            model_cache=CompiledModelCache(),
            **kwargs,
        )
    else:
        reference = _reference_control_loop(scenario.network, process, **kwargs)
        refactored = run_control_loop(scenario.network, process, **kwargs)
    return reference, refactored


class TestByteIdentity:
    def test_static_cell(self, cell_scenario):
        process = StaticProcess(cell_scenario.traffic_matrix)
        reference, refactored = _run_both(
            cell_scenario, process, ControlLoopConfig(num_epochs=4)
        )
        assert _canonical_bytes(refactored) == _canonical_bytes(reference)

    def test_dynamic_cell(self, cell_scenario):
        reference, refactored = _run_both(
            cell_scenario,
            RandomWalkProcess(cell_scenario.traffic_matrix, seed=7, step_std=0.25),
            ControlLoopConfig(num_epochs=5),
        )
        # The drift actually exercised different matrices per epoch.
        observed = {record.observed_aggregates for record in refactored.records}
        assert refactored.records[0].planned_utility > 0.0
        assert observed
        assert _canonical_bytes(refactored) == _canonical_bytes(reference)

    def test_failure_cell(self, cell_scenario):
        link = next(iter(cell_scenario.network.links))
        failures = FailureSchedule.single_link(
            (link.src, link.dst), epoch=1, repair_epoch=3
        )
        reference, refactored = _run_both(
            cell_scenario,
            RandomWalkProcess(cell_scenario.traffic_matrix, seed=3, step_std=0.1),
            ControlLoopConfig(num_epochs=4),
            failures=failures,
        )
        assert refactored.has_failures()
        assert refactored.total_rules_invalidated() > 0
        assert _canonical_bytes(refactored) == _canonical_bytes(reference)

    def test_failure_cell_with_shared_caches(self, cell_scenario):
        link = next(iter(cell_scenario.network.links))
        failures = FailureSchedule.single_link(
            (link.src, link.dst), epoch=1, repair_epoch=3
        )
        reference, refactored = _run_both(
            cell_scenario,
            RandomWalkProcess(cell_scenario.traffic_matrix, seed=3, step_std=0.1),
            ControlLoopConfig(num_epochs=4),
            failures=failures,
            with_caches=True,
        )
        assert _canonical_bytes(refactored) == _canonical_bytes(reference)

    def test_cold_start_cell(self, cell_scenario):
        process = StaticProcess(cell_scenario.traffic_matrix)
        reference, refactored = _run_both(
            cell_scenario, process, ControlLoopConfig(num_epochs=3, warm_start=False)
        )
        assert _canonical_bytes(refactored) == _canonical_bytes(reference)

    def test_final_plan_matches_reference(self, cell_scenario):
        process = StaticProcess(cell_scenario.traffic_matrix)
        reference, refactored = _run_both(
            cell_scenario, process, ControlLoopConfig(num_epochs=3)
        )
        assert reference.final_plan is not None
        assert refactored.final_plan is not None
        assert (
            refactored.final_plan.routing.to_dict()
            == reference.final_plan.routing.to_dict()
        )


# --------------------------------------------------------------------------
# JSON serialization round-trips
# --------------------------------------------------------------------------


class TestSerialization:
    def test_epoch_record_round_trip(self, cell_scenario):
        process = StaticProcess(cell_scenario.traffic_matrix)
        result = run_control_loop(
            cell_scenario.network,
            process,
            fubar_config=cell_scenario.fubar_config,
            loop_config=ControlLoopConfig(num_epochs=2),
        )
        for record in result.records:
            clone = EpochRecord.from_json(record.to_json())
            assert clone == record
            assert clone.accounting_gap == pytest.approx(record.accounting_gap)
            assert clone.install.churn == record.install.churn

    def test_control_loop_result_round_trip(self, cell_scenario):
        link = next(iter(cell_scenario.network.links))
        failures = FailureSchedule.single_link((link.src, link.dst), epoch=1)
        result = run_control_loop(
            cell_scenario.network,
            RandomWalkProcess(cell_scenario.traffic_matrix, seed=5, step_std=0.2),
            fubar_config=cell_scenario.fubar_config,
            loop_config=ControlLoopConfig(num_epochs=3),
            failures=failures,
        )
        clone = ControlLoopResult.from_json(result.to_json(indent=2))
        assert clone.records == result.records
        assert clone.config == result.config
        assert clone.process_name == result.process_name
        assert clone.failures_name == result.failures_name
        # The live plan is deliberately not serialized.
        assert clone.final_plan is None
        # Derived roll-ups survive the trip.
        assert clone.summary() == result.summary()
        # And the trip is idempotent at the byte level.
        assert clone.to_json() == ControlLoopResult.from_json(clone.to_json()).to_json()

    def test_install_report_round_trip(self):
        report = InstallReport(
            rules_installed=10,
            rules_added=4,
            rules_removed=2,
            rules_updated=1,
            rules_unchanged=5,
            rules_invalidated=3,
        )
        clone = InstallReport.from_dict(report.as_dict())
        assert clone == report
        assert clone.churn == report.churn
        assert clone.churn_fraction == pytest.approx(report.churn_fraction)

    def test_from_json_rejects_non_objects(self):
        with pytest.raises(DynamicsError):
            EpochRecord.from_json(json.dumps([1, 2, 3]))
        with pytest.raises(DynamicsError):
            ControlLoopResult.from_json(json.dumps("nope"))

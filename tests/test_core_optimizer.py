"""Tests for the FUBAR optimizer: step, main loop, routing output and controller."""

from dataclasses import replace

import pytest

from repro.core.config import FubarConfig
from repro.core.controller import Fubar
from repro.core.optimizer import (
    FubarOptimizer,
    TERMINATED_LOCAL_OPTIMUM,
    TERMINATED_NO_CONGESTION,
    TERMINATED_STEP_LIMIT,
    optimize,
)
from repro.core.routing import RoutingTable
from repro.core.state import AllocationState, build_path_sets
from repro.core.step import flows_to_move, perform_step
from repro.exceptions import AllocationError, OptimizationError
from repro.experiments.scenarios import build_paper_scenario
from repro.paths.generator import PathGenerator
from repro.topology.builders import line_topology, ring_topology, triangle_topology
from repro.traffic.classes import LARGE_TRANSFER
from repro.traffic.matrix import TrafficMatrix
from repro.trafficmodel.compiled import CompiledTrafficModel
from repro.trafficmodel.waterfill import TrafficModel, reference_evaluate
from repro.units import kbps, mbps
from repro.utility.aggregation import PriorityWeights
from tests.conftest import make_aggregate


@pytest.fixture
def congested_triangle():
    """A triangle with one aggregate that congests the direct A->B link."""
    network = triangle_topology(capacity_bps=mbps(100))
    matrix = TrafficMatrix(
        [make_aggregate("A", "B", num_flows=600, demand_bps=kbps(300))]
    )
    return network, matrix


class TestFlowsToMove:
    def test_small_aggregates_move_entirely(self):
        config = FubarConfig(small_aggregate_flows=5)
        assert flows_to_move(4, 4, config, 0) == 4

    def test_fraction_of_aggregate(self):
        config = FubarConfig(move_fraction=0.25, small_aggregate_flows=5)
        assert flows_to_move(100, 100, config, 0) == 25

    def test_never_more_than_bundle_holds(self):
        config = FubarConfig(move_fraction=0.5, small_aggregate_flows=0)
        assert flows_to_move(100, 10, config, 0) == 10

    def test_escalation_increases_moves(self):
        config = FubarConfig(
            move_fraction=0.25, escalation_multipliers=(1.0, 2.0, 4.0), small_aggregate_flows=0
        )
        assert flows_to_move(100, 100, config, 1) == 50
        assert flows_to_move(100, 100, config, 2) == 100

    def test_at_least_one_flow(self):
        config = FubarConfig(move_fraction=0.01, small_aggregate_flows=0)
        assert flows_to_move(10, 10, config, 0) == 1


class TestPerformStep:
    def test_step_moves_flows_off_congested_link(self, congested_triangle):
        network, matrix = congested_triangle
        generator = PathGenerator(network)
        model = TrafficModel(network)
        state = AllocationState.initial(network, matrix, generator)
        path_sets = build_path_sets(network, state)
        result = model.evaluate(state.bundles())
        assert result.has_congestion

        step = perform_step(
            result.congested_links_by_oversubscription()[0],
            state,
            path_sets,
            model,
            generator,
            FubarConfig(),
            result,
        )
        assert step.progress
        assert step.utility_after > step.utility_before
        assert step.num_flows_moved > 0
        assert step.to_path == ("A", "C", "B")
        # The committed path was added to the aggregate's path set.
        assert ("A", "C", "B") in path_sets[("A", "B", "bulk")]

    def test_step_reports_no_progress_when_nothing_helps(self):
        # A two-node network has no alternative path at all.
        network = line_topology(2, capacity_bps=mbps(1))
        matrix = TrafficMatrix([make_aggregate("N0", "N1", num_flows=100, demand_bps=kbps(100))])
        generator = PathGenerator(network)
        model = TrafficModel(network)
        state = AllocationState.initial(network, matrix, generator)
        path_sets = build_path_sets(network, state)
        result = model.evaluate(state.bundles())
        assert result.has_congestion
        step = perform_step(
            result.congested_links[0], state, path_sets, model, generator,
            FubarConfig(), result,
        )
        assert not step.progress
        assert step.state is state
        assert step.describe().startswith("no improving move")

    def test_step_needs_a_compiled_result(self, congested_triangle):
        """Moves are scored against the compiled list a result carries; a
        result of the reference implementation carries none."""
        network, matrix = congested_triangle
        generator = PathGenerator(network)
        state = AllocationState.initial(network, matrix, generator)
        result = reference_evaluate(network, state.bundles())
        assert result.compiled is None
        with pytest.raises(OptimizationError):
            perform_step(
                result.congested_links[0], state, build_path_sets(network, state),
                TrafficModel(network), generator, FubarConfig(), result,
            )


class TestOptimizerRuns:
    def test_triangle_congestion_is_fully_alleviated(self, congested_triangle):
        network, matrix = congested_triangle
        result = optimize(network, matrix)
        assert result.termination_reason == TERMINATED_NO_CONGESTION
        assert not result.has_congestion
        assert result.network_utility == pytest.approx(1.0, abs=1e-6)
        assert result.num_steps >= 1

    def test_utility_never_below_shortest_path_start(self, congested_triangle):
        """Shortest-path routing is FUBAR's starting point, hence a lower bound."""
        network, matrix = congested_triangle
        result = optimize(network, matrix)
        assert result.network_utility >= result.initial_point.network_utility - 1e-9

    def test_trace_utility_is_monotone_non_decreasing(self, congested_triangle):
        network, matrix = congested_triangle
        result = optimize(network, matrix)
        utilities = [point.weighted_utility for point in result.trace]
        assert all(b >= a - 1e-9 for a, b in zip(utilities, utilities[1:]))

    def test_flow_conservation_in_final_state(self, congested_triangle):
        network, matrix = congested_triangle
        result = optimize(network, matrix)
        assert result.state.total_flows() == matrix.total_flows

    def test_two_node_network_terminates_at_local_optimum(self):
        network = line_topology(2, capacity_bps=mbps(1))
        matrix = TrafficMatrix([make_aggregate("N0", "N1", num_flows=50, demand_bps=kbps(100))])
        result = optimize(network, matrix)
        assert result.termination_reason == TERMINATED_LOCAL_OPTIMUM
        assert result.has_congestion
        assert result.num_steps == 0

    def test_uncongested_network_terminates_immediately(self, triangle):
        matrix = TrafficMatrix([make_aggregate("A", "B", num_flows=5, demand_bps=kbps(100))])
        result = optimize(triangle, matrix)
        assert result.termination_reason == TERMINATED_NO_CONGESTION
        assert result.num_steps == 0
        assert result.network_utility == pytest.approx(1.0)

    def test_step_limit_respected(self, congested_triangle):
        network, matrix = congested_triangle
        config = FubarConfig(max_steps=1)
        result = optimize(network, matrix, config)
        assert result.num_steps <= 1
        if result.has_congestion:
            assert result.termination_reason == TERMINATED_STEP_LIMIT

    @pytest.mark.parametrize("max_steps", [1, 3])
    def test_one_compile_per_evaluated_state(self, monkeypatch, max_steps):
        """Each step scores its moves against the compiled list the current
        result carries, so a run compiles once per evaluated state: the
        start and each committed step."""
        scenario = build_paper_scenario(seed=0, num_pops=8)
        compile_bundles = CompiledTrafficModel.compile
        compiles = []

        def counting_compile(engine, bundles):
            compiles.append(len(bundles))
            return compile_bundles(engine, bundles)

        monkeypatch.setattr(CompiledTrafficModel, "compile", counting_compile)
        config = replace(scenario.fubar_config, max_steps=max_steps)
        result = FubarOptimizer(scenario.network, scenario.traffic_matrix, config).run()
        assert result.num_steps == max_steps
        assert len(compiles) == 1 + max_steps

    def test_ring_splits_aggregate_over_both_directions(self):
        network = ring_topology(4, capacity_bps=mbps(10))
        matrix = TrafficMatrix(
            [make_aggregate("N0", "N1", num_flows=150, demand_bps=kbps(100))]
        )
        result = optimize(network, matrix)
        # 15 Mbps of demand cannot fit on the 10 Mbps direct link alone.
        allocation = result.state.allocation_of(("N0", "N1", "bulk"))
        assert len(allocation) >= 2
        assert result.network_utility > 0.9

    def test_summary_contents(self, congested_triangle):
        network, matrix = congested_triangle
        result = optimize(network, matrix)
        summary = result.summary()
        assert summary["aggregates"] == 1
        assert summary["final_utility"] == pytest.approx(result.network_utility)
        assert summary["steps"] == result.num_steps

    def test_rejects_matrix_not_fitting_network(self, triangle):
        matrix = TrafficMatrix([make_aggregate("A", "Z")])
        with pytest.raises(Exception):
            FubarOptimizer(triangle, matrix)

    def test_rejects_model_and_config_together(self, congested_triangle):
        network, matrix = congested_triangle
        from repro.trafficmodel.waterfill import TrafficModelConfig

        with pytest.raises(OptimizationError):
            FubarOptimizer(
                network,
                matrix,
                traffic_model=TrafficModel(network),
                model_config=TrafficModelConfig(),
            )

    def test_priority_weights_change_the_objective(self):
        network = ring_topology(4, capacity_bps=mbps(5))
        large = make_aggregate(
            "N0", "N2", num_flows=5, demand_bps=mbps(1), traffic_class=LARGE_TRANSFER
        )
        small = make_aggregate(
            "N0", "N2", num_flows=60, demand_bps=kbps(100), traffic_class="bulk"
        )
        matrix = TrafficMatrix([large, small])
        plain = optimize(network, matrix)
        weighted = optimize(
            network,
            matrix,
            FubarConfig(priority_weights=PriorityWeights.prioritize(LARGE_TRANSFER, 50.0)),
        )
        plain_large = plain.model_result.class_utility(LARGE_TRANSFER)
        weighted_large = weighted.model_result.class_utility(LARGE_TRANSFER)
        assert weighted_large >= plain_large - 1e-9


class TestRoutingTable:
    def test_from_state_weights_sum_to_one(self, congested_triangle):
        network, matrix = congested_triangle
        result = optimize(network, matrix)
        routing = RoutingTable.from_state(result.state)
        for route in routing:
            assert sum(split.weight for split in route.splits) == pytest.approx(1.0)
            assert sum(split.num_flows for split in route.splits) == matrix.get(route.key).num_flows

    def test_multipath_aggregates_detected(self, congested_triangle):
        network, matrix = congested_triangle
        result = optimize(network, matrix)
        routing = RoutingTable.from_state(result.state)
        assert len(routing.multipath_aggregates()) == 1
        assert routing.max_paths_per_aggregate() >= 2

    def test_route_lookup_and_primary_path(self, congested_triangle):
        network, matrix = congested_triangle
        result = optimize(network, matrix)
        routing = RoutingTable.from_state(result.state)
        route = routing.route_of(("A", "B", "bulk"))
        assert route.primary_path in {("A", "B"), ("A", "C", "B")}
        assert route.weight_of(("A", "B")) > 0.0
        assert route.weight_of(("A", "C")) == 0.0

    def test_missing_route_raises(self, congested_triangle):
        network, matrix = congested_triangle
        routing = RoutingTable.from_state(optimize(network, matrix).state)
        with pytest.raises(AllocationError):
            routing.route_of(("X", "Y", "bulk"))

    def test_to_dict_round_trip_fields(self, congested_triangle):
        network, matrix = congested_triangle
        routing = RoutingTable.from_state(optimize(network, matrix).state)
        data = routing.to_dict()
        assert len(data["routes"]) == 1
        splits = data["routes"][0]["splits"]
        assert sum(split["weight"] for split in splits) == pytest.approx(1.0)


class TestFubarController:
    def test_optimize_returns_plan(self, congested_triangle):
        network, matrix = congested_triangle
        plan = Fubar(network).optimize(matrix)
        assert plan.network_utility == pytest.approx(1.0, abs=1e-6)
        assert plan.improvement_over_shortest_path > 0.0
        assert plan.summary()["aggregates_split"] == 1

    def test_optimize_with_priority(self, congested_triangle):
        network, matrix = congested_triangle
        weights = PriorityWeights.prioritize("bulk", 2.0)
        plan = Fubar(network).optimize_with_priority(matrix, weights)
        assert plan.result.config.priority_weights.weight_for("bulk") == 2.0

    def test_controller_rejects_unroutable_network(self):
        from repro.topology.graph import Network

        broken = Network()
        broken.add_node("solo")
        with pytest.raises(Exception):
            Fubar(broken)

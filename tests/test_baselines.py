"""Tests for the baseline routing schemes."""

import pytest

from repro.baselines.ecmp import ecmp_routing, equal_cost_paths
from repro.baselines.minmax_lp import minmax_lp_routing, solve_minmax_fractions
from repro.baselines.shortest_path import shortest_path_routing
from repro.baselines.upper_bound import (
    isolated_aggregate_utility,
    per_aggregate_upper_bounds,
    upper_bound_utility,
)
from repro.core.optimizer import optimize
from repro.paths.generator import PathGenerator
from repro.paths.policy import PathPolicy
from repro.topology.builders import ring_topology, triangle_topology
from repro.topology.hurricane_electric import reduced_core
from repro.traffic.generators import paper_traffic_matrix
from repro.traffic.matrix import TrafficMatrix
from repro.trafficmodel.waterfill import TrafficModel, TrafficModelConfig, reference_evaluate
from repro.units import kbps, mbps, ms
from repro.utility.aggregation import network_utility
from tests.conftest import crossed_links, make_aggregate
from tests.test_trafficmodel_compiled import assert_results_close


@pytest.fixture
def small_scenario():
    network = reduced_core(6, capacity_bps=mbps(40))
    matrix = paper_traffic_matrix(network, seed=2)
    return network, matrix


@pytest.fixture
def congested_core():
    """The HE core at 5 Mbps: every baseline leaves congested links, so
    growth rates (and with them the model config) shape the result."""
    network = reduced_core(6, capacity_bps=mbps(5))
    matrix = paper_traffic_matrix(network, seed=2)
    return network, matrix


ROUTING_BASELINES = [shortest_path_routing, ecmp_routing, minmax_lp_routing]


class TestShortestPathBaseline:
    def test_routes_everything_on_one_path(self, small_scenario):
        network, matrix = small_scenario
        baseline = shortest_path_routing(network, matrix)
        assert all(
            baseline.state.num_paths(key) == 1 for key in baseline.state.aggregate_keys
        )

    def test_summary_fields(self, small_scenario):
        network, matrix = small_scenario
        summary = shortest_path_routing(network, matrix).summary()
        assert summary["name"] == "shortest-path"
        assert 0.0 <= summary["utility"] <= 1.0

    def test_is_lower_bound_for_fubar(self):
        network = triangle_topology(capacity_bps=mbps(100))
        matrix = TrafficMatrix([make_aggregate("A", "B", num_flows=600, demand_bps=kbps(300))])
        baseline = shortest_path_routing(network, matrix)
        fubar = optimize(network, matrix)
        assert fubar.network_utility >= baseline.network_utility - 1e-9


class TestUpperBound:
    def test_uncongested_aggregate_reaches_one(self, triangle):
        aggregate = make_aggregate("A", "B", num_flows=5, demand_bps=kbps(100))
        assert isolated_aggregate_utility(triangle, aggregate) == pytest.approx(1.0)

    def test_huge_aggregate_cannot_reach_one_even_alone(self):
        network = triangle_topology(capacity_bps=mbps(10))
        aggregate = make_aggregate("A", "B", num_flows=100, demand_bps=mbps(1))
        value = isolated_aggregate_utility(network, aggregate)
        assert value < 1.0

    def test_splitting_helps_isolated_large_aggregate(self):
        network = triangle_topology(capacity_bps=mbps(10))
        aggregate = make_aggregate("A", "B", num_flows=100, demand_bps=kbps(150))
        single = isolated_aggregate_utility(network, aggregate, max_split_paths=1)
        split = isolated_aggregate_utility(network, aggregate, max_split_paths=3)
        assert split >= single

    def test_upper_bound_is_at_least_fubar(self, small_scenario):
        network, matrix = small_scenario
        bound = upper_bound_utility(network, matrix)
        fubar = optimize(network, matrix)
        assert bound >= fubar.network_utility - 1e-6

    def test_per_aggregate_bounds_cover_all_aggregates(self, small_scenario):
        network, matrix = small_scenario
        bounds = per_aggregate_upper_bounds(network, matrix)
        assert len(bounds) == matrix.num_aggregates
        assert all(0.0 <= b.utility <= 1.0 for b in bounds)


class TestEcmp:
    def test_equal_cost_paths_on_symmetric_ring(self):
        network = ring_topology(4)
        generator = PathGenerator(network)
        paths = equal_cost_paths(network, generator, "N0", "N2", max_paths=4)
        assert len(paths) == 2  # clockwise and anticlockwise are equal delay

    def test_single_shortest_path_when_unique(self, triangle):
        generator = PathGenerator(triangle)
        assert equal_cost_paths(triangle, generator, "A", "B") == [("A", "B")]

    def test_ecmp_splits_across_equal_paths(self):
        network = ring_topology(4, capacity_bps=mbps(10))
        matrix = TrafficMatrix(
            [make_aggregate("N0", "N2", num_flows=100, demand_bps=kbps(150))]
        )
        baseline = ecmp_routing(network, matrix)
        allocation = baseline.state.allocation_of(("N0", "N2", "bulk"))
        assert len(allocation) == 2
        flows = sorted(allocation.values())
        assert flows == [50, 50]

    def test_ecmp_beats_single_path_on_symmetric_overload(self):
        network = ring_topology(4, capacity_bps=mbps(10))
        matrix = TrafficMatrix(
            [make_aggregate("N0", "N2", num_flows=100, demand_bps=kbps(150))]
        )
        shortest = shortest_path_routing(network, matrix)
        ecmp = ecmp_routing(network, matrix)
        assert ecmp.network_utility > shortest.network_utility

    def test_ecmp_handles_fewer_flows_than_paths(self):
        network = ring_topology(4, capacity_bps=mbps(10))
        matrix = TrafficMatrix([make_aggregate("N0", "N2", num_flows=1, demand_bps=kbps(10))])
        baseline = ecmp_routing(network, matrix)
        assert baseline.state.num_paths(("N0", "N2", "bulk")) == 1


class TestMinMaxLp:
    def test_fractions_sum_to_one(self, small_scenario):
        network, matrix = small_scenario
        generator = PathGenerator(network)
        candidates = {
            aggregate.key: generator.k_shortest(aggregate.source, aggregate.destination, 3)
            for aggregate in matrix
        }
        fractions = solve_minmax_fractions(network, matrix, candidates)
        for key, values in fractions.items():
            assert sum(values) == pytest.approx(1.0)
            assert all(v >= 0.0 for v in values)

    def test_lp_reduces_max_utilization_versus_shortest_path(self):
        network = ring_topology(4, capacity_bps=mbps(10))
        matrix = TrafficMatrix(
            [make_aggregate("N0", "N2", num_flows=100, demand_bps=kbps(150))]
        )
        shortest = shortest_path_routing(network, matrix)
        lp = minmax_lp_routing(network, matrix)
        assert (
            lp.model_result.max_utilization()
            <= shortest.model_result.max_utilization() + 1e-9
        )

    def test_flow_conservation_after_rounding(self, small_scenario):
        network, matrix = small_scenario
        lp = minmax_lp_routing(network, matrix, paths_per_aggregate=3)
        assert lp.state.total_flows() == matrix.total_flows

    def test_lp_result_has_valid_utility(self, small_scenario):
        network, matrix = small_scenario
        lp = minmax_lp_routing(network, matrix, paths_per_aggregate=2)
        assert 0.0 <= lp.network_utility <= 1.0

    def test_fubar_utility_at_least_minmax_on_delay_sensitive_traffic(self):
        """FUBAR optimizes utility directly; the LP only flattens utilization."""
        network = triangle_topology(capacity_bps=mbps(100))
        matrix = TrafficMatrix(
            [
                make_aggregate(
                    "A", "B", num_flows=600, demand_bps=kbps(300), delay_cutoff_s=0.5
                )
            ]
        )
        lp = minmax_lp_routing(network, matrix)
        fubar = optimize(network, matrix)
        assert fubar.network_utility >= lp.network_utility - 1e-6


class TestToolsCarryPolicyAndModelConfig:
    """A baseline takes a path policy inside ``generator=`` and a model
    config inside ``model=``: the tools, not the options to build them."""

    @pytest.mark.parametrize("baseline", ROUTING_BASELINES)
    def test_policy_reaches_the_routing_through_the_generator(
        self, congested_core, baseline
    ):
        network, matrix = congested_core
        link = ("SanJose", "LosAngeles")
        assert link in crossed_links(baseline(network, matrix).state)
        avoiding = PathGenerator(network, PathPolicy.avoiding_links([link]))
        routed = baseline(network, matrix, generator=avoiding)
        assert link not in crossed_links(routed.state)

    @pytest.mark.parametrize("baseline", ROUTING_BASELINES)
    def test_model_config_reaches_the_routing_through_the_model(
        self, congested_core, baseline
    ):
        network, matrix = congested_core
        config = TrafficModelConfig(rtt_fairness=False)
        result = baseline(network, matrix, model=TrafficModel(network, config))
        bundles = result.state.bundles()
        assert_results_close(reference_evaluate(network, bundles, config), result.model_result)
        assert result.network_utility != pytest.approx(
            reference_evaluate(network, bundles).network_utility()
        )

    def test_upper_bound_takes_the_policy_through_the_generator(self):
        """Forbidding the direct link leaves the delay-sensitive aggregate
        the long way round, alone: the bound is its utility there."""
        network = triangle_topology()
        matrix = TrafficMatrix([make_aggregate("A", "B", delay_cutoff_s=ms(50))])
        avoiding = PathGenerator(network, PathPolicy.avoiding_links([("A", "B")]))
        bound = upper_bound_utility(network, matrix, generator=avoiding)
        assert upper_bound_utility(network, matrix) == pytest.approx(1.0)
        assert bound < 0.9
        detour = shortest_path_routing(network, matrix, generator=avoiding)
        assert bound == pytest.approx(detour.network_utility)

    def test_upper_bound_evaluates_with_the_model_given(self, congested_core):
        network, matrix = congested_core
        model = TrafficModel(network, TrafficModelConfig(rtt_fairness=False))
        before = model.evaluations
        bounds = per_aggregate_upper_bounds(network, matrix, model=model)
        assert model.evaluations - before >= matrix.num_aggregates
        assert upper_bound_utility(network, matrix, model=model) == network_utility(
            bounds
        )

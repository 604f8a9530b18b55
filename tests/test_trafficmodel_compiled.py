"""Equivalence suite for the compiled/incremental traffic-model engine.

The contract under test (ISSUE 2):

* ``CompiledTrafficModel`` (full path) agrees with the event-driven
  reference implementation on rates (to floating-point accumulation noise),
  and *exactly* on the semantic fields: satisfied flags, bottleneck links,
  congested links.
* ``compile_patched`` is ``compile`` of the patched bundle list, and its
  evaluation agrees **bit for bit** with a full evaluation of that list —
  rates, satisfied flags, bottlenecks, link loads, link demands and
  aggregate utilities.
* ``TrafficModel`` is the engine class itself under a second name, and
  ``traffic_model_for`` hands out a cache's engine itself.

Plus regression tests for the satellite bugfixes: per-run model-evaluation
counts, non-simple bundle paths, and the n/a improvement-over-shortest-path.
"""

from dataclasses import replace

import numpy as np
import pytest

import repro
from repro.core.optimizer import FubarOptimizer
from repro.core.state import AllocationState
from repro.exceptions import TrafficModelError
from repro.experiments.scenarios import build_paper_scenario
from repro.topology.builders import triangle_topology
from repro.topology.graph import Network
from repro.trafficmodel.bundle import Bundle
from repro.trafficmodel.compiled import CompiledModelCache, CompiledTrafficModel
from repro.trafficmodel.waterfill import (
    TrafficModel,
    TrafficModelConfig,
    reference_aggregate_utilities,
    reference_evaluate,
    traffic_model_for,
)
from repro.traffic.aggregate import Aggregate
from repro.traffic.classes import LARGE_TRANSFER
from repro.units import kbps, mbps, ms
from repro.utility.aggregation import PriorityWeights
from repro.utility.components import BandwidthComponent, DelayComponent
from repro.utility.functions import UtilityFunction
from tests.conftest import make_aggregate

#: Tolerance for rate comparisons against the reference: the reference
#: accumulates rates over hundreds of events, the compiled engine computes
#: them in closed form, so they differ by accumulation noise only.
RATE_RTOL = 1e-9


# --------------------------------------------------------------------- helpers


def random_scenario(seed: int):
    """A random network plus a random multi-bundle workload.

    Ring + random chords keeps the graph strongly connected while giving
    every pair several simple paths; capacities, delays, demands, flow
    counts and utility shapes are all randomized.
    """
    rng = np.random.default_rng(seed)
    num_nodes = int(rng.integers(4, 9))
    network = Network(name=f"random-{seed}")
    names = [f"N{i}" for i in range(num_nodes)]
    for name in names:
        network.add_node(name)
    for i in range(num_nodes):
        network.add_duplex_link(
            names[i],
            names[(i + 1) % num_nodes],
            capacity_bps=float(rng.uniform(mbps(0.5), mbps(3.0))),
            delay_s=float(rng.uniform(0.0, ms(20))),
        )
    for _ in range(int(rng.integers(0, num_nodes))):
        a, b = rng.choice(num_nodes, size=2, replace=False)
        if not network.has_link(names[a], names[b]):
            network.add_duplex_link(
                names[a],
                names[b],
                capacity_bps=float(rng.uniform(mbps(0.5), mbps(3.0))),
                delay_s=float(rng.uniform(0.0, ms(20))),
            )

    def random_path(source: str, destination: str):
        """A random simple path found by randomized depth-first search."""
        stack = [(source, (source,))]
        while stack:
            node, path = stack.pop()
            if node == destination:
                return path
            successors = [s for s in network.successors(node) if s not in path]
            rng.shuffle(successors)
            stack.extend((s, path + (s,)) for s in successors)
        return None

    classes = ["bulk", "real-time", "large-transfer"]
    bundles = []
    seen_keys = set()
    num_aggregates = int(rng.integers(2, 7))
    for index in range(num_aggregates):
        a, b = rng.choice(num_nodes, size=2, replace=False)
        source, destination = names[a], names[b]
        utility = UtilityFunction(
            BandwidthComponent(float(rng.uniform(kbps(20), kbps(400)))),
            DelayComponent(
                float(rng.uniform(ms(100), ms(2000))),
                tolerance_s=float(rng.uniform(0.0, ms(50))),
            ),
            name=f"u{index}",
        )
        paths = []
        for _ in range(int(rng.integers(1, 4))):
            path = random_path(source, destination)
            if path is not None and path not in paths:
                paths.append(path)
        traffic_class = str(rng.choice(classes))
        if (source, destination, traffic_class) in seen_keys:
            # Aggregate keys are unique in any real traffic matrix.
            continue
        seen_keys.add((source, destination, traffic_class))
        aggregate = Aggregate(
            source=source,
            destination=destination,
            traffic_class=traffic_class,
            num_flows=int(rng.integers(1, 80)) * len(paths),
            utility=utility,
        )
        per_path = aggregate.num_flows // len(paths)
        for path in paths:
            bundles.append(Bundle(aggregate=aggregate, path=path, num_flows=per_path))
    return network, bundles


def assert_results_close(reference, result):
    """Reference equivalence: rates within tolerance, semantics exact."""
    assert len(reference.outcomes) == len(result.outcomes)
    for expected, actual in zip(reference.outcomes, result.outcomes):
        assert actual.bundle.path == expected.bundle.path
        assert actual.rate_bps == pytest.approx(
            expected.rate_bps, rel=RATE_RTOL, abs=1e-6
        )
        assert actual.satisfied == expected.satisfied
        assert actual.bottleneck_link == expected.bottleneck_link
    np.testing.assert_allclose(
        result.link_loads_bps, reference.link_loads_bps, rtol=RATE_RTOL, atol=1e-3
    )
    assert set(result.congested_links) == set(reference.congested_links)


def assert_results_identical(expected, actual):
    """Bitwise equivalence of two results."""
    assert len(expected.outcomes) == len(actual.outcomes)
    for left, right in zip(expected.outcomes, actual.outcomes):
        assert right.bundle.path == left.bundle.path
        assert right.bundle.num_flows == left.bundle.num_flows
        assert right.rate_bps == left.rate_bps  # exact
        assert right.satisfied == left.satisfied
        assert right.bottleneck_link == left.bottleneck_link
    assert np.array_equal(actual.link_loads_bps, expected.link_loads_bps)
    assert np.array_equal(actual.link_demands_bps, expected.link_demands_bps)
    assert actual.aggregate_utilities() == expected.aggregate_utilities()


def patched_result(engine, compiled, patch):
    """Patch *compiled*, solve it and assemble the result."""
    patched = engine.compile_patched(compiled, patch)
    return engine.result_of(patched, engine.solve(patched))


def random_patch(rng, bundles):
    """A random move-like patch: shrink/remove one bundle, grow/add another."""
    j = int(rng.integers(len(bundles)))
    bundle = bundles[j]
    key = bundle.aggregate_key
    moved = int(rng.integers(1, bundle.num_flows + 1))
    patch = {}
    if moved == bundle.num_flows:
        patch[(key, bundle.path)] = None
    else:
        patch[(key, bundle.path)] = bundle.with_num_flows(bundle.num_flows - moved)
    # Move onto a sibling bundle's path when one exists, else a fresh reversed
    # detour is not guaranteed to exist, so grow a sibling or re-add the same
    # aggregate on another bundle's path.
    siblings = [
        other
        for other in bundles
        if other.aggregate_key == key and other.path != bundle.path
    ]
    if siblings:
        target = siblings[int(rng.integers(len(siblings)))]
        patch[(key, target.path)] = target.with_num_flows(target.num_flows + moved)
    else:
        patch[(key, bundle.path)] = bundle  # no-op replacement instead
    return patch


# ------------------------------------------------------- reference equivalence


class TestReferenceEquivalence:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_scenarios_match_reference(self, seed):
        network, bundles = random_scenario(seed)
        reference = reference_evaluate(network, bundles)
        engine = CompiledTrafficModel(network)
        assert_results_close(reference, engine.evaluate(bundles))

    @pytest.mark.parametrize("seed", range(0, 25, 5))
    def test_random_scenarios_match_reference_without_rtt_fairness(self, seed):
        network, bundles = random_scenario(seed)
        config = TrafficModelConfig(rtt_fairness=False)
        reference = reference_evaluate(network, bundles, config)
        engine = CompiledTrafficModel(network, config)
        assert_results_close(reference, engine.evaluate(bundles))

    def test_network_utility_matches_fast_scoring(self):
        network, bundles = random_scenario(99)
        engine = CompiledTrafficModel(network)
        compiled = engine.compile(bundles)
        solution = engine.solve(compiled)
        result = engine.result_of(compiled, solution)
        assert engine.weighted_utility(compiled, solution.rates) == pytest.approx(
            result.network_utility(), rel=1e-12
        )

    def test_exact_fill_shared_link(self):
        # Two bundles exactly filling a link: satisfied in both engines.
        network, bundles = random_scenario(0)
        network = Network(name="fill")
        for name in ("A", "B"):
            network.add_node(name)
        network.add_link("A", "B", capacity_bps=mbps(1), delay_s=ms(5))
        aggregate = make_aggregate("A", "B", num_flows=10, demand_bps=kbps(100))
        bundles = [Bundle(aggregate=aggregate, path=("A", "B"), num_flows=10)]
        reference = reference_evaluate(network, bundles)
        result = CompiledTrafficModel(network).evaluate(bundles)
        assert_results_close(reference, result)
        assert result.outcomes[0].satisfied

    @pytest.mark.parametrize("extra_bps", [0.0, 5e-4, 5e-7, 2.0])
    def test_slack_band_saturation_matches_reference(self, extra_bps):
        """A link within the slack band of its capacity when another link
        saturates counts as saturated in the same event (and bottlenecks the
        bundle first on its path); one just beyond the band does not."""
        network = Network(name="slack-band")
        for name in ("A", "B", "C"):
            network.add_node(name)
        network.add_link("A", "B", capacity_bps=mbps(1) + extra_bps, delay_s=ms(5))
        network.add_link("B", "C", capacity_bps=mbps(1), delay_s=ms(5))
        aggregate = make_aggregate("A", "C", num_flows=40, demand_bps=kbps(100))
        bundles = [Bundle(aggregate=aggregate, path=("A", "B", "C"), num_flows=40)]
        reference = reference_evaluate(network, bundles)
        result = CompiledTrafficModel(network).evaluate(bundles)
        expected_bottleneck = [o.bottleneck_link for o in reference.outcomes]
        assert [o.bottleneck_link for o in result.outcomes] == expected_bottleneck
        assert result.congested_links == reference.congested_links

    def test_uncrossed_link_below_absolute_slack(self):
        """A link no bundle crosses, with capacity below the model's absolute
        slack (its threshold is negative), must not break the solver's
        saturation sweep."""
        network = Network(name="tiny-capacity")
        for name in ("A", "B", "C", "D"):
            network.add_node(name)
        network.add_link("A", "B", capacity_bps=mbps(1), delay_s=ms(5))
        network.add_link("B", "C", capacity_bps=mbps(1), delay_s=ms(5))
        network.add_link("C", "D", capacity_bps=5e-7, delay_s=ms(5))
        aggregate = make_aggregate("A", "C", num_flows=40, demand_bps=kbps(100))
        bundles = [Bundle(aggregate=aggregate, path=("A", "B", "C"), num_flows=40)]
        reference = reference_evaluate(network, bundles)
        assert_results_close(reference, CompiledTrafficModel(network).evaluate(bundles))

    def test_empty_bundle_list(self):
        network, _ = random_scenario(1)
        result = CompiledTrafficModel(network).evaluate([])
        assert result.outcomes == ()
        assert not result.has_congestion


# -------------------------------------------------------- full-vs-delta (bitwise)


class TestDeltaEquivalence:
    @pytest.mark.parametrize("seed", range(20))
    def test_compile_patched_is_compile_of_the_patched_list(self, seed):
        """``compile_patched`` compiles the base's bundle list with the patch
        applied: changed rows (a move, a rebuilt utility) stay in place,
        removed rows are dropped, new rows (a new aggregate) are appended,
        and removing a row the base does not hold raises."""
        network, bundles = random_scenario(seed)
        rng = np.random.default_rng(1000 + seed)
        engine = CompiledTrafficModel(network)
        compiled = engine.compile(bundles)
        patch = random_patch(rng, bundles)
        for bundle in bundles[1::3]:
            patch.setdefault((bundle.aggregate_key, bundle.path), None)
        target = bundles[-1]
        rebuilt = target.aggregate.with_utility(
            target.aggregate.utility.with_demand(
                target.aggregate.utility.demand_bps * 3.0
            )
        )
        patch.setdefault(
            (target.aggregate_key, target.path),
            Bundle(aggregate=rebuilt, path=target.path, num_flows=target.num_flows),
        )
        extra = Bundle(
            aggregate=make_aggregate(
                target.path[0], target.path[-1], num_flows=3, traffic_class="extra"
            ),
            path=target.path,
            num_flows=3,
        )
        patch[(extra.aggregate_key, extra.path)] = extra
        expected = [
            patch.get((bundle.aggregate_key, bundle.path), bundle)
            for bundle in bundles
        ]
        expected = [bundle for bundle in expected if bundle is not None] + [extra]

        patched = engine.compile_patched(compiled, patch)
        assert list(patched.bundles) == expected
        assert_results_identical(
            engine.evaluate(expected), engine.result_of(patched, engine.solve(patched))
        )
        missing = (("nope", "nah", "bulk"), ("nope", "nah"))
        with pytest.raises(TrafficModelError):
            engine.compile_patched(compiled, {missing: None})

    def test_traffic_model_is_the_engine(self):
        """One model class: every public name is the engine, and a cached
        model is the cache's engine, not a copy or a wrapper of it."""
        assert repro.TrafficModel is TrafficModel is CompiledTrafficModel
        network, _ = random_scenario(6)
        cache = CompiledModelCache()
        model = traffic_model_for(network, cache=cache)
        assert model is cache.engine_for(network)
        assert type(traffic_model_for(network)) is CompiledTrafficModel

    def test_row_cache_invalidated_on_utility_change(self):
        network = Network(name="cache")
        for name in ("A", "B"):
            network.add_node(name)
        network.add_link("A", "B", capacity_bps=mbps(10), delay_s=ms(5))
        engine = CompiledTrafficModel(network)
        first = make_aggregate("A", "B", num_flows=10, demand_bps=kbps(100))
        second = first.with_utility(
            UtilityFunction(
                BandwidthComponent(kbps(200)), DelayComponent(ms(500)), name="bigger"
            )
        )
        low = engine.evaluate([Bundle(aggregate=first, path=("A", "B"), num_flows=10)])
        high = engine.evaluate([Bundle(aggregate=second, path=("A", "B"), num_flows=10)])
        assert low.outcomes[0].rate_bps == pytest.approx(kbps(1000))
        assert high.outcomes[0].rate_bps == pytest.approx(kbps(2000))


class TestCapacityOverride:
    """``solve(compiled, capacities=...)``: the provisioning cheap probe."""

    @pytest.mark.parametrize("seed", range(5))
    def test_override_matches_engine_built_on_upgraded_network(self, seed):
        network, bundles = random_scenario(seed)
        target = network.links[seed % network.num_links].link_id
        upgraded = network.with_link_capacity(
            target, 2.0 * network.link_by_id(target).capacity_bps
        )
        base_engine = CompiledTrafficModel(network)
        compiled = base_engine.compile(bundles)
        override = np.asarray(upgraded.capacities(), dtype=float)
        probed = base_engine.solve(compiled, capacities=override)

        fresh_engine = CompiledTrafficModel(upgraded)
        reference = fresh_engine.solve(fresh_engine.compile(bundles))
        assert np.array_equal(probed.rates, reference.rates)
        assert np.array_equal(probed.bottleneck, reference.bottleneck)

    def test_override_does_not_disturb_the_engine(self):
        network, bundles = random_scenario(2)
        engine = CompiledTrafficModel(network)
        compiled = engine.compile(bundles)
        before = engine.solve(compiled)
        engine.solve(compiled, capacities=10.0 * np.asarray(network.capacities()))
        after = engine.solve(compiled)
        assert np.array_equal(before.rates, after.rates)

    def test_override_shape_is_validated(self):
        network, bundles = random_scenario(1)
        engine = CompiledTrafficModel(network)
        compiled = engine.compile(bundles)
        with pytest.raises(TrafficModelError):
            engine.solve(compiled, capacities=np.ones(network.num_links + 1))


# ------------------------------------------------------------ one roll-up


def he8_states():
    """HE-8 bundle lists, provisioned and not: the shortest-path start and
    a four-step optimized state (whose aggregates span several paths)."""
    states = []
    for provisioned in (True, False):
        scenario = build_paper_scenario(provisioned=provisioned, seed=0, num_pops=8)
        config = replace(scenario.fubar_config, max_steps=4)
        optimized = FubarOptimizer(
            scenario.network, scenario.traffic_matrix, config
        ).run()
        initial = AllocationState.initial(scenario.network, scenario.traffic_matrix)
        states.append((scenario.network, initial.bundles()))
        states.append((scenario.network, optimized.state.bundles()))
    return states


class TestOneRollUp:
    """Every result's utilities come from the engine's one vectorized roll-up,
    equal to the reference per-outcome walk, and a score of the same solution
    equals the result's network utility bit for bit."""

    WEIGHTS = [None, PriorityWeights.prioritize(LARGE_TRANSFER, 16)]

    @pytest.mark.parametrize("seed", range(25))
    def test_random_scenarios_roll_up_like_the_reference(self, seed):
        network, bundles = random_scenario(seed)
        result = CompiledTrafficModel(network).evaluate(bundles)
        expected = reference_aggregate_utilities(network, result.outcomes)
        assert result.aggregate_utilities() == expected

    def test_he8_rolls_up_like_the_reference(self):
        for network, bundles in he8_states():
            result = CompiledTrafficModel(network).evaluate(bundles)
            expected = reference_aggregate_utilities(network, result.outcomes)
            assert result.aggregate_utilities() == expected

    def test_patched_result_lists_aggregates_by_first_bundle(self):
        """Dropping an aggregate's first bundle moves it behind one that
        starts later in the base; an aggregate left without bundles is left
        out."""
        network = triangle_topology(capacity_bps=mbps(1))
        x, y, z = (make_aggregate(*pair) for pair in ("AB", "AC", "BC"))
        bundles = [
            Bundle(aggregate=x, path=("A", "B"), num_flows=10),
            Bundle(aggregate=y, path=("A", "C"), num_flows=10),
            Bundle(aggregate=x, path=("A", "C", "B"), num_flows=10),
            Bundle(aggregate=z, path=("B", "C"), num_flows=10),
        ]
        engine = CompiledTrafficModel(network)
        patch = {(b.aggregate_key, b.path): None for b in bundles[::3]}
        result = patched_result(engine, engine.compile(bundles), patch)
        utilities = result.aggregate_utilities()
        assert [u.aggregate_key for u in utilities] == [y.key, x.key]
        assert utilities == reference_aggregate_utilities(network, result.outcomes)

    @pytest.mark.parametrize("seed", range(10))
    def test_weighted_utility_is_the_results_network_utility(self, seed):
        network, bundles = random_scenario(seed)
        self._assert_scores_match(CompiledTrafficModel(network), bundles)

    @pytest.mark.parametrize("num_pops", [8, 31])
    def test_weighted_utility_is_the_results_network_utility_on_he(self, num_pops):
        for provisioned in (True, False):
            scenario = build_paper_scenario(
                provisioned=provisioned, seed=0, num_pops=num_pops
            )
            state = AllocationState.initial(scenario.network, scenario.traffic_matrix)
            self._assert_scores_match(
                CompiledTrafficModel(scenario.network), state.bundles()
            )

    def test_result_carries_its_compiled_solve(self):
        network, bundles = random_scenario(3)
        engine = CompiledTrafficModel(network)
        compiled = engine.compile(bundles)
        solution = engine.solve(compiled)
        result = engine.result_of(compiled, solution)
        assert result.compiled is compiled
        assert result.rates is solution.rates
        assert list(result.rates) == [o.rate_bps for o in result.outcomes]

    def _assert_scores_match(self, engine, bundles):
        compiled = engine.compile(bundles)
        solution = engine.solve(compiled)
        result = engine.result_of(compiled, solution)
        for weights in self.WEIGHTS:
            score = engine.weighted_utility(compiled, solution.rates, weights)
            assert score == result.network_utility(weights)  # exact


# ------------------------------------------------------------------ regressions


class TestEvaluationCounterRegression:
    def test_second_run_reports_per_run_delta(self, triangle, triangle_traffic):
        """A reused optimizer must not report the cumulative model counter."""
        from repro.core.optimizer import FubarOptimizer

        optimizer = FubarOptimizer(triangle, triangle_traffic)
        first = optimizer.run()
        second = optimizer.run()
        assert first.model_evaluations > 0
        # The second run does the same work; a cumulative counter would
        # roughly double it.
        assert second.model_evaluations < 2 * first.model_evaluations
        assert second.model_evaluations == pytest.approx(
            first.model_evaluations, abs=first.model_evaluations // 2
        )

    def test_injected_model_counter_not_inherited(self, triangle, triangle_traffic):
        from repro.core.optimizer import FubarOptimizer

        model = TrafficModel(triangle)
        model.evaluate([])  # pre-existing activity on the shared model
        model.evaluate([])
        result = FubarOptimizer(triangle, triangle_traffic, traffic_model=model).run()
        assert result.model_evaluations == model.evaluations - 2


class TestNonSimplePathRegression:
    def test_bundle_rejects_node_revisits(self, ring6):
        aggregate = make_aggregate("N0", "N2")
        looped = ("N0", "N1", "N0", "N1", "N2")
        with pytest.raises(TrafficModelError):
            Bundle(aggregate=aggregate, path=looped, num_flows=1)

    def test_incidence_accumulates_rather_than_overwrites(self):
        # The reference model's incidence build must count a link once per
        # traversal; with simple paths that is exactly once per link.
        network, bundles = random_scenario(11)
        result = reference_evaluate(network, bundles)
        expected = np.zeros(network.num_links)
        for outcome in result.outcomes:
            for index in network.path_link_indices(outcome.bundle.path):
                expected[index] += outcome.bundle.total_demand_bps
        np.testing.assert_allclose(result.link_demands_bps, expected, rtol=1e-12)


class TestImprovementRegression:
    def test_relative_improvement_none_for_zero_reference(self):
        from repro.metrics.reporting import relative_improvement

        assert relative_improvement(0.4, 0.0) is None
        assert relative_improvement(0.4, -0.1) is None
        assert relative_improvement(0.4, 0.2) == pytest.approx(1.0)

    def test_report_renders_none_improvement_as_na(self):
        from repro.runner.report import aggregate_summary, comparison_rows, format_sweep_report

        record = {
            "label": "cell",
            "schemes": {"fubar": {"utility": 0.5, "congested_links": 0}},
            "upper_bound_utility": 0.9,
            "improvement_over_shortest_path": None,
        }
        rows = comparison_rows([record])
        assert rows[0][-1] == "n/a"
        summary = aggregate_summary([record])
        assert summary["mean_improvement_over_shortest_path"] is None
        text = format_sweep_report([record])
        assert "n/a" in text

"""Equivalence suite: BatchedCandidateScorer vs per-move scoring.

The optimizer scores every candidate move through the batched scorer, which
only counts if it is *bitwise* interchangeable with the per-move
``compile_patched`` + ``solve`` + ``weighted_utility`` loop this suite keeps
as its oracle — the optimizer must select the move the oracle selects.
This suite locks that in three layers:

1. Solves — rates and bottleneck attribution of a block solved alone equal
   those of the same block inside any ``solve_batched`` batch, including
   under capacity overrides; and the scorer's base-space solve of each
   candidate (base slots and segments reused, links the move leaves alone
   started from the base's crossing times) gives the rates a cold solve of
   the candidate's compiled patch gives.
2. Scores — ``BatchedCandidateScorer.score`` equals per-move scores exactly
   (drift 0, not within a tolerance) on HE-31, Abilene and tiered seeds,
   with and without RTT fairness (tied satisfy times), and in every
   chunking.
3. Moves — every move ``perform_step`` commits is the first-best candidate
   by per-move scores, and a step reports no progress exactly when no
   candidate clears ``min_utility_improvement``.  Every scenario (HE-31,
   Abilene and tiered-metro seeds) commits at least one move, and the
   scorer's scores equal the per-move scores at every link visited.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.state import AllocationState, build_path_sets
from repro.core.step import _candidate_moves, perform_step
from repro.exceptions import TrafficModelError
from repro.experiments.scenarios import build_paper_scenario, build_sweep_scenario
from repro.experiments.tiered import build_tiered_scenario
from repro.paths.generator import PathGenerator
from repro.trafficmodel.bundle import Bundle
from repro.trafficmodel.compiled import (
    BatchedCandidateScorer,
    CompiledTrafficModel,
    _adaptive_batch_size,
)
from repro.trafficmodel.waterfill import TrafficModel, TrafficModelConfig


def scenario_by_name(name: str, tiered_size: str = "small"):
    if name == "he31":
        return build_paper_scenario(seed=0)
    if name == "abilene":
        return build_sweep_scenario(topology="abilene", seed=1)
    prefix = "tiered-"
    assert name.startswith(prefix)
    return build_tiered_scenario(size=tiered_size, seed=int(name[len(prefix):]))


SCENARIOS = ["he31", "abilene", "tiered-0", "tiered-1", "tiered-2"]


def _assert_solutions_equal(single, batched, label):
    assert np.array_equal(single.rates, batched.rates), label
    assert np.array_equal(single.bottleneck, batched.bottleneck), label


# ------------------------------------------------- solve vs solve_batched


@pytest.mark.parametrize("name", SCENARIOS)
def test_solve_equals_solve_batched(name):
    """A block inside any batch solves bitwise as it does alone."""
    scenario = scenario_by_name(name)
    state = AllocationState.initial(scenario.network, scenario.traffic_matrix)
    engine = TrafficModel(scenario.network).engine
    compiled = engine.compile(state.bundles())

    single = engine.solve(compiled)
    for batch in ([compiled], [compiled] * 2, [compiled] * 7):
        for solution in engine.solve_batched(batch):
            _assert_solutions_equal(single, solution, name)


@pytest.mark.parametrize("name", ["he31", "tiered-0"])
def test_solve_batched_capacity_override(name):
    scenario = scenario_by_name(name)
    state = AllocationState.initial(scenario.network, scenario.traffic_matrix)
    engine = TrafficModel(scenario.network).engine
    compiled = engine.compile(state.bundles())
    capacities = np.asarray(
        [link.capacity_bps * 0.6 for link in scenario.network.links]
    )
    single = engine.solve(compiled, capacities=capacities)
    for solution in engine.solve_batched([compiled] * 3, capacities=capacities):
        _assert_solutions_equal(single, solution, name)


def test_scorer_rates_equal_cold_solves(hot_workload):
    """The scorer solves each candidate in the base's index space: base
    slots and segments reused, only the segments the move's rows cross
    rebuilt, and every other link started from the base's crossing time.
    Per candidate, its column rates are bitwise a cold solve of the
    compiled patch; a removed from-bundle and an unused new-path column
    carry nothing."""
    engine, base, deltas, _ = hot_workload
    scorer = BatchedCandidateScorer(engine, base)
    scorer.score(deltas)  # computes the base's crossing times
    rates, flows = scorer._solve_chunk(
        [scorer._parse(delta) for delta in deltas]
    )[:2]
    for k, delta in enumerate(deltas):
        patched = engine.compile_patched(base, delta)
        expected_rates = np.zeros(len(base) + 1)
        expected_flows = np.zeros(len(base) + 1)
        for bundle, rate in zip(patched.bundles, engine.solve(patched).rates):
            column = base.index.get((bundle.aggregate_key, bundle.path), len(base))
            expected_rates[column] = rate
            expected_flows[column] = bundle.num_flows
        assert np.array_equal(rates[k], expected_rates), k
        assert np.array_equal(flows[k], expected_flows), k


def test_scorer_rejects_non_move_patches(hot_workload):
    """Only move-shaped patches are scored; anything else raises before a
    single evaluation is counted."""
    engine, base, deltas, _ = hot_workload
    (from_row, shrunk), (to_row, grown) = deltas[0].items()
    other = next(b for b in base.bundles if b.aggregate_key != from_row[0])
    other_row = (other.aggregate_key, other.path)
    not_moves = [
        {from_row: shrunk},  # flows leave and arrive nowhere
        {to_row: grown},  # flows arrive from nowhere
        {from_row: shrunk, to_row: grown.with_num_flows(grown.num_flows + 1)},
        {**deltas[0], other_row: None},  # a second aggregate
        {other_row: other},  # a row left unchanged
        {(from_row[0], ("nowhere", "else")): None},  # unknown row removed
    ]
    scorer = BatchedCandidateScorer(engine, base)
    before = engine.evaluations
    for patch in not_moves:
        with pytest.raises(TrafficModelError):
            scorer.score([deltas[0], patch])
    assert engine.evaluations == before


def test_scorer_scores_an_empty_patch_as_the_base(hot_workload):
    """A patch that moves nothing is move-shaped (no from-row, no to-row)
    and scores as the base, next to real moves in one chunk."""
    engine, base, deltas, scenario = hot_workload
    weights = scenario.fubar_config.priority_weights
    patches = [{}, deltas[0], {}]
    expected = _per_move_scores(engine, base, patches, weights)
    assert BatchedCandidateScorer(engine, base, weights).score(patches) == expected


def test_scorer_counts_base_pass_and_candidates(hot_workload):
    engine, base, deltas, _ = hot_workload
    scorer = BatchedCandidateScorer(engine, base)
    before = engine.evaluations
    scorer.score(deltas)
    assert engine.evaluations == before + 1 + len(deltas)
    scorer.score(deltas[:2])
    assert engine.evaluations == before + 1 + len(deltas) + 2


# --------------------------------------------------------- score equality


@pytest.fixture(scope="module")
def hot_workload():
    """Engine, compiled base and the candidate deltas of one hot step.

    HE-31 is the smallest scenario whose congested links have movable
    candidates (the tiered-small sizes congest only access stubs, which
    have no alternative paths); the 200-node tiered drift gate lives in
    benchmarks/bench_scale.py.
    """
    scenario = build_paper_scenario(seed=0)
    network = scenario.network
    generator = PathGenerator(network)
    state = AllocationState.initial(
        network, scenario.traffic_matrix, generator
    )
    model = TrafficModel(network)
    result = model.evaluate(state.bundles())
    deltas = []
    path_sets = build_path_sets(network, state)
    for link_id in result.congested_links:
        deltas = [
            state.move_delta(
                bundle.aggregate_key, bundle.path, candidate, num_to_move
            )
            for bundle, candidate, num_to_move in _candidate_moves(
                link_id,
                state,
                path_sets,
                generator,
                scenario.fubar_config,
                result,
                0,
            )
        ]
        if deltas:
            break
    assert deltas, "HE-31 seed 0 should yield candidate moves"
    engine = model.engine
    return engine, engine.compile(state.bundles()), deltas, scenario


def _per_move_scores(engine, base, deltas, weights):
    scores = []
    for delta in deltas:
        patched = engine.compile_patched(base, delta)
        solution = engine.solve(patched)
        scores.append(engine.weighted_utility(patched, solution.rates, weights))
    return scores


def test_batched_scores_equal_per_move_exactly(hot_workload):
    engine, base, deltas, scenario = hot_workload
    weights = scenario.fubar_config.priority_weights
    expected = _per_move_scores(engine, base, deltas, weights)
    actual = BatchedCandidateScorer(engine, base, weights).score(deltas)
    assert actual == expected  # bitwise, not approx


@pytest.mark.parametrize("batch_size", [1, 2, 3, 64])
def test_scores_do_not_depend_on_chunking(hot_workload, batch_size):
    """Chunk boundaries regroup the stacked solve; scores must not move."""
    engine, base, deltas, scenario = hot_workload
    weights = scenario.fubar_config.priority_weights
    expected = _per_move_scores(engine, base, deltas, weights)
    scorer = BatchedCandidateScorer(
        engine, base, weights, batch_size=batch_size
    )
    assert scorer.score(deltas) == expected


def test_batched_scores_equal_per_move_with_tied_satisfy_times(hot_workload):
    """Without RTT fairness a bundle's satisfy time is its per-flow demand,
    so satisfy times tie across most bundles and an inserted row's rank is
    settled by its column; scores stay bitwise."""
    _, _, deltas, scenario = hot_workload
    engine = CompiledTrafficModel(
        scenario.network, TrafficModelConfig(rtt_fairness=False)
    )
    state = AllocationState.initial(
        scenario.network, scenario.traffic_matrix, PathGenerator(scenario.network)
    )
    base = engine.compile(state.bundles())
    satisfy = base.layout.satisfy
    assert np.unique(satisfy).shape[0] < satisfy.shape[0] // 2
    weights = scenario.fubar_config.priority_weights
    expected = _per_move_scores(engine, base, deltas, weights)
    for batch_size in (None, 3):
        scorer = BatchedCandidateScorer(engine, base, weights, batch_size=batch_size)
        assert scorer.score(deltas) == expected


def test_batched_scores_equal_per_move_with_rebuilt_utility(hot_workload):
    """Moves whose rows carry a rebuilt utility (three times the demand, so
    a bandwidth curve the base does not hold) are scored on their own curve
    and satisfy times, bitwise as per move."""
    engine, base, deltas, scenario = hot_workload
    patches = []
    for delta in deltas:
        aggregate = next(b for b in delta.values() if b is not None).aggregate
        rebuilt = aggregate.with_utility(
            aggregate.utility.with_demand(aggregate.utility.demand_bps * 3.0)
        )
        patches.append(
            {
                row: None
                if bundle is None
                else Bundle(rebuilt, bundle.path, bundle.num_flows)
                for row, bundle in delta.items()
            }
        )
    weights = scenario.fubar_config.priority_weights
    expected = _per_move_scores(engine, base, patches, weights)
    assert BatchedCandidateScorer(engine, base, weights).score(patches) == expected


def test_adaptive_batch_size_bounds():
    assert _adaptive_batch_size(100) == 64  # capped
    assert _adaptive_batch_size(32768) == 8  # floored
    assert _adaptive_batch_size(2048) == 16  # in between


# ------------------------------------------------- identical chosen moves


@pytest.mark.parametrize("name", SCENARIOS)
def test_optimizer_selects_identical_moves(name):
    """Every move ``perform_step`` commits is the first-best candidate by
    per-move scores, and it reports no progress exactly when no candidate
    beats the current utility by ``min_utility_improvement``.

    The tiered seeds run the metro size: the small size congests only access
    stubs, which have no alternative paths, so it would commit no move."""
    scenario = scenario_by_name(name, tiered_size="metro")
    network, config = scenario.network, scenario.fubar_config
    weights = config.priority_weights
    generator = PathGenerator(network)
    model = TrafficModel(network)
    engine = model.engine
    state = AllocationState.initial(network, scenario.traffic_matrix, generator)
    path_sets = build_path_sets(network, state)
    result = model.evaluate(state.bundles())
    steps = escalation = 0
    while steps < 4 and result.has_congestion:
        base = engine.compile(state.bundles())
        rates = np.asarray([outcome.rate_bps for outcome in result.outcomes])
        threshold = engine.weighted_utility(base, rates, weights)
        threshold += config.min_utility_improvement
        for link_id in result.congested_links_by_oversubscription():
            moves = list(
                _candidate_moves(
                    link_id, state, path_sets, generator, config, result, escalation
                )
            )
            deltas = [
                state.move_delta(bundle.aggregate_key, bundle.path, to_path, flows)
                for bundle, to_path, flows in moves
            ]
            scores = _per_move_scores(engine, base, deltas, weights)
            assert BatchedCandidateScorer(engine, base, weights).score(deltas) == scores
            step = perform_step(
                link_id, state, path_sets, model, generator, config, result,
                escalation,
            )
            assert step.progress == any(score > threshold for score in scores)
            if step.progress:
                bundle, to_path, flows = moves[scores.index(max(scores))]
                assert step.moved_aggregate == bundle.aggregate_key
                assert (step.from_path, step.to_path) == (bundle.path, to_path)
                assert step.num_flows_moved == flows
                state, result = step.state, step.result
                steps, escalation = steps + 1, 0
                break
        else:
            if escalation >= config.max_escalation_level:
                break
            escalation += 1
    assert steps >= 1, f"{name} committed no move"

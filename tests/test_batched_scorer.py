"""Equivalence suite: BatchedCandidateScorer vs the moved state.

Paper Listing 2 scores a candidate move by the network utility of the
allocation after the move.  The optimizer scores every candidate through
the batched scorer, which only counts if it is *bitwise* interchangeable
with that definition, which this suite keeps as its oracle: a full
evaluation of the moved state,
``model.evaluate(state.with_move(...).bundles()).network_utility(weights)``
— the public path ``perform_step`` commits a move through, sharing no code
with the scorer's patch parsing or base-space layout.  The optimizer must
select the move the oracle selects.  This suite locks that in three layers:

1. Solves — rates and bottleneck attribution of a block solved alone equal
   those of the same block inside any ``solve_batched`` batch, including
   under capacity overrides; and the scorer's base-space solve of each
   candidate (base slots and segments reused, links the move leaves alone
   started from the base's crossing times) gives the per-bundle rates the
   moved state's evaluation gives.
2. Scores — ``BatchedCandidateScorer.score`` equals the oracle's scores
   exactly (drift 0, not within a tolerance) on HE-8, Abilene and tiered
   seeds, with and without RTT fairness (tied satisfy times), in every
   chunking, and for every candidate of every congested link at escalation
   levels 0-2 — whole-bundle moves included, whose from-row goes, so a
   recompile of the patched list would renumber the moved aggregate and
   sum the roll-up in another order.
3. Moves — every move ``perform_step`` commits is the first-best candidate
   by the oracle's scores, and a step reports no progress exactly when no
   candidate clears ``min_utility_improvement``.  Every scenario (HE-8,
   Abilene and tiered-metro seeds) commits at least one move, and the
   scorer's scores equal the oracle's at every link visited.
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple

import numpy as np
import pytest

from repro.core.state import AllocationState, build_path_sets
from repro.core.step import _candidate_moves, perform_step
from repro.exceptions import TrafficModelError
from repro.experiments.scenarios import build_paper_scenario, build_sweep_scenario
from repro.experiments.tiered import build_tiered_scenario
from repro.paths.generator import PathGenerator
from repro.topology.graph import Path
from repro.traffic.aggregate import AggregateKey
from repro.trafficmodel.bundle import Bundle
from repro.trafficmodel.compiled import (
    BatchedCandidateScorer,
    CompiledBundles,
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


def test_scorer_rates_equal_cold_solves(hot_step):
    """The scorer solves each candidate in the base's index space: base
    slots and segments reused, only the segments the move's rows cross
    rebuilt, and every other link started from the base's crossing time.
    Per candidate, its column rates are bitwise the rates a full evaluation
    of the moved state gives each bundle; a removed from-bundle and an
    unused new-path column carry nothing."""
    _assert_rates_equal_moved_states(hot_step.model, hot_step.state, hot_step.moves)


def test_scorer_rejects_non_move_patches(hot_step):
    """Only move-shaped patches are scored; anything else raises before a
    single evaluation is counted."""
    engine, base, deltas = hot_step.engine, hot_step.base, hot_step.deltas
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


def test_scorer_scores_an_empty_patch_as_the_base(hot_step):
    """A patch that moves nothing is move-shaped (no from-row, no to-row)
    and scores as the unmoved state, next to a real move in one chunk."""
    model, state, weights = hot_step.model, hot_step.state, hot_step.weights
    unmoved = model.evaluate(state.bundles()).network_utility(weights)
    expected = [unmoved] + moved_state_scores(
        model, state, hot_step.moves[:1], weights
    ) + [unmoved]
    scorer = BatchedCandidateScorer(hot_step.engine, hot_step.base, weights)
    assert scorer.score([{}, hot_step.deltas[0], {}]) == expected


def test_scorer_counts_base_pass_and_candidates(hot_step):
    engine, base, deltas = hot_step.engine, hot_step.base, hot_step.deltas
    scorer = BatchedCandidateScorer(engine, base)
    before = engine.evaluations
    scorer.score(deltas)
    assert engine.evaluations == before + 1 + len(deltas)
    scorer.score(deltas[:2])
    assert engine.evaluations == before + 1 + len(deltas) + 2


# --------------------------------------------------------- score equality


#: A move: aggregate key, from-path, to-path and flows moved.
Move = Tuple[AggregateKey, Path, Path, int]


class HotStep(NamedTuple):
    """The inputs of one optimizer step: its state, compiled base and the
    candidate moves of its first congested link with movable bundles."""

    scenario: object
    model: TrafficModel
    state: AllocationState
    base: CompiledBundles
    moves: List[Move]

    @property
    def engine(self) -> CompiledTrafficModel:
        return self.model.engine

    @property
    def weights(self):
        return self.scenario.fubar_config.priority_weights

    @property
    def deltas(self):
        return [self.state.move_delta(*move) for move in self.moves]


def candidate_moves(state, path_sets, generator, config, result, link_id, level):
    """The moves ``perform_step`` scores on *link_id* at escalation *level*."""
    return [
        (bundle.aggregate_key, bundle.path, to_path, flows)
        for bundle, to_path, flows in _candidate_moves(
            link_id, state, path_sets, generator, config, result, level
        )
    ]


@pytest.fixture(scope="module")
def hot_step():
    """One hot step: the HE core's (8 POPs at the default reduced scale)
    first congested link with movable candidates.

    It is the smallest scenario whose congested links have movable
    candidates (the tiered-small sizes congest only access stubs, which
    have no alternative paths); the 200-node tiered drift gate lives in
    benchmarks/bench_scale.py.
    """
    scenario = build_paper_scenario(seed=0)
    network = scenario.network
    generator = PathGenerator(network)
    state = AllocationState.initial(network, scenario.traffic_matrix, generator)
    model = TrafficModel(network)
    result = model.evaluate(state.bundles())
    path_sets = build_path_sets(network, state)
    moves: List[Move] = []
    for link_id in result.congested_links:
        moves = candidate_moves(
            state, path_sets, generator, scenario.fubar_config, result, link_id, 0
        )
        if moves:
            break
    assert moves, "the HE core should yield candidate moves"
    return HotStep(scenario, model, state, result.compiled, moves)


def moved_state_scores(model, state, moves, weights):
    """The oracle: the network utility of a full evaluation of each moved
    state, through the same public path ``perform_step`` commits by."""
    return [
        model.evaluate(state.with_move(*move).bundles()).network_utility(weights)
        for move in moves
    ]


def _assert_rates_equal_moved_states(model, state, moves):
    """The scorer's per-column rates and flows of each move, in the base's
    columns plus one for a new to-path, equal the moved state's outcomes."""
    engine = model.engine
    base = engine.compile(state.bundles())
    scorer = BatchedCandidateScorer(engine, base)
    deltas = [state.move_delta(*move) for move in moves]
    scorer.score(deltas)  # computes the base's crossing times
    rates, flows = scorer._solve_chunk(
        [scorer._parse(delta) for delta in deltas]
    )[:2]
    for k, move in enumerate(moves):
        moved = model.evaluate(state.with_move(*move).bundles())
        expected_rates = np.zeros(len(base) + 1)
        expected_flows = np.zeros(len(base) + 1)
        for outcome in moved.outcomes:
            bundle = outcome.bundle
            column = base.index.get((bundle.aggregate_key, bundle.path), len(base))
            expected_rates[column] = outcome.rate_bps
            expected_flows[column] = bundle.num_flows
        assert np.array_equal(rates[k], expected_rates), move
        assert np.array_equal(flows[k], expected_flows), move


def test_batched_scores_equal_per_move_exactly(hot_step):
    weights = hot_step.weights
    expected = moved_state_scores(
        hot_step.model, hot_step.state, hot_step.moves, weights
    )
    scorer = BatchedCandidateScorer(hot_step.engine, hot_step.base, weights)
    assert scorer.score(hot_step.deltas) == expected  # bitwise, not approx


@pytest.mark.parametrize("batch_size", [1, 2, 3, 64])
def test_scores_do_not_depend_on_chunking(hot_step, batch_size):
    """Chunk boundaries regroup the stacked solve; scores must not move."""
    weights = hot_step.weights
    expected = moved_state_scores(
        hot_step.model, hot_step.state, hot_step.moves, weights
    )
    scorer = BatchedCandidateScorer(
        hot_step.engine, hot_step.base, weights, batch_size=batch_size
    )
    assert scorer.score(hot_step.deltas) == expected


def test_batched_scores_equal_per_move_with_tied_satisfy_times(hot_step):
    """Without RTT fairness a bundle's satisfy time is its per-flow demand,
    so satisfy times tie across most bundles and an inserted row's rank is
    settled by its column; scores stay bitwise."""
    model = TrafficModel(
        hot_step.scenario.network, TrafficModelConfig(rtt_fairness=False)
    )
    state, moves, weights = hot_step.state, hot_step.moves, hot_step.weights
    base = model.engine.compile(state.bundles())
    satisfy = base.layout.satisfy
    assert np.unique(satisfy).shape[0] < satisfy.shape[0] // 2
    expected = moved_state_scores(model, state, moves, weights)
    for batch_size in (None, 3):
        scorer = BatchedCandidateScorer(
            model.engine, base, weights, batch_size=batch_size
        )
        assert scorer.score(hot_step.deltas) == expected


def test_batched_scores_equal_per_move_with_rebuilt_utility(hot_step):
    """Moves whose rows carry a rebuilt utility (three times the demand, so
    a bandwidth curve the base does not hold) are scored on their own curve
    and satisfy times, bitwise as the moved state with those rows rebuilt."""
    model, state, weights = hot_step.model, hot_step.state, hot_step.weights
    patches, expected = [], []
    for move, delta in zip(hot_step.moves, hot_step.deltas):
        aggregate = state.traffic_matrix.get(move[0])
        rebuilt = aggregate.with_utility(
            aggregate.utility.with_demand(aggregate.utility.demand_bps * 3.0)
        )

        def rebuild(bundle):
            return Bundle(rebuilt, bundle.path, bundle.num_flows)

        patches.append(
            {
                row: None if bundle is None else rebuild(bundle)
                for row, bundle in delta.items()
            }
        )
        moved = [
            rebuild(bundle) if (bundle.aggregate_key, bundle.path) in delta else bundle
            for bundle in state.with_move(*move).bundles()
        ]
        expected.append(model.evaluate(moved).network_utility(weights))
    scorer = BatchedCandidateScorer(hot_step.engine, hot_step.base, weights)
    assert scorer.score(patches) == expected


@pytest.mark.parametrize("rtt_fairness", [True, False])
@pytest.mark.parametrize("name", ["he31", "abilene"])
def test_every_candidate_up_to_level_two_scores_as_its_moved_state(
    name, rtt_fairness
):
    """Every candidate of every congested link of the initial state, at
    escalation levels 0-2, scores bitwise as its moved state, and its
    per-column rates are the moved state's; without RTT fairness satisfy
    times tie across most bundles.  A third of the candidates move a whole
    bundle, so the from-row goes: the moved state keeps the aggregate in
    place, where a recompile of the patched list would renumber it last and
    sum the roll-up in another order (with RTT fairness, 5 of the HE core's
    72 candidates and 11 of Abilene's 141 score differently that way).
    Tiered-metro seeds are left to the move-choice walk: scoring all their
    levels takes tens of seconds."""
    scenario = scenario_by_name(name)
    network, config = scenario.network, scenario.fubar_config
    weights = config.priority_weights
    generator = PathGenerator(network)
    state = AllocationState.initial(network, scenario.traffic_matrix, generator)
    path_sets = build_path_sets(network, state)
    model = TrafficModel(network, TrafficModelConfig(rtt_fairness=rtt_fairness))
    result = model.evaluate(state.bundles())
    base = result.compiled
    moves = [
        move
        for link_id in result.congested_links
        for level in range(3)
        for move in candidate_moves(
            state, path_sets, generator, config, result, link_id, level
        )
    ]
    assert sum(state.flows_on(key, path) == n for key, path, _, n in moves) > 0
    scorer = BatchedCandidateScorer(model.engine, base, weights)
    scores = scorer.score([state.move_delta(*move) for move in moves])
    assert scores == moved_state_scores(model, state, moves, weights)
    _assert_rates_equal_moved_states(model, state, moves)


def test_adaptive_batch_size_bounds():
    assert _adaptive_batch_size(100) == 64  # capped
    assert _adaptive_batch_size(32768) == 8  # floored
    assert _adaptive_batch_size(2048) == 16  # in between


# ------------------------------------------------- identical chosen moves


@pytest.mark.parametrize("name", SCENARIOS)
def test_optimizer_selects_identical_moves(name):
    """Every move ``perform_step`` commits is the first-best candidate by
    the moved-state scores, and it reports no progress exactly when no
    candidate beats the current utility by ``min_utility_improvement``.

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
        base = result.compiled
        threshold = result.network_utility(weights) + config.min_utility_improvement
        for link_id in result.congested_links_by_oversubscription():
            moves = candidate_moves(
                state, path_sets, generator, config, result, link_id, escalation
            )
            deltas = [state.move_delta(*move) for move in moves]
            scores = moved_state_scores(model, state, moves, weights)
            assert BatchedCandidateScorer(engine, base, weights).score(deltas) == scores
            step = perform_step(
                link_id, state, path_sets, model, generator, config, result,
                escalation,
            )
            assert step.progress == any(score > threshold for score in scores)
            if step.progress:
                key, from_path, to_path, flows = moves[scores.index(max(scores))]
                assert step.moved_aggregate == key
                assert (step.from_path, step.to_path) == (from_path, to_path)
                assert step.num_flows_moved == flows
                state, result = step.state, step.result
                steps, escalation = steps + 1, 0
                break
        else:
            if escalation >= config.max_escalation_level:
                break
            escalation += 1
    assert steps >= 1, f"{name} committed no move"

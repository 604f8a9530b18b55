"""Equivalence suite: BatchedCandidateScorer vs the moved state.

Paper Listing 2 scores a candidate move by the network utility of the
allocation after the move.  The optimizer scores every candidate through
the batched scorer, which only counts if it is *bitwise* interchangeable
with that definition, which this suite keeps as its oracle: a full
evaluation of the moved state,
``model.evaluate(state.with_move(...).bundles()).network_utility(weights)``
— the public path ``perform_step`` commits a move through, sharing no code
with the scorer's move resolution or base-space layout.  The optimizer must
select the move the oracle selects.  This suite locks that in three layers:

1. Solves — the scorer's base-space solve of each candidate (base slots
   and segments reused, links the move leaves alone started from the
   base's crossing times) gives the per-bundle rates the moved state's
   evaluation gives, however the candidates are chunked into stacked
   blocks.
2. Scores — ``BatchedCandidateScorer.score`` equals the oracle's scores
   exactly (drift 0, not within a tolerance) on HE-8, Abilene and tiered
   seeds, with and without RTT fairness (tied satisfy times), in every
   chunking, and for every candidate of every congested link at escalation
   levels 0-2 — whole-bundle moves included, whose from-row goes, so a
   recompile of the moved list would renumber the moved aggregate and
   sum the roll-up in another order.
3. Moves — every move ``perform_step`` commits is the first-best candidate
   by the oracle's scores, and a step reports no progress exactly when no
   candidate clears ``min_utility_improvement``.  Every scenario (HE-8,
   Abilene and tiered-metro seeds) commits at least one move, and the
   scorer's scores equal the oracle's at every link visited.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.state import AllocationState, build_path_sets
from repro.core.step import _best_move, _candidate_moves, perform_step
from repro.exceptions import TrafficModelError
from repro.experiments.scenarios import build_paper_scenario, build_sweep_scenario
from repro.experiments.tiered import build_tiered_scenario
from repro.paths.generator import PathGenerator
from repro.paths.pathset import PathSet
from repro.topology.graph import LinkId, Network
from repro.traffic.aggregate import AggregateKey
from repro.traffic.matrix import TrafficMatrix
from repro.trafficmodel import compiled as compiled_module
from repro.trafficmodel.bundle import Bundle
from repro.trafficmodel.compiled import (
    SCORER_BATCH_MAX,
    SCORER_BATCH_MIN,
    SCORER_CHUNK_SLOTS,
    BatchedCandidateScorer,
    CompiledBundles,
    Move,
    _blocks_per_chunk,
    _chunk_bounds,
    _csr_entry_order,
    _SolverLayout,
)
from repro.trafficmodel.result import TrafficModelResult
from repro.trafficmodel.waterfill import TrafficModel, TrafficModelConfig
from repro.units import kbps, mbps, ms
from tests.conftest import make_aggregate
from tests.test_trafficmodel_compiled import random_scenario


def scenario_by_name(name: str, tiered_size: str = "small"):
    if name == "he31":
        return build_paper_scenario(seed=0)
    if name == "abilene":
        return build_sweep_scenario(topology="abilene", seed=1)
    prefix = "tiered-"
    assert name.startswith(prefix)
    return build_tiered_scenario(size=tiered_size, seed=int(name[len(prefix):]))


SCENARIOS = ["he31", "abilene", "tiered-0", "tiered-1", "tiered-2"]


# ------------------------------------------------------------ solver layout


def _lexsort_entry_order(links, positions, num_cols):
    """Reference entry order: by link, then by position."""
    return np.lexsort((positions, links))


@pytest.mark.parametrize(
    "count, num_rows, num_cols",
    [
        (0, 4, 4),  # empty
        (1, 3, 5),  # one entry
        (60, 1, 80),  # one link
        (3000, 112, 930),  # many links, HE-31's shape
        (2000, 5, 70_000),  # more than 2**16 columns
    ],
)
def test_csr_entry_order_equals_lexsort(count, num_rows, num_cols):
    rng = np.random.default_rng(count + num_rows)
    keys = rng.choice(num_rows * num_cols, size=count, replace=False)
    links, positions = keys // num_cols, keys % num_cols
    expected = _lexsort_entry_order(links, positions, num_cols)
    assert np.array_equal(_csr_entry_order(links, positions, num_cols), expected)


@pytest.mark.parametrize("name", SCENARIOS)
def test_solver_layout_csr_equals_a_lexsort_layout(name, monkeypatch):
    """Every CSR array of a compiled list's solver layout is the one a
    layout built over the reference entry order holds."""
    scenario = scenario_by_name(name)
    state = AllocationState.initial(scenario.network, scenario.traffic_matrix)
    compiled = TrafficModel(scenario.network).compile(state.bundles())
    layout = _SolverLayout(compiled)
    monkeypatch.setattr(compiled_module, "_csr_entry_order", _lexsort_entry_order)
    reference = _SolverLayout(compiled)
    for field in ("csr_offsets", "csr_counts", "csr_slots", "csr_values", "link_growth"):
        assert np.array_equal(getattr(layout, field), getattr(reference, field)), field


def test_scorer_rates_equal_cold_solves(hot_step):
    """The scorer solves each candidate in the base's index space: base
    slots and segments reused, only the segments the move's rows cross
    rebuilt, and every other link started from the base's crossing time.
    Per candidate, its column rates are bitwise the rates a full evaluation
    of the moved state gives each bundle; a removed from-bundle and an
    unused new-path column carry nothing."""
    _assert_rates_equal_moved_states(hot_step.model, hot_step.state, hot_step.moves)


def _not_a_move(case, hot_step):
    """The hot step's first move, altered to one the base cannot make."""
    key, from_path, to_path, flows = hot_step.moves[0]
    held = hot_step.state.flows_on(key, from_path)
    stranger = next(
        node
        for node in hot_step.scenario.network.node_names
        if node not in from_path + to_path
    )
    return {
        "unknown from-path": (key, (key[0], stranger, key[1]), to_path, flows),
        "no flow": (key, from_path, to_path, 0),
        "more flows than held": (key, from_path, to_path, held + 1),
        "onto its own path": (key, from_path, from_path, flows),
        "wrong source": (key, from_path, (stranger,) + to_path[1:], flows),
        "wrong destination": (key, from_path, to_path[:-1] + (stranger,), flows),
        "repeated node": (key, from_path, to_path[:2] + to_path, flows),
    }[case]


@pytest.mark.parametrize(
    "case, message",
    [
        ("unknown from-path", "holds no bundle"),
        ("no flow", "cannot move 0"),
        ("more flows than held", "cannot move"),
        ("onto its own path", "already on"),
        ("wrong source", "starts at"),
        ("wrong destination", "ends at"),
        ("repeated node", "visits a node twice"),
    ],
)
def test_scorer_rejects_moves_the_base_cannot_make(hot_step, case, message):
    """A move the base cannot make raises before a single evaluation is
    counted, even after a valid move in the same list.  A new to-path must
    be one a :class:`Bundle` accepts: the solver's CSR needs simple paths."""
    model, moves = hot_step.model, hot_step.moves
    move = _not_a_move(case, hot_step)
    scorer = BatchedCandidateScorer(model, hot_step.base)
    before = model.evaluations
    with pytest.raises(TrafficModelError, match=message):
        scorer.score([moves[0], move])
    assert model.evaluations == before


def test_scorer_counts_base_pass_and_candidates(hot_step):
    model, base, moves = hot_step.model, hot_step.base, hot_step.moves
    scorer = BatchedCandidateScorer(model, base)
    before = model.evaluations
    scorer.score(moves)
    assert model.evaluations == before + 1 + len(moves)
    scorer.score(moves[:2])
    assert model.evaluations == before + 1 + len(moves) + 2


def test_scoring_a_link_visit_constructs_no_bundle(hot_step, monkeypatch):
    """``_best_move`` scores the move tuples it built, so a link visit
    constructs no :class:`Bundle` (a ``move_delta`` patch per candidate
    built one or two)."""
    constructed = []
    post_init = Bundle.__post_init__

    def counted(bundle):
        constructed.append(bundle)
        post_init(bundle)

    monkeypatch.setattr(Bundle, "__post_init__", counted)
    config, model = hot_step.scenario.fubar_config, hot_step.model
    before = model.evaluations
    _best_move(
        hot_step.link_id,
        hot_step.path_sets,
        hot_step.model,
        hot_step.generator,
        config,
        hot_step.result,
        0,
        hot_step.result.network_utility(hot_step.weights),
    )
    assert model.evaluations == before + 1 + len(hot_step.moves)
    assert constructed == []
    hot_step.state.move_delta(*hot_step.moves[0])
    assert constructed, "the counter sees a construction"


# --------------------------------------------------------- score equality


class HotStep(NamedTuple):
    """The inputs of one optimizer step: its state and evaluation, and the
    candidate moves of its first congested link with movable bundles."""

    scenario: object
    model: TrafficModel
    generator: PathGenerator
    state: AllocationState
    path_sets: Dict[AggregateKey, PathSet]
    result: TrafficModelResult
    link_id: LinkId
    moves: List[Move]

    @property
    def base(self) -> CompiledBundles:
        return self.result.compiled

    @property
    def weights(self):
        return self.scenario.fubar_config.priority_weights


def force_chunk_blocks(monkeypatch, blocks):
    """Make every score call's chunks hold *blocks* blocks (None keeps the
    slot-budget rule)."""
    if blocks is not None:
        monkeypatch.setattr(compiled_module, "SCORER_BATCH_MIN", blocks)
        monkeypatch.setattr(compiled_module, "SCORER_BATCH_MAX", blocks)


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
        moves = list(
            _candidate_moves(
                link_id, path_sets, generator, scenario.fubar_config, result, 0
            )
        )
        if moves:
            break
    assert moves, "the HE core should yield candidate moves"
    return HotStep(
        scenario, model, generator, state, path_sets, result, link_id, moves
    )


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
    base = model.compile(state.bundles())
    scorer = BatchedCandidateScorer(model, base)
    scorer.score(moves)  # computes the base's crossing times
    rates, flows = scorer._solve_chunk([scorer._resolve(move) for move in moves])[:2]
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
    scorer = BatchedCandidateScorer(hot_step.model, hot_step.base, weights)
    assert scorer.score(hot_step.moves) == expected  # bitwise, not approx


@pytest.mark.parametrize("blocks", [1, 2, 3, 64, None, 10_000])
def test_scores_do_not_depend_on_chunking(hot_step, blocks, monkeypatch):
    """Chunk boundaries regroup the stacked solve; scores must not move.
    ``None`` sizes chunks from the sub-network; 10,000 holds every
    candidate in one chunk."""
    assert len(hot_step.moves) < 10_000
    weights = hot_step.weights
    expected = moved_state_scores(
        hot_step.model, hot_step.state, hot_step.moves, weights
    )
    force_chunk_blocks(monkeypatch, blocks)
    scorer = BatchedCandidateScorer(hot_step.model, hot_step.base, weights)
    assert scorer.score(hot_step.moves) == expected


def test_batched_scores_equal_per_move_with_tied_satisfy_times(hot_step):
    """Without RTT fairness a bundle's satisfy time is its per-flow demand,
    so satisfy times tie across most bundles and an inserted row's rank is
    settled by its column; scores stay bitwise."""
    model = TrafficModel(
        hot_step.scenario.network, TrafficModelConfig(rtt_fairness=False)
    )
    state, moves, weights = hot_step.state, hot_step.moves, hot_step.weights
    base = model.compile(state.bundles())
    satisfy = base.layout.satisfy
    assert np.unique(satisfy).shape[0] < satisfy.shape[0] // 2
    expected = moved_state_scores(model, state, moves, weights)
    for blocks in (None, 3):
        with pytest.MonkeyPatch.context() as monkeypatch:
            force_chunk_blocks(monkeypatch, blocks)
            scorer = BatchedCandidateScorer(model, base, weights)
            assert scorer.score(moves) == expected


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
        for move in _candidate_moves(
            link_id, path_sets, generator, config, result, level
        )
    ]
    assert sum(state.flows_on(key, path) == n for key, path, _, n in moves) > 0
    scorer = BatchedCandidateScorer(model, base, weights)
    scores = scorer.score(moves)
    assert scores == moved_state_scores(model, state, moves, weights)
    _assert_rates_equal_moved_states(model, state, moves)


def test_blocks_per_chunk_follow_the_slot_budget():
    """The slot budget over a block's slots, clamped at both ends and
    non-increasing in the sub-network's slots."""
    assert _blocks_per_chunk(3) == SCORER_BATCH_MAX
    assert _blocks_per_chunk(SCORER_CHUNK_SLOTS) == SCORER_BATCH_MIN
    assert _blocks_per_chunk(732) == SCORER_CHUNK_SLOTS // 732  # in between
    sizes = [_blocks_per_chunk(slots) for slots in range(3, 2 * SCORER_CHUNK_SLOTS, 7)]
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))
    assert min(sizes) == SCORER_BATCH_MIN and max(sizes) == SCORER_BATCH_MAX


@pytest.mark.parametrize("per_chunk", [1, 2, 7, SCORER_BATCH_MIN, SCORER_BATCH_MAX])
def test_chunk_bounds_are_balanced(per_chunk):
    """A score call's candidates split into the fewest chunks of at most
    *per_chunk*, whose sizes differ by at most one and sum to the count."""
    for count in range(0, 5 * per_chunk + 2):
        bounds = _chunk_bounds(count, per_chunk)
        sizes = np.diff(bounds)
        assert bounds[0] == 0 and bounds[-1] == count
        assert sizes.shape[0] == -(-count // per_chunk)
        if count:
            assert sizes.max() <= per_chunk
            assert sizes.max() - sizes.min() <= 1


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
    state = AllocationState.initial(network, scenario.traffic_matrix, generator)
    path_sets = build_path_sets(network, state)
    result = model.evaluate(state.bundles())
    steps = escalation = 0
    while steps < 4 and result.has_congestion:
        base = result.compiled
        threshold = result.network_utility(weights) + config.min_utility_improvement
        for link_id in result.congested_links_by_oversubscription():
            moves = list(
                _candidate_moves(
                    link_id, path_sets, generator, config, result, escalation
                )
            )
            scores = moved_state_scores(model, state, moves, weights)
            assert BatchedCandidateScorer(model, base, weights).score(moves) == scores
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


# ------------------------------------------------ the scorer's sub-network
#
# The scorer solves each step's candidate blocks only on the links some
# scored candidate can saturate, and scores every bundle crossing none of
# them at its demand.  The cases below pin the edges of that cut against
# the moved-state oracle, bit for bit.


def diamond() -> Network:
    """S->T direct (100 Mbps, the hot link), a narrow detour S->A->T
    (40 Mbps) and a wide detour S->B->T (1 Gbps), all duplex."""
    network = Network(name="diamond")
    for name in ("S", "T", "A", "B"):
        network.add_node(name)
    network.add_duplex_link("S", "T", capacity_bps=mbps(100), delay_s=ms(5))
    for hop, capacity in (("A", mbps(40)), ("B", mbps(1000))):
        network.add_duplex_link("S", hop, capacity_bps=capacity, delay_s=ms(6))
        network.add_duplex_link(hop, "T", capacity_bps=capacity, delay_s=ms(6))
    return network


#: The hot aggregate: 600 flows of 300 kbps (180 Mbps) on S->T.
HOT = make_aggregate("S", "T", num_flows=600, demand_bps=kbps(300))
#: A small aggregate on the wide detour alone (1 Mbps on B->T).
QUIET = make_aggregate("B", "T", num_flows=10, demand_bps=kbps(100))
#: A small aggregate on the narrow detour's second hop (2 Mbps on A->T).
SIDE = make_aggregate("A", "T", num_flows=20, demand_bps=kbps(100))

NARROW, WIDE = ("S", "A", "T"), ("S", "B", "T")


def diamond_step(aggregates, rtt_fairness=True):
    network = diamond()
    state = AllocationState.initial(network, TrafficMatrix(aggregates))
    model = TrafficModel(network, TrafficModelConfig(rtt_fairness=rtt_fairness))
    base = model.evaluate(state.bundles()).compiled
    return network, state, model, base


def kept_links(network, scorer):
    return {
        link.link_id for link in network.links if scorer._sub.kept[link.index]
    }


def assert_scores_equal_moved_states(state, model, base, moves, scorer=None):
    """Score *moves* (with *scorer*, or a fresh one) and check each score,
    and each column rate, against the moved state's evaluation."""
    scorer = scorer or BatchedCandidateScorer(model, base)
    scores = scorer.score(moves)
    assert scores == moved_state_scores(model, state, moves, None)
    _assert_rates_equal_moved_states(model, state, moves)
    return scorer


def test_a_to_row_that_lifts_a_link_past_its_threshold_keeps_it():
    """Moving half the hot aggregate onto the narrow detour puts 90 Mbps on
    S->A, which carries nothing in the base: a bound from the base's demand
    alone would drop the link, yet it saturates in the moved state.  The
    to-row's growth keeps it, and the score is the moved state's."""
    network, state, model, base = diamond_step([HOT, QUIET])
    narrow = network.link("S", "A")
    result = model.evaluate(state.bundles())
    assert result.link_demands_bps[narrow.index] == 0.0
    move = (HOT.key, ("S", "T"), NARROW, 300)
    moved = model.evaluate(state.with_move(*move).bundles())
    assert any(
        outcome.bottleneck_link == narrow.link_id for outcome in moved.outcomes
    )
    scorer = assert_scores_equal_moved_states(state, model, base, [move])
    assert ("S", "A") in kept_links(network, scorer)


def test_a_to_row_on_dropped_links_alone_meets_its_demand():
    """Half the hot aggregate onto the wide detour crosses only links that
    stay far below their floors: the to-row is scored at its demand."""
    network, state, model, base = diamond_step([HOT, QUIET])
    move = (HOT.key, ("S", "T"), WIDE, 300)
    scorer = assert_scores_equal_moved_states(state, model, base, [move])
    assert kept_links(network, scorer) == {("S", "T")}
    rates = scorer._solve_chunk([scorer._resolve(move)])[0]
    assert rates[0, len(base)] == 300 * kbps(300)


@pytest.mark.parametrize(
    "move",
    [
        (HOT.key, ("S", "T"), WIDE, 600),  # from-row on the kept link
        (QUIET.key, ("B", "T"), ("B", "S", "T"), 10),  # from-row off it
        (SIDE.key, ("A", "T"), ("A", "S", "T"), 20),
    ],
)
def test_a_whole_bundle_move_drops_its_from_row(move):
    """A whole-bundle move removes the from-row: its column keeps zero
    flows and zero rate whether or not its bundle crossed a kept link."""
    _, state, model, base = diamond_step([HOT, QUIET, SIDE])
    assert state.flows_on(move[0], move[1]) == move[3]
    assert_scores_equal_moved_states(state, model, base, [move])


def test_a_state_whose_links_are_all_kept():
    """Every directed link of a triangle carries more than its capacity, so
    the sub-network is the whole network."""
    network = Network(name="hot-triangle")
    names = ("A", "B", "C")
    for name in names:
        network.add_node(name)
    for i, a in enumerate(names):
        network.add_duplex_link(
            a, names[(i + 1) % 3], capacity_bps=mbps(100), delay_s=ms(5)
        )
    aggregates = [
        make_aggregate(a, b, num_flows=500, demand_bps=kbps(300))
        for a in names
        for b in names
        if a != b
    ]
    state = AllocationState.initial(network, TrafficMatrix(aggregates))
    model = TrafficModel(network)
    base = model.evaluate(state.bundles()).compiled
    moves = [
        (aggregate.key, (aggregate.source, aggregate.destination), detour, flows)
        for aggregate in aggregates
        for detour in [
            (aggregate.source,)
            + tuple(n for n in names if n not in aggregate.key[:2])
            + (aggregate.destination,)
        ]
        for flows in (1, 250, 500)
    ]
    scorer = assert_scores_equal_moved_states(state, model, base, moves)
    assert bool(scorer._sub.kept.all())


def test_a_state_where_only_the_visited_link_is_kept():
    network, state, model, base = diamond_step([HOT, QUIET])
    moves = [(HOT.key, ("S", "T"), WIDE, flows) for flows in (1, 60, 599, 600)]
    scorer = assert_scores_equal_moved_states(state, model, base, moves)
    assert kept_links(network, scorer) == {("S", "T")}


def test_a_state_where_no_link_is_kept():
    """Nothing can saturate: every bundle meets its demand on an empty
    sub-network."""
    network, state, model, base = diamond_step([QUIET, SIDE])
    moves = [
        (QUIET.key, ("B", "T"), ("B", "S", "T"), 4),
        (SIDE.key, ("A", "T"), ("A", "S", "T"), 20),
    ]
    scorer = assert_scores_equal_moved_states(state, model, base, moves)
    assert not scorer._sub.kept.any()


def test_a_second_move_list_widens_the_sub_network():
    """One scorer scores two move lists; only the second lifts a dropped
    link (S->A) past its threshold.  Both score as their moved states, the
    second list's link is kept from then on, and the evaluation count stays
    one per candidate plus one base pass."""
    network, state, model, base = diamond_step([HOT, QUIET, SIDE])
    first = [(HOT.key, ("S", "T"), WIDE, flows) for flows in (60, 300)]
    second = [(HOT.key, ("S", "T"), NARROW, flows) for flows in (60, 300)]
    scorer = BatchedCandidateScorer(model, base)
    before = model.evaluations
    first_scores = scorer.score(first)
    assert model.evaluations == before + 1 + len(first)
    assert ("S", "A") not in kept_links(network, scorer)
    second_scores = scorer.score(second)
    assert model.evaluations == before + 1 + len(first) + len(second)
    assert ("S", "A") in kept_links(network, scorer)
    assert first_scores == moved_state_scores(model, state, first, None)
    assert second_scores == moved_state_scores(model, state, second, None)
    # The first list still scores bitwise on the widened sub-network.
    assert_scores_equal_moved_states(state, model, base, first, scorer)


@pytest.mark.parametrize(
    "move",
    [
        (HOT.key, ("S", "T"), NARROW, 100),  # part of a bundle, new path
        (HOT.key, ("S", "T"), WIDE, 100),  # part of a bundle, held path
        (HOT.key, WIDE, ("S", "T"), 300),  # a whole bundle, held path
        (HOT.key, WIDE, NARROW, 300),  # a whole bundle, new path
    ],
)
def test_move_delta_compiles_to_the_moved_state(move):
    """``move_delta`` stays for perfbench's patch table: its patch, applied
    to the compiled state by ``compile_patched``, holds the moved state's
    bundles."""
    _, state, model, _ = diamond_step([HOT, QUIET])
    state = state.with_move(HOT.key, ("S", "T"), WIDE, 300)
    patched = model.compile_patched(
        model.compile(state.bundles()), state.move_delta(*move)
    )

    def multiset(bundles):
        return Counter(
            (bundle.aggregate_key, bundle.path, bundle.num_flows) for bundle in bundles
        )

    assert multiset(patched.bundles) == multiset(state.with_move(*move).bundles())


def random_state(seed):
    """:func:`random_scenario`'s bundles as an allocation state."""
    network, bundles = random_scenario(seed)
    aggregates, allocations = {}, {}
    for bundle in bundles:
        aggregates[bundle.aggregate_key] = bundle.aggregate
        allocations.setdefault(bundle.aggregate_key, {})[bundle.path] = (
            bundle.num_flows
        )
    matrix = TrafficMatrix(list(aggregates.values()))
    return network, AllocationState(network, matrix, allocations)


@given(seed=st.integers(min_value=0, max_value=10_000), rtt_fairness=st.booleans())
@settings(max_examples=25, deadline=None)
def test_random_scenarios_score_as_their_moved_states(seed, rtt_fairness):
    """On random networks and workloads, every move of 1, half or all of a
    bundle's flows onto each of its aggregate's three lowest-delay paths
    scores bitwise as its moved state, and the scorer counts one evaluation
    per candidate plus one base pass."""
    network, state = random_state(seed)
    generator = PathGenerator(network)
    model = TrafficModel(network, TrafficModelConfig(rtt_fairness=rtt_fairness))
    base = model.evaluate(state.bundles()).compiled
    moves = []
    for key in state.aggregate_keys:
        for path, held in state.allocation_of(key).items():
            for to_path in generator.k_shortest(key[0], key[1], 3):
                if to_path != path:
                    for flows in sorted({1, max(1, held // 2), held}):
                        moves.append((key, path, to_path, flows))
    before = model.evaluations
    with pytest.MonkeyPatch.context() as monkeypatch:
        force_chunk_blocks(monkeypatch, 4)
        scores = BatchedCandidateScorer(model, base).score(moves)
    assert model.evaluations == before + 1 + len(moves)
    assert scores == moved_state_scores(model, state, moves, None)

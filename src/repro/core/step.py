"""A single optimization step (paper Listing 2).

``perform_step(link)`` focuses on one congested link: for every bundle (flow
path) that crosses it, it determines how many flows to move (N), asks the
path generator for the global / local / link-local alternatives, tests each
candidate move by re-running the traffic model, and commits the move with the
best resulting weighted network utility — provided it actually improves on
the current solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.core.config import FubarConfig
from repro.core.state import AllocationState
from repro.exceptions import OptimizationError
from repro.paths.generator import PathGenerator
from repro.paths.pathset import PathSet
from repro.topology.graph import LinkId, Path
from repro.traffic.aggregate import AggregateKey
from repro.trafficmodel.compiled import BatchedCandidateScorer, Move
from repro.trafficmodel.result import TrafficModelResult
from repro.trafficmodel.waterfill import TrafficModel


@dataclass(frozen=True)
class StepResult:
    """Outcome of one call to :func:`perform_step`."""

    progress: bool
    state: AllocationState
    result: TrafficModelResult
    link: LinkId
    moved_aggregate: Optional[AggregateKey] = None
    from_path: Optional[Path] = None
    to_path: Optional[Path] = None
    num_flows_moved: int = 0
    utility_before: float = 0.0
    utility_after: float = 0.0

    @property
    def utility_gain(self) -> float:
        """Improvement in weighted network utility achieved by the committed move."""
        return self.utility_after - self.utility_before

    def describe(self) -> str:
        """One-line human-readable description of what the step did."""
        if not self.progress:
            return f"no improving move found for link {self.link!r}"
        return (
            f"moved {self.num_flows_moved} flows of {self.moved_aggregate!r} "
            f"off {self.link!r} (utility {self.utility_before:.4f} -> "
            f"{self.utility_after:.4f})"
        )


def flows_to_move(
    aggregate_num_flows: int,
    bundle_num_flows: int,
    config: FubarConfig,
    escalation_level: int,
) -> int:
    """How many flows a step moves at once (Listing 2, line 3).

    Small aggregates are moved in their entirety; for large ones N is a
    fraction of the *aggregate's* flows, escalated while the optimizer is
    stuck, and never more than the bundle currently holds.
    """
    if aggregate_num_flows <= config.small_aggregate_flows:
        return bundle_num_flows
    fraction = config.effective_fraction(escalation_level)
    n = max(1, int(round(fraction * aggregate_num_flows)))
    return min(n, bundle_num_flows)


def candidate_paths_for_bundle(
    bundle_path: Path,
    key: AggregateKey,
    link_id: LinkId,
    current_result: TrafficModelResult,
    path_sets: Dict[AggregateKey, PathSet],
    generator: PathGenerator,
    config: FubarConfig,
) -> List[Path]:
    """The alternative paths tested for one bundle crossing *link_id*.

    Always includes the three §2.4 alternatives (when they exist); when
    ``config.consider_existing_paths`` is on, paths already in the
    aggregate's path set that avoid the congested link are also tested.
    """
    source, destination = key[0], key[1]
    congested = set(current_result.congested_links)
    aggregate_congested = set(current_result.aggregate_congested_links(key))
    most_congested = current_result.most_congested_link_of(key) or link_id

    alternatives = generator.alternatives(
        source,
        destination,
        congested_links=congested,
        aggregate_congested_links=aggregate_congested,
        most_congested_link=most_congested,
        existing_paths=None,
    )
    candidates: List[Path] = [
        path for path in alternatives.candidates() if path != bundle_path
    ]
    if config.consider_existing_paths and key in path_sets:
        for path in path_sets[key].paths_avoiding(link_id):
            if path != bundle_path and path not in candidates:
                candidates.append(path)
    return candidates


def _candidate_moves(
    link_id: LinkId,
    path_sets: Dict[AggregateKey, PathSet],
    generator: PathGenerator,
    config: FubarConfig,
    current_result: TrafficModelResult,
    escalation_level: int,
) -> Iterator[Move]:
    """Yield every move a step on *link_id* tests, in scoring order."""
    for outcome in current_result.outcomes_on_link(link_id):
        bundle = outcome.bundle
        num_to_move = flows_to_move(
            bundle.aggregate.num_flows, bundle.num_flows, config, escalation_level
        )
        if num_to_move <= 0:
            continue
        candidates = candidate_paths_for_bundle(
            bundle.path,
            bundle.aggregate_key,
            link_id,
            current_result,
            path_sets,
            generator,
            config,
        )
        for candidate in candidates:
            yield bundle.aggregate_key, bundle.path, candidate, num_to_move


def _best_move(
    link_id: LinkId,
    path_sets: Dict[AggregateKey, PathSet],
    model: TrafficModel,
    generator: PathGenerator,
    config: FubarConfig,
    current_result: TrafficModelResult,
    escalation_level: int,
    utility_now: float,
) -> Optional[Move]:
    """The first candidate move with the best score, or None if none improves.

    One :class:`~repro.trafficmodel.compiled.BatchedCandidateScorer` scores
    the list of candidate moves in the index space of the bundle list
    *current_result* solved: no bundle, compile, result object or graph
    walk per candidate.  A move must beat *utility_now* (the current
    weighted utility, summed as the scores are) by
    ``config.min_utility_improvement``.
    """
    base = current_result.compiled
    if base is None:
        raise OptimizationError("perform_step needs a result of the compiled engine")
    moves = list(
        _candidate_moves(
            link_id, path_sets, generator, config, current_result, escalation_level
        )
    )
    if not moves:
        return None
    best_score = utility_now + config.min_utility_improvement
    best: Optional[Move] = None
    scorer = BatchedCandidateScorer(model, base, config.priority_weights)
    for move, score in zip(moves, scorer.score(moves)):
        if score > best_score:
            best_score = score
            best = move
    return best


def perform_step(
    link_id: LinkId,
    state: AllocationState,
    path_sets: Dict[AggregateKey, PathSet],
    model: TrafficModel,
    generator: PathGenerator,
    config: FubarConfig,
    current_result: TrafficModelResult,
    escalation_level: int = 0,
) -> StepResult:
    """Run one step of Listing 2 on the congested link *link_id*.

    Candidate moves are scored against the compiled bundle list
    *current_result* carries and must beat its utility (see
    :func:`_best_move`), so a state is compiled once, when it is evaluated;
    the winning move is then committed by evaluating the moved state once,
    so the returned result reflects the canonical bundle ordering of the new
    state.

    Returns a :class:`StepResult`; when ``progress`` is True the returned
    state/result reflect the committed move and the moved-to path has been
    added to the aggregate's path set.
    """
    weights = config.priority_weights
    utility_before = current_result.network_utility(weights)
    best = _best_move(
        link_id,
        path_sets,
        model,
        generator,
        config,
        current_result,
        escalation_level,
        utility_before,
    )
    if best is None:
        return StepResult(
            progress=False,
            state=state,
            result=current_result,
            link=link_id,
            utility_before=utility_before,
            utility_after=utility_before,
        )

    key, from_path, to_path, moved = best
    new_state = state.with_move(key, from_path, to_path, moved)
    new_result = model.evaluate(new_state.bundles())
    if key in path_sets:
        path_sets[key].add(to_path)
    return StepResult(
        progress=True,
        state=new_state,
        result=new_result,
        link=link_id,
        moved_aggregate=key,
        from_path=from_path,
        to_path=to_path,
        num_flows_moved=moved,
        utility_before=utility_before,
        utility_after=new_result.network_utility(weights),
    )

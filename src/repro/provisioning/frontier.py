"""Minimal uniform capacity: bisection over the provisioning axis.

The paper's opening sentence names two ISP levers — where traffic flows and
how much capacity to provision — and its evaluation hand-picks two capacity
points (100 and 75 Mbps links).  :func:`minimal_uniform_capacity` turns the
second lever into an optimization target: given a traffic matrix and a
utility goal, it bisects over a *uniform* link capacity, runs FUBAR at every
probe, and returns both the answer (the smallest probed capacity that meets
the goal) and the whole capacity-vs-utility frontier the search traced out.

Two properties make the search cheap and its output trustworthy:

* **warm-started probes** — scaling every capacity leaves the topology (and
  therefore every path) untouched, so each probe seeds FUBAR from the plan
  of the nearest lower-capacity probe already taken, exactly like the
  control loop's warm-started re-optimization
  (:meth:`~repro.core.state.AllocationState.warm_start` semantics, inherited
  :class:`~repro.paths.pathset.PathSet`s included);
* **monotone repair** — FUBAR is a heuristic, so a probe between two others
  can occasionally land *above* its higher-capacity neighbour.  For a fixed
  allocation, utility is weakly monotone in capacity (capacities enter the
  traffic model only through saturation thresholds), so carrying the best
  plan upward and re-scoring it at the higher capacity restores a monotone
  frontier at the cost of one model evaluation per repaired point — every
  reported utility remains an *achieved* plan at that capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.config import FubarConfig
from repro.core.optimizer import FubarOptimizer, FubarResult
from repro.core.state import AllocationState
from repro.exceptions import ProvisioningError
from repro.paths.cache import PathSetCache, path_generator_for
from repro.paths.pathset import PathSet
from repro.topology.graph import Network
from repro.traffic.aggregate import AggregateKey
from repro.traffic.matrix import TrafficMatrix
from repro.trafficmodel.waterfill import traffic_model_for

if TYPE_CHECKING:
    from repro.trafficmodel.compiled import CompiledModelCache


#: Default bisection bounds, as fractions of the network's largest link
#: capacity (the uniform-capacity reference).
DEFAULT_MIN_SCALE = 0.25
DEFAULT_MAX_SCALE = 1.5

#: Default relative width (of the reference capacity) at which the bisection
#: interval is considered resolved.
DEFAULT_RELATIVE_TOLERANCE = 0.05


@dataclass(frozen=True)
class FrontierPoint:
    """One probed capacity on the capacity-vs-utility frontier."""

    #: Uniform per-link capacity of this probe, bits per second.
    capacity_bps: float
    #: Network utility achieved by the best known plan at this capacity.
    utility: float
    #: True when ``utility`` meets the search target.
    feasible: bool
    #: Optimizer model evaluations spent on this probe (repairs add one).
    model_evaluations: int
    #: Committed optimizer steps of this probe.
    steps: int
    #: True when the probe seeded FUBAR from a neighbouring probe's plan.
    warm_started: bool
    #: Position in probe order (0 = first probe taken by the search).
    probe_order: int
    #: True when the monotone repair replaced this probe's plan with a
    #: re-scored lower-capacity plan.
    repaired: bool = False

    def as_dict(self) -> Dict[str, object]:
        return {
            "capacity_bps": self.capacity_bps,
            "utility": self.utility,
            "feasible": self.feasible,
            "model_evaluations": self.model_evaluations,
            "steps": self.steps,
            "warm_started": self.warm_started,
            "probe_order": self.probe_order,
            "repaired": self.repaired,
        }


@dataclass
class CapacityFrontier:
    """The outcome of one :func:`minimal_uniform_capacity` search."""

    #: Utility goal the search bisected against.
    target_utility: float
    #: Every probed point, sorted by capacity (ascending).
    points: List[FrontierPoint] = field(default_factory=list)
    #: Smallest probed capacity whose utility meets the target; None when
    #: even the largest probe fell short.
    minimal_capacity_bps: Optional[float] = None
    #: Total model evaluations across all probes and repairs.
    total_model_evaluations: int = 0
    #: Whether probes were warm-started from neighbouring plans.
    warm_start: bool = True
    #: Final bisection bracket (largest infeasible, smallest feasible probe);
    #: either side is None when the search never probed such a point.
    bracket: Tuple[Optional[float], Optional[float]] = (None, None)

    @property
    def capacities(self) -> Tuple[float, ...]:
        """Probed capacities in ascending order."""
        return tuple(point.capacity_bps for point in self.points)

    @property
    def utilities(self) -> Tuple[float, ...]:
        """Frontier utilities in ascending-capacity order."""
        return tuple(point.utility for point in self.points)

    def is_monotone(self, tolerance: float = 1e-9) -> bool:
        """True when utility never decreases as capacity grows."""
        utilities = self.utilities
        return all(
            later >= earlier - tolerance
            for earlier, later in zip(utilities, utilities[1:])
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "target_utility": self.target_utility,
            "warm_start": self.warm_start,
            "minimal_capacity_bps": self.minimal_capacity_bps,
            "total_model_evaluations": self.total_model_evaluations,
            "monotone": self.is_monotone(),
            "bracket": list(self.bracket),
            "points": [point.as_dict() for point in self.points],
        }


def rebase_state(state: AllocationState, network: Network) -> AllocationState:
    """Re-home an allocation onto a capacity-variant of the same topology.

    Unlike :meth:`AllocationState.warm_start` (which keeps the previous
    state's network), this moves the identical path split onto *network* —
    valid whenever the two networks share nodes and links, which is exactly
    the capacity-planning case (only ``capacity_bps`` differs).
    """
    return AllocationState(
        network,
        state.traffic_matrix,
        {key: state.allocation_of(key) for key in state.aggregate_keys},
    )


class _ProbeRunner:
    """Runs warm-chained FUBAR probes over uniform-capacity variants.

    Shared by the frontier and survivable searches: keeps every probe's
    result keyed by capacity so later probes can inherit the plan of the
    nearest lower capacity already explored.
    """

    def __init__(
        self,
        network: Network,
        traffic_matrix: TrafficMatrix,
        config: Optional[FubarConfig],
        warm_start: bool,
        path_cache: Optional[PathSetCache] = None,
        model_cache: Optional["CompiledModelCache"] = None,
    ) -> None:
        traffic_matrix.require_routable_on(network)
        self.network = network
        self.traffic_matrix = traffic_matrix
        self.config = config or FubarConfig()
        self.warm_start = warm_start
        self.path_cache = path_cache
        self.model_cache = model_cache
        self.results: Dict[float, FubarResult] = {}
        self.total_model_evaluations = 0

    def network_at(self, capacity_bps: float) -> Network:
        return self.network.with_uniform_capacity(
            capacity_bps, name=f"{self.network.name}@{capacity_bps / 1e6:g}Mbps"
        )

    def warm_source(
        self, capacity_bps: float, probe_network: Network
    ) -> Tuple[Optional[FubarResult], Optional[AllocationState], int]:
        """Pick the neighbouring probe plan that scores best at this capacity.

        Candidates are the nearest probed capacities on either side (the
        bisection brackets).  With two candidates, each plan is re-scored on
        the probe network (one model evaluation apiece, counted in the
        returned cost) and the better seed wins — a plan from below is
        over-split for the new capacity, a plan from above under-split, and
        which handicap is smaller varies per probe.
        """
        if not self.warm_start or not self.results:
            return None, None, 0
        lower = [c for c in self.results if c < capacity_bps]
        higher = [c for c in self.results if c > capacity_bps]
        candidates = [max(lower)] if lower else []
        if higher:
            candidates.append(min(higher))
        if len(candidates) == 1:
            source = self.results[candidates[0]]
            return source, rebase_state(source.state, probe_network), 0
        model = traffic_model_for(probe_network, cache=self.model_cache)
        scored = []
        for capacity in candidates:
            source = self.results[capacity]
            state = rebase_state(source.state, probe_network)
            utility = model.evaluate(state.bundles()).network_utility()
            scored.append((utility, -capacity, source, state))
        scored.sort(key=lambda entry: (entry[0], entry[1]))
        _, _, source, state = scored[-1]
        return source, state, len(candidates)

    def probe(self, capacity_bps: float) -> Tuple[FubarResult, bool, int]:
        """Run one FUBAR probe at *capacity_bps*.

        Returns ``(result, warm_started, model_evaluations)`` where the
        evaluation count covers the optimizer run plus any warm-source
        scoring.
        """
        probe_network = self.network_at(capacity_bps)
        optimizer = FubarOptimizer(
            probe_network,
            self.traffic_matrix,
            config=self.config,
            path_generator=path_generator_for(probe_network, cache=self.path_cache),
            traffic_model=traffic_model_for(probe_network, cache=self.model_cache),
        )
        source, initial_state, scoring_evaluations = self.warm_source(
            capacity_bps, probe_network
        )
        initial_path_sets: Optional[Dict[AggregateKey, PathSet]] = (
            source.path_sets if source is not None else None
        )
        result = optimizer.run(
            initial_state=initial_state, initial_path_sets=initial_path_sets
        )
        self.results[capacity_bps] = result
        evaluations = result.model_evaluations + scoring_evaluations
        self.total_model_evaluations += evaluations
        return result, source is not None, evaluations


def _validate_search(
    target_utility: float,
    min_capacity_bps: float,
    max_capacity_bps: float,
    max_probes: int,
) -> None:
    if not 0.0 < target_utility <= 1.0:
        raise ProvisioningError(
            f"target utility must be in (0, 1], got {target_utility!r}"
        )
    if min_capacity_bps <= 0.0 or max_capacity_bps <= min_capacity_bps:
        raise ProvisioningError(
            "capacity search bounds must satisfy 0 < min < max, got "
            f"[{min_capacity_bps!r}, {max_capacity_bps!r}]"
        )
    if max_probes < 2:
        raise ProvisioningError(f"max_probes must be at least 2, got {max_probes!r}")


def reference_capacity(network: Network) -> float:
    """The uniform-capacity reference of a network: its largest link capacity."""
    return max(link.capacity_bps for link in network.links)


def minimal_uniform_capacity(
    network: Network,
    traffic_matrix: TrafficMatrix,
    target_utility: float,
    min_capacity_bps: Optional[float] = None,
    max_capacity_bps: Optional[float] = None,
    relative_tolerance: float = DEFAULT_RELATIVE_TOLERANCE,
    max_probes: int = 12,
    fubar_config: Optional[FubarConfig] = None,
    warm_start: bool = True,
    path_cache: Optional[PathSetCache] = None,
    model_cache: Optional["CompiledModelCache"] = None,
) -> CapacityFrontier:
    """Find the smallest uniform link capacity that meets a utility target.

    Bisects over the uniform per-link capacity of *network* (bounds default
    to ``DEFAULT_MIN_SCALE``/``DEFAULT_MAX_SCALE`` times the largest current
    link capacity), running a full FUBAR optimization at every probe.  The
    high bound is probed first; the low bound acts as a virtual infeasible
    bracket and is only probed if the bisection walks all the way down to it
    — deeply underprovisioned probes are the most expensive optimizations of
    the search, so they are taken lazily.  With ``warm_start`` (the default)
    each probe seeds FUBAR from the better-scoring of its two bracket plans,
    which is what makes the inner loop cheap
    (``benchmarks/bench_provisioning.py`` gates on it).  Returns the full
    :class:`CapacityFrontier`; its ``minimal_capacity_bps`` is the answer,
    resolved to within ``relative_tolerance`` of the reference capacity (or
    ``max_probes``, whichever binds first).
    """
    reference = reference_capacity(network)
    lo = min_capacity_bps if min_capacity_bps is not None else DEFAULT_MIN_SCALE * reference
    hi = max_capacity_bps if max_capacity_bps is not None else DEFAULT_MAX_SCALE * reference
    _validate_search(target_utility, lo, hi, max_probes)
    if relative_tolerance <= 0.0:
        raise ProvisioningError(
            f"relative_tolerance must be positive, got {relative_tolerance!r}"
        )

    runner = _ProbeRunner(
        network,
        traffic_matrix,
        fubar_config,
        warm_start,
        path_cache=path_cache,
        model_cache=model_cache,
    )
    points: List[FrontierPoint] = []

    def take(capacity_bps: float) -> FrontierPoint:
        result, warmed, evaluations = runner.probe(capacity_bps)
        utility = result.network_utility
        point = FrontierPoint(
            capacity_bps=capacity_bps,
            utility=utility,
            feasible=utility >= target_utility,
            model_evaluations=evaluations,
            steps=result.num_steps,
            warm_started=warmed,
            probe_order=len(points),
        )
        points.append(point)
        return point

    # Probe the high end first; without a feasible upper bracket there is no
    # answer in range and nothing further to bisect.  The low bound starts as
    # a *virtual* infeasible bracket: deeply underprovisioned probes are the
    # most expensive optimizations of the whole search, so the floor is only
    # ever probed if the bisection itself walks down to it.
    high_point = take(hi)
    feasible_cap: Optional[float] = hi if high_point.feasible else None
    infeasible_cap: Optional[float] = None  # largest capacity *probed* infeasible
    floor = lo

    while (
        feasible_cap is not None
        and len(points) < max_probes
        and (feasible_cap - floor) > relative_tolerance * reference
    ):
        point = take(0.5 * (feasible_cap + floor))
        if point.feasible:
            feasible_cap = point.capacity_bps
        else:
            infeasible_cap = point.capacity_bps
            floor = point.capacity_bps

    frontier = CapacityFrontier(
        target_utility=target_utility,
        warm_start=warm_start,
        bracket=(infeasible_cap, feasible_cap),
    )
    frontier.points = sorted(points, key=lambda p: p.capacity_bps)
    _repair_monotone(frontier, runner, target_utility)
    frontier.total_model_evaluations = runner.total_model_evaluations
    feasible_points = [p for p in frontier.points if p.feasible]
    frontier.minimal_capacity_bps = (
        min(p.capacity_bps for p in feasible_points) if feasible_points else None
    )
    return frontier


def _repair_monotone(
    frontier: CapacityFrontier, runner: _ProbeRunner, target_utility: float
) -> None:
    """Restore a monotone frontier by carrying the best plan upward.

    Whenever a point sits below the best utility achieved at a *lower*
    capacity, the best plan so far is re-scored on the point's network (one
    model evaluation; weakly better, because a fixed allocation's utility
    is monotone in capacity) and the point adopts it.  The carried best is
    tracked as the *plan object itself*, not its original capacity: once a
    repaired point becomes the running best, later repairs must keep
    carrying the plan that achieved it, not the weaker plan probed at the
    repaired point's capacity.
    """
    best_utility = float("-inf")
    best_state: Optional[AllocationState] = None
    for index, point in enumerate(frontier.points):
        own_state = runner.results[point.capacity_bps].state
        state = own_state
        if point.utility < best_utility and best_state is not None:
            probe_network = runner.network_at(point.capacity_bps)
            rescored = traffic_model_for(
                probe_network, cache=runner.model_cache
            ).evaluate(
                rebase_state(best_state, probe_network).bundles()
            )
            runner.total_model_evaluations += 1
            utility = rescored.network_utility()
            if utility > point.utility:
                state = best_state
            else:
                utility = point.utility
            frontier.points[index] = FrontierPoint(
                capacity_bps=point.capacity_bps,
                utility=utility,
                feasible=utility >= target_utility,
                model_evaluations=point.model_evaluations + 1,
                steps=point.steps,
                warm_started=point.warm_started,
                probe_order=point.probe_order,
                repaired=state is not own_state,
            )
            point = frontier.points[index]
        if point.utility > best_utility:
            best_utility = point.utility
            best_state = state

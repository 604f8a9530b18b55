"""Survivable provisioning: capacity that holds the target through failures.

A capacity that just meets the utility goal on the healthy network is one
fibre cut away from missing it.  :func:`survivable_capacity` composes the
capacity search with the failure-resilience subsystem (:mod:`repro.failures`):
a probe capacity is *survivably feasible* only when the healthy network
**and** every enumerated single-link failure sustain the target utility.

Each probe reuses the machinery the control loop uses after a real failure:
the healthy plan is pruned onto each
:class:`~repro.failures.degraded.DegradedNetwork`
(:func:`~repro.failures.recovery.prune_warm_start` — surviving splits kept,
dead-path flows re-apportioned, paths regenerated only for stranded
aggregates) and FUBAR re-optimizes warm-started from the pruned seed, so the
per-failure inner loop costs a fraction of a cold restart.  Aggregates a
failure disconnects outright score zero, so a disconnecting cut drags the
failure's utility down by the stranded flow fraction instead of crashing the
search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.config import FubarConfig
from repro.core.optimizer import FubarOptimizer
from repro.core.state import AllocationState
from repro.exceptions import ProvisioningError
from repro.failures.degraded import degrade
from repro.failures.recovery import prune_warm_start, split_routable
from repro.failures.schedule import undirected_link_pairs
from repro.paths.cache import PathSetCache, path_generator_for
from repro.provisioning.frontier import (
    DEFAULT_MAX_SCALE,
    DEFAULT_MIN_SCALE,
    DEFAULT_RELATIVE_TOLERANCE,
    _ProbeRunner,
    _validate_search,
    reference_capacity,
)
from repro.topology.graph import LinkId, Network
from repro.traffic.matrix import TrafficMatrix

if TYPE_CHECKING:
    from repro.trafficmodel.compiled import CompiledModelCache



@dataclass(frozen=True)
class SurvivableProbe:
    """One probed capacity of the survivable search."""

    capacity_bps: float
    #: Utility on the healthy network at this capacity.
    healthy_utility: float
    #: Worst post-failure utility over the evaluated failures (None when the
    #: healthy probe already missed the target and failures were skipped).
    worst_failure_utility: Optional[float]
    #: The fibre whose failure achieved the worst utility.
    worst_failure: Optional[LinkId]
    #: Failures actually evaluated (the sweep stops at the first miss).
    failures_evaluated: int
    #: True when healthy and every failure meet the target.
    feasible: bool
    #: Model evaluations spent on this probe (healthy + all failure runs).
    model_evaluations: int

    def as_dict(self) -> Dict[str, object]:
        return {
            "capacity_bps": self.capacity_bps,
            "healthy_utility": self.healthy_utility,
            "worst_failure_utility": self.worst_failure_utility,
            "worst_failure": list(self.worst_failure) if self.worst_failure else None,
            "failures_evaluated": self.failures_evaluated,
            "feasible": self.feasible,
            "model_evaluations": self.model_evaluations,
        }


@dataclass
class SurvivableCapacityResult:
    """The outcome of one :func:`survivable_capacity` search."""

    target_utility: float
    #: Every probe, sorted by capacity.
    probes: List[SurvivableProbe] = field(default_factory=list)
    #: Smallest probed capacity feasible under every enumerated failure.
    survivable_capacity_bps: Optional[float] = None
    #: Fibres enumerated per probe.
    num_failures: int = 0
    #: Fibres excluded because cutting them disconnects the topology (no
    #: capacity can ever route the stranded demand).
    skipped_disconnecting: int = 0
    total_model_evaluations: int = 0
    warm_start: bool = True

    def as_dict(self) -> Dict[str, object]:
        return {
            "target_utility": self.target_utility,
            "survivable_capacity_bps": self.survivable_capacity_bps,
            "num_failures": self.num_failures,
            "skipped_disconnecting": self.skipped_disconnecting,
            "total_model_evaluations": self.total_model_evaluations,
            "warm_start": self.warm_start,
            "probes": [probe.as_dict() for probe in self.probes],
        }


def utility_under_failure(
    network: Network,
    traffic_matrix: TrafficMatrix,
    failed_link: LinkId,
    config: Optional[FubarConfig] = None,
    warm_state: Optional[AllocationState] = None,
    warm_path_sets: Optional[Dict] = None,
    routable: Optional[TrafficMatrix] = None,
    stranded_flows: Optional[int] = None,
    path_cache: Optional[PathSetCache] = None,
) -> Tuple[float, int]:
    """Re-optimized utility of *traffic_matrix* after one fibre cut.

    Returns ``(utility, model_evaluations)``.  The utility is scored over
    the *whole* matrix: aggregates the degraded topology cannot route at all
    contribute zero, weighted by their flow count — matching the flow-
    weighted roll-up of
    :meth:`~repro.trafficmodel.result.TrafficModelResult.network_utility`.

    ``routable`` / ``stranded_flows`` accept the precomputed routability
    split of this cut (it depends only on the topology, never on capacity),
    so a capacity search probing the same fibre many times pays for the
    per-aggregate path checks once.
    """
    degraded = degrade(network, failed_links=[failed_link])
    generator = path_generator_for(degraded, cache=path_cache)
    if routable is None:
        routable, stranded = split_routable(traffic_matrix, generator)
        stranded_flows = sum(a.num_flows for a in stranded)
    elif stranded_flows is None:
        # Derivable from the split itself — never default to "no scaling",
        # which would overstate the post-failure utility of a
        # disconnecting cut.
        stranded_flows = traffic_matrix.total_flows - routable.total_flows
    if len(routable) == 0:
        return 0.0, 0

    initial_state = None
    initial_path_sets = None
    if warm_state is not None:
        pruned = prune_warm_start(
            warm_state, warm_path_sets or {}, degraded, generator
        )
        if pruned.state is not None:
            initial_state = AllocationState.warm_start(
                pruned.state, routable, generator
            )
            initial_path_sets = pruned.path_sets
    result = FubarOptimizer(
        degraded, routable, config=config, path_generator=generator
    ).run(initial_state=initial_state, initial_path_sets=initial_path_sets)

    utility = result.network_utility
    if stranded_flows:
        routable_flows = routable.total_flows
        utility *= routable_flows / (routable_flows + stranded_flows)
    return utility, result.model_evaluations


@dataclass(frozen=True)
class _FailureCase:
    """One enumerated fibre cut with its (capacity-independent) routability."""

    pair: LinkId
    routable: TrafficMatrix
    stranded_flows: int

    @property
    def disconnecting(self) -> bool:
        return self.stranded_flows > 0


def _enumerate_failures(
    network: Network,
    traffic_matrix: TrafficMatrix,
    path_cache: Optional[PathSetCache] = None,
) -> List[_FailureCase]:
    """Precompute the routability split of every single-fibre cut.

    Which aggregates a cut strands depends only on the topology, never on
    link capacities, so the capacity search computes each split once here
    instead of once per (probe x fibre).
    """
    cases: List[_FailureCase] = []
    for pair in undirected_link_pairs(network):
        degraded = degrade(network, failed_links=[pair])
        generator = path_generator_for(degraded, cache=path_cache)
        routable, stranded = split_routable(traffic_matrix, generator)
        cases.append(
            _FailureCase(
                pair=pair,
                routable=routable,
                stranded_flows=sum(a.num_flows for a in stranded),
            )
        )
    return cases


def survivable_capacity(
    network: Network,
    traffic_matrix: TrafficMatrix,
    target_utility: float,
    min_capacity_bps: Optional[float] = None,
    max_capacity_bps: Optional[float] = None,
    relative_tolerance: float = DEFAULT_RELATIVE_TOLERANCE,
    max_probes: int = 8,
    fubar_config: Optional[FubarConfig] = None,
    warm_start: bool = True,
    skip_disconnecting: bool = True,
    path_cache: Optional[PathSetCache] = None,
    model_cache: Optional["CompiledModelCache"] = None,
) -> SurvivableCapacityResult:
    """Find the smallest uniform capacity that survives every fibre cut.

    Bisects like :func:`~repro.provisioning.frontier.minimal_uniform_capacity`
    but with the stricter feasibility test: at each probe capacity the
    healthy network *and* every single-link failure
    (:func:`~repro.failures.schedule.undirected_link_pairs`) must sustain
    ``target_utility``.  The per-failure runs warm-start from the probe's
    pruned healthy plan; the failure sweep short-circuits at the first
    failure that misses the target.  With ``skip_disconnecting`` (the
    default) fibres whose cut disconnects some aggregate are excluded from
    the enumeration — no capacity can route stranded demand, so keeping them
    would pin the answer at "never" on any topology with a stub POP.
    """
    reference = reference_capacity(network)
    lo = min_capacity_bps if min_capacity_bps is not None else DEFAULT_MIN_SCALE * reference
    hi = max_capacity_bps if max_capacity_bps is not None else DEFAULT_MAX_SCALE * reference
    _validate_search(target_utility, lo, hi, max_probes)
    if relative_tolerance <= 0.0:
        raise ProvisioningError(
            f"relative_tolerance must be positive, got {relative_tolerance!r}"
        )

    cases = _enumerate_failures(network, traffic_matrix, path_cache=path_cache)
    skipped = 0
    if skip_disconnecting:
        skipped = sum(1 for case in cases if case.disconnecting)
        cases = [case for case in cases if not case.disconnecting]
    runner = _ProbeRunner(
        network,
        traffic_matrix,
        fubar_config,
        warm_start,
        path_cache=path_cache,
        model_cache=model_cache,
    )
    config = runner.config
    probes: List[SurvivableProbe] = []

    def take(capacity_bps: float) -> SurvivableProbe:
        healthy, _, evaluations = runner.probe(capacity_bps)
        probe_network = healthy.network
        healthy_utility = healthy.network_utility
        worst_utility: Optional[float] = None
        worst_failure: Optional[LinkId] = None
        evaluated = 0
        feasible = healthy_utility >= target_utility
        if feasible:
            for case in cases:
                utility, failure_evals = utility_under_failure(
                    probe_network,
                    traffic_matrix,
                    case.pair,
                    config=config,
                    warm_state=healthy.state if warm_start else None,
                    warm_path_sets=healthy.path_sets if warm_start else None,
                    routable=case.routable,
                    stranded_flows=case.stranded_flows,
                    path_cache=path_cache,
                )
                evaluations += failure_evals
                runner.total_model_evaluations += failure_evals
                evaluated += 1
                if worst_utility is None or utility < worst_utility:
                    worst_utility = utility
                    worst_failure = case.pair
                if utility < target_utility:
                    feasible = False
                    break
        probe = SurvivableProbe(
            capacity_bps=capacity_bps,
            healthy_utility=healthy_utility,
            worst_failure_utility=worst_utility,
            worst_failure=worst_failure,
            failures_evaluated=evaluated,
            feasible=feasible,
            model_evaluations=evaluations,
        )
        probes.append(probe)
        return probe

    # Same lazy-floor bisection as the frontier search: probe high first,
    # treat the low bound as a virtual infeasible bracket, and only walk
    # down to capacities the bisection actually needs.
    high_probe = take(hi)
    feasible_cap: Optional[float] = hi if high_probe.feasible else None
    floor = lo

    while (
        feasible_cap is not None
        and len(probes) < max_probes
        and (feasible_cap - floor) > relative_tolerance * reference
    ):
        probe = take(0.5 * (feasible_cap + floor))
        if probe.feasible:
            feasible_cap = probe.capacity_bps
        else:
            floor = probe.capacity_bps

    feasible_probes = [p for p in probes if p.feasible]
    return SurvivableCapacityResult(
        target_utility=target_utility,
        probes=sorted(probes, key=lambda p: p.capacity_bps),
        survivable_capacity_bps=(
            min(p.capacity_bps for p in feasible_probes) if feasible_probes else None
        ),
        num_failures=len(cases),
        skipped_disconnecting=skipped,
        total_model_evaluations=runner.total_model_evaluations,
        warm_start=warm_start,
    )

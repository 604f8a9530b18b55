"""The TCP-like progressive-filling traffic model (paper §2.3).

    "We imagine the network as a series of empty pipes.  We fill them by
    having each flow grow at a rate inversely proportional to its RTT.  A
    flow can stop growing either because it satisfies its demand (obtained
    from the peak of the bandwidth component of the utility function) or
    because there is no more room to grow because a link along its path has
    become congested.  [...]  The algorithm proceeds in steps, congesting a
    link or satisfying a bundle at each step until each bundle is either
    congested or has its demands met."

Two implementations live side by side:

* :func:`reference_evaluate` — the event-driven executable specification.
  Per step it computes the time until the next bundle satisfies its demand or
  the next link saturates, advances every active bundle by that time, and
  freezes whatever the event stopped: at most (#bundles + #links) events.
  It rebuilds everything from the network graph on each call, rolls up the
  utilities one outcome at a time (:func:`reference_aggregate_utilities`),
  and is kept as the ground truth the fast engine is tested against.
* :class:`~repro.trafficmodel.compiled.CompiledTrafficModel` — the
  compiled/incremental engine every caller runs, also named
  :data:`TrafficModel` here.  It caches per-(aggregate, path) rows, scores
  candidate moves in the index space of the state they move from, and
  collapses demand-satisfaction events into closed form so the solve loop
  runs one round per saturated link.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.exceptions import TrafficModelError
from repro.topology.graph import Network
from repro.traffic.aggregate import AggregateKey
from repro.trafficmodel.bundle import Bundle
from repro.trafficmodel.compiled import (
    _ABS_EPS,
    _REL_EPS,
    MIN_RTT_S,
    CompiledModelCache,
    CompiledTrafficModel,
    TrafficModelConfig,
)
from repro.trafficmodel.result import BundleOutcome, TrafficModelResult
from repro.utility.aggregation import AggregateUtility

__all__ = [
    "MIN_RTT_S",
    "TrafficModel",
    "TrafficModelConfig",
    "evaluate_bundles",
    "reference_aggregate_utilities",
    "reference_evaluate",
    "traffic_model_for",
]

#: Second name of the engine class: perfbench/tracing.py's patch table names both.
TrafficModel = CompiledTrafficModel


def reference_evaluate(
    network: Network,
    bundles: Sequence[Bundle],
    config: Optional[TrafficModelConfig] = None,
) -> TrafficModelResult:
    """The event-driven reference implementation (executable specification).

    Rebuilds demands, growth rates and the link x bundle incidence matrix
    from the graph on every call and advances one event at a time.  The
    compiled engine (:mod:`repro.trafficmodel.compiled`) must agree with this
    function; the equivalence suite enforces it.
    """
    config = config or TrafficModelConfig()
    num_links = network.num_links
    num_bundles = len(bundles)
    capacities = np.asarray(network.capacities(), dtype=float)

    if num_bundles == 0:
        zeros = np.zeros(num_links, dtype=float)
        return TrafficModelResult(network, [], zeros, zeros.copy(), [])

    demands = np.empty(num_bundles, dtype=float)
    growth = np.empty(num_bundles, dtype=float)
    incidence = np.zeros((num_links, num_bundles), dtype=float)
    path_link_indices: List[Sequence[int]] = []

    for j, bundle in enumerate(bundles):
        demands[j] = bundle.total_demand_bps
        rtt = max(bundle.rtt(network), config.min_rtt_s)
        if config.rtt_fairness:
            growth[j] = bundle.num_flows / rtt
        else:
            growth[j] = float(bundle.num_flows)
        indices = network.path_link_indices(bundle.path)
        path_link_indices.append(indices)
        for index in indices:
            # Accumulate so a link crossed twice is counted twice; plain
            # assignment silently undercounted non-simple paths.
            incidence[index, j] += 1.0

    rates = np.zeros(num_bundles, dtype=float)
    remaining = capacities.copy()
    active = np.ones(num_bundles, dtype=bool)
    link_saturated = np.zeros(num_links, dtype=bool)
    bottleneck: List[Optional[tuple]] = [None] * num_bundles

    max_events = num_bundles + num_links + 1
    for _ in range(max_events):
        if not active.any():
            break
        g = np.where(active, growth, 0.0)

        # Time until each active bundle satisfies its remaining demand.
        with np.errstate(divide="ignore", invalid="ignore"):
            t_demand = np.where(active, (demands - rates) / growth, np.inf)
        t_demand = np.maximum(t_demand, 0.0)

        # Time until each link with growing traffic saturates.
        link_growth = incidence @ g
        with np.errstate(divide="ignore", invalid="ignore"):
            t_link = np.where(link_growth > 0.0, remaining / link_growth, np.inf)
        t_link = np.where(link_saturated, np.inf, t_link)
        t_link = np.maximum(t_link, 0.0)

        dt = min(float(t_demand.min()), float(t_link.min()))
        if not np.isfinite(dt):
            # No bundle can grow and none can be satisfied — should not
            # happen because growth rates are strictly positive.
            raise TrafficModelError("traffic model made no progress")

        rates = rates + g * dt
        remaining = remaining - link_growth * dt

        # Freeze bundles that met their demand.
        satisfied_now = active & (rates >= demands * (1.0 - _REL_EPS))
        rates[satisfied_now] = demands[satisfied_now]
        active[satisfied_now] = False

        # Freeze bundles truncated by links that just ran out of room.
        saturated_now = (~link_saturated) & (
            remaining <= capacities * _REL_EPS + _ABS_EPS
        )
        if saturated_now.any():
            link_saturated |= saturated_now
            remaining[saturated_now] = 0.0
            crossing = (incidence[saturated_now, :].sum(axis=0) > 0.0) & active
            for j in np.nonzero(crossing)[0]:
                for index in path_link_indices[j]:
                    if saturated_now[index]:
                        bottleneck[j] = network.link_by_index(index).link_id
                        break
                active[j] = False
        remaining = np.maximum(remaining, 0.0)

    if active.any():
        raise TrafficModelError(
            "traffic model did not converge within the event budget; "
            "this indicates an internal inconsistency"
        )

    link_loads = incidence @ rates
    link_demands = incidence @ demands

    outcomes = []
    for j, bundle in enumerate(bundles):
        satisfied = bool(rates[j] >= demands[j] * (1.0 - _REL_EPS))
        outcomes.append(
            BundleOutcome(
                bundle=bundle,
                rate_bps=float(rates[j]),
                satisfied=satisfied,
                bottleneck_link=None if satisfied else bottleneck[j],
            )
        )
    utilities = reference_aggregate_utilities(network, outcomes)
    return TrafficModelResult(network, outcomes, link_loads, link_demands, utilities)


def reference_aggregate_utilities(
    network: Network, outcomes: Sequence[BundleOutcome]
) -> List[AggregateUtility]:
    """Each aggregate's flow-weighted mean per-flow utility (clamped to 1),
    in order of its first outcome, rolled up one outcome at a time: the
    specification of the compiled engine's vectorized roll-up."""
    grouped: Dict[AggregateKey, List[BundleOutcome]] = {}
    for outcome in outcomes:
        grouped.setdefault(outcome.bundle.aggregate_key, []).append(outcome)
    utilities: List[AggregateUtility] = []
    for key, members in grouped.items():
        aggregate = members[0].bundle.aggregate
        total_flows = sum(outcome.bundle.num_flows for outcome in members)
        weighted = 0.0
        for outcome in members:
            delay_s = outcome.bundle.path_delay(network)
            utility = aggregate.utility(outcome.per_flow_rate_bps, delay_s)
            weighted += outcome.bundle.num_flows * utility
        mean = min(weighted / total_flows, 1.0)
        utilities.append(
            AggregateUtility(key, mean, total_flows, aggregate.traffic_class)
        )
    return utilities


def traffic_model_for(
    network: Network,
    config: Optional[TrafficModelConfig] = None,
    cache: Optional[CompiledModelCache] = None,
) -> TrafficModel:
    """A traffic model for *network*: *cache*'s warm engine when a cache is
    given, built fresh otherwise."""
    if cache is None:
        return TrafficModel(network, config)
    return cache.engine_for(network, config)


def evaluate_bundles(
    network: Network,
    bundles: Sequence[Bundle],
    config: Optional[TrafficModelConfig] = None,
) -> TrafficModelResult:
    """One-shot convenience wrapper around :class:`TrafficModel`."""
    return TrafficModel(network, config).evaluate(bundles)

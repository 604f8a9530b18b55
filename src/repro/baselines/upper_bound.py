"""Isolated-aggregate upper bound.

Paper §3: *"To produce the 'upper bound' curve we isolate an aggregate by
removing all other aggregates from the network and determine what the single
aggregate's utility would be if there were no other traffic.  We repeat this
for each aggregate and then take the mean."*

The bound is therefore not something any joint routing can necessarily
achieve — it ignores contention entirely — but it is the natural ceiling to
plot FUBAR against.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.state import AllocationState
from repro.exceptions import NoPathError
from repro.paths.generator import PathGenerator
from repro.topology.graph import Network
from repro.traffic.aggregate import Aggregate
from repro.traffic.matrix import TrafficMatrix
from repro.trafficmodel.bundle import Bundle
from repro.trafficmodel.waterfill import TrafficModel
from repro.utility.aggregation import (
    AggregateUtility,
    PriorityWeights,
    network_utility,
)


def isolated_aggregate_utility(
    network: Network,
    aggregate: Aggregate,
    generator: Optional[PathGenerator] = None,
    model: Optional[TrafficModel] = None,
    max_split_paths: int = 3,
) -> float:
    """Best utility one aggregate can get with the whole network to itself.

    The aggregate is placed on its lowest-delay path; if it congests even an
    empty network (a large aggregate on thin links), the bound also considers
    splitting it over up to ``max_split_paths`` lowest-delay paths and keeps
    the best outcome.
    """
    generator = generator or PathGenerator(network)
    model = model or TrafficModel(network)

    best_path = generator.lowest_delay_path(aggregate.source, aggregate.destination)
    if best_path is None:
        raise NoPathError(aggregate.source, aggregate.destination)

    def utility_of(paths: List, flow_counts: List[int]) -> float:
        bundles = [
            Bundle(aggregate=aggregate, path=path, num_flows=flows)
            for path, flows in zip(paths, flow_counts)
            if flows > 0
        ]
        result = model.evaluate(bundles)
        utilities = result.aggregate_utilities()
        return utilities[0].utility if utilities else 0.0

    best = utility_of([best_path], [aggregate.num_flows])
    if best >= 1.0 - 1e-9 or max_split_paths <= 1:
        return best

    # The aggregate is congested even alone; try splitting it evenly over the
    # k lowest-delay paths for every k up to the limit.
    candidate_paths = generator.k_shortest(
        aggregate.source, aggregate.destination, max_split_paths
    )
    for k in range(2, len(candidate_paths) + 1):
        paths = candidate_paths[:k]
        base = aggregate.num_flows // k
        remainder = aggregate.num_flows - base * k
        counts = [base + (1 if i < remainder else 0) for i in range(k)]
        best = max(best, utility_of(paths, counts))
    return best


def upper_bound_utility(
    network: Network,
    traffic_matrix: TrafficMatrix,
    weights: Optional[PriorityWeights] = None,
    max_split_paths: int = 3,
    generator: Optional[PathGenerator] = None,
    model: Optional[TrafficModel] = None,
) -> float:
    """The paper's upper-bound reference: mean isolated utility over aggregates.

    The mean of :func:`per_aggregate_upper_bounds` is flow-weighted, so it is
    directly comparable with the "total average" utility FUBAR reports.
    """
    return network_utility(
        per_aggregate_upper_bounds(
            network,
            traffic_matrix,
            max_split_paths=max_split_paths,
            generator=generator,
            model=model,
        ),
        weights,
    )


def per_aggregate_upper_bounds(
    network: Network,
    traffic_matrix: TrafficMatrix,
    max_split_paths: int = 3,
    generator: Optional[PathGenerator] = None,
    model: Optional[TrafficModel] = None,
) -> List[AggregateUtility]:
    """Isolated utility of every aggregate, clamped to 1.

    ``generator`` / ``model`` default to fresh builds, as in
    :func:`~repro.baselines.shortest_path.shortest_path_routing`.
    """
    traffic_matrix.require_routable_on(network)
    generator = generator or PathGenerator(network)
    model = model or TrafficModel(network)
    return [
        AggregateUtility(
            aggregate_key=aggregate.key,
            utility=min(
                isolated_aggregate_utility(
                    network, aggregate, generator, model, max_split_paths=max_split_paths
                ),
                1.0,
            ),
            num_flows=aggregate.num_flows,
            traffic_class=aggregate.traffic_class,
        )
        for aggregate in traffic_matrix
    ]

"""Equal-cost multipath (ECMP) baseline.

The paper's introduction names ECMP [RFC 2992] as the traditional, limited
way of spreading load: traffic is split evenly over all *equal*-cost shortest
paths, with no awareness of demand, utility or congestion.  This baseline
implements that behaviour (cost = propagation delay, with a small relative
tolerance for "equal") so experiments can show what utility-blind splitting
achieves on the same workloads.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.baselines.common import BaselineResult
from repro.core.state import AllocationState
from repro.exceptions import NoPathError
from repro.paths.generator import PathGenerator
from repro.topology.graph import Network, Path
from repro.traffic.matrix import TrafficMatrix
from repro.trafficmodel.waterfill import TrafficModel

#: Paths whose delay is within this relative tolerance of the minimum count as equal cost.
EQUAL_COST_TOLERANCE = 1e-6


def equal_cost_paths(
    network: Network,
    generator: PathGenerator,
    source: str,
    destination: str,
    max_paths: int = 8,
    tolerance: float = EQUAL_COST_TOLERANCE,
) -> List[Path]:
    """All lowest-delay-equivalent paths between two nodes (up to *max_paths*)."""
    candidates = generator.k_shortest(source, destination, max_paths)
    if not candidates:
        raise NoPathError(source, destination)
    best_delay = network.path_delay(candidates[0])
    limit = best_delay * (1.0 + tolerance) + 1e-12
    return [path for path in candidates if network.path_delay(path) <= limit]


def ecmp_routing(
    network: Network,
    traffic_matrix: TrafficMatrix,
    max_paths: int = 8,
    generator: Optional[PathGenerator] = None,
    model: Optional[TrafficModel] = None,
) -> BaselineResult:
    """Split every aggregate evenly across its equal-cost lowest-delay paths.

    ``generator`` / ``model`` default to fresh builds, as in
    :func:`~repro.baselines.shortest_path.shortest_path_routing`.
    """
    traffic_matrix.require_routable_on(network)
    generator = generator or PathGenerator(network)

    allocations: Dict = {}
    for aggregate in traffic_matrix:
        if aggregate.num_flows < 1:
            # Degenerate aggregates (e.g. hand-built measurement records with
            # zeroed flow counts) have nothing to spread; allocating over
            # zero usable paths would divide by zero below.
            continue
        paths = equal_cost_paths(
            network, generator, aggregate.source, aggregate.destination, max_paths
        )
        usable = min(len(paths), aggregate.num_flows)
        paths = paths[:usable]
        base = aggregate.num_flows // usable
        remainder = aggregate.num_flows - base * usable
        allocation = {}
        for index, path in enumerate(paths):
            flows = base + (1 if index < remainder else 0)
            if flows > 0:
                allocation[path] = flows
        allocations[aggregate.key] = allocation

    state = AllocationState(network, traffic_matrix, allocations)
    model = model or TrafficModel(network)
    result = model.evaluate(state.bundles())
    return BaselineResult(name="ecmp", state=state, model_result=result)

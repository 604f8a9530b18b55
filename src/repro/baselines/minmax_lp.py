"""Min-max link-utilization traffic engineering baseline (LP).

The related-work section of the paper groups classic traffic engineering
(MPLS-TE / CSPF, COPE, "Walking the tightrope", SWAN, B4) as systems that
"define utility only in terms of throughput and/or minimization of maximum
utilization".  This module implements that canonical objective so FUBAR can
be compared against it:

* every aggregate may split its *demand* across its k lowest-delay candidate
  paths,
* a linear program (solved with :func:`scipy.optimize.linprog`) chooses the
  split fractions minimizing the maximum link utilization,
* the fractional solution is rounded to whole flows and evaluated with the
  same traffic model used everywhere else, so utilities are comparable.

The LP knows nothing about utility functions or delay sensitivity — that is
precisely the point of the comparison.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.baselines.common import BaselineResult
from repro.core.state import AllocationState
from repro.exceptions import NoPathError, OptimizationError
from repro.paths.generator import PathGenerator
from repro.topology.graph import Network, Path
from repro.traffic.matrix import TrafficMatrix
from repro.trafficmodel.waterfill import TrafficModel


def _candidate_paths(
    network: Network,
    generator: PathGenerator,
    traffic_matrix: TrafficMatrix,
    paths_per_aggregate: int,
) -> Dict[Tuple[str, str, str], List[Path]]:
    candidates: Dict[Tuple[str, str, str], List[Path]] = {}
    for aggregate in traffic_matrix:
        paths = generator.k_shortest(
            aggregate.source, aggregate.destination, paths_per_aggregate
        )
        if not paths:
            raise NoPathError(aggregate.source, aggregate.destination)
        candidates[aggregate.key] = paths
    return candidates


def solve_minmax_fractions(
    network: Network,
    traffic_matrix: TrafficMatrix,
    candidates: Dict[Tuple[str, str, str], List[Path]],
) -> Dict[Tuple[str, str, str], List[float]]:
    """Solve the min-max-utilization LP and return per-aggregate path fractions.

    Variables: one fraction per (aggregate, candidate path), plus the scalar
    maximum utilization ``z``.  Constraints: fractions of each aggregate sum
    to 1; for every link, the demand routed over it is at most ``z`` times
    its capacity.  Objective: minimize ``z``.
    """
    # Imported here: loading scipy.optimize costs every process that imports
    # repro about half a second, and only this baseline needs it.
    from scipy.optimize import linprog

    variable_index: Dict[Tuple[Tuple[str, str, str], int], int] = {}
    for key, paths in candidates.items():
        for path_index in range(len(paths)):
            variable_index[(key, path_index)] = len(variable_index)
    num_fraction_vars = len(variable_index)
    z_index = num_fraction_vars
    num_vars = num_fraction_vars + 1

    # Objective: minimize z.
    objective = np.zeros(num_vars)
    objective[z_index] = 1.0

    # Equality constraints: fractions of each aggregate sum to one.
    num_aggregates = traffic_matrix.num_aggregates
    a_eq = np.zeros((num_aggregates, num_vars))
    b_eq = np.ones(num_aggregates)
    for row, aggregate in enumerate(traffic_matrix):
        for path_index in range(len(candidates[aggregate.key])):
            a_eq[row, variable_index[(aggregate.key, path_index)]] = 1.0

    # Inequality constraints: per-link demand <= z * capacity.
    num_links = network.num_links
    a_ub = np.zeros((num_links, num_vars))
    b_ub = np.zeros(num_links)
    for aggregate in traffic_matrix:
        demand = aggregate.total_demand_bps
        for path_index, path in enumerate(candidates[aggregate.key]):
            column = variable_index[(aggregate.key, path_index)]
            for link_index in network.path_link_indices(path):
                a_ub[link_index, column] += demand
    for link in network.links:
        a_ub[link.index, z_index] = -link.capacity_bps

    bounds = [(0.0, 1.0)] * num_fraction_vars + [(0.0, None)]
    solution = linprog(
        objective,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
    )
    if not solution.success:
        raise OptimizationError(f"min-max LP failed to solve: {solution.message}")

    fractions: Dict[Tuple[str, str, str], List[float]] = {}
    for key, paths in candidates.items():
        values = [
            max(float(solution.x[variable_index[(key, path_index)]]), 0.0)
            for path_index in range(len(paths))
        ]
        total = sum(values)
        if total <= 0.0:
            values = [1.0] + [0.0] * (len(paths) - 1)
            total = 1.0
        fractions[key] = [value / total for value in values]
    return fractions


def _fractions_to_flows(num_flows: int, fractions: List[float]) -> List[int]:
    """Round path fractions to whole flows while conserving the total."""
    raw = [fraction * num_flows for fraction in fractions]
    counts = [int(np.floor(value)) for value in raw]
    shortfall = num_flows - sum(counts)
    remainders = sorted(
        range(len(raw)), key=lambda index: raw[index] - counts[index], reverse=True
    )
    for index in remainders[:shortfall]:
        counts[index] += 1
    return counts


def minmax_lp_routing(
    network: Network,
    traffic_matrix: TrafficMatrix,
    paths_per_aggregate: int = 4,
    generator: Optional[PathGenerator] = None,
    model: Optional[TrafficModel] = None,
) -> BaselineResult:
    """Classic min-max-utilization TE: solve the LP, round to flows, evaluate.

    ``generator`` / ``model`` default to fresh builds, as in
    :func:`~repro.baselines.shortest_path.shortest_path_routing`.
    """
    traffic_matrix.require_routable_on(network)
    generator = generator or PathGenerator(network)
    candidates = _candidate_paths(network, generator, traffic_matrix, paths_per_aggregate)
    fractions = solve_minmax_fractions(network, traffic_matrix, candidates)

    allocations: Dict = {}
    for aggregate in traffic_matrix:
        paths = candidates[aggregate.key]
        counts = _fractions_to_flows(aggregate.num_flows, fractions[aggregate.key])
        allocation = {
            path: flows for path, flows in zip(paths, counts) if flows > 0
        }
        if not allocation:
            allocation = {paths[0]: aggregate.num_flows}
        allocations[aggregate.key] = allocation

    state = AllocationState(network, traffic_matrix, allocations)
    model = model or TrafficModel(network)
    result = model.evaluate(state.bundles())
    return BaselineResult(name="minmax-lp", state=state, model_result=result)

"""Shortest-path routing baseline.

The paper uses conventional lowest-delay shortest-path routing as the lower
bound in every figure: *"The 'shortest path' line shows what utility would be
if all the traffic takes its shortest path through the network."*  Because
FUBAR itself starts from this allocation, its utility can never be below it.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.common import BaselineResult
from repro.core.state import AllocationState
from repro.paths.generator import PathGenerator
from repro.topology.graph import Network
from repro.traffic.matrix import TrafficMatrix
from repro.trafficmodel.waterfill import TrafficModel


def shortest_path_routing(
    network: Network,
    traffic_matrix: TrafficMatrix,
    generator: Optional[PathGenerator] = None,
    model: Optional[TrafficModel] = None,
) -> BaselineResult:
    """Route every aggregate over its lowest-delay path and evaluate the result.

    ``generator`` / ``model`` default to fresh builds with the default path
    policy and model config; callers pass their own for another policy or
    config (``PathGenerator(network, policy)``, ``TrafficModel(network,
    config)``) or for warm instances (the sweep runner's worker caches).
    """
    traffic_matrix.require_routable_on(network)
    generator = generator or PathGenerator(network)
    state = AllocationState.initial(network, traffic_matrix, generator)
    model = model or TrafficModel(network)
    result = model.evaluate(state.bundles())
    return BaselineResult(name="shortest-path", state=state, model_result=result)

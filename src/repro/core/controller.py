"""The FUBAR offline controller facade.

The paper positions FUBAR as "an offline controller in SDN or MPLS networks,
in conjunction with an online controller to actually admit flows to the
paths that have been computed" (§5).  :class:`Fubar` is that offline
controller: it takes a topology and a (possibly measured) traffic matrix,
runs the optimizer, and hands back both the optimization result and a
deployable :class:`~repro.core.routing.RoutingTable`.

This is the top of the public API and what the quickstart example uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:
    from repro.trafficmodel.compiled import CompiledModelCache

from repro.core.config import FubarConfig
from repro.core.optimizer import FubarOptimizer, FubarResult
from repro.core.routing import RoutingTable
from repro.core.state import AllocationState
from repro.paths.cache import PathSetCache, path_generator_for
from repro.paths.generator import PathGenerator
from repro.paths.pathset import PathSet
from repro.paths.policy import PathPolicy
from repro.topology.graph import Network
from repro.topology.validation import require_routable
from repro.traffic.aggregate import AggregateKey
from repro.traffic.matrix import TrafficMatrix
from repro.trafficmodel.waterfill import (
    TrafficModel,
    TrafficModelConfig,
    traffic_model_for,
)
from repro.utility.aggregation import PriorityWeights


@dataclass
class FubarPlan:
    """The deployable output of one controller cycle."""

    result: FubarResult
    routing: RoutingTable

    @property
    def network_utility(self) -> float:
        """Final network utility of the computed plan."""
        return self.result.network_utility

    @property
    def improvement_over_shortest_path(self) -> Optional[float]:
        """Utility gained relative to the shortest-path starting point.

        ``None`` when no initial trace point was recorded (e.g. a warm-started
        cycle, which never evaluates the shortest-path solution): reporting
        ``0.0`` there would misrepresent an unknown baseline as "no gain".
        Reports render ``None`` as "n/a", mirroring
        :func:`repro.metrics.reporting.relative_improvement`.
        """
        initial = self.result.initial_point
        if initial is None:
            return None
        return self.result.network_utility - initial.network_utility

    def summary(self) -> dict:
        """Merge the optimizer summary with routing statistics."""
        summary = self.result.summary()
        summary.update(
            {
                "improvement_over_shortest_path": self.improvement_over_shortest_path,
                "aggregates_split": len(self.routing.multipath_aggregates()),
                "max_paths_per_aggregate": self.routing.max_paths_per_aggregate(),
            }
        )
        return summary


def build_plan(
    network: Network,
    traffic_matrix: TrafficMatrix,
    config: FubarConfig,
    generator: PathGenerator,
    model: TrafficModel,
    warm_state: Optional[AllocationState] = None,
    warm_path_sets: Optional[Dict[AggregateKey, PathSet]] = None,
) -> FubarPlan:
    """Optimize *traffic_matrix* once and wrap the result with its routing.

    With *warm_state* the run starts from that allocation, rescaled to the
    new flow counts, and inherits *warm_path_sets*; without it, from the
    lowest-delay allocation.  :class:`Fubar` and the service's
    ``ControllerCore`` both plan through here, each with its own generator,
    model and warm seed.
    """
    optimizer = FubarOptimizer(
        network,
        traffic_matrix,
        config=config,
        path_generator=generator,
        traffic_model=model,
    )
    initial_state = None
    if warm_state is not None:
        initial_state = AllocationState.warm_start(
            warm_state, traffic_matrix, generator
        )
    result = optimizer.run(
        initial_state=initial_state, initial_path_sets=warm_path_sets
    )
    return FubarPlan(result=result, routing=RoutingTable.from_state(result.state))


class Fubar:
    """The offline FUBAR controller.

    Parameters
    ----------
    network:
        The topology to optimize (validated to be routable on construction).
    config:
        Optimizer configuration; defaults to the paper's settings.
    policy:
        Path policy applied to every generated path.
    model_config:
        Traffic-model configuration (RTT floor, RTT fairness on/off).
    path_cache:
        Optional warm :class:`~repro.paths.cache.PathSetCache`; used only
        when it serves *policy*.
    model_cache:
        Optional warm
        :class:`~repro.trafficmodel.compiled.CompiledModelCache` supplying
        the optimizer's traffic-model engine.
    """

    def __init__(
        self,
        network: Network,
        config: Optional[FubarConfig] = None,
        policy: Optional[PathPolicy] = None,
        model_config: Optional[TrafficModelConfig] = None,
        path_cache: Optional[PathSetCache] = None,
        model_cache: Optional["CompiledModelCache"] = None,
    ) -> None:
        require_routable(network)
        self.network = network
        self.config = config or FubarConfig()
        self.policy = policy or PathPolicy.unrestricted()
        self.model_config = model_config
        self._path_cache = path_cache
        self._model_cache = model_cache

    def optimize(
        self,
        traffic_matrix: TrafficMatrix,
        warm_start: Optional[FubarPlan] = None,
        config: Optional[FubarConfig] = None,
    ) -> FubarPlan:
        """Run one offline optimization cycle on *traffic_matrix*.

        Parameters
        ----------
        warm_start:
            A previous cycle's plan.  The new cycle starts from that plan's
            allocation (rescaled to the new flow counts) and inherits its
            per-aggregate path sets, instead of restarting from shortest
            paths — the re-optimization mode of the control loop
            (:mod:`repro.dynamics`).
        config:
            Per-cycle configuration override; defaults to the controller's.
        """
        previous = warm_start.result if warm_start is not None else None
        return build_plan(
            self.network,
            traffic_matrix,
            config or self.config,
            path_generator_for(self.network, self.policy, self._path_cache),
            traffic_model_for(self.network, self.model_config, self._model_cache),
            warm_state=previous.state if previous is not None else None,
            warm_path_sets=previous.path_sets if previous is not None else None,
        )

    def optimize_with_priority(
        self, traffic_matrix: TrafficMatrix, weights: PriorityWeights
    ) -> FubarPlan:
        """Run a cycle with non-default priority weights (the Figure 5 scenario).

        A ``dataclasses.replace``-style config swap on this instance: the
        already-validated topology is reused instead of constructing a whole
        new controller (which would re-run ``require_routable``).
        """
        return self.optimize(traffic_matrix, config=self.config.with_priority(weights))

"""The FUBAR flow-allocation optimizer (paper Listing 1, §2.5).

The main loop mirrors Listing 1:

1. put every aggregate's flows on its lowest-delay path;
2. while there are congested links, visit them from most to least
   oversubscribed and run a :func:`~repro.core.step.perform_step` on each
   until one of them yields an improving move;
3. when no link yields an improving move, escalate the move fraction (the
   simulated-annealing-inspired escape from §2.5) and try again;
4. terminate when there is no congestion left, when even whole-aggregate
   moves cannot improve utility, or when a configured step/time budget runs
   out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.config import FubarConfig
from repro.core.recorder import OptimizationRecorder, TracePoint
from repro.core.state import AllocationState, build_path_sets
from repro.core.step import perform_step
from repro.paths.generator import PathGenerator
from repro.paths.pathset import PathSet
from repro.topology.graph import Network
from repro.traffic.aggregate import AggregateKey
from repro.traffic.matrix import TrafficMatrix
from repro.trafficmodel.result import TrafficModelResult
from repro.trafficmodel.waterfill import TrafficModel

#: Termination reasons reported in :class:`FubarResult`.
TERMINATED_NO_CONGESTION = "no congestion remains"
TERMINATED_LOCAL_OPTIMUM = "no improving move at maximum escalation"
TERMINATED_STEP_LIMIT = "step limit reached"
TERMINATED_TIME_LIMIT = "wall-clock limit reached"


@dataclass
class FubarResult:
    """Everything produced by one optimizer run."""

    network: Network
    traffic_matrix: TrafficMatrix
    config: FubarConfig
    state: AllocationState
    model_result: TrafficModelResult
    recorder: OptimizationRecorder
    path_sets: Dict[AggregateKey, PathSet]
    num_steps: int
    termination_reason: str
    wall_clock_s: float
    model_evaluations: int
    warm_started: bool = False

    @property
    def network_utility(self) -> float:
        """Final unweighted network utility (the paper's "total average")."""
        return self.model_result.network_utility()

    @property
    def weighted_utility(self) -> float:
        """Final network utility under the configured priority weights."""
        return self.model_result.network_utility(self.config.priority_weights)

    @property
    def has_congestion(self) -> bool:
        """True when congested links remain in the final solution."""
        return self.model_result.has_congestion

    @property
    def trace(self) -> tuple:
        """The recorded trace points (used to redraw Figures 3–5)."""
        return self.recorder.points

    @property
    def initial_point(self) -> Optional[TracePoint]:
        """The trace point of the shortest-path starting solution.

        ``None`` for warm-started runs: their first trace point is the
        inherited allocation, not the shortest-path solution, so there is no
        shortest-path reference to compare against.
        """
        if self.warm_started:
            return None
        return self.recorder.initial

    def summary(self) -> dict:
        """A compact dictionary summary for reports and EXPERIMENTS.md."""
        initial = self.recorder.initial
        return {
            "network": self.network.name,
            "aggregates": self.traffic_matrix.num_aggregates,
            "steps": self.num_steps,
            "model_evaluations": self.model_evaluations,
            "wall_clock_s": self.wall_clock_s,
            "termination": self.termination_reason,
            "initial_utility": initial.network_utility if initial else None,
            "final_utility": self.network_utility,
            "final_utilization": self.model_result.total_utilization(),
            "final_demanded_utilization": self.model_result.demanded_utilization(),
            "congested_links_remaining": len(self.model_result.congested_links),
        }


class FubarOptimizer:
    """Runs the FUBAR flow-allocation algorithm on one network + traffic matrix.

    ``path_generator`` and ``traffic_model`` default to fresh builds with the
    default path policy and model config.  A caller that wants another
    policy or config, or warm instances, passes the tools themselves:
    ``PathGenerator(network, policy)`` or ``TrafficModel(network, config)``.
    """

    def __init__(
        self,
        network: Network,
        traffic_matrix: TrafficMatrix,
        config: Optional[FubarConfig] = None,
        path_generator: Optional[PathGenerator] = None,
        traffic_model: Optional[TrafficModel] = None,
    ) -> None:
        traffic_matrix.require_routable_on(network)
        self.network = network
        self.traffic_matrix = traffic_matrix
        self.config = config or FubarConfig()
        self.path_generator = path_generator or PathGenerator(network)
        self.model = traffic_model or TrafficModel(network)

    # ------------------------------------------------------------------- run

    def run(
        self,
        initial_state: Optional[AllocationState] = None,
        initial_path_sets: Optional[Dict[AggregateKey, PathSet]] = None,
    ) -> FubarResult:
        """Execute Listing 1 and return the final :class:`FubarResult`.

        ``initial_state`` seeds the starting allocation (warm start); the
        default is the lowest-delay allocation of Listing 1, line 1.
        ``initial_path_sets`` additionally seeds each aggregate's path set
        with alternatives discovered in earlier cycles (the sets are copied,
        the caller's objects are never mutated).
        """
        config = self.config
        recorder = OptimizationRecorder(config.priority_weights)
        recorder.start()

        # Snapshot the (possibly injected/reused) model's cumulative counter
        # so the reported count is per-run, not per-model-lifetime.
        evaluations_at_start = self.model.evaluations

        state = initial_state or AllocationState.initial(
            self.network, self.traffic_matrix, self.path_generator
        )
        path_sets = build_path_sets(self.network, state, previous=initial_path_sets)
        result = self.model.evaluate(state.bundles())
        recorder.record(
            0,
            result,
            "initial warm-start allocation"
            if initial_state is not None
            else "initial lowest-delay allocation",
        )

        step_count = 0
        escalation_level = 0
        termination = TERMINATED_NO_CONGESTION

        while True:
            if not result.has_congestion:
                termination = TERMINATED_NO_CONGESTION
                break
            if config.max_steps is not None and step_count >= config.max_steps:
                termination = TERMINATED_STEP_LIMIT
                break
            if (
                config.max_wall_clock_s is not None
                and recorder.elapsed_s() >= config.max_wall_clock_s
            ):
                termination = TERMINATED_TIME_LIMIT
                break

            progress = False
            # Every congested link this iteration visits scores its moves
            # against the compiled bundle list the current result solved.
            for link_id in result.congested_links_by_oversubscription():
                step_result = perform_step(
                    link_id,
                    state,
                    path_sets,
                    self.model,
                    self.path_generator,
                    config,
                    result,
                    escalation_level,
                )
                if step_result.progress:
                    state = step_result.state
                    result = step_result.result
                    step_count += 1
                    progress = True
                    recorder.record(step_count, result, step_result.describe())
                    break

            if progress:
                escalation_level = 0
                continue
            if escalation_level >= config.max_escalation_level:
                termination = TERMINATED_LOCAL_OPTIMUM
                break
            escalation_level += 1

        recorder.record(step_count, result, f"terminated: {termination}")
        return FubarResult(
            network=self.network,
            traffic_matrix=self.traffic_matrix,
            config=config,
            state=state,
            model_result=result,
            recorder=recorder,
            path_sets=path_sets,
            num_steps=step_count,
            termination_reason=termination,
            wall_clock_s=recorder.elapsed_s(),
            model_evaluations=self.model.evaluations - evaluations_at_start,
            warm_started=initial_state is not None,
        )


def optimize(
    network: Network,
    traffic_matrix: TrafficMatrix,
    config: Optional[FubarConfig] = None,
) -> FubarResult:
    """One-shot convenience wrapper: build an optimizer and run it."""
    return FubarOptimizer(network, traffic_matrix, config).run()

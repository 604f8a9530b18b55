"""The pure controller core: one tenant's control-loop state machine.

:class:`ControllerCore` is the clock-free heart of both control surfaces:
the batch :func:`repro.dynamics.loop.run_control_loop` drives it
synchronously over fixed epochs, and the asyncio
:class:`~repro.service.daemon.ControllerDaemon` drives it from measurement
and failure *events*, debounced on demand drift.  The core owns everything
one network's controller accumulates between cycles — the SDN controller
and its switches, the current (possibly degraded) topology view, the warm
path generator and traffic-model engine, the warm-start seed, the last
computed plan — and exposes the loop body as explicit transitions:

* :meth:`on_measurement` — a new observed traffic matrix arrived;
* :meth:`on_failure_event` / :meth:`on_repair` / :meth:`apply_topology` —
  the topology changed: rules over newly dead links are force-uninstalled
  and the warm-start seed is pruned onto the new topology;
* :meth:`reoptimize` — run the (warm-started) optimizer on the observed
  matrix, with stranded aggregates sat out;
* :meth:`install` — differentially install a plan's rules;
* :meth:`carry` — carry one interval of true traffic over the installed
  rules, measure it at the ingress switches, and fold packet-in discoveries
  into the next observation.

The core never reads the clock and never blocks: timing of any transition
is the driver's business (the batch loop records wall time around
``reoptimize`` + ``install``; the daemon runs them in an executor).  Given
the same transition sequence it is bit-for-bit deterministic, which is what
the byte-identity equivalence suite (``tests/test_service_equivalence.py``)
gates the batch driver on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.trafficmodel.compiled import CompiledModelCache

from repro.core.config import FubarConfig
from repro.core.controller import FubarPlan, build_plan
from repro.core.routing import RoutingTable
from repro.core.state import AllocationState, apportion_flows
from repro.exceptions import DynamicsError
from repro.failures.degraded import DegradedNetwork, normalize_failed_links
from repro.failures.recovery import prune_warm_start, split_routable
from repro.paths.cache import PathSetCache, path_generator_for
from repro.paths.pathset import PathSet
from repro.paths.policy import PathPolicy
from repro.sdn.controller import InstallReport, SdnController
from repro.sdn.deployment import feed_model_result
from repro.topology.graph import LinkId, Network
from repro.topology.validation import require_routable
from repro.traffic.aggregate import Aggregate, AggregateKey
from repro.traffic.matrix import TrafficMatrix
from repro.trafficmodel.bundle import Bundle
from repro.trafficmodel.result import TrafficModelResult
from repro.trafficmodel.waterfill import TrafficModelConfig, traffic_model_for

__all__ = [
    "CarryOutcome",
    "ControllerCore",
    "ReoptimizeOutcome",
    "bundles_from_routing",
]


def bundles_from_routing(
    routing: RoutingTable, traffic_matrix: TrafficMatrix
) -> Tuple[List[Bundle], List[Aggregate]]:
    """Route *traffic_matrix* over an installed routing table.

    Each aggregate's (possibly new) flow count is apportioned over its
    installed path splits proportionally to the split flow counts — the
    online controller keeps the split weights until the offline controller
    replaces them.  Returns the bundle list plus the aggregates the routing
    has no route for (new aggregates are invisible to the data plane until
    the next cycle installs rules for them).
    """
    bundles: List[Bundle] = []
    unrouted: List[Aggregate] = []
    for aggregate in traffic_matrix:
        if aggregate.key not in routing:
            unrouted.append(aggregate)
            continue
        route = routing.route_of(aggregate.key)
        allocation = {split.path: split.num_flows for split in route.splits}
        for path, flows in apportion_flows(allocation, aggregate.num_flows).items():
            bundles.append(Bundle(aggregate=aggregate, path=path, num_flows=flows))
    return bundles, unrouted


@dataclass(frozen=True)
class ReoptimizeOutcome:
    """What one :meth:`ControllerCore.reoptimize` transition produced.

    ``plan`` is ``None`` when every observed aggregate was stranded by the
    current (degraded) topology — there was nothing to optimize, and the
    follow-up :meth:`ControllerCore.install` installs an empty table so no
    stale rule pretends to route.
    """

    plan: Optional[FubarPlan]
    observed_aggregates: int
    routable_aggregates: int
    degraded: bool

    @property
    def planned_utility(self) -> float:
        """The optimizer's belief (0.0 when nothing could be planned)."""
        return self.plan.network_utility if self.plan is not None else 0.0

    @property
    def model_evaluations(self) -> int:
        return self.plan.result.model_evaluations if self.plan is not None else 0

    @property
    def steps(self) -> int:
        return self.plan.result.num_steps if self.plan is not None else 0


@dataclass(frozen=True)
class CarryOutcome:
    """What one :meth:`ControllerCore.carry` transition produced.

    ``delivered`` is the traffic-model result of carrying the interval's
    true traffic over the installed rules (``None`` when no aggregate could
    be carried at all); ``unrouted`` are the aggregates the data plane had
    no rule for, of which ``stranded`` are the ones the degraded topology
    cannot route at all — they received no service and are excluded from
    the delivered utility.  ``measured`` is what the ingress switches saw,
    packet-in discoveries folded in: the matrix the next cycle optimizes.
    """

    delivered: Optional[TrafficModelResult]
    unrouted: Tuple[Aggregate, ...]
    stranded: Tuple[Aggregate, ...]
    measured: TrafficMatrix

    @property
    def delivered_utility(self) -> float:
        """Delivered network utility (0.0 when nothing was carried)."""
        return self.delivered.network_utility() if self.delivered is not None else 0.0

    @property
    def unrouted_aggregates(self) -> int:
        """Unrouted-but-routable aggregates (stranded ones counted apart)."""
        return len(self.unrouted) - len(self.stranded)

    @property
    def stranded_aggregates(self) -> int:
        return len(self.stranded)

    @property
    def stranded_demand_bps(self) -> float:
        return sum(aggregate.total_demand_bps for aggregate in self.stranded)


@dataclass
class _WarmSeed:
    """The warm-start seed carried between cycles."""

    state: Optional[AllocationState] = None
    path_sets: Dict[AggregateKey, PathSet] = field(default_factory=dict)

    def clear(self) -> None:
        self.state = None
        self.path_sets = {}


class ControllerCore:
    """One tenant's controller state machine (see module docstring).

    Parameters mirror :func:`repro.dynamics.loop.run_control_loop`:
    *path_cache* / *model_cache* supply warm path generators and compiled
    traffic-model engines across topology changes (a repair restoring the
    base network is a cache hit); when omitted, generators and models are
    rebuilt on every topology change, exactly like the pre-refactor loop.
    A path cache built for another policy than *policy* is not used (see
    :func:`~repro.paths.cache.path_generator_for`).
    """

    def __init__(
        self,
        network: Network,
        fubar_config: Optional[FubarConfig] = None,
        *,
        warm_start: bool = True,
        policy: Optional[PathPolicy] = None,
        model_config: Optional[TrafficModelConfig] = None,
        path_cache: Optional[PathSetCache] = None,
        model_cache: Optional["CompiledModelCache"] = None,
    ) -> None:
        require_routable(network)
        self.network = network
        self.fubar_config = fubar_config or FubarConfig()
        self.warm_start = warm_start
        self._policy = policy
        self._model_config = model_config
        self._path_cache = path_cache
        self._model_cache = model_cache
        self._sdn = SdnController(network)
        self._current: Network = network
        self._generator = path_generator_for(network, policy, path_cache)
        self._model = traffic_model_for(network, model_config, model_cache)
        self._observed: Optional[TrafficMatrix] = None
        self._warm = _WarmSeed()
        self._last_plan: Optional[FubarPlan] = None
        self._epochs_carried = 0

    # ----------------------------------------------------------- inspection

    @property
    def sdn(self) -> SdnController:
        """The online controller (switches + installed rules) of this tenant."""
        return self._sdn

    @property
    def current(self) -> Network:
        """The current topology view (the base network, or a degraded view)."""
        return self._current

    @property
    def degraded(self) -> bool:
        """True while a failure view (not the base network) is in effect."""
        return self._current is not self.network

    @property
    def failed_links(self) -> int:
        """Directed links masked out of the current topology view."""
        return len(getattr(self._current, "failed_links", ()))

    @property
    def failed_nodes(self) -> int:
        """Nodes masked out of the current topology view."""
        return len(getattr(self._current, "failed_nodes", ()))

    @property
    def observed(self) -> Optional[TrafficMatrix]:
        """The measurement the next :meth:`reoptimize` will run on."""
        return self._observed

    @property
    def last_plan(self) -> Optional[FubarPlan]:
        """The last successfully computed plan (``None`` before the first)."""
        return self._last_plan

    @property
    def epochs_carried(self) -> int:
        """Number of :meth:`carry` transitions performed so far."""
        return self._epochs_carried

    # ----------------------------------------------------------- transitions

    def on_measurement(self, matrix: TrafficMatrix) -> None:
        """Replace the observed matrix the next :meth:`reoptimize` uses.

        The batch driver calls this once with the epoch-0 bootstrap (later
        observations flow out of :meth:`carry`); the daemon calls it for
        every inbound measurement event.
        """
        self._observed = matrix

    def apply_topology(self, topology: Network) -> int:
        """Transition to *topology* (a failure or a repair).

        No-op when *topology* is the current view.  Otherwise rules whose
        next hop died are uninstalled immediately — real switches drop them
        rather than blackhole traffic — the warm path generator and traffic
        model are swapped for the new topology, and the warm-start seed is
        rebased onto it (surviving splits kept, dead-path flows
        re-apportioned, paths regenerated only for stranded aggregates).
        Returns the number of rules invalidated by the change.
        """
        if topology is self._current:
            return 0
        dead = getattr(topology, "failed_links", frozenset())
        previously_dead = getattr(self._current, "failed_links", frozenset())
        newly_dead = dead - previously_dead
        invalidated = 0
        if newly_dead:
            invalidated = self._sdn.uninstall_rules_crossing(newly_dead)
        self._current = topology
        self._generator = path_generator_for(topology, self._policy, self._path_cache)
        self._model = traffic_model_for(topology, self._model_config, self._model_cache)
        if self._warm.state is not None:
            pruned = prune_warm_start(
                self._warm.state, self._warm.path_sets, topology, self._generator
            )
            self._warm.state = pruned.state
            self._warm.path_sets = pruned.path_sets
        return invalidated

    def on_failure_event(
        self,
        failed_links: Iterable[LinkId] = (),
        failed_nodes: Iterable[str] = (),
    ) -> int:
        """Apply a failure event naming dead links/nodes on the base network.

        The targets are normalized exactly like a
        :class:`~repro.failures.schedule.FailureSchedule` entry (a link
        failure is a fibre cut taking both directions; a node failure takes
        every adjacent link).  An event describing the already-current
        failure set is a no-op; an empty event is a repair.  Returns the
        number of rules invalidated.
        """
        dead_links, dead_nodes = normalize_failed_links(
            self.network, failed_links, failed_nodes
        )
        if not dead_links and not dead_nodes:
            return self.on_repair()
        current_links = getattr(self._current, "failed_links", frozenset())
        current_nodes = getattr(self._current, "failed_nodes", frozenset())
        if dead_links == current_links and dead_nodes == current_nodes:
            return 0
        return self.apply_topology(
            DegradedNetwork(self.network, dead_links, dead_nodes)
        )

    def on_repair(self) -> int:
        """Restore the base network (no-op when it is already current)."""
        return self.apply_topology(self.network)

    def reoptimize(self) -> ReoptimizeOutcome:
        """Re-optimize on the currently observed matrix.

        Aggregates the degraded topology cannot route at all sit the cycle
        out; when *every* observed aggregate is stranded the outcome carries
        no plan and the warm-start seed is cleared.  Warm-started from the
        previous cycle's result when the core was built with
        ``warm_start=True``.  The computed plan is *not* installed — that is
        the explicit :meth:`install` transition.
        """
        observed = self._observed
        if observed is None or len(observed) == 0:
            raise DynamicsError(
                f"epoch {self._epochs_carried} observed an empty traffic "
                "matrix; the loop cannot re-optimize without measurements"
            )
        degraded = self.degraded
        if degraded:
            routable, _ = split_routable(observed, self._generator)
        else:
            routable = observed

        if len(routable) == 0:
            # Every observed aggregate is stranded: nothing to optimize.
            self._warm.clear()
            return ReoptimizeOutcome(
                plan=None,
                observed_aggregates=len(observed),
                routable_aggregates=0,
                degraded=degraded,
            )
        # An empty seed (warm_start off, or no cycle yet) plans cold.
        plan = build_plan(
            self._current,
            routable,
            self.fubar_config,
            self._generator,
            self._model,
            warm_state=self._warm.state,
            warm_path_sets=self._warm.path_sets,
        )
        self._last_plan = plan
        if self.warm_start:
            self._warm.state = plan.result.state
            self._warm.path_sets = plan.result.path_sets
        return ReoptimizeOutcome(
            plan=plan,
            observed_aggregates=len(observed),
            routable_aggregates=len(routable),
            degraded=degraded,
        )

    def install(self, plan: Optional[FubarPlan]) -> InstallReport:
        """Differentially install *plan*'s rules (an empty table for ``None``).

        Surviving rules keep their byte counters; the returned
        :class:`~repro.sdn.controller.InstallReport` is the cycle's churn
        accounting.
        """
        routing = plan.routing if plan is not None else RoutingTable({})
        return self._sdn.install_routing(routing)

    def carry(self, true_matrix: TrafficMatrix, interval_s: float) -> CarryOutcome:
        """Carry one interval of *true_matrix* over the installed rules.

        The traffic model decides the per-bundle achieved rates; the ingress
        switches observe them (fresh rates, accumulating byte totals).  The
        measured matrix — with packet-in style discovery folding unrouted
        aggregates back in, so rules get installed for them next cycle —
        becomes the next observation.
        """
        routing = self._sdn.installed_routing
        if routing is None:
            raise DynamicsError("cannot carry traffic before any routing is installed")
        bundles, unrouted = bundles_from_routing(routing, true_matrix)
        delivered: Optional[TrafficModelResult] = None
        if bundles:
            delivered = self._model.evaluate(bundles)
            self._sdn.reset_counters()
            feed_model_result(self._sdn, delivered, interval_s=interval_s)
        else:
            self._sdn.reset_counters()
        if self.degraded:
            stranded = tuple(
                aggregate
                for aggregate in unrouted
                if self._generator.lowest_delay_path(
                    aggregate.source, aggregate.destination
                )
                is None
            )
        else:
            stranded = ()
        measured = self._sdn.measured_traffic_matrix(
            name=f"measured-epoch{self._epochs_carried}"
        )
        # Packet-in style discovery: aggregates with no installed rule left
        # no counters, but their unmatched traffic reaches the controller,
        # which hands them to the next cycle so rules get installed for
        # them.  Stranded aggregates stay in the observed set too — the
        # moment a repair reconnects them, the next cycle routes them again.
        for aggregate in unrouted:
            if aggregate.key not in measured:
                measured.add(aggregate)
        self._observed = measured
        self._epochs_carried += 1
        return CarryOutcome(
            delivered=delivered,
            unrouted=tuple(unrouted),
            stranded=stranded,
            measured=measured,
        )

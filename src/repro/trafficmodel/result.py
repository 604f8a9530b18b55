"""Results of a traffic-model evaluation.

A :class:`TrafficModelResult` bundles everything the optimizer and the
metrics code need from one run of the progressive-filling model: per-bundle
achieved rates, per-link loads and demands, the set of congested links, and
utility roll-ups (per aggregate, per class, network-wide).  The model run
that builds the result rolls up its per-aggregate utilities once; a result
of the compiled engine also carries the compiled bundle list and the rates
it solved, so the optimizer scores candidate moves against them directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import TrafficModelError
from repro.topology.graph import LinkId, Network
from repro.traffic.aggregate import AggregateKey
from repro.trafficmodel.bundle import Bundle
from repro.utility.aggregation import (
    AggregateUtility,
    PriorityWeights,
    class_utility,
    network_utility,
    per_class_utilities,
)

if TYPE_CHECKING:
    from repro.trafficmodel.compiled import CompiledBundles

#: Relative tolerance used when deciding whether a link is saturated.
SATURATION_TOLERANCE = 1e-6


@dataclass(frozen=True)
class BundleOutcome:
    """What one bundle achieved in the model run."""

    bundle: Bundle
    rate_bps: float
    satisfied: bool
    bottleneck_link: Optional[LinkId]

    @property
    def per_flow_rate_bps(self) -> float:
        """Bandwidth one flow of the bundle receives."""
        return self.rate_bps / self.bundle.num_flows


class TrafficModelResult:
    """Everything produced by one evaluation of the traffic model.

    ``compiled`` and ``rates`` are the compiled bundle list and per-bundle
    rates the compiled engine solved (``None`` from ``reference_evaluate``).
    """

    def __init__(
        self,
        network: Network,
        outcomes: Sequence[BundleOutcome],
        link_loads_bps: np.ndarray,
        link_demands_bps: np.ndarray,
        aggregate_utilities: Sequence[AggregateUtility],
        compiled: Optional["CompiledBundles"] = None,
        rates: Optional[np.ndarray] = None,
    ) -> None:
        if link_loads_bps.shape != (network.num_links,):
            raise TrafficModelError(
                f"link load vector has shape {link_loads_bps.shape}, "
                f"expected ({network.num_links},)"
            )
        if link_demands_bps.shape != (network.num_links,):
            raise TrafficModelError(
                f"link demand vector has shape {link_demands_bps.shape}, "
                f"expected ({network.num_links},)"
            )
        self.network = network
        self.outcomes: Tuple[BundleOutcome, ...] = tuple(outcomes)
        self.link_loads_bps = link_loads_bps
        self.link_demands_bps = link_demands_bps
        self.compiled = compiled
        self.rates = rates
        self._aggregate_utilities = tuple(aggregate_utilities)
        self._capacities = np.asarray(network.capacities(), dtype=float)
        self._congested: Optional[Tuple[LinkId, ...]] = None
        self._by_aggregate: Optional[Dict[AggregateKey, List[BundleOutcome]]] = None

    # ------------------------------------------------------------- congestion

    def _compute_congested(self) -> Tuple[LinkId, ...]:
        saturated = self.link_loads_bps >= self._capacities * (1.0 - SATURATION_TOLERANCE)
        # A saturated link is only *congested* if it actually truncates some
        # bundle's demand (paper §2.3).
        truncating = {
            outcome.bottleneck_link for outcome in self.outcomes if not outcome.satisfied
        }
        return tuple(
            link.link_id
            for link in self.network.links
            if saturated[link.index] and link.link_id in truncating
        )

    @property
    def congested_links(self) -> Tuple[LinkId, ...]:
        """Links that are saturated and truncate at least one bundle's demand."""
        if self._congested is None:
            self._congested = self._compute_congested()
        return self._congested

    @property
    def has_congestion(self) -> bool:
        """True when at least one link is congested."""
        return bool(self.congested_links)

    def oversubscription(self, link_id: LinkId) -> float:
        """Demanded load divided by capacity for one link (>1 means oversubscribed)."""
        link = self.network.link_by_id(link_id)
        return float(self.link_demands_bps[link.index] / link.capacity_bps)

    def congested_links_by_oversubscription(self) -> Tuple[LinkId, ...]:
        """Congested links ordered from most to least oversubscribed (Listing 1, line 5)."""
        return tuple(
            sorted(self.congested_links, key=self.oversubscription, reverse=True)
        )

    # --------------------------------------------------------------- bundles

    def outcomes_on_link(self, link_id: LinkId) -> Tuple[BundleOutcome, ...]:
        """Outcomes of every bundle whose path traverses *link_id*."""
        return tuple(
            outcome for outcome in self.outcomes if outcome.bundle.uses_link(link_id)
        )

    def outcomes_by_aggregate(self) -> Dict[AggregateKey, List[BundleOutcome]]:
        """Outcomes grouped by owning aggregate."""
        if self._by_aggregate is None:
            grouped: Dict[AggregateKey, List[BundleOutcome]] = {}
            for outcome in self.outcomes:
                grouped.setdefault(outcome.bundle.aggregate_key, []).append(outcome)
            self._by_aggregate = grouped
        return self._by_aggregate

    def aggregate_congested_links(self, key: AggregateKey) -> Tuple[LinkId, ...]:
        """Congested links used by the bundles of one aggregate."""
        congested = set(self.congested_links)
        used: List[LinkId] = []
        for outcome in self.outcomes_by_aggregate().get(key, []):
            for link_id in zip(outcome.bundle.path, outcome.bundle.path[1:]):
                if link_id in congested and link_id not in used:
                    used.append(link_id)
        return tuple(used)

    def most_congested_link_of(self, key: AggregateKey) -> Optional[LinkId]:
        """The most oversubscribed congested link used by one aggregate, or None."""
        used = self.aggregate_congested_links(key)
        if not used:
            return None
        return max(used, key=self.oversubscription)

    # --------------------------------------------------------------- utility

    def aggregate_utilities(self) -> List[AggregateUtility]:
        """Utility of every aggregate, flow-weighted across its bundles.

        A bundle's utility is the utility of one of its flows: the bandwidth
        component evaluated at the per-flow rate times the delay component
        evaluated at the bundle's path delay.  The model run rolled these up
        when it built the result; :meth:`network_utility`,
        :meth:`class_utility` and :meth:`per_class_utilities` share them.
        Each call returns a fresh list, so callers may mutate it.
        """
        return list(self._aggregate_utilities)

    def network_utility(self, weights: Optional[PriorityWeights] = None) -> float:
        """The paper's "total average" utility (optionally priority-weighted)."""
        return network_utility(self.aggregate_utilities(), weights)

    def class_utility(self, traffic_class: str) -> Optional[float]:
        """Flow-weighted utility of one traffic class (e.g. the large flows)."""
        return class_utility(self.aggregate_utilities(), traffic_class)

    def per_class_utilities(self) -> Dict[str, float]:
        """Flow-weighted utility of every class present."""
        return per_class_utilities(self.aggregate_utilities())

    # ----------------------------------------------------------- utilization

    def total_utilization(self) -> float:
        """Total carried load divided by total capacity **of used links** (Figure 3–5).

        The paper's footnote 1 restricts "total network capacity" to links
        that carry traffic, and that is what makes the "demanded" curve
        decrease as the optimizer brings more links into play.
        """
        used = self.link_loads_bps > 0.0
        if not np.any(used):
            return 0.0
        return float(self.link_loads_bps[used].sum() / self._capacities[used].sum())

    def demanded_utilization(self) -> float:
        """Total demand divided by total capacity of used links (Figure 3–5, footnote 2)."""
        used = self.link_loads_bps > 0.0
        if not np.any(used):
            return 0.0
        return float(self.link_demands_bps[used].sum() / self._capacities[used].sum())

    def max_utilization(self) -> float:
        """The highest per-link utilization in the network."""
        if self.network.num_links == 0:
            return 0.0
        return float(np.max(self.link_loads_bps / self._capacities))

    def link_utilizations(self) -> Dict[LinkId, float]:
        """Utilization of every link, keyed by link id."""
        return {
            link.link_id: float(self.link_loads_bps[link.index] / link.capacity_bps)
            for link in self.network.links
        }

    # -------------------------------------------------------------- demand

    @property
    def total_demand_bps(self) -> float:
        """Total demand across all bundles."""
        return float(sum(outcome.bundle.total_demand_bps for outcome in self.outcomes))

    @property
    def total_carried_bps(self) -> float:
        """Total rate actually achieved across all bundles."""
        return float(sum(outcome.rate_bps for outcome in self.outcomes))

    @property
    def num_satisfied_bundles(self) -> int:
        """Number of bundles whose demand was fully met."""
        return sum(1 for outcome in self.outcomes if outcome.satisfied)

    def flow_delays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return (delays, flow counts) across bundles, for delay CDFs (Figure 6)."""
        delays = np.asarray(
            [outcome.bundle.path_delay(self.network) for outcome in self.outcomes],
            dtype=float,
        )
        counts = np.asarray(
            [outcome.bundle.num_flows for outcome in self.outcomes], dtype=float
        )
        return delays, counts

    def __repr__(self) -> str:
        return (
            f"TrafficModelResult(bundles={len(self.outcomes)}, "
            f"congested_links={len(self.congested_links)}, "
            f"utility={self.network_utility():.3f})"
        )

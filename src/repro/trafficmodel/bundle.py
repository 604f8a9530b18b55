"""Bundles: flows of one aggregate pinned to one path.

Paper §2.3: *"In practice we don't deal with individual flows, but with
bundles of flows that share the same entry point, exit point, traffic class,
and path through the network."*  A :class:`Bundle` is that unit — the traffic
model computes one achieved rate per bundle, and the optimizer moves flows
between bundles of the same aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.exceptions import TrafficModelError
from repro.topology.graph import Network, Path
from repro.traffic.aggregate import Aggregate, AggregateKey


@dataclass(frozen=True)
class Bundle:
    """A group of flows from one aggregate that share one path.

    Parameters
    ----------
    aggregate:
        The aggregate the flows belong to.
    path:
        The path the flows are routed over (must start at the aggregate's
        source and end at its destination).
    num_flows:
        How many of the aggregate's flows are in this bundle.  The bundles of
        one aggregate partition its flows, which the allocation state
        enforces; an individual bundle only checks positivity.
    """

    aggregate: Aggregate
    path: Path
    num_flows: int

    def __post_init__(self) -> None:
        if self.num_flows <= 0:
            raise TrafficModelError(
                f"bundle must contain a positive number of flows, got {self.num_flows!r}"
            )
        check_bundle_path(self.aggregate, self.path)

    @property
    def aggregate_key(self) -> AggregateKey:
        """Key of the owning aggregate."""
        return self.aggregate.key

    @property
    def per_flow_demand_bps(self) -> float:
        """Demand of one flow in the bundle (the utility function's peak)."""
        return self.aggregate.per_flow_demand_bps

    @property
    def total_demand_bps(self) -> float:
        """Demand of the whole bundle."""
        return self.num_flows * self.per_flow_demand_bps

    def path_delay(self, network: Network) -> float:
        """One-way propagation delay of the bundle's path in seconds."""
        return network.path_delay(self.path)

    def rtt(self, network: Network) -> float:
        """Round-trip time of the bundle's path in seconds (assumed symmetric)."""
        return network.path_rtt(self.path)

    def with_num_flows(self, num_flows: int) -> "Bundle":
        """Return a copy carrying a different number of flows."""
        return Bundle(aggregate=self.aggregate, path=self.path, num_flows=num_flows)

    def uses_link(self, link_id: Tuple[str, str]) -> bool:
        """True when the bundle's path traverses the directed link *link_id*."""
        return link_id in zip(self.path, self.path[1:])

    def __repr__(self) -> str:
        return (
            f"Bundle({self.aggregate.source!r}->{self.aggregate.destination!r}, "
            f"class={self.aggregate.traffic_class!r}, flows={self.num_flows}, "
            f"hops={len(self.path) - 1})"
        )


def check_bundle_path(aggregate: Aggregate, path: Path) -> None:
    """Raise :class:`TrafficModelError` unless *path* is a simple path from
    the aggregate's source to its destination."""
    if len(path) < 2:
        raise TrafficModelError(f"bundle path must have at least two nodes: {path!r}")
    if len(set(path)) != len(path):
        # A non-simple path would cross some link more than once and the
        # traffic model's incidence accounting (and the RTT of the path)
        # would no longer describe a deployable route.
        raise TrafficModelError(f"bundle path visits a node twice: {path!r}")
    if path[0] != aggregate.source:
        raise TrafficModelError(
            f"bundle path starts at {path[0]!r} but the aggregate's "
            f"source is {aggregate.source!r}"
        )
    if path[-1] != aggregate.destination:
        raise TrafficModelError(
            f"bundle path ends at {path[-1]!r} but the aggregate's "
            f"destination is {aggregate.destination!r}"
        )

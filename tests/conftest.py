"""Shared fixtures for the FUBAR reproduction test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings as hypothesis_settings

# Fixed, derandomized hypothesis profile so property suites explore the same
# examples on every CI run (select with HYPOTHESIS_PROFILE=ci).  The default
# profile keeps local runs exploratory.
hypothesis_settings.register_profile(
    "ci", derandomize=True, deadline=None, print_blob=True
)
hypothesis_settings.load_profile(
    os.environ.get("HYPOTHESIS_PROFILE", "default")
)

from repro.topology.builders import (
    dumbbell_topology,
    line_topology,
    ring_topology,
    triangle_topology,
)
from repro.topology.hurricane_electric import reduced_core
from repro.traffic.aggregate import Aggregate
from repro.traffic.classes import BULK, LARGE_TRANSFER, REAL_TIME, default_traffic_classes
from repro.traffic.matrix import TrafficMatrix
from repro.units import kbps, mbps, ms
from repro.utility.components import BandwidthComponent, DelayComponent
from repro.utility.functions import UtilityFunction


@pytest.fixture
def rng():
    """A deterministic numpy random generator."""
    return np.random.default_rng(12345)


@pytest.fixture
def triangle():
    """Three nodes: a short direct A-B link and a longer detour via C."""
    return triangle_topology(capacity_bps=mbps(100), short_delay_s=ms(5), long_delay_s=ms(20))


@pytest.fixture
def ring6():
    """A six-node ring (two disjoint paths between any pair)."""
    return ring_topology(6, capacity_bps=mbps(100), delay_s=ms(5))


@pytest.fixture
def line3():
    """A three-node chain."""
    return line_topology(3, capacity_bps=mbps(100), delay_s=ms(5))


@pytest.fixture
def dumbbell():
    """Two leaf pairs joined by a single bottleneck link."""
    return dumbbell_topology(
        left_leaves=2, right_leaves=2, bottleneck_capacity_bps=mbps(50), delay_s=ms(5)
    )


@pytest.fixture
def small_core():
    """A 6-POP induced subgraph of the Hurricane Electric core."""
    return reduced_core(6, capacity_bps=mbps(100))


@pytest.fixture
def classes():
    """The default traffic classes."""
    return default_traffic_classes()


@pytest.fixture
def bulk_utility(classes):
    """The bulk-transfer utility preset."""
    return classes[BULK].utility


@pytest.fixture
def real_time_class_utility(classes):
    """The real-time utility preset."""
    return classes[REAL_TIME].utility


@pytest.fixture
def simple_utility():
    """A basic utility: 100 kbps demand, 500 ms delay cut-off."""
    return UtilityFunction(
        BandwidthComponent(kbps(100)), DelayComponent(ms(500)), name="test"
    )


def make_aggregate(
    source: str,
    destination: str,
    num_flows: int = 10,
    demand_bps: float = kbps(100),
    delay_cutoff_s: float = ms(500),
    traffic_class: str = BULK,
) -> Aggregate:
    """Build an aggregate with a simple utility function (test helper).

    The delay component gets a 20 % tolerance so that short intra-topology
    paths score a clean 1.0 when their demand is met — keeps the arithmetic
    in optimizer tests readable.
    """
    utility = UtilityFunction(
        BandwidthComponent(demand_bps),
        DelayComponent(delay_cutoff_s, tolerance_s=0.2 * delay_cutoff_s),
        name=traffic_class,
    )
    return Aggregate(
        source=source,
        destination=destination,
        traffic_class=traffic_class,
        num_flows=num_flows,
        utility=utility,
    )


def crossed_links(state):
    """Every directed link some bundle of *state* crosses (test helper)."""
    return {
        link for bundle in state.bundles() for link in zip(bundle.path, bundle.path[1:])
    }


@pytest.fixture
def make_aggregate_factory():
    """Expose :func:`make_aggregate` as a fixture for tests that need many aggregates."""
    return make_aggregate


@pytest.fixture
def triangle_traffic(triangle):
    """A single congested aggregate on the triangle topology.

    600 flows of 300 kbps each demand 180 Mbps from A to B, more than the
    100 Mbps direct link but less than the 200 Mbps available over both
    paths, so FUBAR can fully satisfy it by splitting.
    """
    return TrafficMatrix(
        [make_aggregate("A", "B", num_flows=600, demand_bps=kbps(300))],
        name="triangle-congested",
    )


@pytest.fixture
def dumbbell_traffic(dumbbell):
    """Two aggregates sharing the dumbbell bottleneck."""
    return TrafficMatrix(
        [
            make_aggregate("L0", "R0", num_flows=200, demand_bps=kbps(200)),
            make_aggregate("L1", "R1", num_flows=200, demand_bps=kbps(200)),
        ],
        name="dumbbell-shared",
    )

"""Micro-benchmark of the traffic model (the optimizer's hot loop).

Every candidate move the optimizer considers is scored by the traffic
model, so the model's speed determines how large a network FUBAR can
optimize offline.  This benchmark times a single evaluation on a
shortest-path allocation of the full 31-POP core, the reference model's
evaluation of it, and the batched scoring of one step's candidate moves —
the work the optimizer repeats hundreds to thousands of times per
optimization.
"""

import numpy as np
import pytest

from benchmarks.bench_scale import build_scoring_workload, score_batched
from benchmarks.conftest import print_header
from repro.core.config import FubarConfig
from repro.core.state import AllocationState
from repro.topology.hurricane_electric import provisioned_core
from repro.traffic.generators import paper_traffic_matrix
from repro.trafficmodel.waterfill import TrafficModel, reference_evaluate


@pytest.fixture(scope="module")
def full_core_bundles():
    network = provisioned_core()
    matrix = paper_traffic_matrix(network, seed=0)
    state = AllocationState.initial(network, matrix)
    return network, state.bundles()


def test_traffic_model_evaluation_full_core(benchmark, full_core_bundles):
    network, bundles = full_core_bundles
    model = TrafficModel(network)

    result = benchmark(model.evaluate, bundles)

    print_header("Traffic model micro-benchmark (31-POP core, all-pairs shortest paths)")
    print(
        f"bundles: {len(bundles)}, links: {network.num_links}, "
        f"congested links: {len(result.congested_links)}, "
        f"network utility: {result.network_utility():.4f}"
    )
    assert len(result.outcomes) == len(bundles)


def test_reference_model_evaluation_full_core(benchmark, full_core_bundles):
    """The pre-compiled-engine baseline: full rebuild on every evaluation."""
    network, bundles = full_core_bundles

    result = benchmark(reference_evaluate, network, bundles)

    print_header("Reference (event-driven, full rebuild) micro-benchmark")
    print(f"bundles: {len(bundles)}, network utility: {result.network_utility():.4f}")
    assert len(result.outcomes) == len(bundles)


def test_candidate_scoring_full_core(benchmark, full_core_bundles):
    """The optimizer's hot path: score every candidate move of one hot step
    (the first congested link with movable bundles) in one batched pass."""
    network, bundles = full_core_bundles
    workload = build_scoring_workload(
        network, paper_traffic_matrix(network, seed=0), FubarConfig()
    )

    scores = benchmark(score_batched, workload)

    # Equivalence gate: the compiled engine must match the reference model.
    reference = reference_evaluate(network, bundles)
    result = workload["model"].evaluate(bundles)
    rates_ref = np.asarray([o.rate_bps for o in reference.outcomes])
    rates_new = np.asarray([o.rate_bps for o in result.outcomes])
    np.testing.assert_allclose(rates_new, rates_ref, rtol=1e-9, atol=1e-6)
    assert all(
        a.satisfied == b.satisfied and a.bottleneck_link == b.bottleneck_link
        for a, b in zip(reference.outcomes, result.outcomes)
    )

    print_header("Batched candidate scorer (one hot step) micro-benchmark")
    print(
        f"bundles: {len(bundles)}, candidates: {len(scores)}, "
        f"best candidate score: {max(scores):.4f}"
    )


def test_shortest_path_allocation_build_full_core(benchmark):
    network = provisioned_core()
    matrix = paper_traffic_matrix(network, seed=0)

    state = benchmark(AllocationState.initial, network, matrix)

    print_header("Initial allocation build (31-POP core)")
    print(f"aggregates: {len(state)}, bundles: {len(state.bundles())}")
    assert state.total_flows() == matrix.total_flows

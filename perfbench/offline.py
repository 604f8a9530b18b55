"""The closed-loop offline-planner workload ``he31-paper``.

One op is one cold ``Fubar(network, config).optimize(matrix)``: a fresh
controller with no warm caches, on inputs built in set-up from the seed.
One client issues the ops back to back.  The op list is fixed by the seed
and the run length alone, never by a timer, so a run's work (and its
utility) is the same on every run of the same code and seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable, List, Tuple

import numpy as np

from repro.core.config import FubarConfig
from repro.core.controller import Fubar, FubarPlan
from repro.experiments.scenarios import build_paper_scenario
from repro.topology.graph import Network
from repro.traffic.matrix import TrafficMatrix
from repro.trafficmodel.waterfill import reference_evaluate

#: Optimizer steps per he31-paper op.  Full convergence takes ~500 steps
#: (minutes); a fixed small cap times the per-step cost at paper scale.
HE31_MAX_STEPS = 4

#: Nominal he31-paper op time on a 2-core host; sizes the op list only.
HE31_NOMINAL_OP_S = 2

#: The relative tolerance the engine is held to against reference_evaluate
#: (the test suite's RATE_RTOL).
UTILITY_RTOL = 1e-9


@dataclass(frozen=True)
class OfflineOp:
    """One planning op: its inputs and a label for reports."""

    label: str
    network: Network
    config: FubarConfig
    matrix: TrafficMatrix


def he31_ops(seed: int, seconds: int) -> List[OfflineOp]:
    """Full-scale HE-31 paper matrices, alternating 100 and 75 Mbps links.

    Consecutive op pairs share one matrix seed drawn from *seed*: the paper
    keeps the matrix fixed and changes only link capacity between regimes.
    """
    count = max(3, seconds // HE31_NOMINAL_OP_S)
    rng = np.random.default_rng(seed)
    matrix_seeds = rng.integers(0, 2**31 - 1, size=math.ceil(count / 2))
    ops = []
    for index in range(count):
        provisioned = index % 2 == 0
        matrix_seed = int(matrix_seeds[index // 2])
        scenario = build_paper_scenario(
            provisioned=provisioned, seed=matrix_seed, num_pops=31
        )
        ops.append(
            OfflineOp(
                label=f"he31-{'100' if provisioned else '75'}mbps-tm{matrix_seed}",
                network=scenario.network,
                config=replace(scenario.fubar_config, max_steps=HE31_MAX_STEPS),
                matrix=scenario.traffic_matrix,
            )
        )
    return ops


def run_op(index: int, op: OfflineOp) -> FubarPlan:
    """The timed op: one cold optimization."""
    return Fubar(op.network, op.config).optimize(op.matrix)


def check_plan(op: OfflineOp, plan: FubarPlan) -> List[str]:
    """Independent checks of one plan; returns the failures found.

    * the plan's utility matches the reference traffic model on its bundles;
    * each aggregate's split flows sum to its flow count;
    * every path is a simple path over existing links between the
      aggregate's endpoints.
    """
    failures: List[str] = []
    bundles = plan.result.state.bundles()
    reference = reference_evaluate(op.network, bundles).network_utility()
    if not math.isclose(plan.network_utility, reference, rel_tol=UTILITY_RTOL):
        failures.append(
            f"{op.label}: utility {plan.network_utility!r} != reference {reference!r}"
        )
    routing = plan.routing
    for aggregate in op.matrix:
        if aggregate.key not in routing:
            failures.append(f"{op.label}: aggregate {aggregate.key!r} has no route")
            continue
        splits = routing.route_of(aggregate.key).splits
        routed = sum(split.num_flows for split in splits)
        if routed != aggregate.num_flows:
            failures.append(
                f"{op.label}: {aggregate.key!r} routes {routed} of {aggregate.num_flows} flows"
            )
        for split in splits:
            path = split.path
            simple = len(set(path)) == len(path)
            ends = path[0] == aggregate.source and path[-1] == aggregate.destination
            linked = all(op.network.has_link(a, b) for a, b in zip(path, path[1:]))
            if not (simple and ends and linked):
                failures.append(f"{op.label}: invalid path {path!r} for {aggregate.key!r}")
    return failures


def run_ops(
    ops: List[OfflineOp], runner: Callable[[int, OfflineOp], FubarPlan]
) -> Tuple[List[float], List[float], List[List[str]]]:
    """Run every op back to back through *runner*, checking each plan.

    Each plan is checked right after its op, outside the timed region, and
    then dropped, so no finished plan stays alive while later ops run.
    Returns each op's latency in seconds, utility and check failures.
    """
    latencies: List[float] = []
    utilities: List[float] = []
    failures: List[List[str]] = []
    for index, op in enumerate(ops):
        started = time.perf_counter()
        plan = runner(index, op)
        latencies.append(time.perf_counter() - started)
        failures.append(check_plan(op, plan))
        utilities.append(plan.network_utility)
        del plan
    return latencies, utilities, failures

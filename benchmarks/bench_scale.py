"""Scaling benchmark — the candidate scorer's cost per move vs topology size.

The optimizer's inner loop scores every candidate move of a congested link;
at internet scale that scoring dominates wall clock.  This benchmark builds
the hot-path workload exactly as :func:`repro.core.step._best_move` does —
one compiled base and the step's list of candidate moves — and times one
:class:`~repro.trafficmodel.compiled.BatchedCandidateScorer` scoring it, as
the optimizer does, on tiered hierarchical topologies of increasing size.
The timed region holds the scorer's whole call, each move's resolution
against the base included.

The headline is the scorer's *calibrated* milliseconds per scored
candidate: its median wall clock per candidate divided by the median time
of :func:`benchmarks.conftest.calibration_kernel`, timed alternately in the
same process, so the record moves with the code more than with the host.
Lower is better.

Every score must be *bitwise* the network utility of a full evaluation of
the moved state (the oracle ``tests/test_batched_scorer.py`` holds the
scorer to), so the benchmark hard-fails on any score drift — the recorded
``drift`` is the count of candidates whose scores differ at all, and must
be zero.  Regenerate the committed record with:

    PYTHONPATH=src python -m benchmarks.bench_scale --output BENCH_scale.json

The pytest entry point is the CI bench-smoke scale gate: zero drift on the
200-node tiered seed.  Timing is recorded, not gated there; the perf budget
gates the committed record.
"""

from __future__ import annotations

import argparse
import json
import platform
from pathlib import Path
from typing import Dict, List, Sequence

from benchmarks.conftest import BENCH_SEED, calibrated_ms, print_header, run_once
from repro.core.config import FubarConfig
from repro.core.state import AllocationState, build_path_sets
from repro.core.step import _candidate_moves
from repro.experiments.tiered import build_tiered_scenario
from repro.metrics.reporting import format_table
from repro.paths.generator import PathGenerator
from repro.topology.graph import Network
from repro.traffic.matrix import TrafficMatrix
from repro.trafficmodel.compiled import BatchedCandidateScorer
from repro.trafficmodel.waterfill import TrafficModel

#: Default location of the scaling benchmark record (repo root).
BENCH_JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_scale.json"

#: Schema version of BENCH_scale.json.
BENCH_SCHEMA = 2

#: Node counts measured by default (all tiered-continental, one seed).
#: Smaller tiered instances are well provisioned — congested links exist but
#: their bundles have no alternative paths worth testing — so the curve
#: starts where candidate scoring actually has work to batch.
DEFAULT_NODE_COUNTS = (200, 400, 800)

#: The CI drift gate's topology size.
GATE_NODE_COUNT = 200


def build_scoring_workload(
    network: Network, traffic_matrix: TrafficMatrix, config: FubarConfig
) -> Dict:
    """The hot-path inputs of one optimizer step.

    Mirrors ``_best_move``: evaluate the initial allocation and take the
    candidate moves of the first congested link that yields any (small
    topologies can have congested links whose bundles have nowhere to go).
    """
    generator = PathGenerator(network)
    state = AllocationState.initial(network, traffic_matrix, generator)
    model = TrafficModel(network)
    result = model.evaluate(state.bundles())
    path_sets = build_path_sets(network, state)
    for link_id in result.congested_links:
        moves = list(
            _candidate_moves(link_id, path_sets, generator, config, result, 0)
        )
        if moves:
            break
    else:
        raise RuntimeError(
            f"{network.name} yields no candidate moves on any congested link; "
            "pick a different seed"
        )
    return {
        "weights": config.priority_weights,
        "model": model,
        "state": state,
        "compiled_base": result.compiled,
        "moves": moves,
    }


def score_batched(workload: Dict) -> List[float]:
    """Score every candidate as the optimizer does: one fresh scorer."""
    scorer = BatchedCandidateScorer(
        workload["model"], workload["compiled_base"], workload["weights"]
    )
    return scorer.score(workload["moves"])


def moved_state_scores(workload: Dict) -> List[float]:
    """The oracle: each candidate's network utility from a full evaluation
    of the moved state."""
    model, state, weights = workload["model"], workload["state"], workload["weights"]
    return [
        model.evaluate(state.with_move(*move).bundles()).network_utility(weights)
        for move in workload["moves"]
    ]


def measure_scoring(workload: Dict) -> Dict:
    """Check the scorer against the oracle and time it, calibrated.

    ``drift`` counts the candidates whose scores differ from the oracle at
    all (bitwise).
    """
    num_candidates = len(workload["moves"])
    scores = score_batched(workload)
    drift = sum(1 for a, b in zip(scores, moved_state_scores(workload)) if a != b)
    scorer_ms, kernel_ms = calibrated_ms(lambda: score_batched(workload))
    ms_per_candidate = scorer_ms / num_candidates
    return {
        "num_candidates": num_candidates,
        "scorer_ms": scorer_ms,
        "ms_per_candidate": ms_per_candidate,
        "calibration_ms": kernel_ms,
        "calibrated_ms_per_candidate": ms_per_candidate / kernel_ms,
        "drift": drift,
    }


def measure_hot_path(num_nodes: int, seed: int = BENCH_SEED) -> Dict:
    """Score one tiered topology's hot step, timed and checked for drift."""
    scenario = build_tiered_scenario(
        size="continental", num_nodes=num_nodes, seed=seed, max_steps=6
    )
    network = scenario.network
    workload = build_scoring_workload(
        network, scenario.traffic_matrix, scenario.fubar_config
    )
    return {
        "num_nodes": num_nodes,
        "actual_nodes": len(network.node_names),
        "num_links": len(network.links),
        "seed": seed,
        **measure_scoring(workload),
    }


def measure_scale(
    node_counts: Sequence[int] = DEFAULT_NODE_COUNTS, seed: int = BENCH_SEED
) -> Dict:
    """The full BENCH_scale.json record: scorer cost vs node count."""
    return {
        "schema": BENCH_SCHEMA,
        "seed": seed,
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "points": [measure_hot_path(n, seed=seed) for n in node_counts],
    }


def _print_record(record: Dict) -> None:
    print_header("Batched candidate scoring vs topology size (tiered)")
    rows = [
        (
            point["actual_nodes"],
            point["num_links"],
            point["num_candidates"],
            f"{point['ms_per_candidate']:.3f}",
            f"{point['calibration_ms']:.2f}",
            f"{point['calibrated_ms_per_candidate']:.4f}",
            point["drift"],
        )
        for point in record["points"]
    ]
    print(
        format_table(
            ("nodes", "links", "cands", "ms/cand", "kernel ms", "calibrated", "drift"),
            rows,
        )
    )


# ------------------------------------------------------------------- pytest


def test_batched_scorer_scale_gate(benchmark):
    """CI bench-smoke gate: zero drift from the moved-state oracle at 200
    nodes.  Drift is a hard zero; the timing is printed, not gated."""
    point = run_once(benchmark, measure_hot_path, GATE_NODE_COUNT, seed=BENCH_SEED)
    _print_record({"points": [point]})
    assert point["drift"] == 0, (
        f"batched scorer drifted from the moved-state oracle on "
        f"{point['drift']} candidates"
    )


# -------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure the candidate scorer's cost and write BENCH_scale.json"
    )
    parser.add_argument(
        "--nodes",
        type=int,
        nargs="+",
        default=list(DEFAULT_NODE_COUNTS),
        help="tiered-continental node counts to measure",
    )
    parser.add_argument("--seed", type=int, default=BENCH_SEED)
    parser.add_argument(
        "--output",
        type=Path,
        default=BENCH_JSON_PATH,
        help=f"where to write the JSON record (default {BENCH_JSON_PATH})",
    )
    args = parser.parse_args(argv)

    record = measure_scale(args.nodes, seed=args.seed)
    _print_record(record)
    for point in record["points"]:
        if point["drift"]:
            print(f"\nDRIFT at {point['num_nodes']} nodes — record not written")
            return 1
    args.output.write_text(json.dumps(record, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Experiment E8 — §3 "Running time", plus the candidate-scoring benchmark.

The paper reports that the provisioned case converges in under a minute and
the underprovisioned case in about five minutes (single-threaded Java,
1.3 GHz Core i5).  Absolute numbers are not comparable with a pure-Python
reimplementation on different hardware and (by default) a reduced topology;
the property that carries over is the *relationship*: the underprovisioned
case needs more steps/time because the optimizer keeps spreading traffic over
more lightly-congested links before giving up.

This module additionally times the optimizer's hot path on the same
scenario, and can write the result (including the optimizer trajectory) to
``BENCH_running_time.json``:

    PYTHONPATH=src python -m benchmarks.bench_running_time \
        --num-pops 31 --max-steps 6 --output BENCH_running_time.json

The headline is the candidate scorer's calibrated milliseconds per scored
candidate on one hot step — the first congested link of the shortest-path
allocation, built by :func:`benchmarks.bench_scale.build_scoring_workload`
— lower is better: its median wall clock per candidate divided by the
median time of :func:`benchmarks.conftest.calibration_kernel`, timed
alternately in the same process.  The optimizer run's seconds are recorded
raw and calibrated, not gated.  The drift gates pin the engine three ways:
every candidate's score equals the network utility of a full evaluation of
its moved state bit for bit, the shortest-path allocation evaluates as
``reference_evaluate`` does, and so does the optimizer's final plan.  The
pytest entry points run the same measurement at reduced scale, which is
what the CI benchmark smoke job checks.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, Optional

from benchmarks.bench_scale import build_scoring_workload, measure_scoring
from benchmarks.conftest import BENCH_SEED, print_header, run_once
from repro.core.optimizer import FubarOptimizer
from repro.experiments.figures import run_running_time
from repro.experiments.scenarios import provisioned_scenario
from repro.metrics.reporting import format_table
from repro.trafficmodel.waterfill import reference_evaluate

#: Default location of the running-time benchmark record (repo root).
BENCH_JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_running_time.json"

#: Schema version of BENCH_running_time.json.
BENCH_SCHEMA = 4

#: Relative tolerance for the single-evaluation drift gate: the compiled
#: engine and the reference model evaluate the same allocation.
DRIFT_RTOL = 1e-6

#: Relative tolerance for the final-plan drift gate: the optimizer's reported
#: utility against ``reference_evaluate`` on the plan's own bundles.
FINAL_DRIFT_RTOL = 1e-9


def measure_running_time(
    seed: int = BENCH_SEED,
    max_steps: Optional[int] = 6,
    **scenario_kwargs,
) -> Dict:
    """Run the optimizer and time the candidate scorer on one hot step.

    Runs the provisioned scenario once under the step budget, pins its final
    plan to the reference model, and scores every candidate of the
    shortest-path allocation's first congested link with movable bundles,
    checked against each candidate's moved state and timed calibrated.
    """
    scenario = provisioned_scenario(seed=seed, **scenario_kwargs)
    network = scenario.network
    config = replace(scenario.fubar_config, max_steps=max_steps)
    optimizer = FubarOptimizer(network, scenario.traffic_matrix, config=config)
    started = time.perf_counter()
    result = optimizer.run()
    wall = time.perf_counter() - started
    evaluations = result.model_evaluations

    workload = build_scoring_workload(network, scenario.traffic_matrix, config)
    scoring = measure_scoring(workload)
    bundles = workload["state"].bundles()
    return {
        "schema": BENCH_SCHEMA,
        "scenario": dict(scenario.summary()),
        "seed": seed,
        "max_steps": max_steps,
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "optimizer": {
            "wall_clock_s": wall,
            "calibrated_wall_clock": wall * 1e3 / scoring["calibration_ms"],
            "steps": result.num_steps,
            "model_evaluations": evaluations,
            "ms_per_evaluation": wall / evaluations * 1e3 if evaluations else None,
            "final_utility": result.network_utility,
            "termination": result.termination_reason,
            "trajectory": [point.as_dict() for point in result.trace],
        },
        "scoring": scoring,
        "drift": {
            "single_eval_utility_reference": reference_evaluate(
                network, bundles
            ).network_utility(),
            "single_eval_utility_compiled": workload["model"]
            .evaluate(bundles)
            .network_utility(),
            "final_utility_reference": reference_evaluate(
                network, result.state.bundles()
            ).network_utility(),
            "final_utility_compiled": result.network_utility,
        },
    }


def _assert_no_drift(record: Dict) -> None:
    assert record["scoring"]["drift"] == 0, (
        f"the candidate scorer drifted from the moved-state oracle on "
        f"{record['scoring']['drift']} candidates"
    )
    drift = record["drift"]
    assert abs(
        drift["single_eval_utility_reference"] - drift["single_eval_utility_compiled"]
    ) <= DRIFT_RTOL * max(abs(drift["single_eval_utility_reference"]), 1e-12), (
        "compiled engine drifted from the reference model on a single evaluation"
    )
    assert abs(
        drift["final_utility_reference"] - drift["final_utility_compiled"]
    ) <= FINAL_DRIFT_RTOL * max(abs(drift["final_utility_reference"]), 1e-12), (
        "the final plan's utility differs from reference_evaluate on its bundles"
    )


def _print_record(record: Dict) -> None:
    print_header("Optimizer run and candidate scoring")
    run = record["optimizer"]
    print(
        format_table(
            ("wall_s", "calibrated", "steps", "evals", "ms/eval", "utility"),
            [
                (
                    f"{run['wall_clock_s']:.2f}",
                    f"{run['calibrated_wall_clock']:.1f}",
                    run["steps"],
                    run["model_evaluations"],
                    f"{run['ms_per_evaluation']:.2f}" if run["ms_per_evaluation"] else "-",
                    f"{run['final_utility']:.4f}",
                )
            ],
        )
    )
    scoring = record["scoring"]
    print(
        f"\nscorer on one hot step: {scoring['num_candidates']} candidates, "
        f"{scoring['ms_per_candidate']:.3f} ms each "
        f"(kernel {scoring['calibration_ms']:.2f} ms, calibrated "
        f"{scoring['calibrated_ms_per_candidate']:.4f}), drift {scoring['drift']}"
    )


# ------------------------------------------------------------------- pytest


def test_running_time(benchmark):
    result = run_once(benchmark, run_running_time, seed=BENCH_SEED)

    summary = result.summary()
    print_header("Running time: provisioned vs underprovisioned")
    print(
        format_table(
            ("case", "wall_clock_s", "steps", "model_evaluations"),
            [
                (
                    "provisioned",
                    f"{summary['provisioned_wall_clock_s']:.2f}",
                    summary["provisioned_steps"],
                    result.provisioned.plan.result.model_evaluations,
                ),
                (
                    "underprovisioned",
                    f"{summary['underprovisioned_wall_clock_s']:.2f}",
                    summary["underprovisioned_steps"],
                    result.underprovisioned.plan.result.model_evaluations,
                ),
            ],
        )
    )
    print(f"\nunderprovisioned / provisioned wall-clock ratio: {summary['underprovisioned_slower_by']:.2f}x")

    assert summary["provisioned_wall_clock_s"] > 0.0
    assert summary["underprovisioned_steps"] >= 1


def test_scoring_and_equivalence(benchmark):
    """The CI smoke gate: every candidate of the hot step scores bitwise as
    its moved state, and the compiled engine matches ``reference_evaluate``.
    Timing is printed, not gated; the perf budget gates the full-scale
    record."""
    record = run_once(benchmark, measure_running_time, max_steps=4)
    _print_record(record)
    _assert_no_drift(record)


# -------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure the optimizer and scorer, write BENCH_running_time.json"
    )
    parser.add_argument(
        "--num-pops",
        type=int,
        default=None,
        help="POP count (defaults to the scenario default; 31 = paper scale)",
    )
    parser.add_argument("--seed", type=int, default=BENCH_SEED)
    parser.add_argument(
        "--max-steps",
        type=int,
        default=6,
        help="step budget of the optimizer run",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=BENCH_JSON_PATH,
        help=f"where to write the JSON record (default {BENCH_JSON_PATH})",
    )
    args = parser.parse_args(argv)

    kwargs = {}
    if args.num_pops is not None:
        kwargs["num_pops"] = args.num_pops
    record = measure_running_time(seed=args.seed, max_steps=args.max_steps, **kwargs)
    _print_record(record)
    _assert_no_drift(record)
    args.output.write_text(json.dumps(record, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

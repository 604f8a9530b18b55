"""Experiment E8 — §3 "Running time", plus the incremental-engine benchmark.

The paper reports that the provisioned case converges in under a minute and
the underprovisioned case in about five minutes (single-threaded Java,
1.3 GHz Core i5).  Absolute numbers are not comparable with a pure-Python
reimplementation on different hardware and (by default) a reduced topology;
the property that carries over is the *relationship*: the underprovisioned
case needs more steps/time because the optimizer keeps spreading traffic over
more lightly-congested links before giving up.

This module additionally times the compiled/incremental traffic-model engine
on the same scenario, and can write the result (including the optimizer
trajectory) to ``BENCH_running_time.json``:

    PYTHONPATH=src python -m benchmarks.bench_running_time \
        --num-pops 31 --max-steps 6 --output BENCH_running_time.json

The headline number is a single-evaluation microbenchmark: the event-driven
:func:`~repro.trafficmodel.waterfill.reference_evaluate` against one patched
evaluation of the compiled engine (what scoring one candidate move costs),
each timed best of 5.  The drift gate pins the compiled engine to
``reference_evaluate`` twice: on the shortest-path allocation, and on the
final plan of the optimizer run.  The pytest entry points run the same
measurement at reduced scale, which is what the CI benchmark smoke job
checks.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, TypeVar

from benchmarks.conftest import BENCH_SEED, print_header, run_once
from repro.core.optimizer import FubarOptimizer
from repro.core.state import AllocationState
from repro.experiments.figures import run_running_time
from repro.experiments.scenarios import provisioned_scenario
from repro.metrics.reporting import format_table
from repro.trafficmodel.compiled import CompiledTrafficModel
from repro.trafficmodel.waterfill import reference_evaluate

#: Default location of the running-time benchmark record (repo root).
BENCH_JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_running_time.json"

#: Schema version of BENCH_running_time.json.
BENCH_SCHEMA = 2

#: Relative tolerance for the single-evaluation drift gate: the compiled
#: engine and the reference model evaluate the same allocation.
DRIFT_RTOL = 1e-6

#: Relative tolerance for the final-plan drift gate: the optimizer's reported
#: utility against ``reference_evaluate`` on the plan's own bundles.
FINAL_DRIFT_RTOL = 1e-9

#: Repetitions of each microbenchmark evaluation (the best one counts).
MICROBENCH_REPEATS = 5

_T = TypeVar("_T")


def _best_of(func: Callable[[], _T]) -> Tuple[float, _T]:
    """Best wall clock (ms) of ``MICROBENCH_REPEATS`` calls of *func*, and its
    result."""
    best = float("inf")
    for _ in range(MICROBENCH_REPEATS):
        started = time.perf_counter()
        value = func()
        best = min(best, (time.perf_counter() - started) * 1e3)
    return best, value


def measure_incremental_speedup(
    seed: int = BENCH_SEED,
    max_steps: Optional[int] = 6,
    **scenario_kwargs,
) -> Dict:
    """Time the compiled engine against ``reference_evaluate``.

    Runs the provisioned scenario once under the step budget, pins its final
    plan to the reference model, and times one evaluation of the
    shortest-path allocation three ways: by the reference model, by a full
    compiled evaluation, and as a one-bundle patch of the compiled base.
    """
    scenario = provisioned_scenario(seed=seed, **scenario_kwargs)
    network = scenario.network
    config = replace(scenario.fubar_config, max_steps=max_steps)
    optimizer = FubarOptimizer(network, scenario.traffic_matrix, config=config)
    started = time.perf_counter()
    result = optimizer.run()
    wall = time.perf_counter() - started
    evaluations = result.model_evaluations

    bundles = AllocationState.initial(network, scenario.traffic_matrix).bundles()
    reference_eval_ms, reference_result = _best_of(
        lambda: reference_evaluate(network, bundles)
    )
    engine = CompiledTrafficModel(network)
    engine.evaluate(bundles)  # warm the row cache
    compiled_eval_ms, compiled_result = _best_of(lambda: engine.evaluate(bundles))
    compiled_base = engine.compile(bundles)
    sample = bundles[0]
    patch = {
        (sample.aggregate_key, sample.path): sample.with_num_flows(
            max(1, sample.num_flows // 2)
        )
    }

    def patched_evaluation() -> float:
        patched = engine.compile_patched(compiled_base, patch)
        return engine.weighted_utility(patched, engine.solve(patched).rates)

    patched_eval_ms, _ = _best_of(patched_evaluation)

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
            "steps": result.num_steps,
            "model_evaluations": evaluations,
            "ms_per_evaluation": wall / evaluations * 1e3 if evaluations else None,
            "evaluations_per_s": evaluations / wall if wall > 0 else None,
            "final_utility": result.network_utility,
            "termination": result.termination_reason,
            "trajectory": [point.as_dict() for point in result.trace],
        },
        "microbench": {
            "repeats": MICROBENCH_REPEATS,
            "reference_eval_ms": reference_eval_ms,
            "compiled_full_eval_ms": compiled_eval_ms,
            "compiled_patched_eval_ms": patched_eval_ms,
            "full_vs_incremental_speedup": (
                reference_eval_ms / patched_eval_ms if patched_eval_ms > 0 else None
            ),
        },
        "drift": {
            "single_eval_utility_reference": reference_result.network_utility(),
            "single_eval_utility_compiled": compiled_result.network_utility(),
            "final_utility_reference": reference_evaluate(
                network, result.state.bundles()
            ).network_utility(),
            "final_utility_compiled": result.network_utility,
        },
    }


def _assert_no_drift(record: Dict) -> None:
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


def _print_speedup(record: Dict) -> None:
    print_header("Compiled traffic-model engine vs reference_evaluate")
    run = record["optimizer"]
    print(
        format_table(
            ("wall_s", "steps", "evals", "ms/eval", "evals/s", "utility"),
            [
                (
                    f"{run['wall_clock_s']:.2f}",
                    run["steps"],
                    run["model_evaluations"],
                    f"{run['ms_per_evaluation']:.2f}" if run["ms_per_evaluation"] else "-",
                    f"{run['evaluations_per_s']:.0f}" if run["evaluations_per_s"] else "-",
                    f"{run['final_utility']:.4f}",
                )
            ],
        )
    )
    micro = record["microbench"]
    print(
        f"\nmicrobench (best of {micro['repeats']}): "
        f"reference {micro['reference_eval_ms']:.2f} ms, "
        f"compiled full {micro['compiled_full_eval_ms']:.2f} ms, "
        f"compiled patched {micro['compiled_patched_eval_ms']:.2f} ms "
        f"({micro['full_vs_incremental_speedup']:.1f}x full-vs-incremental)"
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


def test_incremental_engine_speedup_and_equivalence(benchmark):
    """The CI smoke gate: the compiled engine matches ``reference_evaluate``
    and a patched evaluation is not slower than a reference one.

    At the default reduced scale the absolute speedup is modest (smaller
    matrices shrink the reference model's disadvantage), so the hard gate is
    model equivalence; the full-scale number is recorded in
    BENCH_running_time.json.
    """
    record = run_once(benchmark, measure_incremental_speedup, max_steps=4)
    _print_speedup(record)
    _assert_no_drift(record)
    speedup = record["microbench"]["full_vs_incremental_speedup"]
    assert speedup is not None
    assert speedup > 0.8


# -------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure the incremental engine and write BENCH_running_time.json"
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
    record = measure_incremental_speedup(
        seed=args.seed, max_steps=args.max_steps, **kwargs
    )
    _print_speedup(record)
    _assert_no_drift(record)
    args.output.write_text(json.dumps(record, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

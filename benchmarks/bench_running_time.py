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
evaluation of the compiled engine (what scoring one candidate move costs).
The two arms are interleaved, one reference evaluation then a batch of ten
patched ones per pair, and the record reports the median per-pair ratio, so
host speed drifting during the run moves both arms of a pair together.  The
drift gate pins the compiled engine to
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
from statistics import median
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

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
BENCH_SCHEMA = 3

#: Relative tolerance for the single-evaluation drift gate: the compiled
#: engine and the reference model evaluate the same allocation.
DRIFT_RTOL = 1e-6

#: Relative tolerance for the final-plan drift gate: the optimizer's reported
#: utility against ``reference_evaluate`` on the plan's own bundles.
FINAL_DRIFT_RTOL = 1e-9

#: Interleaved microbenchmark pairs (the median per-pair ratio counts).
MICROBENCH_PAIRS = 15

#: Patched evaluations timed together in each pair: one takes only a few
#: milliseconds, too short to time alone against the reference's tens.
PATCHED_BATCH = 10

_T = TypeVar("_T")


def _timed_ms(func: Callable[[], _T], calls: int = 1) -> Tuple[float, _T]:
    """Mean wall clock (ms) of *calls* back-to-back calls of *func*, and the
    first call's result."""
    started = time.perf_counter()
    value = func()
    for _ in range(calls - 1):
        func()
    return (time.perf_counter() - started) * 1e3 / calls, value


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
    The reference and patched arms alternate pair by pair.
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
    engine = CompiledTrafficModel(network)
    engine.evaluate(bundles)  # warm the row cache
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

    reference_ms: List[float] = []
    patched_ms: List[float] = []
    full_ms: List[float] = []
    for _ in range(MICROBENCH_PAIRS):
        one_reference, reference_result = _timed_ms(
            lambda: reference_evaluate(network, bundles)
        )
        one_patched, _ = _timed_ms(patched_evaluation, PATCHED_BATCH)
        reference_ms.append(one_reference)
        patched_ms.append(one_patched)
    for _ in range(MICROBENCH_PAIRS):
        one_full, compiled_result = _timed_ms(lambda: engine.evaluate(bundles))
        full_ms.append(one_full)

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
            "pairs": MICROBENCH_PAIRS,
            "patched_batch": PATCHED_BATCH,
            "reference_eval_ms": median(reference_ms),
            "compiled_full_eval_ms": median(full_ms),
            "compiled_patched_eval_ms": median(patched_ms),
            "full_vs_incremental_speedup": median(
                ref / patched for ref, patched in zip(reference_ms, patched_ms)
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
        f"\nmicrobench (medians of {micro['pairs']} interleaved pairs): "
        f"reference {micro['reference_eval_ms']:.2f} ms, "
        f"compiled full {micro['compiled_full_eval_ms']:.2f} ms, "
        f"compiled patched {micro['compiled_patched_eval_ms']:.2f} ms "
        f"({micro['full_vs_incremental_speedup']:.1f}x full-vs-incremental, "
        "median per-pair ratio)"
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

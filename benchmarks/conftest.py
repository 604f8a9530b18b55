"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's figures (or an ablation) at
the scale selected by the ``FUBAR_FULL_SCALE`` environment variable — the
reduced 8-POP configuration by default, the paper's full 31-POP core when the
variable is set (see EXPERIMENTS.md).  Benchmarks print the same rows/series
the paper plots so the output can be compared side by side with the figures.
"""

from __future__ import annotations

import os
import time
from statistics import median
from typing import Callable, Tuple

import numpy as np
import pytest

#: Seed used by the single-run figure benchmarks.
BENCH_SEED = int(os.environ.get("FUBAR_BENCH_SEED", "1"))

#: Number of repeated runs used by the Figure 7 repeatability benchmark.
BENCH_FIG7_RUNS = int(os.environ.get("FUBAR_BENCH_FIG7_RUNS", "5"))


def run_once(benchmark, function, *args, **kwargs):
    """Run *function* exactly once under pytest-benchmark timing.

    The figure experiments are full optimizer runs (seconds each), so a
    single timed round keeps the suite's total wall-clock reasonable while
    still recording the runtime alongside the reproduced series.
    """
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


#: Timed repetitions of each side of :func:`calibrated_ms`.
CALIBRATION_REPS = 9


def calibration_kernel() -> float:
    """One fixed, seeded workload mixing numpy and Python; returns a checksum.

    It exercises what the optimizer's hot path spends its time on — sorts,
    prefix sums, bincounts, interpolation and fancy indexing over arrays of
    one to fifty thousand entries, many small array operations in a loop,
    and a Python loop over tuples and dicts — so a host that runs the
    optimizer slower also runs the kernel slower.  Timed records divide
    their wall clock by its median time in the same process
    (:func:`calibrated_ms`): a calibrated time is a count of kernel runs,
    comparable across hosts of different speed.
    """
    rng = np.random.default_rng(20240601)
    values = rng.random(50_000)
    order = np.argsort(values)
    prefix = np.cumsum(values[order].reshape(500, 100), axis=1)
    groups = rng.integers(0, 1_000, size=values.shape[0])
    sums = np.bincount(groups, weights=values, minlength=1_000)
    xs = np.linspace(0.0, 1.0, 64)
    curve = np.interp(values, xs, np.sqrt(xs))
    # Many small array operations, as the solver's event rounds run them.
    level = sums.copy()
    for _ in range(400):
        link = int(np.argmin(level))
        level[link] += prefix[link % 500, -1]
        level = np.minimum(level, sums * 2.0)
    table: dict = {}
    for index, value in enumerate(curve[:20_000].tolist()):
        key = (index % 97, index % 89)
        table[key] = table.get(key, 0.0) + value
    return float(level.sum() + sum(table.values()))


def calibrated_ms(func: Callable[[], object]) -> Tuple[float, float]:
    """Median wall clock (ms) of *func* and of :func:`calibration_kernel`.

    The two are timed alternately, :data:`CALIBRATION_REPS` times each, so
    host speed that drifts during the run moves both medians together; the
    first pass of each is a warm-up and is not timed.
    """
    func()
    calibration_kernel()
    func_ms, kernel_ms = [], []
    for _ in range(CALIBRATION_REPS):
        started = time.perf_counter()
        calibration_kernel()
        kernel_ms.append((time.perf_counter() - started) * 1e3)
        started = time.perf_counter()
        func()
        func_ms.append((time.perf_counter() - started) * 1e3)
    return median(func_ms), median(kernel_ms)


def print_header(title: str) -> None:
    """Print a banner separating one benchmark's output from the next."""
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)


def format_optional(value, spec: str = ".4f") -> str:
    """Format a possibly-None metric (e.g. the large-flow utility when a
    seed draws no large-transfer aggregates) as a dash instead of crashing."""
    return "-" if value is None else format(value, spec)


@pytest.fixture
def bench_seed():
    return BENCH_SEED

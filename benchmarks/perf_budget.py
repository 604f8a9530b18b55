"""CI perf budget — every committed BENCH record gated against a baseline.

Each benchmark in this package writes a ``BENCH_*.json`` record at the repo
root documenting its headline numbers.  Those records only help if CI
notices when they slide, so this module holds the registry of headline
metrics — one or two per record, with a per-metric tolerance — and compares
every committed record against the baselines stored in
``benchmarks/perf_baselines.json``:

* ``check`` (the CI entry point, also exposed as a pytest test) fails when
  any headline metric regresses past its tolerance, when a registered
  record or metric is missing, **and when a BENCH record exists that the
  registry does not cover** — a new benchmark must register its headline
  metric to land.
* ``refresh`` rewrites the baselines from the current records.  After an
  intentional perf change, regenerate the affected ``BENCH_*.json`` and
  run::

      PYTHONPATH=src python -m benchmarks.perf_budget refresh

  then commit both files; the diff documents the new expectation.

Tolerances are deliberately loose (10–25%): the gate exists to catch real
regressions — an accidental quadratic loop, a cache that stopped hitting —
not scheduler noise on shared CI runners.  The calibrated scorer times get
25%: six full-scale regenerations on one shared 2-core host read 18–19%
apart between their lowest and highest calibrated values.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

#: Repo root, where the benchmarks write their BENCH_*.json records.
REPO_ROOT = Path(__file__).resolve().parents[1]

#: Stored baselines the committed records are compared against.
BASELINES_PATH = Path(__file__).resolve().parent / "perf_baselines.json"

#: One step of a metric path: a plain key, or a ``(key, value)`` selector
#: picking the first element of a list whose ``key`` equals ``value``.
PathStep = Union[str, Tuple[str, object]]


class Metric:
    """One gated headline metric of a BENCH record."""

    __slots__ = ("name", "path", "tolerance", "higher_is_better")

    def __init__(
        self,
        name: str,
        path: Sequence[PathStep],
        tolerance: float,
        higher_is_better: bool = True,
    ) -> None:
        self.name = name
        self.path = tuple(path)
        self.tolerance = tolerance
        self.higher_is_better = higher_is_better

    def extract(self, record: object) -> Optional[float]:
        """Resolve the metric path against *record*; None when absent."""
        value = record
        for step in self.path:
            if isinstance(step, tuple):
                key, wanted = step
                if not isinstance(value, list):
                    return None
                value = next(
                    (
                        element
                        for element in value
                        if isinstance(element, dict) and element.get(key) == wanted
                    ),
                    None,
                )
            elif isinstance(value, dict):
                value = value.get(step)
            else:
                return None
            if value is None:
                return None
        try:
            return float(value)
        except (TypeError, ValueError):
            return None


#: The budget: every committed BENCH_*.json must appear here, and every
#: listed metric must hold within its tolerance.  Speedups and saved
#: fractions are higher-is-better; calibrated times (wall clock divided by
#: the calibration kernel's, see ``benchmarks/conftest.py``) are
#: lower-is-better.
BUDGET: Dict[str, List[Metric]] = {
    "BENCH_running_time.json": [
        Metric(
            "calibrated scorer ms per candidate (HE-31 hot step)",
            ("scoring", "calibrated_ms_per_candidate"),
            tolerance=0.25,
            higher_is_better=False,
        ),
    ],
    "BENCH_dynamic_loop.json": [
        Metric(
            "warm-start evaluations saved",
            ("comparison", "evaluations_saved_fraction"),
            tolerance=0.10,
        ),
    ],
    "BENCH_failure_recovery.json": [
        Metric(
            "post-failure evaluations saved",
            ("comparison", "evaluations_saved_fraction"),
            tolerance=0.10,
        ),
    ],
    "BENCH_provisioning.json": [
        Metric(
            "warm-probe evaluations saved",
            ("comparison", "evaluations_saved_fraction"),
            tolerance=0.10,
        ),
    ],
    "BENCH_scale.json": [
        Metric(
            "calibrated scorer ms per candidate @200 nodes",
            ("points", ("num_nodes", 200), "calibrated_ms_per_candidate"),
            tolerance=0.25,
            higher_is_better=False,
        ),
    ],
    "BENCH_fleet.json": [
        Metric(
            "fleet cache-sharing speedup",
            ("speedup",),
            tolerance=0.15,
        ),
    ],
    "BENCH_service.json": [
        Metric(
            "debounced reoptimizations saved",
            ("comparison", "reoptimizations_saved_fraction"),
            tolerance=0.10,
        ),
    ],
}


def _load_json(path: Path) -> Optional[Dict]:
    try:
        with path.open("r", encoding="utf-8") as handle:
            loaded = json.load(handle)
    except FileNotFoundError:
        return None  # reported as "missing or unreadable" by the caller
    except (OSError, json.JSONDecodeError) as error:
        print(f"warning: unreadable record {path}: {error}", file=sys.stderr)
        return None
    return loaded if isinstance(loaded, dict) else None


def current_metrics(root: Path = REPO_ROOT) -> Tuple[Dict[str, Dict[str, float]], List[str]]:
    """Extract every budgeted metric from the committed records.

    Returns ``(metrics, problems)`` where *metrics* maps record filename to
    ``{metric name: value}`` and *problems* lists records that are missing,
    unreadable, lacking a registered metric, or present but unregistered.
    """
    metrics: Dict[str, Dict[str, float]] = {}
    problems: List[str] = []
    for filename, budget in sorted(BUDGET.items()):
        record = _load_json(root / filename)
        if record is None:
            problems.append(f"{filename}: missing or unreadable")
            continue
        values: Dict[str, float] = {}
        for metric in budget:
            value = metric.extract(record)
            if value is None:
                problems.append(f"{filename}: metric {metric.name!r} not found")
            else:
                values[metric.name] = value
        metrics[filename] = values
    for path in sorted(root.glob("BENCH_*.json")):
        if path.name not in BUDGET:
            problems.append(
                f"{path.name}: committed but not registered in the perf budget "
                "(add its headline metric to benchmarks/perf_budget.py)"
            )
    return metrics, problems


def check(root: Path = REPO_ROOT, baselines_path: Path = BASELINES_PATH) -> List[str]:
    """Compare current records against the stored baselines.

    Returns the list of failures (empty when the budget holds).  A metric
    fails when it is worse than ``baseline * (1 - tolerance)`` (or
    ``* (1 + tolerance)`` for lower-is-better metrics); improvements never
    fail, they just make the baseline conservative until refreshed.
    """
    failures: List[str] = []
    metrics, problems = current_metrics(root)
    failures.extend(problems)
    baselines = _load_json(baselines_path)
    if baselines is None:
        failures.append(
            f"{baselines_path}: missing or unreadable — run "
            "`python -m benchmarks.perf_budget refresh` and commit it"
        )
        return failures
    for filename, budget in sorted(BUDGET.items()):
        stored = baselines.get(filename, {})
        for metric in budget:
            value = metrics.get(filename, {}).get(metric.name)
            if value is None:
                continue  # already reported by current_metrics
            baseline = stored.get(metric.name)
            if baseline is None:
                failures.append(
                    f"{filename}: no baseline for {metric.name!r} — refresh "
                    "the baselines"
                )
                continue
            baseline = float(baseline)
            if metric.higher_is_better:
                floor = baseline * (1.0 - metric.tolerance)
                if value < floor:
                    failures.append(
                        f"{filename}: {metric.name} regressed to {value:.4f} "
                        f"(baseline {baseline:.4f}, floor {floor:.4f})"
                    )
            else:
                ceiling = baseline * (1.0 + metric.tolerance)
                if value > ceiling:
                    failures.append(
                        f"{filename}: {metric.name} regressed to {value:.4f} "
                        f"(baseline {baseline:.4f}, ceiling {ceiling:.4f})"
                    )
    return failures


def refresh(root: Path = REPO_ROOT, baselines_path: Path = BASELINES_PATH) -> Dict:
    """Rewrite the stored baselines from the current records."""
    metrics, problems = current_metrics(root)
    if problems:
        raise RuntimeError(
            "cannot refresh baselines from incomplete records:\n  "
            + "\n  ".join(problems)
        )
    baselines_path.write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n")
    return metrics


# ------------------------------------------------------------------- pytest


def test_perf_budget():
    """CI bench-smoke gate: every committed BENCH record holds its budget."""
    failures = check()
    assert not failures, "perf budget violated:\n  " + "\n  ".join(failures)


# -------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Gate committed BENCH_*.json records against stored baselines"
    )
    parser.add_argument(
        "command",
        choices=("check", "refresh"),
        help="check records against baselines, or rewrite the baselines",
    )
    args = parser.parse_args(argv)

    if args.command == "refresh":
        try:
            metrics = refresh()
        except RuntimeError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        for filename, values in sorted(metrics.items()):
            for name, value in sorted(values.items()):
                print(f"{filename}: {name} = {value:.4f}")
        print(f"\nwrote {BASELINES_PATH}")
        return 0

    failures = check()
    metrics, _ = current_metrics()
    baselines = _load_json(BASELINES_PATH) or {}
    for filename, budget in sorted(BUDGET.items()):
        for metric in budget:
            value = metrics.get(filename, {}).get(metric.name)
            baseline = baselines.get(filename, {}).get(metric.name)
            rendered_value = f"{value:.4f}" if value is not None else "MISSING"
            rendered_base = f"{float(baseline):.4f}" if baseline is not None else "-"
            print(
                f"{filename}: {metric.name} = {rendered_value} "
                f"(baseline {rendered_base}, tolerance {metric.tolerance:.0%})"
            )
    if failures:
        print("\nperf budget violated:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nperf budget holds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Capacity-planning benchmark: warm-started bisection vs cold restarts.

The provisioning subsystem's inner loop is a chain of FUBAR runs over
capacity variants of one topology; the whole point of threading warm starts
through that chain (:mod:`repro.provisioning.frontier`) is that a probe
seeded from a neighbouring probe's plan converges in fewer model
evaluations than one restarted from shortest paths.  Three gates:

* **warm cheaper than cold, frontier identical** — the warm-started
  bisection must probe the *same* capacities, reach the *same* minimal
  capacity, and spend strictly fewer model evaluations than the
  cold-restart bisection;
* **monotone frontier** — utility must never decrease along the reported
  capacity axis (the monotone-repair invariant);
* **survivability costs capacity** — the survivable capacity (same utility
  target, every non-disconnecting single-link failure) must be at least the
  failure-free minimal capacity.

    PYTHONPATH=src python -m benchmarks.bench_provisioning \
        --output BENCH_provisioning.json

The pytest entry point runs the same comparison at reduced scale inside the
CI bench-smoke job, so a regression in any gate fails the build.  The
committed record is at that same reduced scale, so the pytest run also
compares its record with the committed one field for field (floats to 1e-12
relative, ``platform`` aside): a record that no longer matches the code
fails the build instead of going stale.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
from pathlib import Path
from typing import Dict, Optional

from benchmarks.conftest import BENCH_SEED, print_header, run_once
from repro.experiments.scenarios import build_sweep_scenario
from repro.metrics.reporting import format_table
from repro.provisioning import (
    greedy_link_upgrades,
    minimal_uniform_capacity,
    survivable_capacity,
)

#: Default location of the provisioning benchmark record (repo root).
BENCH_JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_provisioning.json"

#: Schema version of BENCH_provisioning.json.
BENCH_SCHEMA = 1

#: Utility goal of the frontier searches.
FRONTIER_TARGET_UTILITY = 0.97

#: Utility goal shared by the survivable search and its failure-free
#: reference (survivability headroom is only comparable at equal targets).
SURVIVABLE_TARGET_UTILITY = 0.95

#: Search ceiling of the survivable search, as a multiple of the reference
#: capacity: surviving the worst cut can take well over twice the healthy
#: minimal capacity.
SURVIVABLE_MAX_SCALE = 3.0


def measure_provisioning(
    seed: int = BENCH_SEED,
    num_pops: Optional[int] = None,
    max_probes: int = 10,
    survivable_max_probes: int = 6,
    num_upgrades: int = 4,
    max_steps: Optional[int] = None,
) -> Dict:
    """Run the three capacity-planning searches and their comparisons.

    ``max_steps`` bounds each probe's committed optimizer steps for
    affordable full-scale records (mirroring the other loop benchmarks);
    warm and cold searches are capped alike, so the evaluation-count gate
    stays an apples-to-apples comparison.
    """
    scenario = build_sweep_scenario(
        topology="hurricane-electric",
        num_pops=num_pops,
        seed=seed,
        max_steps=max_steps,
    )
    frontier_kwargs = dict(
        target_utility=FRONTIER_TARGET_UTILITY,
        max_probes=max_probes,
        fubar_config=scenario.fubar_config,
    )
    warm = minimal_uniform_capacity(
        scenario.network, scenario.traffic_matrix, warm_start=True, **frontier_kwargs
    )
    cold = minimal_uniform_capacity(
        scenario.network, scenario.traffic_matrix, warm_start=False, **frontier_kwargs
    )

    upgrade_scenario = build_sweep_scenario(
        topology="hurricane-electric",
        num_pops=num_pops,
        provisioning_ratio=0.6,
        seed=seed,
        max_steps=max_steps,
    )
    upgrades = greedy_link_upgrades(
        upgrade_scenario.network,
        upgrade_scenario.traffic_matrix,
        num_upgrades=num_upgrades,
        fubar_config=upgrade_scenario.fubar_config,
    )

    reference = max(link.capacity_bps for link in scenario.network.links)
    survivable = survivable_capacity(
        scenario.network,
        scenario.traffic_matrix,
        target_utility=SURVIVABLE_TARGET_UTILITY,
        max_capacity_bps=SURVIVABLE_MAX_SCALE * reference,
        max_probes=survivable_max_probes,
        fubar_config=scenario.fubar_config,
    )
    failure_free = minimal_uniform_capacity(
        scenario.network,
        scenario.traffic_matrix,
        target_utility=SURVIVABLE_TARGET_UTILITY,
        max_probes=max_probes,
        fubar_config=scenario.fubar_config,
    )

    warm_evals = warm.total_model_evaluations
    cold_evals = cold.total_model_evaluations
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
        "frontier": {"warm": warm.as_dict(), "cold": cold.as_dict()},
        "upgrades": upgrades.as_dict(),
        "survivable": survivable.as_dict(),
        "failure_free_frontier": failure_free.as_dict(),
        "comparison": {
            "warm_model_evaluations": warm_evals,
            "cold_model_evaluations": cold_evals,
            "evaluations_saved_fraction": (
                1.0 - warm_evals / cold_evals if cold_evals else None
            ),
            "identical_probe_capacities": list(warm.capacities) == list(cold.capacities),
            "warm_minimal_capacity_bps": warm.minimal_capacity_bps,
            "cold_minimal_capacity_bps": cold.minimal_capacity_bps,
            "warm_frontier_monotone": warm.is_monotone(),
            "survivable_capacity_bps": survivable.survivable_capacity_bps,
            "failure_free_capacity_bps": failure_free.minimal_capacity_bps,
            "survivability_headroom": (
                survivable.survivable_capacity_bps / failure_free.minimal_capacity_bps
                if survivable.survivable_capacity_bps is not None
                and failure_free.minimal_capacity_bps
                else None
            ),
        },
    }


def _assert_acceptance(record: Dict) -> None:
    """The acceptance gates, shared by pytest and the CLI."""
    comparison = record["comparison"]
    assert comparison["identical_probe_capacities"], (
        "warm and cold bisections diverged: they probed different capacities, "
        "so their evaluation counts are not comparable"
    )
    assert (
        comparison["warm_minimal_capacity_bps"]
        == comparison["cold_minimal_capacity_bps"]
    ), (
        "warm and cold bisections disagree on the minimal capacity: "
        f"{comparison['warm_minimal_capacity_bps']} vs "
        f"{comparison['cold_minimal_capacity_bps']}"
    )
    assert comparison["warm_model_evaluations"] < comparison["cold_model_evaluations"], (
        "warm-started bisection was not cheaper than cold restarts: "
        f"{comparison['warm_model_evaluations']} vs "
        f"{comparison['cold_model_evaluations']} model evaluations"
    )
    assert comparison["warm_frontier_monotone"], (
        "the warm frontier is not monotone in capacity"
    )
    survivable = comparison["survivable_capacity_bps"]
    failure_free = comparison["failure_free_capacity_bps"]
    assert survivable is not None, "no survivable capacity found in the search range"
    assert failure_free is not None, "no failure-free minimal capacity found"
    assert survivable >= failure_free, (
        "survivable capacity fell below the failure-free minimal capacity: "
        f"{survivable} vs {failure_free}"
    )
    upgrades = record["upgrades"]
    assert all(
        step["utility_gain"] >= -1e-9 for step in upgrades["steps"]
    ), "a committed upgrade lost utility"


#: Record fields that describe the host rather than the code's results.
HOST_FIELDS = frozenset({"platform"})

#: Relative tolerance of float fields in the committed-record comparison.
RECORD_FLOAT_RTOL = 1e-12


def _first_difference(committed, fresh, field: str = "") -> Optional[str]:
    """The first field (dotted path) where *fresh* departs from *committed*,
    or ``None`` when they agree.

    Integers, booleans, strings and nulls must be equal; floats must match
    within :data:`RECORD_FLOAT_RTOL` relative.  Top-level
    :data:`HOST_FIELDS` are skipped.
    """
    if isinstance(committed, dict) and isinstance(fresh, dict):
        for key in list(committed) + [key for key in fresh if key not in committed]:
            if not field and key in HOST_FIELDS:
                continue
            path = f"{field}.{key}" if field else key
            if key not in committed or key not in fresh:
                return path
            found = _first_difference(committed[key], fresh[key], path)
            if found is not None:
                return found
        return None
    if isinstance(committed, list) and isinstance(fresh, list):
        if len(committed) != len(fresh):
            return field
        for index, pair in enumerate(zip(committed, fresh)):
            found = _first_difference(*pair, f"{field}[{index}]")
            if found is not None:
                return found
        return None
    if type(committed) is not type(fresh):
        return field
    if isinstance(committed, float):
        close = math.isclose(committed, fresh, rel_tol=RECORD_FLOAT_RTOL, abs_tol=0.0)
        return None if close else field
    return None if committed == fresh else field


def _assert_matches_committed(record: Dict, path: Path = BENCH_JSON_PATH) -> None:
    """The rerun at the committed record's scale must reproduce it."""
    committed = json.loads(path.read_text(encoding="utf-8"))
    fresh = json.loads(json.dumps(record))
    field = _first_difference(committed, fresh)
    assert field is None, (
        f"{path.name} is stale at {field!r}: the rerun no longer reproduces "
        f"the committed record; regenerate it with "
        f"`PYTHONPATH=src python -m benchmarks.bench_provisioning`"
    )


def _print_record(record: Dict) -> None:
    print_header("Capacity planning: warm-started bisection vs cold restarts")
    comparison = record["comparison"]
    rows = []
    for mode in ("warm", "cold"):
        frontier = record["frontier"][mode]
        rows.append(
            (
                mode,
                str(len(frontier["points"])),
                f"{frontier['minimal_capacity_bps'] / 1e6:.1f}"
                if frontier["minimal_capacity_bps"] is not None
                else "-",
                str(frontier["total_model_evaluations"]),
                "yes" if frontier["monotone"] else "NO",
            )
        )
    print(format_table(("start", "probes", "minimal (Mbps)", "evals", "monotone"), rows))
    saved = comparison["evaluations_saved_fraction"]
    print(
        f"\nwarm starts save {saved:.0%} of bisection model evaluations "
        f"({comparison['warm_model_evaluations']} vs "
        f"{comparison['cold_model_evaluations']}) at an identical frontier"
    )
    upgrades = record["upgrades"]
    print(
        f"\nupgrade path: utility {upgrades['base_utility']:.4f} -> "
        f"{upgrades['final_utility']:.4f} over {len(upgrades['steps'])} "
        f"upgrade(s), +{upgrades['total_added_bps'] / 1e6:.0f} Mbps"
    )
    headroom = comparison["survivability_headroom"]
    if headroom is not None:
        print(
            f"survivability headroom: x{headroom:.2f} "
            f"({comparison['survivable_capacity_bps'] / 1e6:.1f} Mbps survivable vs "
            f"{comparison['failure_free_capacity_bps'] / 1e6:.1f} Mbps failure-free)"
        )


# ------------------------------------------------------------------- pytest


def test_provisioning_warm_bisection(benchmark):
    """CI smoke gate: warm bisection cheaper, frontier identical + monotone,
    survivable capacity at or above the failure-free minimum, and the
    committed record reproduced field for field."""
    record = run_once(benchmark, measure_provisioning)
    _print_record(record)
    _assert_acceptance(record)
    _assert_matches_committed(record)


# -------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure capacity planning and write BENCH_provisioning.json"
    )
    parser.add_argument(
        "--num-pops",
        type=int,
        default=None,
        help="POP count (defaults to the scenario default; 31 = paper scale)",
    )
    parser.add_argument("--seed", type=int, default=BENCH_SEED)
    parser.add_argument(
        "--max-probes",
        type=int,
        default=10,
        help="bisection probe budget of the frontier searches (default 10)",
    )
    parser.add_argument(
        "--survivable-max-probes",
        type=int,
        default=6,
        help="probe budget of the survivable search (default 6)",
    )
    parser.add_argument(
        "--num-upgrades",
        type=int,
        default=4,
        help="committed upgrades of the greedy upgrade path (default 4)",
    )
    parser.add_argument(
        "--max-steps",
        type=int,
        default=None,
        help="optimizer step budget per probe (bounds full-scale wall clock)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=BENCH_JSON_PATH,
        help=f"where to write the JSON record (default {BENCH_JSON_PATH})",
    )
    args = parser.parse_args(argv)

    record = measure_provisioning(
        seed=args.seed,
        num_pops=args.num_pops,
        max_probes=args.max_probes,
        survivable_max_probes=args.survivable_max_probes,
        num_upgrades=args.num_upgrades,
        max_steps=args.max_steps,
    )
    _print_record(record)
    _assert_acceptance(record)
    args.output.write_text(json.dumps(record, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

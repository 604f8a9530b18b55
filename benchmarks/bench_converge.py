"""Time to converge on the paper's own scenario, both regimes.

ROADMAP's headline number: wall-clock time for one cold optimization of
full-scale HE-31 (31 POPs, 930 aggregates, 112 links, paper traffic matrix
seed 1) to converge, with no step cap, at 100 Mbps (provisioned) and
75 Mbps (underprovisioned) links, judged against the paper's "offline time
budget of minutes".  Each regime records:

* wall clock, committed steps, model evaluations, final utility and the
  termination reason — steps, evaluations and utility are deterministic;
* the times (and steps) at which the run first reached 50, 90 and 99 % of
  its final utility gain over the lowest-delay start, read from the trace
  points ``record_every_step`` captures after every committed move;
* the median time of :func:`benchmarks.conftest.calibration_kernel`, run in
  the same process before and after the regime, and the wall clock divided
  by it (``calibrated_wall_clock``, a count of kernel runs), which the perf
  budget gates.

The record also names the git commit it was generated on and the CPU
model.  A regeneration takes about a quarter of an hour on a 2-core host::

    PYTHONPATH=src python -m benchmarks.bench_converge --output BENCH_converge.json

so the pytest entry point (the CI bench-smoke check) does not rerun it: it
checks the committed record's schema and internal consistency.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List

from benchmarks.conftest import CALIBRATION_REPS, calibration_kernel, print_header
from repro.core.controller import Fubar
from repro.core.optimizer import TERMINATED_LOCAL_OPTIMUM, TERMINATED_NO_CONGESTION
from repro.experiments.scenarios import build_paper_scenario
from repro.metrics.reporting import format_table

#: Default location of the time-to-converge record (repo root).
BENCH_JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_converge.json"

#: Schema version of BENCH_converge.json.
BENCH_SCHEMA = 1

#: Paper traffic matrix seed of both regimes.
MATRIX_SEED = 1

#: Link capacity of each regime, in Mbps: provisioned, then underprovisioned.
REGIMES = (100, 75)

#: Fractions of the final utility gain whose first arrival is recorded.
GAIN_FRACTIONS = (0.5, 0.9, 0.99)


def _git_commit() -> Dict[str, object]:
    """The checked-out commit and whether tracked files differ from it."""
    root = Path(__file__).resolve().parents[1]

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, check=True
        ).stdout.strip()

    return {
        "sha": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
    }


def _cpu_model() -> str:
    """The CPU model name as the OS reports it."""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def _kernel_samples() -> List[float]:
    """Wall clock (ms) of :data:`CALIBRATION_REPS` kernel runs, after one
    untimed warm-up."""
    calibration_kernel()
    samples = []
    for _ in range(CALIBRATION_REPS):
        started = time.perf_counter()
        calibration_kernel()
        samples.append((time.perf_counter() - started) * 1e3)
    return samples


def gain_milestones(trace: List[Dict]) -> List[Dict]:
    """First trace point reaching each fraction of the run's utility gain.

    *trace* holds the run's trace points as dicts, oldest first; the gain is
    the last point's network utility less the first's.
    """
    initial = trace[0]["network_utility"]
    gain = trace[-1]["network_utility"] - initial
    milestones = []
    for fraction in GAIN_FRACTIONS:
        point = next(
            p for p in trace if p["network_utility"] - initial >= fraction * gain
        )
        milestones.append(
            {
                "fraction": fraction,
                "step": point["step"],
                "wall_clock_s": point["wall_clock_s"],
                "network_utility": point["network_utility"],
            }
        )
    return milestones


def measure_regime(capacity_mbps: int) -> Dict:
    """One cold optimization of full-scale HE-31 to convergence."""
    scenario = build_paper_scenario(
        provisioned=capacity_mbps == 100, seed=MATRIX_SEED, num_pops=31
    )
    config = scenario.fubar_config
    assert config.max_steps is None and config.record_every_step
    before = _kernel_samples()
    result = Fubar(scenario.network, config).optimize(scenario.traffic_matrix).result
    after = _kernel_samples()
    calibration_ms = median(before + after)
    trace = [point.as_dict() for point in result.trace]
    return {
        "capacity_mbps": capacity_mbps,
        "scenario": dict(scenario.summary()),
        "wall_clock_s": result.wall_clock_s,
        "calibration_ms": calibration_ms,
        "calibration_ms_before": median(before),
        "calibration_ms_after": median(after),
        "calibrated_wall_clock": result.wall_clock_s * 1e3 / calibration_ms,
        "steps": result.num_steps,
        "model_evaluations": result.model_evaluations,
        "initial_utility": trace[0]["network_utility"],
        "final_utility": result.network_utility,
        "termination": result.termination_reason,
        "trace_points": len(trace),
        "gain_milestones": gain_milestones(trace),
    }


def measure_converge() -> Dict:
    """The full BENCH_converge.json record."""
    return {
        "schema": BENCH_SCHEMA,
        "matrix_seed": MATRIX_SEED,
        "git": _git_commit(),
        "cpu_model": _cpu_model(),
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "regimes": [measure_regime(capacity) for capacity in REGIMES],
    }


def check_record(record: Dict) -> List[str]:
    """Schema and internal-consistency problems of a record (empty when
    sound)."""
    problems: List[str] = []

    def expect(condition: bool, message: str) -> None:
        if not condition:
            problems.append(message)

    expect(record.get("schema") == BENCH_SCHEMA, f"schema is not {BENCH_SCHEMA}")
    git = record.get("git", {})
    sha = git.get("sha")
    expect(
        isinstance(sha, str) and len(sha) == 40 and all(c in "0123456789abcdef" for c in sha),
        "git.sha is not a full commit hash",
    )
    expect(isinstance(git.get("dirty"), bool), "git.dirty is not a bool")
    expect(bool(record.get("cpu_model")), "cpu_model is empty")
    regimes = record.get("regimes", [])
    expect(
        [regime.get("capacity_mbps") for regime in regimes] == list(REGIMES),
        f"regimes are not {list(REGIMES)} Mbps",
    )
    for regime in regimes:
        label = f"{regime.get('capacity_mbps')} Mbps"
        wall = regime["wall_clock_s"]
        steps = regime["steps"]
        expect(regime["scenario"]["num_pops"] == 31, f"{label}: not full-scale HE-31")
        expect(
            regime["scenario"]["seed"] == record["matrix_seed"],
            f"{label}: matrix seed differs from the record's",
        )
        expect(wall > 0.0 and steps >= 1, f"{label}: no committed step")
        expect(
            regime["model_evaluations"] > steps,
            f"{label}: fewer evaluations than steps",
        )
        expect(
            regime["termination"]
            in (TERMINATED_LOCAL_OPTIMUM, TERMINATED_NO_CONGESTION),
            f"{label}: terminated by {regime['termination']!r}, not converged",
        )
        # One trace point for the start, one per committed step, one at
        # termination.
        expect(
            regime["trace_points"] == steps + 2,
            f"{label}: {regime['trace_points']} trace points for {steps} steps",
        )
        expect(
            math.isclose(
                regime["calibrated_wall_clock"],
                wall * 1e3 / regime["calibration_ms"],
                rel_tol=1e-12,
            ),
            f"{label}: calibrated_wall_clock is not wall clock over calibration",
        )
        gain = regime["final_utility"] - regime["initial_utility"]
        expect(gain > 0.0, f"{label}: no utility gain")
        milestones = regime["gain_milestones"]
        expect(
            [m["fraction"] for m in milestones] == list(GAIN_FRACTIONS),
            f"{label}: milestones are not {list(GAIN_FRACTIONS)}",
        )
        previous = {"step": 0, "wall_clock_s": 0.0}
        for milestone in milestones:
            name = f"{label} {milestone['fraction']:.0%} milestone"
            expect(
                milestone["network_utility"] - regime["initial_utility"]
                >= milestone["fraction"] * gain,
                f"{name}: utility short of its gain fraction",
            )
            expect(
                previous["step"] <= milestone["step"] <= steps
                and previous["wall_clock_s"] <= milestone["wall_clock_s"] <= wall,
                f"{name}: out of order or past the end of the run",
            )
            previous = milestone
    return problems


def _print_record(record: Dict) -> None:
    print_header("Time to converge: full-scale HE-31, matrix seed 1")
    rows = []
    for regime in record["regimes"]:
        milestones = {m["fraction"]: m for m in regime["gain_milestones"]}
        rows.append(
            (
                regime["capacity_mbps"],
                f"{regime['wall_clock_s']:.1f}",
                f"{regime['calibrated_wall_clock']:.0f}",
                regime["steps"],
                regime["model_evaluations"],
                f"{regime['final_utility']:.4f}",
                *(
                    f"{milestones[f]['wall_clock_s']:.1f} ({milestones[f]['step']})"
                    for f in GAIN_FRACTIONS
                ),
            )
        )
    print(
        format_table(
            (
                "Mbps", "wall_s", "calibrated", "steps", "evals", "utility",
                "50% s (step)", "90% s (step)", "99% s (step)",
            ),
            rows,
        )
    )
    git = record["git"]
    print(
        f"\ncommit {git['sha']}{' (modified)' if git['dirty'] else ''}, "
        f"{record['cpu_model']}"
    )


# ------------------------------------------------------------------- pytest


def test_converge_record_is_consistent():
    """CI bench-smoke check: the committed record is complete and
    self-consistent.  Regenerating it takes minutes, so it is not rerun; the
    perf budget gates its calibrated times."""
    assert BENCH_JSON_PATH.exists(), f"{BENCH_JSON_PATH.name} is not committed"
    problems = check_record(json.loads(BENCH_JSON_PATH.read_text(encoding="utf-8")))
    assert not problems, "BENCH_converge.json:\n  " + "\n  ".join(problems)


# -------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Time full-scale HE-31 to convergence, write BENCH_converge.json"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=BENCH_JSON_PATH,
        help=f"where to write the JSON record (default {BENCH_JSON_PATH})",
    )
    args = parser.parse_args(argv)

    record = measure_converge()
    _print_record(record)
    problems = check_record(record)
    if problems:
        print("\ninconsistent record, not written:\n  " + "\n  ".join(problems))
        return 1
    args.output.write_text(json.dumps(record, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The repository benchmark: one command per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see ``perfbench/workloads.json``
for each one's op, loop and rate):

* ``he31-paper``  — cold plans of the paper's full-scale HE-31 scenario;
* ``daemon-drift`` — measurement events through the controller daemon.

Each run starts the workload in a fresh process (``PYTHONHASHSEED=0``, one
BLAS/OpenMP thread) that builds its inputs from ``--seed``, runs a fixed op
list sized by ``--seconds`` and checks every op's output.  With
``--trace 0`` it prints the end-to-end metrics, with set-up repeated in
extra fresh processes and reported as the median; with ``--trace 1`` it
runs the workload untraced and then traced, and prints the per-layer
metrics.  Each metric is printed with its unit, then the last line of
standard output is the JSON summary.  The exit code is 0 only when every
op passed its checks; a workload that cannot run exits non-zero without a
summary.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

from tracing import PER_LAYER, percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("he31-paper", "daemon-drift")

#: Fresh processes whose set-up time is sampled per run (median reported).
SETUP_SAMPLES = 3

#: End-to-end metrics (every workload): name -> unit.  ``op_ms_p50`` is the
#: median latency of the ops that ran the optimizer: every op of he31-paper,
#: the re-optimized events of daemon-drift (printed there as reopt_ms_p50
#: too).  ``op_ms_p90`` covers every op or event.
END_TO_END = (
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("utility", "utility"),
    ("peak_rss_mb", "MB"),
)

#: A run must end within this many seconds.
RUN_DEADLINE_S = 170.0


class WorkloadError(Exception):
    """A workload process failed to produce a result."""


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def _spawn(args: argparse.Namespace, trace: int, setup_only: bool, deadline: float) -> Tuple[float, Dict[str, Any]]:
    """Run one workload process; returns (set-up seconds, its raw result)."""
    command = [
        sys.executable,
        os.path.join(HERE, "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
    ]
    if setup_only:
        command.append("--setup-only")
    started = time.monotonic()
    # Its own process group, so a timeout also stops the daemon it started.
    process = subprocess.Popen(
        command, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, start_new_session=True
    )
    try:
        stdout, _ = process.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as error:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise WorkloadError(f"{args.workload} did not finish in time") from error
    lines = stdout.decode("utf-8").strip().splitlines()
    if process.returncode != 0 or not lines:
        raise WorkloadError(f"{args.workload} exited with code {process.returncode}")
    result = json.loads(lines[-1])
    return result["ready"] - started, result


def _end_to_end(setups: List[float], result: Dict[str, Any]) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "op_ms_p50": statistics.median(result["plan_ms"]),
        "op_ms_p90": percentile(result["latencies_ms"], 90),
        "utility": result["utility"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("error: no src/repro next to perfbench/; run from a checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S

    try:
        if args.trace:
            _, untraced = _spawn(args, 0, False, deadline)
            _, result = _spawn(args, 1, False, deadline)
        else:
            setups = [_spawn(args, 0, True, deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
            setup, result = _spawn(args, 0, False, deadline)
            setups.append(setup)
    except WorkloadError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    attempted = int(result["attempted"])
    failed = int(result["failed"])
    if args.trace:
        failed = max(failed, int(untraced["failed"]))
        untraced_p50 = statistics.median(untraced["plan_ms"])
        traced_p50 = statistics.median(result["plan_ms"])
        metrics = dict(result["layers"])
        metrics["client.send_lag_ms_max"] = result["send_lag_ms_max"]
        metrics["trace.overhead_pct"] = 100.0 * (traced_p50 / untraced_p50 - 1.0)
        metrics["trace.unattributed_pct"] = result["unattributed_pct"]
        order = PER_LAYER
    else:
        metrics = _end_to_end(setups, result)
        order = END_TO_END
        print(f"error_rate = {failed / attempted:.6g} fraction ({failed} of {attempted} ops)")
        if result["skip_ms"]:
            print(f"reopt_ms_p50 = {metrics['op_ms_p50']:.6g} ms ({len(result['plan_ms'])} events)")
            print(f"skip_ms_p50 = {statistics.median(result['skip_ms']):.6g} ms ({len(result['skip_ms'])} events)")
    for failure in result["failures"]:
        print(f"check failed: {failure}")
    for digest in ("utility_digest", "decisions_digest"):
        if digest in result:
            print(f"{digest} = {result[digest]}")
    for name, unit in order:
        print(f"{name} = {metrics[name]:.6g} {unit}")
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in order},
    }
    print(json.dumps(summary), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

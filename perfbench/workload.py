"""One workload process: set up, run the fixed op list, check it, report.

    PYTHONPATH=src python3 perfbench/workload.py --workload NAME --seed N \\
        --seconds S --trace 0|1 [--setup-only]

``run.py`` starts this in a fresh process per run (and per extra set-up
sample).  The last line of standard output is one JSON object with the raw
results: when set-up ended (``ready``, on the system-wide monotonic clock),
op latencies, utility, peak RSS, check failures and, when traced, the
per-layer metrics.  Each op's output is checked outside the timed region.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import resource
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DIR = os.path.join(ROOT, ".perfbench-run")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digest(values: List[Any]) -> str:
    return hashlib.sha256(json.dumps(values).encode("utf-8")).hexdigest()[:16]


def run_offline(args: argparse.Namespace) -> Dict[str, Any]:
    recorder = None
    if args.trace:
        from tracing import SpanRecorder, install_layer_wrappers

        recorder = SpanRecorder()
        install_layer_wrappers(recorder)
    import offline

    ops = offline.he31_ops(args.seed, args.seconds)
    ready = time.monotonic()
    if args.setup_only:
        return {"ready": ready}

    runner = offline.run_op
    if recorder is not None:
        timed = recorder.wrap("op", offline.run_op)

        def runner(index: int, op: "offline.OfflineOp") -> "offline.FubarPlan":
            recorder.phase = "run"
            recorder.op = str(index)
            try:
                return timed(index, op)
            finally:
                recorder.phase = "checks"

    latencies, utilities, problems = offline.run_ops(ops, runner)
    peak_rss = _peak_rss_mb()
    failed = sum(1 for found in problems if found)
    failures = [failure for found in problems for failure in found]
    latencies_ms = [value * 1000.0 for value in latencies]
    result: Dict[str, Any] = {
        "ready": ready,
        "attempted": len(ops),
        "failed": failed,
        "failures": failures[:10],
        "utility": sum(utilities) / len(utilities),
        "utility_digest": _digest([repr(value) for value in utilities]),
        "peak_rss_mb": peak_rss,
        "latencies_ms": latencies_ms,
        "plan_ms": latencies_ms,
        "skip_ms": [],
        "send_lag_ms_max": 0.0,
    }
    if recorder is not None:
        from tracing import layer_metrics, self_times

        result["layers"] = layer_metrics(recorder.spans, recorder.samples, recorder.counters, {})
        op_total = op_self = 0.0
        for span, own in self_times(recorder.spans):
            if span[2] == "op":
                op_total += span[6] - span[5]
                op_self += own
        result["unattributed_pct"] = 100.0 * op_self / op_total
        recorder.dump(os.path.join(RUN_DIR, f"spans-{args.workload}.json"))
    return result


def run_daemon(args: argparse.Namespace) -> Dict[str, Any]:
    recorder = None
    if args.trace:
        from tracing import SpanRecorder, install_setup_wrappers

        recorder = SpanRecorder()
        install_setup_wrappers(recorder)
    import daemon_drift

    plan = daemon_drift.build_plan(args.seed, args.seconds)
    outcome = asyncio.run(
        daemon_drift.drive(plan, RUN_DIR, dict(os.environ), bool(args.trace), args.setup_only)
    )
    if args.setup_only:
        return {"ready": outcome.ready}

    failed, failures = daemon_drift.check(plan, outcome.observed)
    latencies: List[float] = []
    reopt: List[float] = []
    skip: List[float] = []
    delivered: List[float] = []
    sequence: List[Any] = []
    for name in sorted(outcome.observed.decisions):
        for decision in outcome.observed.decisions[name]:
            sequence.append([name, decision.epoch, decision.action, decision.reason])
            key = (name, decision.epoch)
            if key not in outcome.due:
                continue
            latency = (outcome.observed.arrivals[key] - outcome.due[key]) * 1000.0
            latencies.append(latency)
            (reopt if decision.action == "reoptimize" else skip).append(latency)
            delivered.append(float(decision.record.get("delivered_utility", 0.0)))
    attempted = len(plan.schedule)
    result: Dict[str, Any] = {
        "ready": outcome.ready,
        "attempted": attempted,
        "failed": min(failed, attempted),
        "failures": failures[:10],
        "utility": sum(delivered) / len(delivered) if delivered else 0.0,
        "utility_digest": _digest([repr(value) for value in delivered]),
        "decisions_digest": _digest(sequence),
        "peak_rss_mb": outcome.report["peak_rss_mb"],
        "latencies_ms": latencies,
        "plan_ms": reopt,
        "skip_ms": skip,
        "send_lag_ms_max": outcome.send_lag_max_s * 1000.0,
    }
    if recorder is not None:
        from tracing import layer_metrics

        with open(outcome.report["spans_file"], encoding="utf-8") as handle:
            daemon_trace = json.load(handle)
        os.remove(outcome.report["spans_file"])
        spans = [tuple(span) for span in daemon_trace["spans"]]
        # Span ids are per process: shift the load generator's set-up spans
        # past the daemon's before the two are merged.
        offset = 1 + max((span[0] for span in spans), default=0)
        own = [
            (span[0] + offset, span[1] + offset if span[1] >= 0 else -1) + span[2:]
            for span in recorder.spans
        ]
        layers = layer_metrics(
            spans + own,
            daemon_trace["samples"],
            daemon_trace["counters"],
            outcome.report["cache_stats"],
        )
        # Per event: its waits plus the top-level spans tagged with its op id.
        attributed = sum(
            span[6] - span[5]
            for span in spans
            if span[1] < 0 and span[3] == "run" and span[4] != "-"
        )
        for wait in ("service.inbox_wait", "service.executor_wait"):
            attributed += sum(daemon_trace["samples"].get(wait, []))
        latency_s = sum(latencies) / 1000.0
        result["layers"] = layers
        result["unattributed_pct"] = 100.0 * max(0.0, 1.0 - attributed / latency_s)
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=("he31-paper", "daemon-drift"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    os.makedirs(RUN_DIR, exist_ok=True)
    if args.workload == "daemon-drift":
        result = run_daemon(args)
    else:
        result = run_offline(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

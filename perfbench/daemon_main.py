"""The daemon process of the ``daemon-drift`` workload.

    python3 perfbench/daemon_main.py --socket PATH --report PATH --trace 0|1

Registers the workload's fixed tenants with the shipped
``ControllerDaemon``, binds the shipped ``ServiceBus`` to the Unix socket,
prints ``ready`` and serves until a client sends ``shutdown``.  On exit it
writes its peak RSS and cache counters to ``--report``.  With ``--trace 1``
the layer wrappers are installed before anything runs, and the spans are
written next to the report.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
from typing import Any, Dict


async def _serve(socket_path: str) -> Dict[str, Any]:
    from daemon_drift import DEBOUNCE, TENANTS, tenant_scenario
    from repro.service.bus import ServiceBus
    from repro.service.daemon import ControllerDaemon, TenantConfig

    daemon = ControllerDaemon()
    for name, topology, num_pops, seed in TENANTS:
        scenario = tenant_scenario(topology, num_pops, seed)
        await daemon.add_tenant(
            TenantConfig(
                name=name,
                network=scenario.network,
                fubar_config=scenario.fubar_config,
                debounce=DEBOUNCE,
            )
        )
    bus = ServiceBus(daemon, unix_path=socket_path)
    await bus.start()
    print("ready", flush=True)
    await bus.serve_until_shutdown()
    await daemon.close()
    return {
        "path_cache": daemon.caches.path_cache.stats(),
        "model_cache": daemon.caches.model_cache.stats(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--socket", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    recorder = None
    if args.trace:
        from tracing import SpanRecorder, install_layer_wrappers

        recorder = SpanRecorder()
        install_layer_wrappers(recorder)
    cache_stats = asyncio.run(_serve(args.socket))
    report: Dict[str, Any] = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cache_stats": cache_stats,
    }
    if recorder is not None:
        spans_path = os.path.splitext(args.report)[0] + "-spans.json"
        recorder.dump(spans_path)
        report["spans_file"] = spans_path
    with open(args.report, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

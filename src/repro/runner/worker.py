"""Process-local warm caches for sweep workers.

Cells that share a topology redo each other's work: every cell rebuilds the
same shortest-path answers and recompiles the same traffic-model rows from
scratch.  The sweep engine (:mod:`repro.runner.engine`) groups pending cells
by :meth:`~repro.runner.spec.CellSpec.cache_affinity_key` and dispatches each
group to one worker process; inside that worker a single
:class:`WorkerCaches` — installed by the pool initializer, or around the
serial loop — holds a :class:`~repro.paths.cache.PathSetCache` and a
:class:`~repro.trafficmodel.compiled.CompiledModelCache` that consecutive
same-topology cells hit.

Sharing is correctness-gated, not assumed: both caches key on the topology
*content* signature (capacity overrides and degraded failure views miss),
the compiled engine validates every cached row against the requesting
bundle's utility function, and the test suite requires a shared-cache
sweep's records to be byte-identical to an isolated-worker run.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.paths.cache import PathSetCache
from repro.trafficmodel.compiled import CompiledModelCache

__all__ = [
    "WorkerCaches",
    "active_worker_caches",
    "clear_worker_caches",
    "install_worker_caches",
]


class WorkerCaches:
    """One worker process's warm state: path sets plus compiled-model engines.

    The path cache serves the unrestricted default policy only — cells that
    optimize under a custom path policy build their own generators
    (:func:`~repro.paths.cache.path_generator_for` checks the policy).
    """

    __slots__ = ("path_cache", "model_cache")

    def __init__(
        self,
        path_cache: Optional[PathSetCache] = None,
        model_cache: Optional[CompiledModelCache] = None,
    ) -> None:
        self.path_cache = path_cache or PathSetCache()
        self.model_cache = model_cache or CompiledModelCache()

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Hit/miss/size counters of both caches (for bench reporting)."""
        return {
            "paths": self.path_cache.stats(),
            "models": self.model_cache.stats(),
        }

    def clear(self) -> None:
        """Drop all warm state (generators and engines)."""
        self.path_cache.clear()
        self.model_cache.clear()


#: The caches of the current process, or None when sharing is disabled.
_ACTIVE: Optional[WorkerCaches] = None


def install_worker_caches(caches: Optional[WorkerCaches] = None) -> WorkerCaches:
    """Install (or replace) this process's active caches and return them.

    Called by the sweep pool initializer in each worker process, and by the
    serial path around its evaluation loop.
    """
    global _ACTIVE
    _ACTIVE = caches or WorkerCaches()  # repro: allow[MP101] — WorkerCaches is the one sanctioned per-worker mutable slot, installed once by the pool initializer
    return _ACTIVE


def active_worker_caches() -> Optional[WorkerCaches]:
    """The caches installed in this process, or None outside a shared sweep."""
    return _ACTIVE


def clear_worker_caches() -> None:
    """Uninstall this process's caches (evaluations revert to cold builds)."""
    global _ACTIVE
    _ACTIVE = None

"""Cross-epoch path-set caching.

The control loop (:mod:`repro.dynamics.loop`) historically rebuilt a fresh
:class:`~repro.paths.generator.PathGenerator` every time the observed
topology changed, throwing away every shortest-path query the previous
generator had answered.  On failure/repair schedules the topology oscillates
between a handful of concrete states (base network, each degraded view), so
the same Dijkstra queries are re-answered epoch after epoch — at tiered
continental scale that is millions of redundant relaxations.

:class:`PathSetCache` keys generators by a content signature of the
topology: node set, per-link endpoints/capacity/delay, and the failed
link/node sets of degraded views.  Two topologies with the same signature
route identically, so sharing one generator (and its internal query cache)
is safe; any change that can alter routing — a capacity override, a link
failure, a repair — changes the signature and misses.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Dict, Optional

from repro.paths.generator import PathGenerator
from repro.paths.policy import PathPolicy
from repro.topology.graph import Network

__all__ = ["PathSetCache", "path_generator_for", "topology_signature"]

#: Default number of distinct topologies a cache retains (LRU beyond that).
DEFAULT_MAX_ENTRIES = 16


def topology_signature(network: Network) -> str:
    """A content hash of everything about *network* that can affect paths.

    Covers the node set, every directed link's endpoints, capacity and
    delay (``repr`` of the floats, so any numeric change — including a
    capacity override — changes the digest), and the failed link/node sets
    of degraded views.  Degraded views keep dead links in their dense
    ``links`` table, so the failure sets must be hashed explicitly — the
    link table alone cannot distinguish a degraded view from its base.
    """
    digest = hashlib.sha256()
    for name in network.node_names:
        digest.update(b"n")
        digest.update(name.encode())
        digest.update(b"\x00")
    for link in network.links:
        digest.update(b"l")
        digest.update(
            f"{link.src}\x00{link.dst}\x00{link.capacity_bps!r}"
            f"\x00{link.delay_s!r}\x00".encode()
        )
    failed_links = getattr(network, "failed_links", frozenset())
    for src, dst in sorted(failed_links):
        digest.update(b"fl")
        digest.update(f"{src}\x00{dst}\x00".encode())
    failed_nodes = getattr(network, "failed_nodes", frozenset())
    for name in sorted(failed_nodes):
        digest.update(b"fn")
        digest.update(name.encode())
        digest.update(b"\x00")
    return digest.hexdigest()


class PathSetCache:
    """LRU cache of :class:`PathGenerator` instances keyed by topology content.

    One cache serves one path policy; the policy shapes every generated
    path, so generators must not be shared across policies.

    Parameters
    ----------
    policy:
        The path policy passed to every generator this cache builds
        (default: unrestricted).
    max_entries:
        Number of distinct topology signatures retained; least recently
        used generators are evicted beyond that.
    """

    __slots__ = ("policy", "max_entries", "hits", "misses", "_generators")

    def __init__(
        self,
        policy: Optional[PathPolicy] = None,
        max_entries: int = DEFAULT_MAX_ENTRIES,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be positive, got {max_entries!r}")
        self.policy = policy
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._generators: "OrderedDict[str, PathGenerator]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._generators)

    def generator_for(self, network: Network) -> PathGenerator:
        """The cached generator for *network*'s topology, building on miss.

        A hit returns the previously built generator — including its warm
        internal shortest-path cache — for any network whose content
        signature matches, even a different object (e.g. the base network
        after a failure is repaired).
        """
        signature = topology_signature(network)
        generator = self._generators.get(signature)
        if generator is not None:
            self.hits += 1
            self._generators.move_to_end(signature)
            return generator
        self.misses += 1
        generator = PathGenerator(network, self.policy)
        self._generators[signature] = generator
        while len(self._generators) > self.max_entries:
            self._generators.popitem(last=False)
        return generator

    def stats(self) -> Dict[str, int]:
        """Hit/miss/size counters (for reports and tests)."""
        return {"hits": self.hits, "misses": self.misses, "entries": len(self._generators)}

    def clear(self) -> None:
        """Drop every cached generator and reset the counters."""
        self._generators.clear()
        self.hits = 0
        self.misses = 0


def path_generator_for(
    network: Network,
    policy: Optional[PathPolicy] = None,
    cache: Optional[PathSetCache] = None,
) -> PathGenerator:
    """A path generator for *network* under *policy* (default: unrestricted).

    Returns *cache*'s warm generator when the cache serves exactly that
    policy, and a fresh generator carrying *policy* otherwise — a cache
    built for one policy must never hand its paths to another.
    """
    wanted = policy or PathPolicy.unrestricted()
    if cache is not None and (cache.policy or PathPolicy.unrestricted()) == wanted:
        return cache.generator_for(network)
    return PathGenerator(network, wanted)

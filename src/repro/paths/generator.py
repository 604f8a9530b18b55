"""Congestion-aware alternative path generation.

Paper §2.4 resolves the path-selection catch-22 iteratively: run the traffic
model on the current path sets, and for every aggregate that experiences
congestion ask the path generator for three alternatives not already in its
path set:

1. a **global** path — the lowest-delay path avoiding *all* congested links,
2. a **local** path — the lowest-delay path avoiding the congested links
   *used by this aggregate*,
3. a **link-local** path — the lowest-delay path avoiding only the *most
   congested* link used by the aggregate.

The generator caches shortest-path queries keyed by (source, destination,
exclusion set) because the optimizer issues the same queries repeatedly while
working through a congested link.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.exceptions import PathError
from repro.paths.dijkstra import shortest_path_or_none, shortest_paths_from
from repro.paths.ksp import k_shortest_paths_or_fewer
from repro.paths.pathset import PathSet
from repro.paths.policy import PathPolicy
from repro.topology.graph import LinkId, Network, Path


@dataclass(frozen=True)
class AlternativePaths:
    """The three candidate paths of §2.4; any of them may be None.

    ``global_path`` avoids every congested link, ``local_path`` avoids the
    congested links used by the aggregate, and ``link_local_path`` avoids
    only the most congested link used by the aggregate.
    """

    global_path: Optional[Path]
    local_path: Optional[Path]
    link_local_path: Optional[Path]

    def candidates(self) -> Tuple[Path, ...]:
        """The distinct non-None candidates, global first."""
        seen: List[Path] = []
        for path in (self.global_path, self.local_path, self.link_local_path):
            if path is not None and path not in seen:
                seen.append(path)
        return tuple(seen)

    def is_empty(self) -> bool:
        """True when no alternative could be found."""
        return not self.candidates()


class PathGenerator:
    """Produces lowest-delay and congestion-avoiding paths on one network.

    Parameters
    ----------
    network:
        The topology to generate paths on.
    policy:
        Base policy applied to every query (default: unrestricted).  The
        congestion-driven exclusions are layered on top of it.
    """

    def __init__(self, network: Network, policy: Optional[PathPolicy] = None) -> None:
        self.network = network
        self.policy = policy or PathPolicy.unrestricted()
        self._cache: Dict[Tuple[str, str, FrozenSet[LinkId]], Optional[Path]] = {}
        self._ksp_cache: Dict[Tuple[str, str, int], List[Path]] = {}

    # ----------------------------------------------------------- basic paths

    def lowest_delay_path(self, source: str, destination: str) -> Optional[Path]:
        """The policy-compliant lowest-delay path, or None when disconnected."""
        return self._query(source, destination, frozenset())

    def lowest_delay_paths(
        self, source: str, destinations: Iterable[str]
    ) -> Dict[str, Optional[Path]]:
        """:meth:`lowest_delay_path` from *source* to each of *destinations*.

        Memoized with it: the destinations not cached yet share one search
        from *source* (:func:`~repro.paths.dijkstra.shortest_paths_from`),
        which stops once each of them is settled.
        """
        policy_links, policy_nodes = self.policy.exclusions()
        paths: Dict[str, Optional[Path]] = {}
        missing: List[str] = []
        for destination in destinations:
            cache_key = (source, destination, policy_links)
            if cache_key in self._cache:
                paths[destination] = self._cache[cache_key]
            else:
                missing.append(destination)
        if missing:
            found = shortest_paths_from(
                self.network,
                source,
                missing,
                excluded_links=policy_links,
                excluded_nodes=policy_nodes,
            )
            for destination in missing:
                path = self._compliant(found.get(destination))
                self._cache[(source, destination, policy_links)] = path
                paths[destination] = path
        return paths

    def lowest_delay_path_avoiding(
        self,
        source: str,
        destination: str,
        excluded_links: AbstractSet[LinkId],
    ) -> Optional[Path]:
        """The policy-compliant lowest-delay path avoiding *excluded_links*."""
        return self._query(source, destination, frozenset(excluded_links))

    def k_shortest(self, source: str, destination: str, k: int) -> List[Path]:
        """Up to *k* policy-compliant lowest-delay paths (used by baselines/ablations).

        Results are cached per ``(source, destination, k)`` — Yen's algorithm
        dominates baseline construction, and the same queries repeat across
        cells sharing a topology.  Callers get a fresh list each time so the
        cached answer cannot be mutated in place.
        """
        cache_key = (source, destination, k)
        cached = self._ksp_cache.get(cache_key)
        if cached is None:
            paths = k_shortest_paths_or_fewer(self.network, source, destination, k)
            cached = [
                path for path in paths if self.policy.is_compliant(self.network, path)
            ]
            self._ksp_cache[cache_key] = cached
        return list(cached)

    # --------------------------------------------------- §2.4 alternatives

    def alternatives(
        self,
        source: str,
        destination: str,
        congested_links: AbstractSet[LinkId],
        aggregate_congested_links: AbstractSet[LinkId],
        most_congested_link: Optional[LinkId],
        existing_paths: Optional[PathSet] = None,
    ) -> AlternativePaths:
        """Return the global / local / link-local alternatives of §2.4.

        Parameters
        ----------
        congested_links:
            Every congested link in the network (for the global path).
        aggregate_congested_links:
            The congested links actually used by the aggregate's current
            bundles (for the local path).
        most_congested_link:
            The single most congested link used by the aggregate (for the
            link-local path).  May be None when the aggregate is uncongested.
        existing_paths:
            The aggregate's current path set; paths already present are not
            reported again ("three alternative different policy-compliant
            paths not currently in the path set").
        """
        global_path = self._novel(
            self._query(source, destination, frozenset(congested_links)),
            existing_paths,
        )
        local_path = self._novel(
            self._query(source, destination, frozenset(aggregate_congested_links)),
            existing_paths,
        )
        if most_congested_link is not None:
            link_local_path = self._novel(
                self._query(source, destination, frozenset({most_congested_link})),
                existing_paths,
            )
        else:
            link_local_path = None
        return AlternativePaths(
            global_path=global_path,
            local_path=local_path,
            link_local_path=link_local_path,
        )

    # ------------------------------------------------------------- internals

    def _novel(self, path: Optional[Path], existing: Optional[PathSet]) -> Optional[Path]:
        if path is None:
            return None
        if existing is not None and path in existing:
            return None
        return path

    def _query(
        self, source: str, destination: str, extra_exclusions: FrozenSet[LinkId]
    ) -> Optional[Path]:
        policy_links, policy_nodes = self.policy.exclusions()
        excluded_links = policy_links | extra_exclusions
        cache_key = (source, destination, excluded_links)
        if cache_key in self._cache:
            return self._cache[cache_key]
        path = self._compliant(
            shortest_path_or_none(
                self.network,
                source,
                destination,
                excluded_links=excluded_links,
                excluded_nodes=policy_nodes,
            )
        )
        self._cache[cache_key] = path
        return path

    def _compliant(self, path: Optional[Path]) -> Optional[Path]:
        """*path*, or None when it breaks the policy.

        The hop/delay ceilings cannot be pushed into Dijkstra; they are
        enforced as this post-filter.
        """
        if path is not None and not self.policy.is_compliant(self.network, path):
            return None
        return path

    def clear_cache(self) -> None:
        """Drop all cached shortest-path answers (e.g. after editing the network)."""
        self._cache.clear()
        self._ksp_cache.clear()

    @property
    def cache_size(self) -> int:
        """Number of cached shortest-path queries (useful in performance tests)."""
        return len(self._cache)

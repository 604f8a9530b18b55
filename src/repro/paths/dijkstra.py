"""Delay-weighted shortest paths.

FUBAR's default path for every aggregate is "simply the lowest delay path"
(§2.4), and all three alternative-path queries are lowest-delay searches that
avoid a set of links.  This module implements Dijkstra's algorithm directly
on the :class:`~repro.topology.graph.Network` container with support for
excluded links and nodes, which is all the path generator needs.

The implementation is cross-checked against ``networkx.shortest_path`` in the
test suite.
"""

from __future__ import annotations

import heapq
from typing import AbstractSet, Dict, FrozenSet, Iterable, Optional, Tuple

from repro.exceptions import NoPathError, UnknownNodeError
from repro.topology.graph import LinkId, Network, Path

#: The empty exclusion set, shared to avoid re-allocating it on every call.
NO_LINKS: FrozenSet[LinkId] = frozenset()
NO_NODES: FrozenSet[str] = frozenset()


def shortest_path(
    network: Network,
    source: str,
    destination: str,
    excluded_links: AbstractSet[LinkId] = NO_LINKS,
    excluded_nodes: AbstractSet[str] = NO_NODES,
) -> Path:
    """Return the lowest-delay path from *source* to *destination*.

    Links in *excluded_links* and nodes in *excluded_nodes* (other than the
    endpoints) are treated as absent.  Raises :class:`NoPathError` when no
    path survives the exclusions.
    """
    path = shortest_paths_from(
        network, source, (destination,), excluded_links, excluded_nodes
    ).get(destination)
    if path is None:
        raise NoPathError(
            source,
            destination,
            "source equals destination"
            if source == destination
            else "exclusions disconnect the pair",
        )
    return path


def shortest_path_or_none(
    network: Network,
    source: str,
    destination: str,
    excluded_links: AbstractSet[LinkId] = NO_LINKS,
    excluded_nodes: AbstractSet[str] = NO_NODES,
) -> Optional[Path]:
    """Like :func:`shortest_path` but returns None instead of raising."""
    try:
        return shortest_path(network, source, destination, excluded_links, excluded_nodes)
    except NoPathError:
        return None


def shortest_paths_from(
    network: Network,
    source: str,
    destinations: Iterable[str],
    excluded_links: AbstractSet[LinkId] = NO_LINKS,
    excluded_nodes: AbstractSet[str] = NO_NODES,
) -> Dict[str, Path]:
    """Lowest-delay paths from *source* to each of *destinations*, in one search.

    Each path is the one a search for that destination alone finds; a
    destination that is the source or that the exclusions disconnect is
    left out.  The search stops once every destination is settled, before
    expanding the last one.  A destination in *excluded_nodes* is reached
    (an endpoint is never excluded) but never expanded, so it lies on no
    other destination's path, as a search for that other destination
    alone never enters it.  Ties between equal-delay routes break by node
    name, the heap's order, whichever destinations share the search.
    """
    if not network.has_node(source):
        raise UnknownNodeError(source)
    wanted = list(dict.fromkeys(destinations))
    for destination in wanted:
        if not network.has_node(destination):
            raise UnknownNodeError(destination)
    targets = frozenset(wanted) - {source}
    pending = set(targets)

    distances: Dict[str, float] = {source: 0.0}
    previous: Dict[str, str] = {}
    visited: set = set()
    queue: list = [(0.0, source)]

    while queue and pending:
        distance, node = heapq.heappop(queue)
        if node in visited:
            continue
        visited.add(node)
        pending.discard(node)
        if not pending:
            break
        if node in excluded_nodes and node != source:
            continue
        for link in network.out_links(node):
            neighbour = link.dst
            if neighbour in visited:
                continue
            if neighbour in excluded_nodes and neighbour not in targets:
                continue
            if link.link_id in excluded_links:
                continue
            candidate = distance + link.delay_s
            if candidate < distances.get(neighbour, float("inf")):
                distances[neighbour] = candidate
                previous[neighbour] = node
                heapq.heappush(queue, (candidate, neighbour))

    paths: Dict[str, Path] = {}
    for destination in wanted:
        if destination not in previous:
            continue
        path = [destination]
        while path[-1] != source:
            path.append(previous[path[-1]])
        path.reverse()
        paths[destination] = tuple(path)
    return paths


def shortest_path_tree(network: Network, source: str) -> Dict[str, Path]:
    """Return the lowest-delay path from *source* to every reachable node.

    The result maps destination name to path; the source itself is omitted.
    Used by the shortest-path baseline, which routes every aggregate over
    this tree.
    """
    return shortest_paths_from(network, source, network.node_names)


def all_pairs_shortest_paths(network: Network) -> Dict[Tuple[str, str], Path]:
    """Lowest-delay path for every ordered pair of distinct, connected nodes."""
    result: Dict[Tuple[str, str], Path] = {}
    for source in network.node_names:
        for destination, path in shortest_path_tree(network, source).items():
            result[(source, destination)] = path
    return result


def path_exists(
    network: Network,
    source: str,
    destination: str,
    excluded_links: AbstractSet[LinkId] = NO_LINKS,
) -> bool:
    """Return True when *destination* is reachable from *source* under the exclusions."""
    return (
        shortest_path_or_none(network, source, destination, excluded_links) is not None
    )

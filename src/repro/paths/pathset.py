"""Per-aggregate path sets.

Paper §2.4: the optimizer keeps, for every aggregate, a small ordered set of
policy-compliant paths — the lowest-delay default plus alternatives added as
congestion is discovered ("approximately ten to fifteen paths in the path set
for each aggregate" after a few iterations).  :class:`PathSet` is that
container: insertion-ordered, duplicate-free, delay-aware.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import PathError
from repro.topology.graph import LinkId, Network, Path


class PathSet:
    """An ordered, duplicate-free collection of paths for one aggregate."""

    def __init__(self, network: Network, paths: Optional[Sequence[Path]] = None) -> None:
        self._network = network
        self._paths: List[Path] = []
        self._delays: Dict[Path, float] = {}
        self._links: Dict[Path, FrozenSet[LinkId]] = {}
        for path in paths or ():
            self.add(path)

    # ----------------------------------------------------------------- build

    def add(self, path: Sequence[str]) -> bool:
        """Add *path* (validated against the network); returns False if already present."""
        validated = self._network.validate_path(path)
        if validated in self._delays:
            return False
        self._paths.append(validated)
        self._delays[validated] = self._network.path_delay(validated)
        self._links[validated] = frozenset(zip(validated, validated[1:]))
        return True

    def add_many(self, paths: Sequence[Sequence[str]]) -> int:
        """Add several paths; returns how many were new."""
        return sum(1 for path in paths if self.add(path))

    # ---------------------------------------------------------------- access

    @property
    def paths(self) -> Tuple[Path, ...]:
        """All paths, in insertion order (the default path is always first)."""
        return tuple(self._paths)

    @property
    def default_path(self) -> Path:
        """The first path added — by convention the lowest-delay path."""
        if not self._paths:
            raise PathError("path set is empty")
        return self._paths[0]

    def delay_of(self, path: Sequence[str]) -> float:
        """Propagation delay of a member path in seconds."""
        key = tuple(path)
        if key not in self._delays:
            raise PathError(f"path {key!r} is not in the path set")
        return self._delays[key]

    def sorted_by_delay(self) -> Tuple[Path, ...]:
        """Member paths ordered from lowest to highest delay."""
        return tuple(sorted(self._paths, key=self._delays.__getitem__))

    def lowest_delay_path(self) -> Path:
        """The member path with the smallest propagation delay."""
        if not self._paths:
            raise PathError("path set is empty")
        return min(self._paths, key=self._delays.__getitem__)

    def paths_avoiding(self, link_id: LinkId) -> Tuple[Path, ...]:
        """Member paths that do not traverse *link_id*."""
        return tuple(
            path for path in self._paths if link_id not in self._links[path]
        )

    def uses_link(self, link_id: LinkId) -> bool:
        """True when any member path traverses *link_id*."""
        return any(link_id in self._links[path] for path in self._paths)

    # --------------------------------------------------------------- dunders

    def __contains__(self, path: Sequence[str]) -> bool:
        return tuple(path) in self._delays

    def __iter__(self) -> Iterator[Path]:
        return iter(self._paths)

    def __len__(self) -> int:
        return len(self._paths)

    def __repr__(self) -> str:
        return f"PathSet(paths={len(self._paths)})"

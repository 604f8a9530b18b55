"""Allocation state: which flows of which aggregate travel over which path.

The optimizer's unit of work is a move — take N flows of one aggregate off
one path and put them on another — and :class:`AllocationState` is the
immutable-ish record those moves are applied to.  A state knows how to turn
itself into the bundle list the traffic model consumes.

The optimizer scores a candidate move as the move tuple itself
(:data:`repro.trafficmodel.compiled.Move`), against the compiled bundle list
of the state's evaluation, and forks a state only for the move it commits
(:meth:`AllocationState.with_move` copies only the allocation of the
affected aggregate).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.exceptions import AllocationError, NoPathError
from repro.paths.generator import PathGenerator
from repro.paths.pathset import PathSet
from repro.topology.graph import Network, Path
from repro.traffic.aggregate import Aggregate, AggregateKey
from repro.traffic.matrix import TrafficMatrix
from repro.trafficmodel.bundle import Bundle

#: One aggregate's allocation: path -> number of flows on that path.
AggregateAllocation = Dict[Path, int]


class AllocationState:
    """Maps every aggregate to a distribution of its flows over paths."""

    def __init__(
        self,
        network: Network,
        traffic_matrix: TrafficMatrix,
        allocations: Mapping[AggregateKey, AggregateAllocation],
    ) -> None:
        self.network = network
        self.traffic_matrix = traffic_matrix
        self._allocations: Dict[AggregateKey, AggregateAllocation] = {
            key: dict(paths) for key, paths in allocations.items()
        }
        self._validate()

    # ------------------------------------------------------------ validation

    def _validate(self) -> None:
        for key, allocation in self._allocations.items():
            aggregate = self.traffic_matrix.get(key)
            if not allocation:
                raise AllocationError(f"aggregate {key!r} has no paths allocated")
            total = 0
            for path, flows in allocation.items():
                if flows <= 0:
                    raise AllocationError(
                        f"aggregate {key!r} has a non-positive flow count "
                        f"({flows}) on path {path!r}"
                    )
                if path[0] != aggregate.source or path[-1] != aggregate.destination:
                    raise AllocationError(
                        f"path {path!r} does not connect the endpoints of {key!r}"
                    )
                total += flows
            if total != aggregate.num_flows:
                raise AllocationError(
                    f"aggregate {key!r} allocates {total} flows but has "
                    f"{aggregate.num_flows}"
                )

    # ------------------------------------------------------------- factories

    @classmethod
    def initial(
        cls,
        network: Network,
        traffic_matrix: TrafficMatrix,
        path_generator: Optional[PathGenerator] = None,
    ) -> "AllocationState":
        """All flows of every aggregate on its lowest-delay path (Listing 1, line 1)."""
        generator = path_generator or PathGenerator(network)
        aggregates = list(traffic_matrix)
        paths = _lowest_delay_paths(generator, aggregates)
        allocations: Dict[AggregateKey, AggregateAllocation] = {
            aggregate.key: {paths[aggregate.key]: aggregate.num_flows}
            for aggregate in aggregates
        }
        return cls(network, traffic_matrix, allocations)

    @classmethod
    def warm_start(
        cls,
        previous: "AllocationState",
        traffic_matrix: TrafficMatrix,
        path_generator: Optional[PathGenerator] = None,
    ) -> "AllocationState":
        """Seed a state for *traffic_matrix* from a previous cycle's allocation.

        Aggregates present in *previous* keep their path split: the new flow
        count is apportioned over the same paths proportionally to the old
        distribution (largest-remainder rounding, so the counts stay exact
        integers).  Aggregates new to the matrix start on their lowest-delay
        path; aggregates that disappeared are dropped.  This is the
        re-optimization entry point of the control loop — each cycle starts
        from the deployed solution instead of from shortest paths.
        """
        generator = path_generator or PathGenerator(previous.network)
        paths = _lowest_delay_paths(
            generator,
            [
                aggregate
                for aggregate in traffic_matrix
                if not previous._allocations.get(aggregate.key)
            ],
        )
        allocations: Dict[AggregateKey, AggregateAllocation] = {}
        for aggregate in traffic_matrix:
            key = aggregate.key
            old = previous._allocations.get(key)
            if old:
                allocations[key] = apportion_flows(old, aggregate.num_flows)
            else:
                allocations[key] = {paths[key]: aggregate.num_flows}
        return cls(previous.network, traffic_matrix, allocations)

    # ----------------------------------------------------------------- reads

    @property
    def aggregate_keys(self) -> Tuple[AggregateKey, ...]:
        """Keys of every allocated aggregate."""
        return tuple(self._allocations.keys())

    def allocation_of(self, key: AggregateKey) -> AggregateAllocation:
        """A copy of one aggregate's path -> flows mapping."""
        if key not in self._allocations:
            raise AllocationError(f"no allocation for aggregate {key!r}")
        return dict(self._allocations[key])

    def paths_of(self, key: AggregateKey) -> Tuple[Path, ...]:
        """The paths currently carrying flows of one aggregate."""
        return tuple(self.allocation_of(key).keys())

    def flows_on(self, key: AggregateKey, path: Path) -> int:
        """Number of flows of *key* currently on *path* (0 when none)."""
        if key not in self._allocations:
            raise AllocationError(f"no allocation for aggregate {key!r}")
        return self._allocations[key].get(tuple(path), 0)

    def num_paths(self, key: AggregateKey) -> int:
        """Number of distinct paths carrying flows of one aggregate."""
        return len(self.allocation_of(key))

    def bundles(self) -> List[Bundle]:
        """The bundle list the traffic model consumes (one bundle per used path)."""
        bundles: List[Bundle] = []
        for key, allocation in self._allocations.items():
            aggregate = self.traffic_matrix.get(key)
            for path, flows in allocation.items():
                bundles.append(Bundle(aggregate=aggregate, path=path, num_flows=flows))
        return bundles

    def total_flows(self) -> int:
        """Total flows across all aggregates (invariant: equals the traffic matrix)."""
        return sum(
            flows
            for allocation in self._allocations.values()
            for flows in allocation.values()
        )

    def split_summary(self) -> Dict[AggregateKey, int]:
        """Number of paths used per aggregate (handy for reports and tests)."""
        return {key: len(allocation) for key, allocation in self._allocations.items()}

    # ----------------------------------------------------------------- moves

    def _check_move(
        self,
        key: AggregateKey,
        from_path: Path,
        to_path: Path,
        num_flows: int,
    ) -> Tuple[Path, Path, int, Aggregate]:
        """Validate a move; returns the normalized paths, the current flow
        count on ``from_path`` and the aggregate."""
        if num_flows <= 0:
            raise AllocationError(f"must move a positive number of flows, got {num_flows}")
        from_path = tuple(from_path)
        to_path = tuple(to_path)
        if from_path == to_path:
            raise AllocationError("cannot move flows onto the path they are already on")
        current = self.flows_on(key, from_path)
        if current < num_flows:
            raise AllocationError(
                f"aggregate {key!r} only has {current} flows on {from_path!r}, "
                f"cannot move {num_flows}"
            )
        aggregate = self.traffic_matrix.get(key)
        if to_path[0] != aggregate.source or to_path[-1] != aggregate.destination:
            raise AllocationError(
                f"target path {to_path!r} does not connect the endpoints of {key!r}"
            )
        return from_path, to_path, current, aggregate

    def move_delta(
        self,
        key: AggregateKey,
        from_path: Path,
        to_path: Path,
        num_flows: int,
    ) -> Dict[Tuple[AggregateKey, Path], Optional[Bundle]]:
        """The bundle patch a move induces.

        Returns the two changed rows as a
        :data:`~repro.trafficmodel.compiled.BundlePatch`: the shrunk (or
        removed, when every flow leaves) from-path bundle and the grown (or
        brand-new) to-path bundle.  The state itself is not modified.
        Nothing in the optimizer calls it: the scorer takes the move tuple.
        It stays, as ``CompiledTrafficModel.compile_patched`` does, because
        ``perfbench/tracing.py`` wraps it by name, until the in-tree span
        recorder of ROADMAP.md item 10 replaces that patch table.
        """
        from_path, to_path, current, aggregate = self._check_move(
            key, from_path, to_path, num_flows
        )
        delta: Dict[Tuple[AggregateKey, Path], Optional[Bundle]] = {}
        if current == num_flows:
            delta[(key, from_path)] = None
        else:
            delta[(key, from_path)] = Bundle(
                aggregate=aggregate, path=from_path, num_flows=current - num_flows
            )
        existing = self._allocations[key].get(to_path, 0)
        delta[(key, to_path)] = Bundle(
            aggregate=aggregate, path=to_path, num_flows=existing + num_flows
        )
        return delta

    def with_move(
        self,
        key: AggregateKey,
        from_path: Path,
        to_path: Path,
        num_flows: int,
    ) -> "AllocationState":
        """Return a new state with *num_flows* of *key* moved between two paths.

        Moving every flow off ``from_path`` removes that path from the
        aggregate's allocation.  The source path must currently carry at
        least *num_flows*; the destination path may be new.
        """
        from_path, to_path, current, _ = self._check_move(
            key, from_path, to_path, num_flows
        )
        new_allocation = dict(self._allocations[key])
        if current == num_flows:
            del new_allocation[from_path]
        else:
            new_allocation[from_path] = current - num_flows
        new_allocation[to_path] = new_allocation.get(to_path, 0) + num_flows

        allocations = dict(self._allocations)
        allocations[key] = new_allocation
        clone = AllocationState.__new__(AllocationState)
        clone.network = self.network
        clone.traffic_matrix = self.traffic_matrix
        clone._allocations = allocations
        return clone

    # --------------------------------------------------------------- dunders

    def __len__(self) -> int:
        return len(self._allocations)

    def __repr__(self) -> str:
        num_bundles = sum(len(a) for a in self._allocations.values())
        return (
            f"AllocationState(aggregates={len(self._allocations)}, bundles={num_bundles})"
        )


def _lowest_delay_paths(
    generator: PathGenerator, aggregates: List[Aggregate]
) -> Dict[AggregateKey, Path]:
    """Each aggregate's lowest-delay path, from one search per source.

    Raises :class:`NoPathError` for the first aggregate, in order, that
    cannot be routed at all.
    """
    by_source: Dict[str, List[str]] = {}
    for aggregate in aggregates:
        by_source.setdefault(aggregate.source, []).append(aggregate.destination)
    found = {
        source: generator.lowest_delay_paths(source, destinations)
        for source, destinations in by_source.items()
    }
    paths: Dict[AggregateKey, Path] = {}
    for aggregate in aggregates:
        path = found[aggregate.source][aggregate.destination]
        if path is None:
            raise NoPathError(
                aggregate.source,
                aggregate.destination,
                "aggregate cannot be routed at all",
            )
        paths[aggregate.key] = path
    return paths


def apportion_flows(allocation: AggregateAllocation, total: int) -> AggregateAllocation:
    """Distribute *total* flows over the paths of *allocation* proportionally.

    Largest-remainder rounding keeps the result an exact integer partition of
    *total*; paths whose share rounds to zero are dropped.  *allocation* must
    be non-empty and *total* positive (AllocationState validates both).
    """
    old_total = sum(allocation.values())
    quotas = {path: flows * total / old_total for path, flows in allocation.items()}
    apportioned = {path: int(quota) for path, quota in quotas.items()}
    leftover = total - sum(apportioned.values())
    # Stable sort: ties in the fractional part keep the allocation's order.
    by_remainder = sorted(
        quotas, key=lambda path: quotas[path] - apportioned[path], reverse=True
    )
    for path in by_remainder[:leftover]:
        apportioned[path] += 1
    return {path: flows for path, flows in apportioned.items() if flows > 0}


def build_path_sets(
    network: Network,
    state: AllocationState,
    previous: Optional[Mapping[AggregateKey, PathSet]] = None,
) -> Dict[AggregateKey, PathSet]:
    """Create one :class:`PathSet` per aggregate seeded with its allocated paths.

    When *previous* path sets are given (warm start), each aggregate's set
    additionally inherits the alternatives discovered in earlier cycles, so
    re-optimization does not have to regenerate them.  The inherited sets are
    copied, never mutated.
    """
    path_sets: Dict[AggregateKey, PathSet] = {}
    for key in state.aggregate_keys:
        path_set = PathSet(network, state.paths_of(key))
        if previous and key in previous:
            path_set.add_many(previous[key].paths)
        path_sets[key] = path_set
    return path_sets

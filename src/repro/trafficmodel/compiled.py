"""Compiled/incremental traffic-model engine — the optimizer's hot path.

The optimizer evaluates the traffic model once per candidate move (paper
Listing 2), and a candidate move changes only one or two bundles.  The
event-driven implementation in :mod:`repro.trafficmodel.waterfill`
(:func:`~repro.trafficmodel.waterfill.reference_evaluate`) nevertheless
rebuilds demands, RTTs, growth rates and the full link x bundle incidence
matrix from the network graph on every call, and then advances one event per
bundle.  This module removes both costs:

* :meth:`CompiledTrafficModel.compile` turns a bundle list into a
  :class:`CompiledBundles` — dense numpy arrays backed by a per-(aggregate,
  path) row cache, so the graph walks (link indices, RTT, path delay, the
  delay component of the utility function) happen once per distinct path and
  are reused across every subsequent evaluation;
* :meth:`CompiledTrafficModel.solve` replaces the one-event-per-bundle loop
  with a *waterfall* formulation: between two link-saturation events every
  bundle's rate trajectory is the closed form ``min(growth * t, demand)``, so
  all demand-satisfaction events inside the interval are resolved at once and
  the loop runs one round per saturated link (a handful) instead of one event
  per bundle (hundreds);
* the solve reads a compiled list through its *solver layout* — its stable
  satisfy-time order, link CSR and per-link growth sums, built once per
  compiled list — as a one-block :class:`_Waterfall` system.  The event
  loop itself is written for many blocks in lockstep rounds (block *k* owns
  stacked links ``k*L .. (k+1)*L-1``), which only the scorer's chunks use;
* :class:`BatchedCandidateScorer` scores every candidate move of an
  optimization step (:data:`Move`: flows of one aggregate moved from one
  path to another) in the *base's* index space.  It resolves each move
  against the base once.  A move differs from the step's compiled base in
  two rows, so a candidate block reuses the base layout's order and link
  segments and rebuilds only the segments the two rows cross — no
  per-candidate bundle, compile, sort or CSR build — before one shared
  event loop solves the chunk and one roll-up scores it.  Blocks
  are solved only on the links some candidate of the step can saturate,
  and a bundle crossing none of them is scored at its demand.  Each score
  is bitwise the network utility of evaluating the moved state;
* one vectorized roll-up turns rates into utilities, over cached per-path
  delay factors and grouped bandwidth components: :meth:`result_of
  <CompiledTrafficModel.result_of>` gives every result its per-aggregate
  utilities (and the compiled list and rates it solved, which the
  optimizer's next step scores against), and
  :meth:`CompiledTrafficModel.weighted_utility` and the scorer average them
  with the sequential sum of
  :func:`~repro.utility.aggregation.network_utility`, so the
  ``weighted_utility`` of a compiled list equals its result's
  ``network_utility`` bit for bit.

The engine is semantically equivalent to ``reference_evaluate`` (same event
ordering rules, same satisfaction/saturation tolerances); the equivalence is
enforced by the property suite in ``tests/test_trafficmodel_compiled.py``;
``tests/test_batched_scorer.py`` holds the scorer to the moved-state
evaluation bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import TrafficModelError
from repro.topology.graph import Network, Path
from repro.traffic.aggregate import Aggregate, AggregateKey
from repro.trafficmodel.bundle import Bundle, check_bundle_path
from repro.trafficmodel.result import BundleOutcome, TrafficModelResult
from repro.utility.aggregation import AggregateUtility, PriorityWeights

#: RTT floor, seconds.  Keeps growth rates finite on zero-delay test topologies.
MIN_RTT_S = 1e-4

#: Relative tolerance for "demand met" and "link saturated" decisions.
_REL_EPS = 1e-9

#: Absolute slack (bps) below which remaining link capacity counts as exhausted.
_ABS_EPS = 1e-6

#: Relative margin of the solver's bounded saturation sweep: each link's
#: load bound starts from its total growth inflated by it and is compared
#: with the threshold deflated by it.  It dwarfs the rounding of the bound's
#: operands (a few ulps per crossing bundle), so a link whose bound stays
#: below the deflated threshold cannot pass the exact load check.
_SWEEP_MARGIN = 1e-9

#: A patch maps (aggregate key, path) to the replacement bundle for that row,
#: or None to drop the row.  Pairs absent from the base are appended.  Only
#: :meth:`CompiledTrafficModel.compile_patched` reads one.
BundlePatch = Mapping[Tuple[AggregateKey, Path], Optional[Bundle]]

#: A candidate move (paper Listing 2): flows of one aggregate moved from one
#: path to another, as (aggregate key, from path, to path, flows moved).
Move = Tuple[AggregateKey, Path, Path, int]


@dataclass(frozen=True)
class TrafficModelConfig:
    """Tuning knobs of the progressive-filling model.

    Parameters
    ----------
    min_rtt_s:
        Lower bound applied to every bundle's RTT before computing its growth
        rate, so zero-delay topologies (used in tests) stay well-defined.
    rtt_fairness:
        When True (the default, per the paper) a bundle's growth rate is
        proportional to ``num_flows / RTT`` — TCP-like RTT bias.  When False
        every flow grows at the same rate regardless of RTT (pure per-flow
        max-min fairness).  No benchmark sets it to False; the tests do, to
        hold the engine and the scorer to their oracles under equal growth.
    """

    min_rtt_s: float = MIN_RTT_S
    rtt_fairness: bool = True

    def __post_init__(self) -> None:
        if self.min_rtt_s <= 0.0:
            raise TrafficModelError(f"min_rtt_s must be positive, got {self.min_rtt_s!r}")


class _BundleRow:
    """Cached, flow-count-independent facts about one (aggregate, path) pair."""

    __slots__ = (
        "utility",
        "bandwidth",
        "link_indices",
        "rtt_s",
        "per_flow_demand_bps",
        "delay_utility",
    )

    def __init__(
        self, network: Network, aggregate: Aggregate, path: Path, min_rtt_s: float
    ) -> None:
        utility = aggregate.utility
        self.utility = utility
        self.bandwidth = utility.bandwidth
        self.link_indices = np.asarray(network.path_link_indices(path), dtype=np.intp)
        path_delay_s = network.path_delay(path)
        self.rtt_s = max(2.0 * path_delay_s, min_rtt_s)
        self.per_flow_demand_bps = aggregate.per_flow_demand_bps
        self.delay_utility = float(utility.delay(path_delay_s))


class _Solution:
    """Raw arrays produced by one solver run (no result objects yet)."""

    __slots__ = ("rates", "bottleneck")

    def __init__(self, rates: np.ndarray, bottleneck: np.ndarray) -> None:
        self.rates = rates
        #: Dense link index of the bottleneck per bundle, -1 when none.
        self.bottleneck = bottleneck


class CompiledBundles:
    """A bundle list compiled to dense arrays, ready for repeated solving.

    Instances are produced by :meth:`CompiledTrafficModel.compile`, so
    aggregate ids follow each aggregate's first bundle and every aggregate
    holds at least one bundle.  They are treated as immutable by the solver.
    """

    __slots__ = (
        "bundles",
        "rows",
        "demands",
        "growth",
        "flows",
        "num_links",
        "agg_ids",
        "aggregates",
        "agg_index",
        "agg_class_ids",
        "class_names",
        "comp_ids",
        "components",
        "delay_factors",
        "_index",
        "_agg_flows",
        "_flat_links",
        "_link_counts",
        "_layout",
    )

    def __init__(
        self,
        bundles: Tuple[Bundle, ...],
        rows: Tuple[_BundleRow, ...],
        demands: np.ndarray,
        growth: np.ndarray,
        flows: np.ndarray,
        agg_ids: np.ndarray,
        aggregates: List[Aggregate],
        agg_index: Dict[AggregateKey, int],
        agg_class_ids: np.ndarray,
        class_names: List[str],
        comp_ids: np.ndarray,
        components: List[object],
        delay_factors: np.ndarray,
        num_links: int,
    ) -> None:
        self.bundles = bundles
        self.rows = rows
        self.demands = demands
        self.growth = growth
        self.flows = flows
        self.num_links = num_links
        self.agg_ids = agg_ids
        self.aggregates = aggregates
        self.agg_index = agg_index
        self.agg_class_ids = agg_class_ids
        self.class_names = class_names
        self.comp_ids = comp_ids
        self.components = components
        self.delay_factors = delay_factors
        self._index: Optional[Dict[Tuple[AggregateKey, Path], int]] = None
        self._agg_flows: Optional[np.ndarray] = None
        self._flat_links: Optional[np.ndarray] = None
        self._link_counts: Optional[np.ndarray] = None
        self._layout: Optional[_SolverLayout] = None

    def __len__(self) -> int:
        return len(self.bundles)

    @property
    def index(self) -> Dict[Tuple[AggregateKey, Path], int]:
        """Column index per (aggregate key, path), built on first use."""
        if self._index is None:
            self._index = {
                (bundle.aggregate_key, bundle.path): j
                for j, bundle in enumerate(self.bundles)
            }
        return self._index

    @property
    def agg_flows(self) -> np.ndarray:
        """Total flows per aggregate id."""
        if self._agg_flows is None:
            self._agg_flows = np.bincount(
                self.agg_ids, weights=self.flows, minlength=len(self.aggregates)
            )
        return self._agg_flows

    @property
    def flat_links(self) -> Tuple[np.ndarray, np.ndarray]:
        """(concatenated link indices, per-bundle counts) for deterministic
        per-link accumulation (``np.bincount`` sums in a fixed order, unlike
        BLAS matrix products whose rounding depends on memory alignment)."""
        if self._flat_links is None:
            if self.rows:
                self._flat_links = np.concatenate(
                    [row.link_indices for row in self.rows]
                )
                self._link_counts = np.asarray(
                    [row.link_indices.shape[0] for row in self.rows], dtype=np.intp
                )
            else:
                self._flat_links = np.zeros(0, dtype=np.intp)
                self._link_counts = np.zeros(0, dtype=np.intp)
        return self._flat_links, self._link_counts

    @property
    def layout(self) -> "_SolverLayout":
        """The solver's view of this bundle list, built on first solve."""
        if self._layout is None:
            self._layout = _SolverLayout(self)
        return self._layout

    def rollup(self, rates: np.ndarray) -> np.ndarray:
        """Per-aggregate utilities of one solution, by aggregate id."""
        return _rollup(
            rates[None, :], self.flows[None, :], self.comp_ids[None, :],
            self.components, self.delay_factors[None, :], self.agg_ids[None, :],
            self.agg_flows,
        )[0]


def _saturation_threshold(capacities: np.ndarray) -> np.ndarray:
    """Load at which each link saturates: its capacity less the model's
    absolute and relative slack."""
    return capacities - (capacities * _REL_EPS + _ABS_EPS)


def _gather_slices(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat indices gathering ``concatenate(arr[s : s + c] for s, c)``.

    Vectorizes the slice-and-concatenate pattern (O(total) repeat plus
    intra-slice offsets) so callers can pull the entries of many CSR
    segments without a Python-level loop.
    """
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.intp)
    if starts.shape[0] == 1:
        first = int(starts[0])
        return np.arange(first, first + total, dtype=np.intp)
    offsets = np.zeros(counts.shape[0], dtype=np.intp)
    np.cumsum(counts[:-1], out=offsets[1:])
    return np.repeat(starts - offsets, counts) + np.arange(total, dtype=np.intp)


def _csr_entry_order(
    links: np.ndarray, positions: np.ndarray, num_cols: int
) -> np.ndarray:
    """Permutation sorting entries row-major (by link) then column-minor.

    The (link, position) pairs must be unique — the traffic model guarantees
    it because paths are simple — so the keys ``link * num_cols + position``
    are distinct and one sort of them gives the order.
    """
    return np.argsort(links * num_cols + positions, kind="stable")


def _padded_prefix_into(
    values: np.ndarray,
    counts: np.ndarray,
    offsets: np.ndarray,
    segments: Optional[np.ndarray],
    width: int,
    out: np.ndarray,
) -> None:
    """Per-segment sequential prefix sums via one padded 2-D cumsum.

    Each selected segment becomes a zero-padded row; ``np.cumsum`` along the
    rows reduces every segment strictly left to right, independently of its
    neighbours, and the prefixes are scattered back into *out* at the
    segments' flat locations.
    """
    if segments is None:
        # All segments: the gather is the identity, so index values/out
        # directly.
        seg_counts = counts
        selected = values
    else:
        seg_counts = counts[segments]
        src = _gather_slices(offsets[:-1][segments], seg_counts)
        if src.size == 0:
            return
        selected = values[src]
    if selected.size == 0:
        return
    num_rows = seg_counts.shape[0]
    sub_offsets = np.zeros(num_rows + 1, dtype=np.intp)
    np.cumsum(seg_counts, out=sub_offsets[1:])
    intra = np.arange(selected.shape[0], dtype=np.intp) - np.repeat(
        sub_offsets[:-1], seg_counts
    )
    rows = np.repeat(np.arange(num_rows, dtype=np.intp), seg_counts)
    matrix = np.zeros((num_rows, width), dtype=float)
    matrix[rows, intra] = selected
    np.cumsum(matrix, axis=1, out=matrix)
    if segments is None:
        out[:] = matrix[rows, intra]
    else:
        out[src] = matrix[rows, intra]


def _segment_prefix_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Inclusive per-segment prefix sums, bitwise independent of grouping.

    *values* holds concatenated segments of the given lengths; the result is
    aligned with *values* and carries, at each element, the strictly
    sequential sum of its segment up to and including it.  Every segment is
    reduced through its own left-to-right cumsum — never through differences
    of a running sum shared with its neighbours — so a segment's prefixes
    are bitwise identical no matter which other segments share the call.
    That invariance is what lets the scorer's chunks group per-link
    reductions freely across blocks while staying bitwise equal to a
    standalone one-block solve.

    Segments of wildly different lengths are bucketed by width (factors of
    four) before padding, bounding the padded work at ~4x the real entries.
    """
    total = values.shape[0]
    num_segments = counts.shape[0]
    if total == 0:
        return np.zeros(0, dtype=float)
    if num_segments == 1:
        return np.cumsum(values)
    out = np.empty(total, dtype=float)
    offsets = np.zeros(num_segments + 1, dtype=np.intp)
    np.cumsum(counts, out=offsets[1:])
    max_width = int(counts.max())
    if num_segments * max_width <= max(4 * total, 1 << 20):
        # One padded matrix for everything: a megacell of padding costs far
        # less than the gather/scatter overhead of multiple buckets.
        _padded_prefix_into(values, counts, offsets, None, max_width, out)
        return out
    boundaries: List[int] = []
    width = 4
    while width < max_width:
        boundaries.append(width)
        width *= 4
    bucket_of = np.searchsorted(
        np.asarray(boundaries, dtype=np.intp), counts, side="left"
    )
    for bucket in range(len(boundaries) + 1):
        segments = np.nonzero(bucket_of == bucket)[0]
        if segments.size == 0:
            continue
        _padded_prefix_into(
            values, counts, offsets, segments, int(counts[segments].max()), out
        )
    return out


class _SolverLayout:
    """A compiled bundle list in the solver's index space, built once.

    Rank slot *p* holds the bundle with the *p*-th smallest satisfy time
    (demand over growth; the sort is stable, so ties keep column order).
    The link CSR lists, per link, the slots of the bundles crossing it in
    rank order next to their growth rates, and ``link_growth`` holds each
    link's in-order sum of those rates.  Nothing here depends on link
    capacities, so one layout serves every solve of its bundle list — and,
    through :class:`BatchedCandidateScorer`, every candidate move of it.
    """

    __slots__ = (
        "order",
        "inverse",
        "satisfy",
        "growth",
        "demands",
        "csr_offsets",
        "csr_counts",
        "csr_slots",
        "csr_values",
        "link_growth",
        "row_start",
        "row_count",
        "row_links",
        "_rank_keys",
    )

    def __init__(self, compiled: CompiledBundles) -> None:
        num_bundles = len(compiled)
        num_links = compiled.num_links
        satisfy_at = compiled.demands / compiled.growth
        order = np.argsort(satisfy_at, kind="stable")  # slot -> column
        inverse = np.empty(num_bundles, dtype=np.intp)  # column -> slot
        inverse[order] = np.arange(num_bundles, dtype=np.intp)
        flat, counts = compiled.flat_links
        row_offsets = np.zeros(num_bundles + 1, dtype=np.intp)
        np.cumsum(counts, out=row_offsets[1:])

        # Entries ordered link-major / slot-minor, the layout np.nonzero
        # over a dense incidence matrix would produce, built from the
        # per-bundle link lists in O(nnz).  (Paths are simple — Bundle
        # enforces it — so no (link, slot) pair repeats.)
        if flat.size:
            entry_slots = np.repeat(inverse, counts)
            entry_order = _csr_entry_order(flat, entry_slots, num_bundles)
            csr_links = flat[entry_order]
            self.csr_slots = entry_slots[entry_order]
            self.csr_values = np.repeat(compiled.growth, counts)[entry_order]
        else:
            csr_links = np.zeros(0, dtype=np.intp)
            self.csr_slots = np.zeros(0, dtype=np.intp)
            self.csr_values = np.zeros(0, dtype=float)
        self.csr_counts = np.bincount(csr_links, minlength=num_links)
        self.csr_offsets = np.zeros(num_links + 1, dtype=np.intp)
        np.cumsum(self.csr_counts, out=self.csr_offsets[1:])
        self.link_growth = np.bincount(
            csr_links, weights=self.csr_values, minlength=num_links
        )
        self.order = order
        self.inverse = inverse
        self.satisfy = satisfy_at[order]
        self.growth = compiled.growth[order]
        self.demands = compiled.demands[order]
        self.row_start = row_offsets[:-1][order]
        self.row_count = counts[order]
        self.row_links = flat
        self._rank_keys: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self.order.shape[0]

    def rank_of(self, satisfy: np.ndarray, columns: np.ndarray) -> np.ndarray:
        """Slot before which rows with these (satisfy time, column) keys rank.

        A row ranks after every slot whose satisfy time is smaller, and
        after the tied slots of lower column — the stable sort's order.
        ``rank_keys`` makes that one ``searchsorted``: within a tie group
        (the slots sharing one satisfy time, starting at slot *g*) slot *p*
        keys as ``g * (n + 1) + column``, strictly increasing in *p*, where
        *n* counts the compiled list's columns (a new row's column is *n*).
        """
        num_slots = len(self)
        stride = self.inverse.shape[0] + 1
        if self._rank_keys is None:
            group = np.searchsorted(self.satisfy, self.satisfy, side="left")
            self._rank_keys = group * stride + self.order
        first = np.searchsorted(self.satisfy, satisfy, side="left")
        tied = np.zeros(first.shape[0], dtype=bool)
        inside = first < num_slots
        tied[inside] = self.satisfy[first[inside]] == satisfy[inside]
        query = first * stride + np.where(tied, columns, 0)
        return np.searchsorted(self._rank_keys, query, side="left")

    def restricted(self, links: np.ndarray, link_map: np.ndarray) -> "_SolverLayout":
        """This layout cut to the sorted *links* and the bundles crossing one.

        ``link_map`` numbers the kept links ``0, 1, ...`` and holds -1 for
        every other link.  Each kept link keeps its segment (the same
        entries, growth rates and in-order growth sum), and each kept slot
        its rank order and its link list cut to the kept links in path
        order, so every reduction the solver runs on a kept link sees the
        operands it sees in the whole layout.  ``order`` still names the
        compiled list's columns; ``inverse`` holds -1 for a column whose
        bundle crosses no kept link.
        """
        counts = self.csr_counts[links]
        src = _gather_slices(self.csr_offsets[links], counts)
        kept = np.zeros(len(self), dtype=bool)
        kept[self.csr_slots[src]] = True
        slots = np.nonzero(kept)[0]
        renumbered = np.cumsum(kept) - 1
        num_slots = slots.shape[0]
        row_counts = self.row_count[slots]
        row_links = link_map[
            self.row_links[_gather_slices(self.row_start[slots], row_counts)]
        ]
        on_kept = row_links >= 0
        sub_counts = np.bincount(
            np.repeat(np.arange(num_slots, dtype=np.intp), row_counts)[on_kept],
            minlength=num_slots,
        )

        layout = _SolverLayout.__new__(_SolverLayout)
        layout.order = self.order[slots]
        layout.inverse = np.full(self.inverse.shape[0], -1, dtype=np.intp)
        layout.inverse[layout.order] = np.arange(num_slots, dtype=np.intp)
        layout.satisfy = self.satisfy[slots]
        layout.growth = self.growth[slots]
        layout.demands = self.demands[slots]
        layout.csr_counts = counts
        layout.csr_offsets = np.zeros(links.shape[0] + 1, dtype=np.intp)
        np.cumsum(counts, out=layout.csr_offsets[1:])
        layout.csr_slots = renumbered[self.csr_slots[src]]
        layout.csr_values = self.csr_values[src]
        layout.link_growth = self.link_growth[links]
        layout.row_links = row_links[on_kept]
        layout.row_count = sub_counts
        layout.row_start = np.cumsum(sub_counts) - sub_counts
        layout._rank_keys = None
        return layout


class _Waterfall:
    """One stacked waterfall system: the lockstep event loop and its kernel.

    Block *k* owns the stacked links ``k*L .. (k+1)*L-1`` and the slots
    from ``slot_base[k]`` on; a slot is one bundle in its block's rank
    order, with its satisfy time, growth, demand and link list in
    slot-indexed arrays.  A stacked link reads its crossing bundles as a
    *segment*: ``seg_count`` entries of an entry pool from ``seg_start``
    on, each holding a block-local slot and that bundle's growth rate, in
    rank order.  Blocks that share a layout point their segments into the
    same pool entries, so a block that differs from a shared base in a few
    rows only needs its own entries for the segments those rows cross.

    ``fold_key`` places the slots that sit outside their block's rank
    order (the rows :class:`BatchedCandidateScorer` inserts after a base's
    slots): twice the slot each ranks right before, plus its order among
    its block's inserted slots (which breaks a shared anchor); -1 for a
    slot in rank order.  The frozen-load fold merges them in there.

    Every floating-point reduction is *exactly segment-local* or runs in
    rank order per block: the per-segment prefix sums of the crossing-time
    kernel (:func:`_segment_prefix_sums`), the per-link ``np.add.reduceat``
    load sums and the per-link ``bincount`` frozen folds each see exactly
    the operands, in the order, a standalone one-block solve of the same
    bundle list would — no matter which blocks share the system.
    """

    __slots__ = (
        "num_blocks",
        "num_links",
        "capacities",
        "slot_counts",
        "slot_block",
        "link_slot_base",
        "satisfy",
        "growth",
        "demand",
        "active",
        "row_start",
        "row_count",
        "row_links",
        "seg_start",
        "seg_count",
        "pool_slots",
        "pool_values",
        "link_growth",
        "fold_key",
        "tau",
        "fixed",
        "now",
    )

    def __init__(
        self,
        capacities: np.ndarray,
        slot_base: np.ndarray,
        satisfy: np.ndarray,
        growth: np.ndarray,
        demand: np.ndarray,
        active: np.ndarray,
        rows: Tuple[np.ndarray, np.ndarray, np.ndarray],
        segments: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        link_growth: np.ndarray,
        fold_key: Optional[np.ndarray] = None,
    ) -> None:
        num_blocks = slot_base.shape[0]
        num_links = capacities.shape[0]
        total_links = num_blocks * num_links
        self.num_blocks = num_blocks
        self.num_links = num_links
        self.capacities = (
            capacities if num_blocks == 1 else np.tile(capacities, num_blocks)
        )
        self.slot_counts = np.diff(np.append(slot_base, satisfy.shape[0]))
        self.slot_block = np.repeat(
            np.arange(num_blocks, dtype=np.intp), self.slot_counts
        )
        self.link_slot_base = np.repeat(slot_base, num_links)
        self.satisfy = satisfy
        self.growth = growth
        self.demand = demand
        self.active = active
        self.row_start, self.row_count, self.row_links = rows
        self.seg_start, self.seg_count, self.pool_slots, self.pool_values = segments
        self.link_growth = link_growth
        self.fold_key = fold_key
        self.tau = np.empty(total_links, dtype=float)
        #: Load contributed by frozen bundles (constant from their freeze
        #: on), accumulated bundle-by-bundle so the arithmetic is
        #: deterministic.
        self.fixed = np.zeros(total_links, dtype=float)
        self.now = np.zeros(num_blocks, dtype=float)

    @classmethod
    def of_layout(cls, layout: _SolverLayout, capacities: np.ndarray) -> "_Waterfall":
        """The one-block system of a whole bundle list, read through its layout."""
        return cls(
            capacities,
            np.zeros(1, dtype=np.intp),
            layout.satisfy,
            layout.growth,
            layout.demands,
            np.ones(len(layout), dtype=bool),
            (layout.row_start, layout.row_count, layout.row_links),
            (
                layout.csr_offsets[:-1],
                layout.csr_counts,
                layout.csr_slots,
                layout.csr_values,
            ),
            layout.link_growth,
        )

    def _entry_slots(
        self, links: np.ndarray, counts: np.ndarray, src: np.ndarray
    ) -> np.ndarray:
        """Stacked slots of the pool entries *src* gathered for *links*."""
        return self.pool_slots[src] + np.repeat(self.link_slot_base[links], counts)

    def refresh(self, links: np.ndarray) -> None:
        """Set each link's ``tau``: the earliest capacity-crossing time
        under the currently active bundles (inf when it never crosses).

        Works on the flattened (link, crossing bundle) pairs of the links
        in question — O(total crossing bundles).  Every reduction is an
        exact per-segment prefix sum (:func:`_segment_prefix_sums`), so a
        link's crossing time is bitwise independent of which other links —
        of any block — share the call; the lockstep loop resolves the stale
        links of a whole batch in one invocation.
        """
        if links.size == 0:
            return
        tau, fixed, capacities = self.tau, self.fixed, self.capacities
        counts_raw = self.seg_count[links]
        src = _gather_slices(self.seg_start[links], counts_raw)
        flat_raw = self._entry_slots(links, counts_raw, src)
        mask = self.active[flat_raw]
        cum_mask = np.zeros(flat_raw.shape[0] + 1, dtype=np.intp)
        np.cumsum(mask, out=cum_mask[1:])
        raw_offsets = np.zeros(links.shape[0] + 1, dtype=np.intp)
        np.cumsum(counts_raw, out=raw_offsets[1:])
        counts = cum_mask[raw_offsets[1:]] - cum_mask[raw_offsets[:-1]]
        src_active = src[mask]
        flat = flat_raw[mask]
        new_tau = np.full(links.shape[0], np.inf)
        if flat.size == 0:
            tau[links] = new_tau
            return

        num_segments = links.shape[0]
        offsets = np.zeros(num_segments + 1, dtype=np.intp)
        np.cumsum(counts, out=offsets[1:])
        seg_of = np.repeat(np.arange(num_segments, dtype=np.intp), counts)
        link_of = links[seg_of]

        a = self.pool_values[src_active]
        e_flat = self.satisfy[flat]
        prefix_growth = _segment_prefix_sums(a, counts)
        prefix_carried = _segment_prefix_sums(a * e_flat, counts)
        seg_growth = np.where(
            counts > 0, prefix_growth[np.maximum(offsets[1:] - 1, 0)], 0.0
        )

        # Load of each link at each crossing bundle's satisfy time: earlier
        # bundles contribute their full demand, later ones keep growing.
        load_at_e = (
            fixed[link_of]
            + prefix_carried
            + (seg_growth[seg_of] - prefix_growth) * e_flat
        )
        crossed_at = np.nonzero(load_at_e >= capacities[link_of])[0]
        if crossed_at.size:
            # First crossing per segment: seg_of is nondecreasing, so the
            # firsts are exactly where the segment id steps up.
            crossed_seg = seg_of[crossed_at]
            first_index = np.nonzero(np.diff(crossed_seg, prepend=-1) > 0)[0]
            first_seg = crossed_seg[first_index]
            i_star = crossed_at[first_index]
            intra_star = i_star - offsets[first_seg]
            # Exclusive prefixes right before the crossing bundle — read
            # directly from the previous slot, never reconstructed by
            # subtraction (which would not be exact).
            excl_growth = np.where(
                intra_star > 0, prefix_growth[np.maximum(i_star - 1, 0)], 0.0
            )
            excl_carried = np.where(
                intra_star > 0, prefix_carried[np.maximum(i_star - 1, 0)], 0.0
            )
            slope = seg_growth[first_seg] - excl_growth
            link_star = links[first_seg]
            headroom = capacities[link_star] - fixed[link_star] - excl_carried
            crossing_time = np.where(
                slope > 0.0,
                headroom / np.where(slope > 0.0, slope, 1.0),
                e_flat[i_star],
            )
            new_tau[first_seg] = np.maximum(
                crossing_time, self.now[link_star // self.num_links]
            )
        tau[links] = new_tau

    def run(self, with_bottleneck: bool) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Run the event loop from the current ``tau``; per-slot rates and,
        when asked for, bottlenecks (block-local link index, -1 for none).

        Each round commits the next saturation event of every block that
        still has one pending, with the candidate search, the slack-band
        load sweep and the freeze bookkeeping vectorized across blocks.  A
        block's event sequence — and all of its arithmetic — is exactly the
        serial per-block waterfall's; rounds merely run the blocks' next
        events side by side, so a batch costs max-events-per-block rounds
        of vectorized work instead of total-events passes through Python.

        The slack-band sweep sums a link's load exactly only where the sum
        can decide something.  A frozen bundle contributes at most its
        committed rate and a growing one at most ``growth * tau*``, so
        ``fixed + growing * tau*`` bounds each link's load at its block's
        event instant from above.  A link whose bound stays below
        ``threshold * (1 - 1e-9)`` cannot pass the load check: the margin
        exceeds the bound's rounding by orders of magnitude.  Nor is a link
        summed that already saturates by its crossing time this round.
        Skipping these sums changes no saturation decision, and every kept
        sum is the same reduction over the same contiguous entries as a
        sweep over every link would compute.
        """
        num_blocks, num_links = self.num_blocks, self.num_links
        total_links = num_blocks * num_links
        active, satisfy, growth, demand = (
            self.active, self.satisfy, self.growth, self.demand
        )
        slot_block, slot_counts = self.slot_block, self.slot_counts
        row_start, row_count, row_links = self.row_start, self.row_count, self.row_links
        seg_start, seg_count = self.seg_start, self.seg_count
        tau, fixed, fold_key = self.tau, self.fixed, self.fold_key
        num_slots = satisfy.shape[0]
        rates = np.zeros(num_slots, dtype=float)
        bottleneck = np.full(num_slots, -1, dtype=np.intp) if with_bottleneck else None
        if num_links == 0:
            rates[active] = demand[active]
            return rates, bottleneck

        # Time at which each slot stops growing: its satisfy time,
        # overwritten with the saturation instant when truncated.  A frozen
        # bundle's constant contribution is growth * stop.
        stop = satisfy.copy()
        satisfied_at = satisfy * (1.0 - _REL_EPS)
        saturated = np.zeros(total_links, dtype=bool)
        threshold = _saturation_threshold(self.capacities)
        slot_link_base = np.repeat(
            np.arange(num_blocks, dtype=np.intp) * num_links, slot_counts
        )
        #: Summed growth of the still-growing bundles on each link, kept by
        #: subtracting each bundle as it freezes, so ``fixed + growing * tau``
        #: bounds a link's load at instant ``tau`` from above.  The
        #: subtractions round relative to the link's initial total growth,
        #: which is why that total starts inflated by the sweep margin.
        growing = self.link_growth * (1.0 + _SWEEP_MARGIN)
        #: Load bound a link must reach to have its exact load summed; +inf
        #: for links no bundle crosses (saturating one changes no rate) and
        #: for links as they saturate.
        sweep_floor = np.where(seg_count > 0, threshold * (1.0 - _SWEEP_MARGIN), np.inf)
        # Truncating a bundle only ever *delays* the saturation of the other
        # links it crosses, so a stale tau is a lower bound.  Links touched by
        # a truncation are marked dirty and lazily recomputed only when they
        # reach their block's candidate minimum.
        dirty = np.zeros(total_links, dtype=bool)

        tau_matrix = tau.reshape(num_blocks, num_links)
        dirty_matrix = dirty.reshape(num_blocks, num_links)
        saturated_matrix = saturated.reshape(num_blocks, num_links)
        fixed_matrix = fixed.reshape(num_blocks, num_links)
        growing_matrix = growing.reshape(num_blocks, num_links)
        sweep_floor_matrix = sweep_floor.reshape(num_blocks, num_links)
        active_counts = np.bincount(slot_block[active], minlength=num_blocks)

        for _ in range(num_links + 2):
            if not active.any():
                break
            # Per-block candidate minima, with stale lower bounds resolved
            # before any event commits.  A block's true event time is the
            # minimum over its *clean* links — stale bounds only ever
            # underestimate — so one grouped recompute of every dirty link
            # at or below that clean minimum settles the round: recomputed
            # values are at least their stale bounds, every remaining dirty
            # bound exceeds the clean minimum, and therefore nothing dirty
            # can tie or beat the committed candidate.  Recomputed values
            # depend only on state frozen for the whole resolution, so the
            # grouping-independent kernel resolves all blocks in one call.
            if dirty.any():
                clean_min = np.where(dirty_matrix, np.inf, tau_matrix).min(axis=1)
                stale_matrix = (
                    dirty_matrix
                    & np.isfinite(tau_matrix)
                    & (tau_matrix <= clean_min[:, None])
                )
                stale = np.nonzero(stale_matrix.ravel())[0]
                if stale.size:
                    self.refresh(stale)
                    dirty[stale] = False
            cand_tau = tau_matrix.min(axis=1)

            live = active_counts > 0
            finite = np.isfinite(cand_tau)
            finish = live & ~finite
            process = live & finite
            if finish.any():
                # No remaining link of these blocks ever saturates: every
                # remaining bundle meets demand (a standalone solve exits
                # its event loop here).
                finishing = active & np.repeat(finish, slot_counts)
                rates[finishing] = demand[finishing]
                active[finishing] = False
                active_counts[finish] = 0
            if not process.any():
                continue

            # The event instant per block; -inf for blocks without an event
            # this round, which propagates through every comparison below as
            # "never" (growth rates are positive, so no 0 * inf NaNs).
            tau_star_blocks = np.where(process, cand_tau, -np.inf)

            newly_matrix = (
                process[:, None]
                & ~saturated_matrix
                & (tau_matrix <= tau_star_blocks[:, None])
            )
            newly_flags = newly_matrix.ravel()
            # Saturation sweep: links within the slack band of their
            # threshold at their block's event instant saturate too,
            # mirroring the reference model's per-event check.  Only links
            # whose upper bound ``fixed + growing * tau*`` reaches the
            # threshold (less the sweep margin), and that do not saturate by
            # crossing time already, have their load summed; any other
            # link's true load is below its threshold, so it would not
            # saturate either way.  np.add.reduceat reduces each summed
            # link's segment from its own contiguous entries alone, so the
            # sums are bitwise those of a standalone solve (locked in by the
            # scorer's chunking and moved-state suites).  ``newly_flags`` is
            # a flat view, so marking a link there marks it in newly_matrix.
            reach = fixed_matrix + growing_matrix * np.where(
                process, cand_tau, 0.0
            )[:, None]
            sweep = np.nonzero(
                (
                    process[:, None] & ~newly_matrix & (reach >= sweep_floor_matrix)
                ).ravel()
            )[0]
            if sweep.size:
                sweep_counts = seg_count[sweep]
                src = _gather_slices(seg_start[sweep], sweep_counts)
                contrib = self.pool_values[src] * np.minimum(
                    stop[self._entry_slots(sweep, sweep_counts, src)],
                    np.repeat(tau_star_blocks[sweep // num_links], sweep_counts),
                )
                sweep_starts = np.zeros(sweep.shape[0], dtype=np.intp)
                np.cumsum(sweep_counts[:-1], out=sweep_starts[1:])
                load = np.add.reduceat(contrib, sweep_starts)
                newly_flags[sweep[load >= threshold[sweep]]] = True
            if not newly_matrix.any(axis=1)[process].all():
                raise TrafficModelError("traffic model made no progress")
            saturated_matrix |= newly_matrix
            tau_matrix[newly_matrix] = np.inf
            sweep_floor_matrix[newly_matrix] = np.inf

            # Bundles that met their demand at or before their block's
            # saturation instant (with the model's relative slack) freeze
            # satisfied.  Their stop was already encoded in the load curves,
            # so they do not perturb the saturation times of other links.
            tau_star_slot = np.repeat(tau_star_blocks, slot_counts)
            frozen_mask = active & (satisfied_at <= tau_star_slot)
            satisfied_slots = np.nonzero(frozen_mask)[0]
            rates[satisfied_slots] = demand[satisfied_slots]
            active[satisfied_slots] = False

            # Still-growing bundles crossing a newly saturated link freeze
            # truncated, attributing the first saturated link on their path.
            # Unlike satisfied freezes, truncation changes the load curves of
            # every other link those bundles cross, so those links go dirty.
            newly_links = np.nonzero(newly_flags)[0]
            crossing = np.zeros(num_slots, dtype=bool)
            if newly_links.size:
                hit_counts = seg_count[newly_links]
                hit_src = _gather_slices(seg_start[newly_links], hit_counts)
                hit_slots = self._entry_slots(newly_links, hit_counts, hit_src)
                crossing[hit_slots[active[hit_slots]]] = True
            crossing_slots = np.nonzero(crossing)[0]
            affected_links: Optional[np.ndarray] = None
            if crossing_slots.size:
                cross_tau = tau_star_slot[crossing_slots]
                rates[crossing_slots] = growth[crossing_slots] * cross_tau
                stop[crossing_slots] = cross_tau
                active[crossing_slots] = False
                c_counts = row_count[crossing_slots]
                c_src = _gather_slices(row_start[crossing_slots], c_counts)
                c_links_local = row_links[c_src]
                c_links_global = c_links_local + np.repeat(
                    slot_link_base[crossing_slots], c_counts
                )
                if bottleneck is not None:
                    # First newly saturated link on each truncated bundle's
                    # path, in path order, in the block's local link space.
                    c_seg = np.repeat(
                        np.arange(crossing_slots.shape[0], dtype=np.intp), c_counts
                    )
                    hits = np.nonzero(newly_flags[c_links_global])[0]
                    hit_seg = c_seg[hits]
                    first_at = np.nonzero(np.diff(hit_seg, prepend=-1) > 0)[0]
                    bottleneck[crossing_slots[hit_seg[first_at]]] = c_links_local[
                        hits[first_at]
                    ]
                affected_links = c_links_global

            # Fold every bundle frozen this round into the fixed load.
            # bincount accumulates per index in entry order, and a bundle's
            # entries touch only its own block's link range, so each link
            # sees its own block's freezes in rank order — exactly the
            # standalone solve's addition sequence.  Inserted slots merge in
            # right before the slots they rank before.
            frozen_mask[crossing_slots] = True
            frozen = np.nonzero(frozen_mask)[0]
            if fold_key is not None and frozen.size:
                keys = fold_key[frozen]
                inserted = keys >= 0
                if inserted.any():
                    ranked = frozen[~inserted]
                    by_key = np.argsort(keys[inserted], kind="stable")
                    frozen = np.insert(
                        ranked,
                        np.searchsorted(ranked, keys[inserted][by_key] // 2),
                        frozen[inserted][by_key],
                    )
            if frozen.size:
                f_counts = row_count[frozen]
                f_src = _gather_slices(row_start[frozen], f_counts)
                f_links = row_links[f_src] + np.repeat(slot_link_base[frozen], f_counts)
                fixed += np.bincount(
                    f_links,
                    weights=np.repeat(rates[frozen], f_counts),
                    minlength=total_links,
                )
                growing -= np.bincount(
                    f_links,
                    weights=np.repeat(growth[frozen], f_counts),
                    minlength=total_links,
                )
                active_counts -= np.bincount(slot_block[frozen], minlength=num_blocks)

            if affected_links is not None:
                # Boolean scatter — duplicates are harmless, no dedup needed.
                dirty[affected_links[~saturated[affected_links]]] = True
            self.now[process] = cand_tau[process]
            done = process & (active_counts == 0)
            if done.any():
                # Finished blocks: silence their remaining links so they can
                # never become a candidate minimum again (a standalone solve
                # would simply have exited its event loop here).
                tau_matrix[done] = np.inf

        if active.any():
            raise TrafficModelError(
                "traffic model did not converge within the event budget; "
                "this indicates an internal inconsistency"
            )
        return rates, bottleneck


def _rollup(
    rates: np.ndarray,
    flows: np.ndarray,
    comp_ids: np.ndarray,
    components: Sequence[Any],
    delay_factors: np.ndarray,
    agg_ids: np.ndarray,
    agg_flows: np.ndarray,
) -> np.ndarray:
    """Per-aggregate utilities of each row of a (blocks x columns) solution.

    Per-flow bandwidth utility times the per-path delay factor,
    flow-weighted per aggregate and clamped to 1 (0 for an aggregate with no
    flows).  A column with zero flows adds exactly 0.0 (its per-flow rate is
    set to 0, never 0/0).  Every step is elementwise or a per-(row,
    aggregate) ``bincount`` in column order — the order and operations of
    :func:`~repro.trafficmodel.waterfill.reference_aggregate_utilities` — so
    every value is bitwise that walk's, and a row's as it would be alone.
    """
    num_rows = rates.shape[0]
    num_aggs = agg_flows.shape[0]
    per_flow = np.zeros_like(rates)
    np.divide(rates, flows, out=per_flow, where=flows > 0.0)
    utilities = np.empty_like(per_flow)
    for comp_id, component in enumerate(components):
        mask = comp_ids == comp_id
        curve = component.curve
        utilities[mask] = np.interp(per_flow[mask], curve.xs, curve.ys)
    utilities *= delay_factors
    row_aggs = agg_ids + (np.arange(num_rows, dtype=np.intp) * num_aggs)[:, None]
    weighted = np.bincount(
        row_aggs.ravel(),
        weights=(utilities * flows).ravel(),
        minlength=num_rows * num_aggs,
    ).reshape(num_rows, num_aggs)
    with np.errstate(divide="ignore", invalid="ignore"):
        agg_utilities = np.where(agg_flows > 0.0, weighted / agg_flows, 0.0)
    return np.minimum(agg_utilities, 1.0)


def _weighted_means(agg_utilities: np.ndarray, agg_weights: np.ndarray) -> List[float]:
    """Each row's aggregate utilities averaged with the aggregate weights.

    Summed strictly in aggregate order (``np.cumsum``), as
    :func:`~repro.utility.aggregation.network_utility` sums the result's
    per-aggregate utilities.  An aggregate with no flows adds exactly 0.0.
    """
    numerators = np.cumsum(agg_weights * agg_utilities, axis=1)[:, -1]
    total_weight = np.cumsum(agg_weights)[-1]
    return [float(numerator / total_weight) for numerator in numerators]


def _aggregate_weights(
    compiled: CompiledBundles, weights: Optional[PriorityWeights]
) -> np.ndarray:
    """Each aggregate's roll-up weight: its flows times its class weight."""
    weights = weights or PriorityWeights.uniform()
    class_weights = np.asarray(
        [weights.weight_for(name) for name in compiled.class_names], dtype=float
    )
    return compiled.agg_flows * class_weights[compiled.agg_class_ids]


class CompiledTrafficModel:
    """Compiles a network once and evaluates bundle lists incrementally.

    The engine owns two caches: the per-network capacity vector, and a
    per-(aggregate key, path) row cache validated against the aggregate's
    utility function (so a rebuilt traffic matrix with different utilities
    never reuses stale rows).
    """

    def __init__(self, network: Network, config: Optional[TrafficModelConfig] = None) -> None:
        self.network = network
        self.config = config or TrafficModelConfig()
        self._capacities = np.asarray(network.capacities(), dtype=float)
        self._num_links = network.num_links
        self._rows: Dict[Tuple[AggregateKey, Path], _BundleRow] = {}
        #: Number of solved blocks and scored candidates.
        self.evaluations = 0

    # ------------------------------------------------------------------ rows

    def _row_for(self, aggregate: Aggregate, path: Path) -> _BundleRow:
        key = (aggregate.key, path)
        row = self._rows.get(key)
        if row is None or not (
            row.utility is aggregate.utility or row.utility == aggregate.utility
        ):
            row = _BundleRow(self.network, aggregate, path, self.config.min_rtt_s)
            self._rows[key] = row
        return row

    def _growth_of(self, num_flows: int, row: _BundleRow) -> float:
        if self.config.rtt_fairness:
            return num_flows / row.rtt_s
        return float(num_flows)

    # --------------------------------------------------------------- compile

    def compile(self, bundles: Sequence[Bundle]) -> CompiledBundles:
        """Build the dense arrays for *bundles* through the row cache."""
        num_bundles = len(bundles)
        rows = tuple(self._row_for(bundle.aggregate, bundle.path) for bundle in bundles)

        demands = np.empty(num_bundles, dtype=float)
        growth = np.empty(num_bundles, dtype=float)
        flows = np.empty(num_bundles, dtype=float)
        agg_ids = np.empty(num_bundles, dtype=np.intp)
        comp_ids = np.empty(num_bundles, dtype=np.intp)
        delay_factors = np.empty(num_bundles, dtype=float)

        aggregates: List[Aggregate] = []
        agg_index: Dict[AggregateKey, int] = {}
        agg_class_ids: List[int] = []
        class_names: List[str] = []
        class_index: Dict[str, int] = {}
        components: List[object] = []
        comp_index: Dict[object, int] = {}

        for j, bundle in enumerate(bundles):
            row = rows[j]
            demands[j] = bundle.num_flows * row.per_flow_demand_bps
            growth[j] = self._growth_of(bundle.num_flows, row)
            flows[j] = float(bundle.num_flows)
            delay_factors[j] = row.delay_utility

            aggregate = bundle.aggregate
            agg_id = agg_index.get(aggregate.key)
            if agg_id is None:
                agg_id = len(aggregates)
                agg_index[aggregate.key] = agg_id
                aggregates.append(aggregate)
                traffic_class = aggregate.traffic_class
                class_id = class_index.get(traffic_class)
                if class_id is None:
                    class_id = len(class_names)
                    class_index[traffic_class] = class_id
                    class_names.append(traffic_class)
                agg_class_ids.append(class_id)
            agg_ids[j] = agg_id

            comp_id = comp_index.get(row.bandwidth)
            if comp_id is None:
                comp_id = len(components)
                comp_index[row.bandwidth] = comp_id
                components.append(row.bandwidth)
            comp_ids[j] = comp_id

        return CompiledBundles(
            bundles=tuple(bundles),
            rows=rows,
            demands=demands,
            growth=growth,
            flows=flows,
            agg_ids=agg_ids,
            aggregates=aggregates,
            agg_index=agg_index,
            agg_class_ids=np.asarray(agg_class_ids, dtype=np.intp),
            class_names=class_names,
            comp_ids=comp_ids,
            components=components,
            delay_factors=delay_factors,
            num_links=self._num_links,
        )

    def compile_patched(
        self, base: CompiledBundles, replacements: BundlePatch
    ) -> CompiledBundles:
        """Compile *base*'s bundle list with *replacements* applied.

        ``replacements`` maps (aggregate key, path) pairs to the new bundle
        for that row: a changed row stays in place, ``None`` drops the row,
        and a pair the base does not hold is appended.  Nothing in the
        optimizer calls it; it stays a plain method of this class because
        ``perfbench/tracing.py`` wraps it by name, until the in-tree span
        recorder of ROADMAP.md item 10 replaces that patch table.
        """
        pending = {
            (key, tuple(path)): bundle for (key, path), bundle in replacements.items()
        }
        bundles: List[Bundle] = []
        for bundle in base.bundles:
            replacement = pending.pop((bundle.aggregate_key, bundle.path), bundle)
            if replacement is not None:
                bundles.append(replacement)
        for (key, path), bundle in pending.items():
            if bundle is None:
                raise TrafficModelError(
                    f"cannot remove unknown bundle ({key!r}, {path!r}) "
                    "from the compiled base"
                )
            bundles.append(bundle)
        return self.compile(bundles)

    # ----------------------------------------------------------------- solve

    def solve(
        self, compiled: CompiledBundles, capacities: Optional[np.ndarray] = None
    ) -> _Solution:
        """Run the waterfall solver on compiled arrays; counts one evaluation.

        Semantics match :func:`~repro.trafficmodel.waterfill.reference_evaluate`:
        every bundle grows at its fixed rate until it meets its demand (with
        the model's relative slack) or a link on its path saturates (with the
        model's absolute + relative capacity slack); a saturating link
        freezes every still-growing bundle that crosses it.

        ``capacities`` overrides the engine's per-link capacity vector (same
        dense index order) for this one solve.  The capacity-planning probes
        in :mod:`repro.provisioning` use it to score candidate link upgrades
        against an unchanged compiled allocation — the rows, link and
        growth arrays are all capacity-independent, so a what-if capacity
        only has to swap this vector, never recompile.

        Runs as a one-block :meth:`solve_batched` call.
        """
        return self.solve_batched([compiled], capacities=capacities)[0]

    def solve_batched(
        self,
        blocks: Sequence[CompiledBundles],
        capacities: Optional[np.ndarray] = None,
    ) -> List[_Solution]:
        """Solve compiled bundle lists one after another; counts
        ``len(blocks)`` evaluations.

        Each block runs as a one-block :class:`_Waterfall` over its solver
        layout (:attr:`CompiledBundles.layout`), and ``capacities``
        overrides the engine's per-link capacity vector for every block.
        Every solve runs through this method only because
        ``perfbench/tracing.py`` wraps it by name as its ``trafficmodel.solve``
        span, until the in-tree span recorder of ROADMAP.md item 10 replaces
        that patch table.
        """
        self.evaluations += len(blocks)
        capacities = self._capacity_vector(capacities)
        all_links = np.arange(capacities.shape[0], dtype=np.intp)
        solutions = []
        for block in blocks:
            layout = block.layout
            system = _Waterfall.of_layout(layout, capacities)
            system.refresh(all_links)
            rates, bottleneck = system.run(with_bottleneck=True)
            assert bottleneck is not None
            solutions.append(
                _Solution(rates[layout.inverse], bottleneck[layout.inverse])
            )
        return solutions

    def _capacity_vector(self, capacities: Optional[np.ndarray]) -> np.ndarray:
        """The engine's capacities, or a validated per-link override."""
        if capacities is None:
            return self._capacities
        capacities = np.asarray(capacities, dtype=float)
        if capacities.shape != self._capacities.shape:
            raise TrafficModelError(
                f"capacity override has shape {capacities.shape}, "
                f"expected {self._capacities.shape}"
            )
        return capacities

    # --------------------------------------------------------------- scoring

    def weighted_utility(
        self,
        compiled: CompiledBundles,
        rates: np.ndarray,
        weights: Optional[PriorityWeights] = None,
    ) -> float:
        """The weighted network utility of a solution, without result objects.

        The roll-up :meth:`result_of` gives a result, averaged with priority
        weights in aggregate order: it equals that result's
        :meth:`~repro.trafficmodel.result.TrafficModelResult.network_utility`
        bit for bit.  Assumes aggregate keys are unique within the bundle
        list, as they are in any state derived from a traffic matrix.
        """
        if len(compiled) == 0:
            raise TrafficModelError("cannot score an empty bundle list")
        return _weighted_means(
            compiled.rollup(rates)[None, :],
            _aggregate_weights(compiled, weights),
        )[0]

    # -------------------------------------------------------------- assembly

    def result_of(
        self, compiled: CompiledBundles, solution: _Solution
    ) -> TrafficModelResult:
        """Assemble the full :class:`TrafficModelResult` for a solution.

        The result carries *compiled* and the solved rates, and its
        per-aggregate utilities in order of each aggregate's first bundle.
        """
        rates = solution.rates
        # bincount accumulates in a fixed order, making the reported loads
        # independent of array alignment (unlike a BLAS matrix product).
        flat, counts = compiled.flat_links
        link_loads = np.bincount(
            flat, weights=np.repeat(rates, counts), minlength=self._num_links
        )
        link_demands = np.bincount(
            flat, weights=np.repeat(compiled.demands, counts), minlength=self._num_links
        )
        network = self.network
        satisfied = rates >= compiled.demands * (1.0 - _REL_EPS)
        outcomes = [
            BundleOutcome(
                bundle=bundle,
                rate_bps=rate,
                satisfied=met,
                bottleneck_link=(
                    None if met or link_index < 0 else network.link_by_index(link_index).link_id
                ),
            )
            for bundle, rate, met, link_index in zip(
                compiled.bundles,
                rates.tolist(),
                satisfied.tolist(),
                solution.bottleneck.tolist(),
            )
        ]
        utilities = [
            AggregateUtility(
                aggregate_key=aggregate.key,
                utility=value,
                num_flows=int(flows),
                traffic_class=aggregate.traffic_class,
            )
            for aggregate, value, flows in zip(
                compiled.aggregates,
                compiled.rollup(rates).tolist(),
                compiled.agg_flows.tolist(),
            )
        ]
        return TrafficModelResult(
            network, outcomes, link_loads, link_demands, utilities, compiled, rates
        )

    # ------------------------------------------------------------ evaluation

    def evaluate(self, bundles: Sequence[Bundle]) -> TrafficModelResult:
        """Full evaluation: compile (through the row cache), solve, assemble."""
        compiled = self.compile(bundles)
        return self.result_of(compiled, self.solve(compiled))


#: Stacked slots a chunk of candidate blocks is sized to.  A block stacks
#: the sub-network's slots plus two for the rows its move inserts, and each
#: event round allocates several arrays over every slot of the chunk, so
#: the budget bounds the scorer's transient memory, while fewer, larger
#: chunks amortize each round's fixed cost over more blocks.  On the tiered
#: hot steps, 392 nodes (about 1,060 slots a block) scored slower at 24
#: blocks than at 32-64, and 776 nodes (about 2,110) slower at 32 than at
#: 8-16.  HE-31 (about 730 slots) gets 44 blocks.
SCORER_CHUNK_SLOTS = 32 * 1024

#: Blocks per chunk are clamped to this range: below the floor each round's
#: fixed cost stops amortizing, and above the cap a chunk's rounds wait
#: longer on its slowest block.
SCORER_BATCH_MIN = 8
SCORER_BATCH_MAX = 64


def _blocks_per_chunk(slots_per_block: int) -> int:
    """Most candidate blocks one stacked solve holds: the slot budget over a
    block's slots, clamped."""
    return max(
        SCORER_BATCH_MIN,
        min(SCORER_BATCH_MAX, SCORER_CHUNK_SLOTS // slots_per_block),
    )


def _chunk_bounds(count: int, per_chunk: int) -> List[int]:
    """Boundaries splitting *count* candidates into the fewest chunks of at
    most *per_chunk*, whose sizes differ by at most one."""
    num_chunks = -(-count // per_chunk)
    return [count * i // max(num_chunks, 1) for i in range(num_chunks + 1)]


#: A move resolved against the base: the aggregate's id, the from-row's
#: column and the flows it keeps, and the to-row's column (-1 for a new
#: path), its flows after the move and its cached row.
_Resolved = Tuple[int, int, int, int, int, _BundleRow]

#: A solved chunk's columns: rates, flows, component ids, the component
#: list, delay factors and aggregate ids.
_ChunkColumns = Tuple[
    np.ndarray, np.ndarray, np.ndarray, List[Any], np.ndarray, np.ndarray
]


class _SubNetwork:
    """A step's congestable links and the base's bundles that cross them.

    A link is *congestable* when its demand bound — the base's demand on
    it plus the most that any scored candidate's rows add to it — reaches
    the solver's sweep floor, ``threshold * (1 - _SWEEP_MARGIN)``.  Rates
    never exceed demand, so a link below that floor never gets a finite
    crossing time nor passes the slack-band sweep: it produces no event
    in any candidate block, and a bundle that crosses only such links
    ends satisfied.  Candidate blocks are therefore solved on the base's
    layout cut to the congestable links (:meth:`_SolverLayout.restricted`),
    and each dropped bundle is scored at its demand: the rates, and so
    the scores, a solve over every link gives, bit for bit.
    """

    __slots__ = ("kept", "link_map", "layout", "capacities", "tau")

    def __init__(
        self, base: _SolverLayout, kept: np.ndarray, capacities: np.ndarray
    ) -> None:
        links = np.nonzero(kept)[0]
        self.kept = kept
        self.link_map = np.full(kept.shape[0], -1, dtype=np.intp)
        self.link_map[links] = np.arange(links.shape[0], dtype=np.intp)
        self.layout = base.restricted(links, self.link_map)
        self.capacities = capacities[links]
        # Each kept link's initial crossing time: segment-local, so bitwise
        # what a pass over the whole base layout gives.
        system = _Waterfall.of_layout(self.layout, self.capacities)
        system.refresh(np.arange(links.shape[0], dtype=np.intp))
        self.tau = system.tau


class BatchedCandidateScorer:
    """Scores candidate moves of one compiled base in the base's index space.

    A move (:data:`Move`) takes flows of one aggregate off one of its paths
    in the base and puts them on another, so it differs from the step's
    compiled base in two rows: the from-row shrinks (or goes) and the
    to-row grows (or appears).  A score call resolves each move against
    the base once (:data:`_Resolved`: both rows' columns and flows after
    the move, and the to-row's cached row), and everything after reads
    that resolution.  Instead of compiling, sorting and building a CSR per
    candidate, the scorer reads every candidate block through the base's
    solver layout (:attr:`CompiledBundles.layout`), cut to the links the
    scored candidates can saturate (:class:`_SubNetwork`; a bundle that
    crosses none of them meets its demand):

    * block *k* keeps the sub-network's *n* rank slots plus two slots for
      the rows the move inserts (the shrunk from-row, the grown or new
      to-row), each ranked at its stable (satisfy time, column) place; the
      slots of the base rows the move touches start inactive;
    * each (block, link) segment points into the sub-network's CSR, except
      the segments a touched or inserted row crosses, which are rebuilt as
      the base segment minus the touched rows plus the inserted ones at
      their rank.  Blocks that change a link the same way (the candidates
      moving one bundle share its from-row) share one rebuilt segment;
    * each link the move leaves alone starts from the base's initial
      crossing time, and only the distinct rebuilt segments pay the kernel;
    * the shared :class:`_Waterfall` event loop solves the chunk, folding
      inserted slots in rank order, and one roll-up scores it over the
      base's columns plus one for a new to-path.

    A score call splits its candidates into the fewest chunks of at most
    :func:`_blocks_per_chunk` blocks (:data:`SCORER_CHUNK_SLOTS` over the
    sub-network's slots per block, clamped), balanced.  Chunking changes
    no score.

    Every score is *bitwise* the network utility of a full evaluation of
    the moved state, ``model.evaluate(state.with_move(*move).bundles())``
    (tests/test_batched_scorer.py keeps that evaluation as the oracle).
    A move the base cannot make raises :class:`TrafficModelError` before
    any evaluation is counted: a from-path the base does not hold, fewer
    than one flow or more than the from-row holds, a to-path equal to the
    from-path, or a new to-path :class:`~repro.trafficmodel.bundle.Bundle`
    would reject (wrong endpoints or a repeated node: the solver's CSR
    needs simple paths).  Counts one evaluation per candidate, plus one for
    the base's initial crossing-time pass.
    """

    __slots__ = ("engine", "base", "weights", "_agg_weights", "_headroom", "_sub")

    def __init__(
        self,
        engine: CompiledTrafficModel,
        base: CompiledBundles,
        weights: Optional[PriorityWeights] = None,
    ) -> None:
        self.engine = engine
        self.base = base
        self.weights = weights
        self._agg_weights: Optional[np.ndarray] = None
        #: Demand a candidate must add to each link before it can saturate:
        #: the sweep floor less the base's demand on the link.
        self._headroom: Optional[np.ndarray] = None
        self._sub: Optional[_SubNetwork] = None

    def _resolve(self, move: Move) -> _Resolved:
        """Check that the base can make *move* and resolve its two rows."""
        key, from_path, to_path, flows = move
        base = self.base
        from_col = base.index.get((key, from_path), -1)
        if from_col < 0:
            raise TrafficModelError(
                f"the compiled base holds no bundle ({key!r}, {from_path!r})"
            )
        from_bundle = base.bundles[from_col]
        held = from_bundle.num_flows
        if not 1 <= flows <= held:
            raise TrafficModelError(
                f"cannot move {flows!r} of the {held} flows of {key!r} on {from_path!r}"
            )
        if to_path == from_path:
            raise TrafficModelError(
                "cannot move flows onto the path they are already on"
            )
        to_col = base.index.get((key, to_path), -1)
        if to_col >= 0:
            to_row = base.rows[to_col]
            to_flows = base.bundles[to_col].num_flows + flows
        else:
            check_bundle_path(from_bundle.aggregate, to_path)
            to_row = self.engine._row_for(from_bundle.aggregate, to_path)
            to_flows = flows
        agg_id = int(base.agg_ids[from_col])
        return agg_id, from_col, held - flows, to_col, to_flows, to_row

    def score(self, moves: Sequence[Move]) -> List[float]:
        """Weighted utility of each moved state, in input order."""
        resolved = [self._resolve(move) for move in moves]
        engine, base = self.engine, self.base
        if self._agg_weights is None:
            self._agg_weights = _aggregate_weights(base, self.weights)
            flat, counts = base.flat_links
            self._headroom = _saturation_threshold(engine._capacities) * (
                1.0 - _SWEEP_MARGIN
            ) - np.bincount(
                flat, weights=np.repeat(base.demands, counts), minlength=base.num_links
            )
            engine.evaluations += 1
        agg_weights = self._agg_weights
        engine.evaluations += len(moves)
        self._cover(resolved)
        assert self._sub is not None
        per_chunk = _blocks_per_chunk(len(self._sub.layout) + 2)
        bounds = _chunk_bounds(len(moves), per_chunk)
        scores: List[float] = []
        for start, stop in zip(bounds, bounds[1:]):
            chunk = self._solve_chunk(resolved[start:stop])
            # A move keeps its aggregate's flow total, so every candidate's
            # per-aggregate flows (sums of integers, exact in any order) and
            # weights are the base's.
            scores.extend(_weighted_means(_rollup(*chunk, base.agg_flows), agg_weights))
        return scores

    def _cover(self, moves: Sequence[_Resolved]) -> None:
        """Widen the sub-network to every link one of *moves* can saturate.

        Both rows of a move belong to one aggregate of the base, so only
        the to-row can add demand: each link's bound is the base's demand
        on it plus the largest to-row growth one candidate puts on it.  The
        sub-network only ever widens: every link a move list scored earlier
        can saturate stays kept.
        """
        base = self.base
        assert self._headroom is not None
        lifted: List[np.ndarray] = []
        lifts: List[float] = []
        for _, _, _, to_col, to_flows, to_row in moves:
            held = base.demands[to_col] if to_col >= 0 else 0.0
            lifted.append(to_row.link_indices)
            lifts.append(to_flows * to_row.per_flow_demand_bps - held)
        link_lift = np.zeros(base.num_links, dtype=float)
        if lifted:
            np.maximum.at(
                link_lift,
                np.concatenate(lifted),
                np.repeat(lifts, [links.shape[0] for links in lifted]),
            )
        kept = link_lift >= self._headroom
        if self._sub is not None:
            if not (kept & ~self._sub.kept).any():
                return
            kept |= self._sub.kept
        self._sub = _SubNetwork(base.layout, kept, self.engine._capacities)

    def _solve_chunk(self, moves: Sequence[_Resolved]) -> _ChunkColumns:
        """Solve one chunk of resolved moves as one stacked system.

        Returns the chunk's per-column (blocks x (n + 1)) rates, flows,
        component ids, component list, delay factors and aggregate ids, in
        :func:`_rollup`'s argument order.
        """
        sub = self._sub
        assert sub is not None
        rows = _ChunkRows(self.engine, self.base, sub, moves)
        rates, _ = self._system(sub, rows).run(with_bottleneck=False)
        base, num_bundles, num_slots = self.base, len(self.base), len(sub.layout)

        # Columns: the base's n, plus one for a new to-path.  A bundle off
        # the sub-network meets its demand.  A touched row's column starts
        # empty, so a removed from-bundle keeps it with zero flows and zero
        # rate, and the inserted rows then fill theirs.
        def columns(base_values: np.ndarray, dtype: Any) -> np.ndarray:
            return _tiled(
                base_values, rows.num_blocks, num_bundles, num_bundles + 1, 0, dtype
            )

        slot_rates = rates.reshape(rows.num_blocks, num_slots + 2)
        col_rates = columns(base.demands, float)
        col_rates[:, sub.layout.order] = slot_rates[:, :num_slots]
        col_flows = columns(base.flows, float)
        col_comp = columns(base.comp_ids, np.intp)
        col_delay = columns(base.delay_factors, float)
        col_agg = columns(base.agg_ids, np.intp)
        blocks, cols = rows.blocks, rows.columns
        col_rates[rows.touched[:, 0], rows.touched[:, 2]] = 0.0
        col_flows[rows.touched[:, 0], rows.touched[:, 2]] = 0.0
        col_rates[blocks, cols] = slot_rates[blocks, rows.slots]
        col_flows[blocks, cols] = rows.flows
        col_comp[blocks, cols] = rows.comp_ids
        col_delay[blocks, cols] = rows.delay
        col_agg[blocks, cols] = rows.agg_ids
        return col_rates, col_flows, col_comp, base.components, col_delay, col_agg

    def _system(self, sub: _SubNetwork, rows: "_ChunkRows") -> _Waterfall:
        """The chunk's stacked system on the sub-network, with every link's
        initial ``tau``."""
        layout = sub.layout
        num_slots, num_links = len(layout), layout.csr_counts.shape[0]
        num_blocks = rows.num_blocks
        width = num_slots + 2
        blocks, slots = rows.blocks, rows.slots

        # Slot arrays: the sub-network's ranked slots, tiled, then the two
        # slots of the rows a move inserts.
        def slot_array(base_values: Any, fill: Any, dtype: Any) -> np.ndarray:
            return _tiled(base_values, num_blocks, num_slots, width, fill, dtype)

        satisfy = slot_array(layout.satisfy, np.inf, float)
        growth = slot_array(layout.growth, 0.0, float)
        demand = slot_array(layout.demands, 0.0, float)
        active = slot_array(True, False, bool)
        row_start = slot_array(layout.row_start, 0, np.intp)
        row_count = slot_array(layout.row_count, 0, np.intp)
        fold_key = np.full((num_blocks, width), -1, dtype=np.intp)
        # Touched rows off the sub-network have no slot to silence.
        touched_slot = layout.inverse[rows.touched[:, 2]]
        on_sub = touched_slot >= 0
        touched_blocks = rows.touched[on_sub, 0]
        touched_slot = touched_slot[on_sub]
        touched_slots = np.full((2, num_blocks), -1, dtype=np.intp)
        touched_slots[rows.touched[on_sub, 1], touched_blocks] = touched_slot
        active[touched_blocks, touched_slot] = False
        satisfy[blocks, slots] = rows.satisfy
        growth[blocks, slots] = rows.growth
        demand[blocks, slots] = rows.demand
        active[blocks, slots] = True
        link_counts = rows.link_counts
        row_start[blocks, slots] = (
            layout.row_links.shape[0] + np.cumsum(link_counts) - link_counts
        )
        row_count[blocks, slots] = link_counts
        rank = layout.rank_of(rows.satisfy, rows.columns)
        fold_key[blocks, slots] = 2 * (blocks * width + rank) + rows.order

        # Rebuilt segments, one per distinct (link, changed rows crossing
        # it) — the candidates moving one bundle share its from-row's — each
        # built from the first (block, link) that reads it: the base
        # segment minus the touched rows, plus each inserted row at its rank.
        of_change = np.repeat(
            np.arange(rows.changed.shape[0], dtype=np.intp), rows.changed_counts
        )
        seg_keys, seg_of_entry = np.unique(
            rows.changed[of_change, 0] * num_links + rows.changed_links,
            return_inverse=True,
        )
        crossing = np.full((2, seg_keys.shape[0]), -1, dtype=np.intp)
        crossing[rows.changed[of_change, 1], seg_of_entry] = rows.changed[of_change, 2]
        stride = rows.num_changes + 1
        _, first, shared = np.unique(
            seg_keys % max(num_links, 1)
            + num_links * ((crossing[0] + 1) + stride * (crossing[1] + 1)),
            return_index=True,
            return_inverse=True,
        )
        built = seg_keys[first]
        num_built = built.shape[0]
        built_blocks, built_links = np.divmod(built, max(num_links, 1))
        base_counts = layout.csr_counts[built_links]
        src = _gather_slices(layout.csr_offsets[built_links], base_counts)
        entry_seg = np.repeat(np.arange(num_built, dtype=np.intp), base_counts)
        entry_slots = layout.csr_slots[src]
        entry_blocks = np.repeat(built_blocks, base_counts)
        keep = (entry_slots != touched_slots[0][entry_blocks]) & (
            entry_slots != touched_slots[1][entry_blocks]
        )
        entry_seg = entry_seg[keep]
        entry_slots = entry_slots[keep]
        entry_values = layout.csr_values[src][keep]
        # Insertions are ordered by segment, then rank, then order in the
        # block, so two that land on one pool index at a segment boundary
        # still go to their own segments.
        of_row = np.repeat(np.arange(link_counts.shape[0], dtype=np.intp), link_counts)
        row_seg = np.searchsorted(seg_keys, blocks[of_row] * num_links + rows.links)
        builds = first[shared[row_seg]] == row_seg
        of_row = of_row[builds]
        new_seg = shared[row_seg[builds]]
        new_key = new_seg * (num_slots + 1) + rank[of_row]
        by_key = np.argsort(2 * new_key + rows.order[of_row], kind="stable")
        at = np.searchsorted(
            entry_seg * (num_slots + 1) + entry_slots, new_key[by_key]
        )
        entry_seg = np.insert(entry_seg, at, new_seg[by_key])
        entry_slots = np.insert(entry_slots, at, slots[of_row][by_key])
        entry_values = np.insert(entry_values, at, rows.growth[of_row][by_key])
        built_counts = np.bincount(entry_seg, minlength=num_built)
        built_growth = np.bincount(entry_seg, weights=entry_values, minlength=num_built)

        seg_start = np.tile(layout.csr_offsets[:-1], num_blocks)
        seg_count = np.tile(layout.csr_counts, num_blocks)
        link_growth = np.tile(layout.link_growth, num_blocks)
        seg_start[seg_keys] = (
            layout.csr_slots.shape[0] + np.cumsum(built_counts) - built_counts
        )[shared]
        seg_count[seg_keys] = built_counts[shared]
        link_growth[seg_keys] = built_growth[shared]
        system = _Waterfall(
            sub.capacities,
            np.arange(num_blocks, dtype=np.intp) * width,
            satisfy.ravel(),
            growth.ravel(),
            demand.ravel(),
            active.ravel(),
            (
                row_start.ravel(),
                row_count.ravel(),
                np.concatenate([layout.row_links, rows.links]),
            ),
            (
                seg_start,
                seg_count,
                np.concatenate([layout.csr_slots, entry_slots]),
                np.concatenate([layout.csr_values, entry_values]),
            ),
            link_growth,
            fold_key=fold_key.ravel(),
        )
        # A link the move leaves alone starts at the base's crossing time;
        # a shared segment starts the same in every block that reads it
        # (same entries, all active, nothing frozen yet).
        system.tau[:] = np.tile(sub.tau, num_blocks)
        system.refresh(built)
        system.tau[seg_keys] = system.tau[built][shared]
        return system


def _kept_links(
    parts: List[np.ndarray], link_map: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Each link list of *parts* cut to the links ``link_map`` keeps and
    renumbered: (per-part counts, the concatenated kept links)."""
    counts = np.asarray([links.shape[0] for links in parts], dtype=np.intp)
    mapped = (
        link_map[np.concatenate(parts)] if parts else np.zeros(0, dtype=np.intp)
    )
    on_kept = mapped >= 0
    owner = np.repeat(np.arange(counts.shape[0], dtype=np.intp), counts)
    return np.bincount(owner[on_kept], minlength=counts.shape[0]), mapped[on_kept]


def _tiled(
    values: Any, rows: int, count: int, width: int, fill: Any, dtype: Any
) -> np.ndarray:
    """A (rows x width) matrix whose first *count* columns repeat *values*
    in every row and whose other columns hold *fill*."""
    matrix = np.full((rows, width), fill, dtype=dtype)
    matrix[:, :count] = values
    return matrix


class _ChunkRows:
    """The rows a chunk of resolved moves touches and inserts, block by block.

    A *touched* row is a base row the move changes (its slot, when it has
    one on the sub-network, starts inactive); an *inserted* row is the row
    after the move (the shrunk from-row in slot ``n``, the grown or new
    to-row in slot ``n + 1``, for the sub-network's *n* slots).  Both are
    rows of the base's aggregate, so they take its component id from the
    base.  ``order`` is an inserted row's place among its block's inserted
    rows in the stable (satisfy time, column) order.  A *change* is one
    row's new state — its cached row, one per (aggregate, path), and its
    flows — numbered so that blocks making the same change can share the
    segments it rebuilds.  Every link list is cut to the sub-network's
    links and renumbered: ``links`` concatenates the inserted rows'
    (``link_counts`` each), ``changed_links`` the changes'.
    """

    __slots__ = (
        "num_blocks",
        "touched",
        "blocks",
        "slots",
        "columns",
        "agg_ids",
        "comp_ids",
        "order",
        "demand",
        "growth",
        "satisfy",
        "flows",
        "delay",
        "link_counts",
        "links",
        "changed",
        "changed_counts",
        "changed_links",
        "num_changes",
    )

    def __init__(
        self,
        engine: CompiledTrafficModel,
        base: CompiledBundles,
        sub: _SubNetwork,
        moves: Sequence[_Resolved],
    ) -> None:
        num_bundles, num_slots = len(base), len(sub.layout)
        touched: List[Tuple[int, int, int]] = []  # block, role, base column
        # block, slot, column, aggregate id, component id, order in block
        inserted: List[Tuple[int, int, int, int, int, int]] = []
        values: List[Tuple[float, float, float, float]] = []
        links: List[np.ndarray] = []
        changed: List[Tuple[int, int, int]] = []  # block, role, change id
        changed_links: List[np.ndarray] = []
        change_ids: Dict[Tuple[_BundleRow, int], int] = {}
        for k, (agg_id, from_col, kept, to_col, to_flows, to_row) in enumerate(moves):
            block_rows: List[Tuple[float, int, int, _BundleRow, float, float, int]] = []
            for role, column, row, flows in (
                (0, from_col, base.rows[from_col], kept),
                (1, to_col, to_row, to_flows),
            ):
                if column >= 0:
                    touched.append((k, role, column))
                if flows:
                    row_demand = flows * row.per_flow_demand_bps
                    row_growth = engine._growth_of(flows, row)
                    placed = column if column >= 0 else num_bundles
                    block_rows.append(
                        (
                            row_demand / row_growth,
                            placed,
                            role,
                            row,
                            row_demand,
                            row_growth,
                            flows,
                        )
                    )
                change = change_ids.setdefault((row, flows), len(change_ids))
                changed.append((k, role, change))
                changed_links.append(row.link_indices)
            block_rows.sort(key=lambda item: (item[0], item[1]))
            comp_id = int(base.comp_ids[from_col])
            for order, block_row in enumerate(block_rows):
                _, placed, role, row, row_demand, row_growth, flows = block_row
                inserted.append((k, num_slots + role, placed, agg_id, comp_id, order))
                values.append((row_demand, row_growth, float(flows), row.delay_utility))
                links.append(row.link_indices)

        self.num_blocks = len(moves)
        self.touched = np.asarray(touched, dtype=np.intp).reshape(-1, 3)
        (
            self.blocks,
            self.slots,
            self.columns,
            self.agg_ids,
            self.comp_ids,
            self.order,
        ) = np.asarray(inserted, dtype=np.intp).reshape(-1, 6).T
        self.demand, self.growth, self.flows, self.delay = (
            np.asarray(values, dtype=float).reshape(-1, 4).T
        )
        self.satisfy = self.demand / self.growth
        self.link_counts, self.links = _kept_links(links, sub.link_map)
        self.changed = np.asarray(changed, dtype=np.intp).reshape(-1, 3)
        self.changed_counts, self.changed_links = _kept_links(
            changed_links, sub.link_map
        )
        self.num_changes = len(change_ids)


#: Default number of distinct (topology, config) engines a cache retains.
DEFAULT_MODEL_CACHE_ENTRIES = 16


class CompiledModelCache:
    """LRU cache of :class:`CompiledTrafficModel` engines keyed by topology content.

    The sweep runner evaluates many cells on the same topology; each cell
    historically built a fresh engine and recompiled every (aggregate, path)
    row from the network graph.  Keying engines by
    :func:`~repro.paths.cache.topology_signature` plus the (hashable, frozen)
    :class:`TrafficModelConfig` lets consecutive
    cells reuse warm row caches.  Sharing is correctness-safe: ``_row_for``
    validates every cached row against the requesting bundle's utility
    function, so a cell whose traffic matrix assigns different utilities to
    the same (aggregate, path) pair rebuilds those rows instead of reusing
    stale ones.  Capacity overrides and degraded (failure) views change the
    signature, so they never share an engine with the base network.
    """

    __slots__ = ("max_entries", "hits", "misses", "_engines")

    def __init__(self, max_entries: int = DEFAULT_MODEL_CACHE_ENTRIES) -> None:
        if max_entries < 1:
            raise TrafficModelError(
                f"max_entries must be positive, got {max_entries!r}"
            )
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._engines: Dict[Tuple[str, TrafficModelConfig], CompiledTrafficModel] = {}

    def __len__(self) -> int:
        return len(self._engines)

    def engine_for(
        self, network: Network, config: Optional[TrafficModelConfig] = None
    ) -> CompiledTrafficModel:
        """The cached engine for *network*'s topology and *config*, building on miss.

        A hit returns the previously built engine — including its warm
        per-(aggregate, path) row cache — for any network whose content
        signature matches, even a different object.
        """
        from repro.paths.cache import topology_signature

        key = (topology_signature(network), config or TrafficModelConfig())
        engine = self._engines.get(key)
        if engine is not None:
            self.hits += 1
            # Reorder for LRU eviction (dicts preserve insertion order).
            self._engines.pop(key)
            self._engines[key] = engine
            return engine
        self.misses += 1
        engine = CompiledTrafficModel(network, config)
        self._engines[key] = engine
        while len(self._engines) > self.max_entries:
            self._engines.pop(next(iter(self._engines)))
        return engine

    def stats(self) -> Dict[str, int]:
        """Hit/miss/size counters (for reports and tests)."""
        return {"hits": self.hits, "misses": self.misses, "entries": len(self._engines)}

    def clear(self) -> None:
        """Drop every cached engine and reset the counters."""
        self._engines.clear()
        self.hits = 0
        self.misses = 0

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
* :meth:`CompiledTrafficModel.compile_patched` derives the arrays of a
  *candidate* bundle list from an already-compiled base by patching only the
  rows a move changes (reduce/remove the from-path bundle, grow/append the
  to-path bundle) instead of rebuilding all of them;
* :meth:`CompiledTrafficModel.solve` replaces the one-event-per-bundle loop
  with a *waterfall* formulation: between two link-saturation events every
  bundle's rate trajectory is the closed form ``min(growth * t, demand)``, so
  all demand-satisfaction events inside the interval are resolved at once and
  the loop runs one round per saturated link (a handful) instead of one event
  per bundle (hundreds);
* :meth:`CompiledTrafficModel.solve_batched` stacks many independent compiled
  bundle lists into one block-diagonal system (block *k* owns stacked links
  ``k*L .. (k+1)*L-1``) and runs the waterfall over all of them in one pass —
  the per-solve fixed costs (CSR build, sorting, array setup) are paid once
  per batch instead of once per candidate.  ``solve`` is the one-block case
  of the same code path, so a batched solve is *bitwise* identical to solving
  each block alone; :class:`BatchedCandidateScorer` builds on this to score
  every candidate move of an optimization step in a handful of stacked
  solves;
* :meth:`CompiledTrafficModel.weighted_utility` scores a solution without
  constructing any result objects, vectorizing the flow-weighted utility
  roll-up over cached per-path delay factors and grouped bandwidth
  components.

The engine is semantically equivalent to ``reference_evaluate`` (same event
ordering rules, same satisfaction/saturation tolerances); the equivalence is
enforced by the property suite in ``tests/test_trafficmodel_compiled.py``,
which also checks that the full and patched paths agree *bit for bit* on
identically-ordered bundle lists.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

try:  # SciPy's C counting sort builds the stacked CSR ~3x faster than argsort.
    from scipy import sparse as _sparse
except ImportError:  # pragma: no cover - scipy ships with the baselines
    _sparse = None

from repro.exceptions import TrafficModelError
from repro.topology.graph import Network, Path
from repro.traffic.aggregate import Aggregate, AggregateKey
from repro.trafficmodel.bundle import Bundle
from repro.trafficmodel.result import BundleOutcome, TrafficModelResult
from repro.trafficmodel.waterfill import (
    _ABS_EPS,
    _REL_EPS,
    TrafficModelConfig,
)
from repro.utility.aggregation import PriorityWeights

#: Relative margin of the solver's bounded saturation sweep: each link's
#: load bound starts from its total growth inflated by it and is compared
#: with the threshold deflated by it.  It dwarfs the rounding of the bound's
#: operands (a few ulps per crossing bundle), so a link whose bound stays
#: below the deflated threshold cannot pass the exact load check.
_SWEEP_MARGIN = 1e-9

#: A patch maps (aggregate key, path) to the replacement bundle for that row,
#: or None to drop the row.  Pairs absent from the base are appended.
BundlePatch = Mapping[Tuple[AggregateKey, Path], Optional[Bundle]]


class _BundleRow:
    """Cached, flow-count-independent facts about one (aggregate, path) pair."""

    __slots__ = (
        "utility",
        "bandwidth",
        "link_indices",
        "column",
        "rtt_s",
        "path_delay_s",
        "per_flow_demand_bps",
        "delay_utility",
    )

    def __init__(self, network: Network, bundle: Bundle, min_rtt_s: float) -> None:
        indices = np.asarray(network.path_link_indices(bundle.path), dtype=np.intp)
        column = np.zeros(network.num_links, dtype=float)
        # Accumulate rather than assign so a link crossed twice counts twice
        # (Bundle rejects non-simple paths, but the row stays correct even if
        # that guard is ever relaxed).
        np.add.at(column, indices, 1.0)
        utility = bundle.aggregate.utility
        self.utility = utility
        self.bandwidth = utility.bandwidth
        self.link_indices = indices
        self.column = column
        self.path_delay_s = network.path_delay(bundle.path)
        self.rtt_s = max(2.0 * self.path_delay_s, min_rtt_s)
        self.per_flow_demand_bps = bundle.per_flow_demand_bps
        self.delay_utility = float(utility.delay(self.path_delay_s))


class _Solution:
    """Raw arrays produced by one solver run (no result objects yet)."""

    __slots__ = ("rates", "bottleneck")

    def __init__(self, rates: np.ndarray, bottleneck: np.ndarray) -> None:
        self.rates = rates
        #: Dense link index of the bottleneck per bundle, -1 when none.
        self.bottleneck = bottleneck


class CompiledBundles:
    """A bundle list compiled to dense arrays, ready for repeated solving.

    Instances are produced by :meth:`CompiledTrafficModel.compile` (full
    build through the row cache) and :meth:`CompiledTrafficModel.compile_patched`
    (derived from a base by patching only the changed rows).  They are
    treated as immutable by the solver.
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
        "_incidence",
        "_index",
        "_agg_flows",
        "_flat_links",
        "_link_counts",
    )

    def __init__(
        self,
        bundles: Tuple[Bundle, ...],
        rows: Tuple[_BundleRow, ...],
        demands: np.ndarray,
        growth: np.ndarray,
        flows: np.ndarray,
        incidence: Optional[np.ndarray],
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
        self._incidence = incidence
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

    def __len__(self) -> int:
        return len(self.bundles)

    @property
    def incidence(self) -> np.ndarray:
        """Dense link x bundle incidence matrix, built on first use.

        The solver works off :attr:`flat_links` (sparse, deterministic
        accumulation order), so patched candidates on the optimizer's hot
        path never pay the O(links x bundles) stack; the dense matrix is
        only materialized for diagnostics and external consumers.
        """
        if self._incidence is None:
            if self.rows:
                self._incidence = np.stack([row.column for row in self.rows], axis=1)
            else:
                self._incidence = np.zeros((self.num_links, 0), dtype=float)
        return self._incidence

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
        """Total flows per aggregate id (zero for aggregates patched away)."""
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


def _spliced_flat_links(
    base: CompiledBundles,
    edits: Dict[int, Optional[np.ndarray]],
    added_rows: Sequence[_BundleRow],
) -> Tuple[np.ndarray, np.ndarray]:
    """Derive a patched bundle list's flat-link arrays from the base's.

    ``edits`` maps a base column to its replacement link array (``None``
    drops the column); ``added_rows`` are appended at the end.  Splicing
    costs O(edited columns) slices plus one concatenate over the entries,
    instead of the O(bundles) python rebuild the lazy ``flat_links``
    property performs — the difference dominates candidate compilation once
    topologies reach hundreds of nodes.
    """
    base_flat, base_counts = base.flat_links
    if not edits and not added_rows:
        return base_flat, base_counts
    offsets = np.zeros(base_counts.shape[0] + 1, dtype=np.intp)
    np.cumsum(base_counts, out=offsets[1:])
    flat_parts: List[np.ndarray] = []
    count_parts: List[np.ndarray] = []
    prev = 0
    for column in sorted(edits):
        if column > prev:
            flat_parts.append(base_flat[offsets[prev] : offsets[column]])
            count_parts.append(base_counts[prev:column])
        links = edits[column]
        if links is not None:
            flat_parts.append(links)
            count_parts.append(np.asarray([links.shape[0]], dtype=np.intp))
        prev = column + 1
    if prev < base_counts.shape[0]:
        flat_parts.append(base_flat[offsets[prev] :])
        count_parts.append(base_counts[prev:])
    for row in added_rows:
        flat_parts.append(row.link_indices)
        count_parts.append(np.asarray([row.link_indices.shape[0]], dtype=np.intp))
    if not flat_parts:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    return np.concatenate(flat_parts), np.concatenate(count_parts)


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
    offsets = np.zeros(counts.shape[0] + 1, dtype=np.intp)
    np.cumsum(counts, out=offsets[1:])
    intra = np.arange(total, dtype=np.intp) - np.repeat(offsets[:-1], counts)
    return np.repeat(starts, counts) + intra


def _csr_entry_order(
    links: np.ndarray, positions: np.ndarray, num_rows: int, num_cols: int
) -> np.ndarray:
    """Permutation sorting entries row-major (by link) then column-minor.

    The (link, position) pairs must be unique — the traffic model guarantees
    it because paths are simple.  SciPy's COO→CSR conversion is a C counting
    sort over exactly this key and runs ~3x faster than the numpy radix
    fallback; both produce the identical permutation, so results are bitwise
    independent of which path is taken.
    """
    if _sparse is not None:
        matrix = _sparse.coo_matrix(
            (np.arange(links.shape[0], dtype=np.intp), (links, positions)),
            shape=(num_rows, num_cols),
        ).tocsr()
        matrix.sort_indices()
        return matrix.data
    # One radix argsort over a combined (link, pos) key beats lexsort's two
    # mergesort passes ~2x; int32 keys halve the radix passes again whenever
    # the key space allows.
    key = links * num_cols + positions
    if num_rows * num_cols < np.iinfo(np.int32).max:
        key = key.astype(np.int32)
    return np.argsort(key, kind="stable")


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
    That invariance is what lets the batched solver group per-link
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
        #: Number of solver runs (full or patched); mirrors the historical
        #: ``TrafficModel.evaluations`` counter.
        self.evaluations = 0

    # ------------------------------------------------------------------ rows

    def _row_for(self, bundle: Bundle) -> _BundleRow:
        key = (bundle.aggregate_key, bundle.path)
        row = self._rows.get(key)
        if row is None or not (
            row.utility is bundle.aggregate.utility
            or row.utility == bundle.aggregate.utility
        ):
            row = _BundleRow(self.network, bundle, self.config.min_rtt_s)
            self._rows[key] = row
        return row

    def _growth_of(self, bundle: Bundle, row: _BundleRow) -> float:
        if self.config.rtt_fairness:
            return bundle.num_flows / row.rtt_s
        return float(bundle.num_flows)

    # --------------------------------------------------------------- compile

    def compile(self, bundles: Sequence[Bundle]) -> CompiledBundles:
        """Build the dense arrays for *bundles* through the row cache."""
        num_bundles = len(bundles)
        rows = tuple(self._row_for(bundle) for bundle in bundles)

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
            growth[j] = self._growth_of(bundle, row)
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
            incidence=None,
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
        """Derive the compiled arrays of a patched bundle list from *base*.

        ``replacements`` maps (aggregate key, path) pairs to the new bundle
        for that row (``None`` drops the row; pairs not present in the base
        are appended at the end).  Only the changed rows are recomputed —
        everything else is reused or copied from the base arrays.
        """
        removed: List[int] = []
        changed: List[Tuple[int, Bundle]] = []
        additions: List[Bundle] = []
        for (key, path), new_bundle in replacements.items():
            column = base.index.get((key, tuple(path)))
            if column is None:
                if new_bundle is None:
                    raise TrafficModelError(
                        f"cannot remove unknown bundle ({key!r}, {path!r}) "
                        "from the compiled base"
                    )
                additions.append(new_bundle)
            elif new_bundle is None:
                removed.append(column)
            else:
                changed.append((column, new_bundle))

        num_base = len(base.bundles)
        bundles_list = list(base.bundles)
        rows_list = list(base.rows)
        demands = base.demands.copy()
        growth = base.growth.copy()
        flows = base.flows.copy()
        delay_factors = base.delay_factors
        components = base.components
        comp_ids = base.comp_ids
        for column, new_bundle in changed:
            row = self._row_for(new_bundle)
            bundles_list[column] = new_bundle
            rows_list[column] = row
            demands[column] = new_bundle.num_flows * row.per_flow_demand_bps
            growth[column] = self._growth_of(new_bundle, row)
            flows[column] = float(new_bundle.num_flows)
            if row.delay_utility != delay_factors[column]:
                if delay_factors is base.delay_factors:
                    delay_factors = base.delay_factors.copy()
                delay_factors[column] = row.delay_utility
            # A replacement carrying a different utility (e.g. a rebuilt
            # aggregate) also changes the bandwidth curve the scorer uses.
            current = components[comp_ids[column]]
            if not (current is row.bandwidth or current == row.bandwidth):
                try:
                    component_id = components.index(row.bandwidth)
                except ValueError:
                    if components is base.components:
                        components = list(base.components)
                    component_id = len(components)
                    components.append(row.bandwidth)
                if comp_ids is base.comp_ids:
                    comp_ids = base.comp_ids.copy()
                comp_ids[column] = component_id

        # Flat-link edits are keyed by base column, so collect them before
        # removals shift the columns of the list copies.
        edits: Dict[int, Optional[np.ndarray]] = {column: None for column in removed}
        for column, _ in changed:
            if rows_list[column] is not base.rows[column]:
                edits[column] = rows_list[column].link_indices

        if not removed and not additions:
            patched = CompiledBundles(
                bundles=tuple(bundles_list),
                rows=tuple(rows_list),
                demands=demands,
                growth=growth,
                flows=flows,
                # A changed row keeps its (key, path), hence its column of
                # the incidence matrix — the base's (possibly unbuilt) dense
                # matrix stays valid as-is.
                incidence=base._incidence,
                agg_ids=base.agg_ids,
                aggregates=base.aggregates,
                agg_index=base.agg_index,
                agg_class_ids=base.agg_class_ids,
                class_names=base.class_names,
                comp_ids=comp_ids,
                components=components,
                delay_factors=delay_factors,
                num_links=base.num_links,
            )
            patched._flat_links, patched._link_counts = _spliced_flat_links(
                base, edits, ()
            )
            return patched

        keep = np.ones(num_base, dtype=bool)
        keep[removed] = False

        added_rows = [self._row_for(bundle) for bundle in additions]
        aggregates = base.aggregates
        agg_index = base.agg_index
        agg_class_ids = base.agg_class_ids
        class_names = base.class_names
        added_agg_ids: List[int] = []
        added_comp_ids: List[int] = []
        for bundle, row in zip(additions, added_rows):
            agg_id = agg_index.get(bundle.aggregate.key)
            if agg_id is None:
                if aggregates is base.aggregates:
                    aggregates = list(base.aggregates)
                    agg_index = dict(base.agg_index)
                    agg_class_ids = list(base.agg_class_ids)
                    class_names = list(base.class_names)
                agg_id = len(aggregates)
                agg_index[bundle.aggregate.key] = agg_id
                aggregates.append(bundle.aggregate)
                traffic_class = bundle.aggregate.traffic_class
                if traffic_class in class_names:
                    class_id = class_names.index(traffic_class)
                else:
                    class_id = len(class_names)
                    class_names.append(traffic_class)
                agg_class_ids.append(class_id)
            added_agg_ids.append(agg_id)
            try:
                comp_id = components.index(row.bandwidth)
            except ValueError:
                if components is base.components:
                    components = list(base.components)
                comp_id = len(components)
                components.append(row.bandwidth)
            added_comp_ids.append(comp_id)
        if isinstance(agg_class_ids, list):
            agg_class_ids = np.asarray(agg_class_ids, dtype=np.intp)

        for column in sorted(removed, reverse=True):
            del bundles_list[column]
            del rows_list[column]
        patched = CompiledBundles(
            bundles=tuple(bundles_list) + tuple(additions),
            rows=tuple(rows_list) + tuple(added_rows),
            demands=np.concatenate(
                [demands[keep], [b.num_flows * r.per_flow_demand_bps for b, r in zip(additions, added_rows)]]
            ),
            growth=np.concatenate(
                [growth[keep], [self._growth_of(b, r) for b, r in zip(additions, added_rows)]]
            ),
            flows=np.concatenate(
                [flows[keep], [float(b.num_flows) for b in additions]]
            ),
            incidence=None,
            agg_ids=np.concatenate(
                [base.agg_ids[keep], np.asarray(added_agg_ids, dtype=np.intp)]
            ),
            aggregates=aggregates,
            agg_index=agg_index,
            agg_class_ids=agg_class_ids,
            class_names=class_names,
            comp_ids=np.concatenate(
                [comp_ids[keep], np.asarray(added_comp_ids, dtype=np.intp)]
            ),
            components=components,
            delay_factors=np.concatenate(
                [delay_factors[keep], [row.delay_utility for row in added_rows]]
            ),
            num_links=base.num_links,
        )
        patched._flat_links, patched._link_counts = _spliced_flat_links(
            base, edits, added_rows
        )
        return patched

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

        Implemented as the one-block case of :meth:`solve_batched`, so a
        standalone solve and a batched solve containing the same arrays are
        bitwise identical.
        """
        return self.solve_batched([compiled], capacities=capacities)[0]

    def solve_batched(
        self,
        blocks: Sequence[CompiledBundles],
        capacities: Optional[np.ndarray] = None,
        *,
        warm_tau: Optional[np.ndarray] = None,
        fresh_links: Optional[Sequence[Optional[np.ndarray]]] = None,
        initial_tau_out: Optional[np.ndarray] = None,
    ) -> List[_Solution]:
        """Solve many independent compiled bundle lists in one stacked pass.

        Block *k* owns the stacked link range ``k*L .. (k+1)*L-1`` of a
        block-diagonal system.  The event loop runs in *lockstep rounds*:
        each round commits the next saturation event of every block that
        still has one pending, with the candidate search, the slack-band
        load sweep and the freeze bookkeeping vectorized across blocks.  A
        batch therefore costs max-events-per-block rounds of array work
        instead of total-events passes through Python — that is what makes
        batched candidate scoring faster than per-move solves.

        Bitwise equivalence with per-block ``solve`` calls is maintained by
        making every floating-point reduction *exactly segment-local*: the
        per-block stable sort, the per-segment prefix sums of the
        crossing-time kernel (:func:`_segment_prefix_sums`), the per-link
        ``np.add.reduceat`` load sums and the per-index ``bincount`` frozen
        folds each see exactly the operand groupings a standalone one-block
        solve would, no matter which blocks share the batch.  The fast
        candidate scorer therefore provably selects the same move as one
        solve per candidate would (tests/test_batched_scorer.py).

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

        Counts ``len(blocks)`` evaluations.  ``capacities`` overrides the
        engine's per-link capacity vector for every block of this batch.

        ``warm_tau`` seeds each block's initial per-link crossing times with
        a vector previously captured via ``initial_tau_out`` (which copies
        block 0's initial crossing times before the event loop runs).  Only
        the per-block local link indices in ``fresh_links`` are recomputed
        (``None`` for a block means all of its links).  Seeding is bitwise
        safe exactly when, for every non-fresh link, the block's crossing
        bundles and their stable-sorted order match the solve that produced
        the warm vector — the candidate scorer guarantees this by marking
        every link on a patched bundle's old or new path as fresh — and the
        capacities must match as well.
        """
        num_blocks = len(blocks)
        self.evaluations += num_blocks
        if capacities is None:
            capacities = self._capacities
        else:
            capacities = np.asarray(capacities, dtype=float)
            if capacities.shape != self._capacities.shape:
                raise TrafficModelError(
                    f"capacity override has shape {capacities.shape}, "
                    f"expected {self._capacities.shape}"
                )
        num_links = capacities.shape[0]
        if num_blocks == 0:
            return []

        def _concat(arrays: List[np.ndarray]) -> np.ndarray:
            return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)

        block_sizes = np.asarray([len(block) for block in blocks], dtype=np.intp)
        bundle_offsets = np.zeros(num_blocks + 1, dtype=np.intp)
        np.cumsum(block_sizes, out=bundle_offsets[1:])
        total_bundles = int(bundle_offsets[-1])
        total_links = num_blocks * num_links

        rates = np.zeros(total_bundles, dtype=float)
        bottleneck = np.full(total_bundles, -1, dtype=np.intp)

        def solutions() -> List[_Solution]:
            return [
                _Solution(
                    rates[bundle_offsets[k] : bundle_offsets[k + 1]],
                    bottleneck[bundle_offsets[k] : bundle_offsets[k + 1]],
                )
                for k in range(num_blocks)
            ]

        if total_bundles == 0:
            return solutions()

        demands = _concat([block.demands for block in blocks])
        growth = _concat([block.growth for block in blocks])
        if num_links == 0:
            rates[:] = demands
            return solutions()

        # Absolute time at which each bundle meets its demand, if unconstrained.
        # Sorted per block (stable), blocks concatenated, so block k's sorted
        # positions stay contiguous — a single global argsort would interleave
        # blocks and regroup every reduction relative to a standalone solve.
        satisfy_at = demands / growth
        order_cols = np.empty(total_bundles, dtype=np.intp)  # pos -> column
        inverse_pos = np.empty(total_bundles, dtype=np.intp)  # column -> pos
        # Same-size blocks sort through one row-wise 2-D argsort — a row's
        # stable sort is bitwise the standalone 1-D sort of that block, and
        # batching the calls removes the dominant per-block Python overhead
        # (candidate batches are all patches of one base, so sizes cluster).
        for size in np.unique(block_sizes):
            size = int(size)
            if size == 0:
                continue
            members = np.nonzero(block_sizes == size)[0]
            starts = bundle_offsets[members]
            if members.size == 1:
                lo = int(starts[0])
                hi = lo + size
                local_order = np.argsort(satisfy_at[lo:hi], kind="stable")
                order_cols[lo:hi] = local_order + lo
                inverse_pos[lo:hi][local_order] = (
                    np.arange(size, dtype=np.intp) + lo
                )
                continue
            gather = starts[:, None] + np.arange(size, dtype=np.intp)[None, :]
            local_orders = np.argsort(
                satisfy_at[gather], kind="stable", axis=1
            )
            columns_flat = (local_orders + starts[:, None]).ravel()
            positions_flat = gather.ravel()
            order_cols[positions_flat] = columns_flat
            inverse_pos[columns_flat] = positions_flat

        # Columns and sorted positions share the block partition, so one
        # bundle -> block map serves both index spaces.
        block_of_bundle = np.repeat(
            np.arange(num_blocks, dtype=np.intp), block_sizes
        )
        block_link_base = np.arange(num_blocks, dtype=np.intp) * num_links

        e_sorted = satisfy_at[order_cols]
        # Time at which each bundle (sorted order) stops growing: its satisfy
        # time, overwritten with the saturation instant when truncated.  A
        # frozen bundle's constant contribution is growth * stop.
        stop_sorted = e_sorted.copy()

        active_sorted = np.ones(total_bundles, dtype=bool)
        saturated = np.zeros(total_links, dtype=bool)
        #: Load contributed by frozen bundles (constant from their freeze on),
        #: accumulated bundle-by-bundle so the arithmetic is deterministic.
        fixed = np.zeros(total_links, dtype=float)
        capacities_stacked = (
            capacities if num_blocks == 1 else np.tile(capacities, num_blocks)
        )
        threshold = capacities_stacked - (capacities_stacked * _REL_EPS + _ABS_EPS)
        tau = np.empty(total_links, dtype=float)
        now_blocks = np.zeros(num_blocks, dtype=float)

        # Row-major stacked link arrays (each bundle's links in path order,
        # column order, block by block): shared by the CSR build, bottleneck
        # attribution and the frozen-load folding.
        row_links_local = _concat([block.flat_links[0] for block in blocks])
        row_counts = _concat([block.flat_links[1] for block in blocks])
        row_offsets = np.zeros(total_bundles + 1, dtype=np.intp)
        np.cumsum(row_counts, out=row_offsets[1:])

        # Stacked CSR over links: entry (link, pos, value) says the bundle at
        # sorted position *pos* contributes *value* (its growth rate) to the
        # link's load while growing.  Entries are ordered link-major /
        # position-minor, the layout np.nonzero over a dense incidence matrix
        # would produce, but built from the per-bundle link lists in O(nnz)
        # without materializing anything dense.  (Paths are simple — Bundle
        # enforces it — so no (link, pos) pair repeats.)
        if row_links_local.size:
            entry_links = row_links_local + np.repeat(
                block_link_base[block_of_bundle], row_counts
            )
            entry_positions = np.repeat(inverse_pos, row_counts)
            entry_values = np.repeat(growth, row_counts)
            entry_order = _csr_entry_order(
                entry_links, entry_positions, total_links, total_bundles
            )
            csr_links = entry_links[entry_order]
            csr_positions = entry_positions[entry_order]
            csr_values = entry_values[entry_order]
        else:
            csr_links = np.zeros(0, dtype=np.intp)
            csr_positions = np.zeros(0, dtype=np.intp)
            csr_values = np.zeros(0, dtype=float)
        csr_offsets = np.zeros(total_links + 1, dtype=np.intp)
        np.cumsum(np.bincount(csr_links, minlength=total_links), out=csr_offsets[1:])
        csr_counts = np.diff(csr_offsets)
        # Each entry's block, via its bundle (cheaper than dividing links).
        csr_blocks = block_of_bundle[csr_positions]
        #: Summed growth of the still-growing bundles on each link, kept by
        #: subtracting each bundle as it freezes, so ``fixed + growing * tau``
        #: bounds a link's load at instant ``tau`` from above.  The
        #: subtractions round relative to the link's initial total growth,
        #: which is why that total starts inflated by the sweep margin.
        growing = np.bincount(csr_links, weights=csr_values, minlength=total_links)
        growing *= 1.0 + _SWEEP_MARGIN
        #: Load bound a link must reach to have its exact load summed; +inf
        #: for links no bundle crosses (saturating one changes no rate) and
        #: for links as they saturate.
        sweep_floor = np.where(
            csr_counts > 0, threshold * (1.0 - _SWEEP_MARGIN), np.inf
        )

        def recompute_tau(links: np.ndarray) -> None:
            """Earliest capacity-crossing time of each link in *links* under
            the currently active bundles (inf when it never crosses).

            Works on the flattened (link, crossing bundle) pairs of the links
            in question — O(total crossing bundles).  Every reduction is an
            exact per-segment prefix sum (:func:`_segment_prefix_sums`), so a
            link's crossing time is bitwise independent of which other links
            — of any block — share the call; the lockstep loop resolves the
            stale links of a whole batch in one invocation.
            """
            if links.size == 0:
                return
            counts_raw = csr_counts[links]
            src = _gather_slices(csr_offsets[links], counts_raw)
            flat_raw = csr_positions[src]
            mask = active_sorted[flat_raw]
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

            a = csr_values[src_active]
            e_flat = e_sorted[flat]
            prefix_growth = _segment_prefix_sums(a, counts)
            prefix_carried = _segment_prefix_sums(a * e_flat, counts)
            seg_growth = np.where(
                counts > 0, prefix_growth[np.maximum(offsets[1:] - 1, 0)], 0.0
            )

            # Load of each link at each crossing bundle's satisfy time:
            # earlier bundles contribute their full demand, later ones keep
            # growing.
            load_at_e = (
                fixed[link_of]
                + prefix_carried
                + (seg_growth[seg_of] - prefix_growth) * e_flat
            )
            crossed_at = np.nonzero(load_at_e >= capacities_stacked[link_of])[0]
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
                headroom = (
                    capacities_stacked[link_star] - fixed[link_star] - excl_carried
                )
                crossing_time = np.where(
                    slope > 0.0,
                    headroom / np.where(slope > 0.0, slope, 1.0),
                    e_flat[i_star],
                )
                new_tau[first_seg] = np.maximum(
                    crossing_time, now_blocks[link_star // num_links]
                )
            tau[links] = new_tau

        # Initial crossing-time pass over every stacked link at once — the
        # kernel's grouping independence makes one call equal to per-block
        # calls.  With a warm seed, only each block's fresh links pay the
        # kernel; every other link's crossing bundles (and their sorted
        # order, hence every prefix sum) are identical to the solve that
        # produced the seed, so copying is bitwise equal to recomputing.
        if warm_tau is None:
            recompute_tau(np.arange(total_links, dtype=np.intp))
        else:
            if warm_tau.shape != (num_links,):
                raise TrafficModelError(
                    f"warm_tau has shape {warm_tau.shape}, "
                    f"expected {(num_links,)}"
                )
            tau_view = tau.reshape(num_blocks, num_links)
            tau_view[:] = warm_tau[None, :]
            fresh_parts: List[np.ndarray] = []
            for k in range(num_blocks):
                local = None if fresh_links is None else fresh_links[k]
                if local is None:
                    fresh_parts.append(
                        np.arange(num_links, dtype=np.intp) + k * num_links
                    )
                elif len(local):
                    fresh_parts.append(
                        np.asarray(local, dtype=np.intp) + k * num_links
                    )
            if fresh_parts:
                recompute_tau(_concat(fresh_parts))
        if initial_tau_out is not None:
            initial_tau_out[:] = tau[:num_links]
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
        active_counts = block_sizes.copy()

        # Lockstep event loop: each round commits the next saturation event
        # of every block that still has one pending.  A block's event
        # sequence — and all of its arithmetic — is exactly the serial
        # per-block waterfall's; rounds merely run the blocks' next events
        # side by side, so a batch costs max-events-per-block rounds of
        # vectorized work instead of total-events passes through Python.
        for _ in range(num_links + 2):
            if not active_sorted.any():
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
                    recompute_tau(stale)
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
                finish_pos = active_sorted & finish[block_of_bundle]
                remaining = order_cols[finish_pos]
                rates[remaining] = demands[remaining]
                active_sorted[finish_pos] = False
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
            # link's CSR segment from its own contiguous entries alone, so
            # the sums are bitwise those of a standalone solve (locked in by
            # the batched-vs-single equivalence suite).  ``newly_flags`` is a
            # flat view, so marking a link there marks it in newly_matrix.
            reach = fixed_matrix + growing_matrix * np.where(
                process, cand_tau, 0.0
            )[:, None]
            sweep = np.nonzero(
                (
                    process[:, None] & ~newly_matrix & (reach >= sweep_floor_matrix)
                ).ravel()
            )[0]
            if sweep.size:
                sweep_counts = csr_counts[sweep]
                src = _gather_slices(csr_offsets[sweep], sweep_counts)
                contrib = csr_values[src] * np.minimum(
                    stop_sorted[csr_positions[src]], tau_star_blocks[csr_blocks[src]]
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
            tau_star_pos = tau_star_blocks[block_of_bundle]
            satisfied_pos = active_sorted & (
                e_sorted * (1.0 - _REL_EPS) <= tau_star_pos
            )
            satisfied_idx = order_cols[satisfied_pos]
            rates[satisfied_idx] = demands[satisfied_idx]
            active_sorted &= ~satisfied_pos

            # Still-growing bundles crossing a newly saturated link freeze
            # truncated, attributing the first saturated link on their path.
            # Unlike satisfied freezes, truncation changes the load curves of
            # every other link those bundles cross, so those links go dirty.
            newly_links = np.nonzero(newly_flags)[0]
            crossing_pos = np.zeros(total_bundles, dtype=bool)
            if newly_links.size:
                hit_src = _gather_slices(
                    csr_offsets[newly_links], csr_counts[newly_links]
                )
                crossing_pos[csr_positions[hit_src]] = True
            crossing_pos &= active_sorted
            crossing_positions = np.nonzero(crossing_pos)[0]
            crossing_idx = order_cols[crossing_positions]
            affected_links: Optional[np.ndarray] = None
            if crossing_idx.size:
                cross_tau = tau_star_pos[crossing_positions]
                rates[crossing_idx] = growth[crossing_idx] * cross_tau
                stop_sorted[crossing_positions] = cross_tau
                active_sorted[crossing_positions] = False
                # First newly saturated link on each truncated bundle's path,
                # in path order; bottlenecks are reported in the block's
                # local dense link index space.
                c_counts = row_counts[crossing_idx]
                c_src = _gather_slices(row_offsets[crossing_idx], c_counts)
                c_links_local = row_links_local[c_src]
                c_links_global = c_links_local + np.repeat(
                    block_link_base[block_of_bundle[crossing_positions]], c_counts
                )
                c_seg = np.repeat(
                    np.arange(crossing_idx.shape[0], dtype=np.intp), c_counts
                )
                hits = np.nonzero(newly_flags[c_links_global])[0]
                hit_seg = c_seg[hits]
                first_at = np.nonzero(np.diff(hit_seg, prepend=-1) > 0)[0]
                bottleneck[crossing_idx[hit_seg[first_at]]] = c_links_local[
                    hits[first_at]
                ]
                affected_links = c_links_global

            # Fold every bundle frozen this round into the fixed load.
            # bincount accumulates per index in entry order, and a bundle's
            # entries touch only its own block's link range, so each link
            # sees its own block's freezes in position order — exactly the
            # standalone solve's addition sequence.
            frozen_pos = satisfied_pos | crossing_pos
            frozen_positions = np.nonzero(frozen_pos)[0]
            if frozen_positions.size:
                frozen_idx = order_cols[frozen_positions]
                f_counts = row_counts[frozen_idx]
                f_src = _gather_slices(row_offsets[frozen_idx], f_counts)
                f_links = row_links_local[f_src] + np.repeat(
                    block_link_base[block_of_bundle[frozen_positions]], f_counts
                )
                fixed += np.bincount(
                    f_links,
                    weights=np.repeat(rates[frozen_idx], f_counts),
                    minlength=total_links,
                )
                growing -= np.bincount(
                    f_links,
                    weights=np.repeat(growth[frozen_idx], f_counts),
                    minlength=total_links,
                )
                active_counts -= np.bincount(
                    block_of_bundle[frozen_positions], minlength=num_blocks
                )

            if affected_links is not None:
                # Boolean scatter — duplicates are harmless, no dedup needed.
                dirty[affected_links[~saturated[affected_links]]] = True
            now_blocks[process] = cand_tau[process]
            done = process & (active_counts == 0)
            if done.any():
                # Finished blocks: silence their remaining links so they can
                # never become a candidate minimum again (a standalone solve
                # would simply have exited its event loop here).
                tau_matrix[done] = np.inf

        if active_sorted.any():
            raise TrafficModelError(
                "traffic model did not converge within the event budget; "
                "this indicates an internal inconsistency"
            )
        return solutions()

    # --------------------------------------------------------------- scoring

    def weighted_utility(
        self,
        compiled: CompiledBundles,
        rates: np.ndarray,
        weights: Optional[PriorityWeights] = None,
    ) -> float:
        """The weighted network utility of a solution, without result objects.

        Vectorizes exactly the roll-up
        :meth:`~repro.trafficmodel.result.TrafficModelResult.network_utility`
        performs: per-flow bandwidth utility times the cached per-path delay
        factor, flow-weighted per aggregate (clamped to 1), then averaged with
        priority weights.  Assumes aggregate keys are unique within the
        bundle list, as they are in any state derived from a traffic matrix.
        """
        if len(compiled) == 0:
            raise TrafficModelError("cannot score an empty bundle list")
        weights = weights or PriorityWeights.uniform()
        per_flow = rates / compiled.flows
        utilities = np.empty(len(compiled), dtype=float)
        comp_ids = compiled.comp_ids
        for comp_id, component in enumerate(compiled.components):
            mask = comp_ids == comp_id
            curve = component.curve
            utilities[mask] = np.interp(per_flow[mask], curve.xs, curve.ys)
        utilities *= compiled.delay_factors

        num_aggs = len(compiled.aggregates)
        weighted = np.bincount(
            compiled.agg_ids, weights=utilities * compiled.flows, minlength=num_aggs
        )
        agg_flows = compiled.agg_flows
        with np.errstate(divide="ignore", invalid="ignore"):
            agg_utilities = np.where(agg_flows > 0.0, weighted / agg_flows, 0.0)
        agg_utilities = np.minimum(agg_utilities, 1.0)

        class_weights = np.asarray(
            [weights.weight_for(name) for name in compiled.class_names], dtype=float
        )
        agg_weights = agg_flows * class_weights[compiled.agg_class_ids]
        return float(np.dot(agg_weights, agg_utilities) / agg_weights.sum())

    # -------------------------------------------------------------- assembly

    def result_of(
        self, compiled: CompiledBundles, solution: _Solution
    ) -> TrafficModelResult:
        """Assemble the full :class:`TrafficModelResult` for a solution."""
        rates = solution.rates
        # bincount accumulates in a fixed order, making the reported loads
        # independent of array alignment (unlike a BLAS matrix product), so
        # the full and patched paths agree bit for bit.
        flat, counts = compiled.flat_links
        link_loads = np.bincount(
            flat, weights=np.repeat(rates, counts), minlength=self._num_links
        )
        link_demands = np.bincount(
            flat, weights=np.repeat(compiled.demands, counts), minlength=self._num_links
        )
        network = self.network
        outcomes = []
        for j, bundle in enumerate(compiled.bundles):
            satisfied = bool(rates[j] >= compiled.demands[j] * (1.0 - _REL_EPS))
            link_index = solution.bottleneck[j]
            outcomes.append(
                BundleOutcome(
                    bundle=bundle,
                    rate_bps=float(rates[j]),
                    satisfied=satisfied,
                    bottleneck_link=(
                        None
                        if satisfied or link_index < 0
                        else network.link_by_index(int(link_index)).link_id
                    ),
                )
            )
        return TrafficModelResult(network, outcomes, link_loads, link_demands)

    # ------------------------------------------------------------ evaluation

    def evaluate(self, bundles: Sequence[Bundle]) -> TrafficModelResult:
        """Full evaluation: compile (through the row cache), solve, assemble."""
        compiled = self.compile(bundles)
        return self.result_of(compiled, self.solve(compiled))


#: Maximum candidates per stacked solve.  Bounds the O(batch x links) argmin
#: scans of the shared event loop while still amortizing per-solve setup.
DEFAULT_SCORER_BATCH = 64

#: Adaptive batch sizing targets about this many stacked links per solve:
#: per-round work scales with batch x links, so larger topologies run
#: smaller batches (64 blocks at 500 links, ~12 at 2 600).
SCORER_BATCH_TARGET_LINKS = 32768

#: Adaptive floor: below this the per-solve fixed costs stop amortizing.
SCORER_BATCH_MIN = 8


def _adaptive_batch_size(num_links: int) -> int:
    """Batch size bounding the stacked system to the target link count."""
    return max(
        SCORER_BATCH_MIN,
        min(DEFAULT_SCORER_BATCH, SCORER_BATCH_TARGET_LINKS // max(num_links, 1)),
    )


class BatchedCandidateScorer:
    """Scores candidate patches of one compiled base through stacked solves.

    Solving one candidate at a time pays the per-solve fixed costs once per
    candidate, and at scale those costs dominate the optimizer.  This scorer
    compiles each candidate patch (cheap — O(changed rows)) and solves whole
    batches through :meth:`CompiledTrafficModel.solve_batched`, whose
    block-scoped arithmetic makes every score *bitwise* equal to a
    one-candidate solve.  It is the optimizer's only scorer;
    tests/test_batched_scorer.py keeps the one-solve-per-candidate loop as
    the oracle every committed move is checked against.

    Candidates are patches of one shared base, so the scorer also solves the
    base once and warm-seeds every candidate block's initial crossing times
    from it: a candidate only re-derives the links its patched bundles
    cross (old path or new), a few percent of the topology, instead of every
    link from scratch.  Per-link crossing times on unpatched links are
    bitwise the base's — the patch does not change those links' crossing
    bundles or their stable-sorted order — so scores are unchanged.
    """

    __slots__ = ("engine", "base", "weights", "batch_size", "_warm_tau")

    def __init__(
        self,
        engine: CompiledTrafficModel,
        base: CompiledBundles,
        weights: Optional[PriorityWeights] = None,
        batch_size: Optional[int] = None,
    ) -> None:
        if batch_size is None:
            batch_size = _adaptive_batch_size(engine._capacities.shape[0])
        elif batch_size < 1:
            raise TrafficModelError(
                f"batch_size must be positive, got {batch_size!r}"
            )
        self.engine = engine
        self.base = base
        self.weights = weights
        self.batch_size = batch_size
        self._warm_tau: Optional[np.ndarray] = None

    def _base_tau(self) -> np.ndarray:
        """Initial per-link crossing times of the base block (solved once)."""
        if self._warm_tau is None:
            buf = np.empty(self.engine._capacities.shape[0], dtype=float)
            self.engine.solve_batched([self.base], initial_tau_out=buf)
            self._warm_tau = buf
        return self._warm_tau

    def _fresh_links(self, patch: BundlePatch) -> np.ndarray:
        """Local link indices whose crossing times the patch can change:
        every link on a patched bundle's old path or new path."""
        parts: List[np.ndarray] = []
        for (key, path), bundle in patch.items():
            column = self.base.index.get((key, tuple(path)))
            if column is not None:
                parts.append(self.base.rows[column].link_indices)
            if bundle is not None:
                parts.append(self.engine._row_for(bundle).link_indices)
        if not parts:
            return np.zeros(0, dtype=np.intp)
        return np.unique(np.concatenate(parts))

    def score(self, patches: Sequence[BundlePatch]) -> List[float]:
        """Weighted utility of each patched candidate, in input order."""
        scores: List[float] = []
        warm_tau = self._base_tau()
        for start in range(0, len(patches), self.batch_size):
            chunk = patches[start : start + self.batch_size]
            compiled = [
                self.engine.compile_patched(self.base, patch) for patch in chunk
            ]
            solved = self.engine.solve_batched(
                compiled,
                warm_tau=warm_tau,
                fresh_links=[self._fresh_links(patch) for patch in chunk],
            )
            scores.extend(
                self.engine.weighted_utility(candidate, solution.rates, self.weights)
                for candidate, solution in zip(compiled, solved)
            )
        return scores


#: Default number of distinct (topology, config) engines a cache retains.
DEFAULT_MODEL_CACHE_ENTRIES = 16


class CompiledModelCache:
    """LRU cache of :class:`CompiledTrafficModel` engines keyed by topology content.

    The sweep runner evaluates many cells on the same topology; each cell
    historically built a fresh engine and recompiled every (aggregate, path)
    row from the network graph.  Keying engines by
    :func:`~repro.paths.cache.topology_signature` plus the (hashable, frozen)
    :class:`~repro.trafficmodel.waterfill.TrafficModelConfig` lets consecutive
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

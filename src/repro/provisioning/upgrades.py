"""Greedy marginal-utility link upgrades: *where* to add capacity.

:func:`minimal_uniform_capacity` answers "how much" under uniform
provisioning; this module answers "where": given a fixed budget of upgrade
rounds, which individual links are worth widening first?  Each round

1. looks at the current plan's congested links, most oversubscribed first;
2. scores every candidate upgrade with a *cheap probe*: each candidate
   re-solves the compiled bundle list the incumbent plan's result carries
   with only the capacity vector swapped
   (:meth:`~repro.trafficmodel.compiled.CompiledTrafficModel.solve` with a
   ``capacities`` override), so the allocation is never recompiled;
3. commits the candidate with the best utility gain per added bit/s
   (:meth:`~repro.topology.graph.Network.with_link_capacity`, both
   directions of the fibre) and re-optimizes FUBAR on the upgraded network,
   warm-started from the incumbent plan.

The result is an ordered :class:`UpgradePlan` — an ISP-facing artifact: the
sequence of fibre upgrades ranked by marginal utility, with the utility
trajectory achieved after each commit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import FubarConfig
from repro.core.optimizer import FubarOptimizer, FubarResult
from repro.exceptions import ProvisioningError
from repro.paths.cache import PathSetCache, path_generator_for
from repro.provisioning.frontier import rebase_state
from repro.topology.graph import LinkId, Network
from repro.traffic.matrix import TrafficMatrix
from repro.trafficmodel.waterfill import traffic_model_for

if TYPE_CHECKING:
    from repro.trafficmodel.compiled import CompiledModelCache


#: Termination reasons recorded on :class:`UpgradePlan`.
STOPPED_NO_CONGESTION = "no congestion remains"
STOPPED_NO_IMPROVING_UPGRADE = "no candidate upgrade improves utility"
STOPPED_BUDGET = "upgrade budget exhausted"


@dataclass(frozen=True)
class UpgradeStep:
    """One committed link upgrade."""

    #: Undirected fibre identifier (src, dst), in link-id order.
    link: LinkId
    #: Capacity of each upgraded direction before the commit, bits/second.
    old_capacity_bps: float
    #: Capacity after the commit.
    new_capacity_bps: float
    #: Total capacity added across both directions, bits/second.
    added_bps: float
    #: Network utility (under the configured priority weights — identical to
    #: the unweighted utility for the default uniform weights) before this
    #: round's commit.  All utilities in the plan share this scale, so the
    #: cheap probes, the ranking and the recorded gains are comparable.
    utility_before: float
    #: Network utility after re-optimizing on the upgraded network.
    utility_after: float
    #: Cheap-probe estimate that won the round (allocation held fixed).
    probe_utility: float
    #: Candidate upgrades scored this round.
    candidates_probed: int
    #: Model evaluations spent this round (probes + re-optimization).
    model_evaluations: int

    @property
    def utility_gain(self) -> float:
        """Realized utility gain of this upgrade."""
        return self.utility_after - self.utility_before

    @property
    def marginal_utility_per_gbps(self) -> float:
        """Realized utility gain per Gbit/s of added capacity."""
        return self.utility_gain / (self.added_bps / 1e9)

    def as_dict(self) -> Dict[str, object]:
        return {
            "link": list(self.link),
            "old_capacity_bps": self.old_capacity_bps,
            "new_capacity_bps": self.new_capacity_bps,
            "added_bps": self.added_bps,
            "utility_before": self.utility_before,
            "utility_after": self.utility_after,
            "utility_gain": self.utility_gain,
            "marginal_utility_per_gbps": self.marginal_utility_per_gbps,
            "probe_utility": self.probe_utility,
            "candidates_probed": self.candidates_probed,
            "model_evaluations": self.model_evaluations,
        }


@dataclass
class UpgradePlan:
    """An ordered sequence of committed link upgrades."""

    #: Committed upgrades, in commit order (highest marginal utility first by
    #: construction of the greedy loop).
    steps: List[UpgradeStep] = field(default_factory=list)
    #: Utility of the baseline plan before any upgrade.
    base_utility: float = 0.0
    #: Utility after the last committed upgrade.
    final_utility: float = 0.0
    #: Why the loop stopped.
    termination_reason: str = STOPPED_BUDGET
    #: Total model evaluations (baseline + probes + re-optimizations).
    total_model_evaluations: int = 0
    #: The upgraded network after every committed step.
    network: Optional[Network] = None

    @property
    def total_added_bps(self) -> float:
        """Capacity added across all committed upgrades."""
        return sum(step.added_bps for step in self.steps)

    @property
    def total_utility_gain(self) -> float:
        """Utility gained over the baseline plan."""
        return self.final_utility - self.base_utility

    def as_dict(self) -> Dict[str, object]:
        return {
            "base_utility": self.base_utility,
            "final_utility": self.final_utility,
            "total_utility_gain": self.total_utility_gain,
            "total_added_bps": self.total_added_bps,
            "termination_reason": self.termination_reason,
            "total_model_evaluations": self.total_model_evaluations,
            "steps": [step.as_dict() for step in self.steps],
        }


def _undirected(link_id: LinkId) -> LinkId:
    """Canonical (sorted) identifier of a fibre, direction-independent."""
    return tuple(sorted(link_id))  # type: ignore[return-value]


def _fibre_directions(network: Network, link_id: LinkId) -> Tuple[LinkId, ...]:
    """The directed links an upgrade of this fibre widens (one or both)."""
    directions = [link_id]
    reverse = (link_id[1], link_id[0])
    if network.has_link(*reverse):
        directions.append(reverse)
    return tuple(directions)


def greedy_link_upgrades(
    network: Network,
    traffic_matrix: TrafficMatrix,
    num_upgrades: int = 4,
    upgrade_factor: float = 1.25,
    candidates_per_round: int = 4,
    fubar_config: Optional[FubarConfig] = None,
    warm_start: bool = True,
    path_cache: Optional[PathSetCache] = None,
    model_cache: Optional["CompiledModelCache"] = None,
) -> UpgradePlan:
    """Greedily upgrade the most valuable congested fibres.

    Parameters
    ----------
    num_upgrades:
        Maximum number of committed upgrades (rounds).
    upgrade_factor:
        Multiplier applied to both directions of the chosen fibre (> 1).
    candidates_per_round:
        How many of the most-congested fibres are probed each round.
    warm_start:
        Seed each post-commit re-optimization from the incumbent plan
        instead of restarting from shortest paths.
    path_cache / model_cache:
        Optional warm worker caches (see :mod:`repro.runner.worker`);
        upgrades change link capacities and therefore the topology
        signature, so only the shared pre-upgrade stages hit across cells.
    """
    if num_upgrades < 1:
        raise ProvisioningError(f"num_upgrades must be positive, got {num_upgrades!r}")
    if upgrade_factor <= 1.0:
        raise ProvisioningError(
            f"upgrade_factor must exceed 1, got {upgrade_factor!r}"
        )
    if candidates_per_round < 1:
        raise ProvisioningError(
            f"candidates_per_round must be positive, got {candidates_per_round!r}"
        )
    traffic_matrix.require_routable_on(network)
    config = fubar_config or FubarConfig()

    current_network = network
    model = traffic_model_for(current_network, cache=model_cache)
    result: FubarResult = FubarOptimizer(
        current_network,
        traffic_matrix,
        config=config,
        path_generator=path_generator_for(current_network, cache=path_cache),
        traffic_model=model,
    ).run()
    plan = UpgradePlan(
        base_utility=result.weighted_utility,
        final_utility=result.weighted_utility,
        total_model_evaluations=result.model_evaluations,
        network=current_network,
    )

    for _ in range(num_upgrades):
        model_result = result.model_result
        if not model_result.has_congestion:
            plan.termination_reason = STOPPED_NO_CONGESTION
            break

        # Candidate fibres: congested links from most to least oversubscribed,
        # collapsed onto undirected pairs.
        fibres: List[LinkId] = []
        seen = set()
        for link_id in model_result.congested_links_by_oversubscription():
            fibre = _undirected(link_id)
            if fibre not in seen:
                seen.add(fibre)
                fibres.append(link_id)
            if len(fibres) >= candidates_per_round:
                break

        # Cheap probes: score every candidate by re-solving the incumbent's
        # compiled allocation with a patched capacity vector.
        compiled = model_result.compiled
        assert compiled is not None
        base_capacities = np.asarray(current_network.capacities(), dtype=float)
        utility_now = result.weighted_utility
        round_evaluations = 0
        best: Optional[Tuple[float, float, LinkId, Tuple[LinkId, ...], float]] = None
        for link_id in fibres:
            directions = _fibre_directions(current_network, link_id)
            capacities = base_capacities.copy()
            added = 0.0
            for direction in directions:
                index = current_network.link_by_id(direction).index
                added += capacities[index] * (upgrade_factor - 1.0)
                capacities[index] *= upgrade_factor
            solution = model.solve(compiled, capacities=capacities)
            round_evaluations += 1
            probe_utility = model.weighted_utility(
                compiled, solution.rates, config.priority_weights
            )
            gain_per_bps = (probe_utility - utility_now) / added
            if best is None or gain_per_bps > best[0]:
                best = (gain_per_bps, probe_utility, link_id, directions, added)

        plan.total_model_evaluations += round_evaluations
        if best is None or best[0] <= 0.0:
            plan.termination_reason = STOPPED_NO_IMPROVING_UPGRADE
            break
        _, probe_utility, link_id, directions, added = best

        # Commit: widen the fibre and re-optimize, warm-started from the
        # incumbent plan (paths are untouched by capacity changes).
        old_capacity = current_network.link_by_id(link_id).capacity_bps
        upgraded = current_network.with_link_capacities(
            {
                direction: current_network.link_by_id(direction).capacity_bps
                * upgrade_factor
                for direction in directions
            }
        )
        model = traffic_model_for(upgraded, cache=model_cache)
        optimizer = FubarOptimizer(
            upgraded,
            traffic_matrix,
            config=config,
            path_generator=path_generator_for(upgraded, cache=path_cache),
            traffic_model=model,
        )
        utility_before = result.weighted_utility
        if warm_start:
            next_result = optimizer.run(
                initial_state=rebase_state(result.state, upgraded),
                initial_path_sets=result.path_sets,
            )
        else:
            next_result = optimizer.run()
        plan.total_model_evaluations += next_result.model_evaluations
        plan.steps.append(
            UpgradeStep(
                link=_undirected(link_id),
                old_capacity_bps=old_capacity,
                new_capacity_bps=old_capacity * upgrade_factor,
                added_bps=added,
                utility_before=utility_before,
                utility_after=next_result.weighted_utility,
                probe_utility=probe_utility,
                candidates_probed=len(fibres),
                model_evaluations=round_evaluations + next_result.model_evaluations,
            )
        )
        current_network = upgraded
        result = next_result
        plan.final_utility = result.weighted_utility
        plan.network = current_network

    return plan

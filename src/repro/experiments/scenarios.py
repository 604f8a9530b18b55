"""Evaluation scenarios (paper §3).

The paper's evaluation runs FUBAR on Hurricane Electric's core with an
all-pairs synthetic traffic matrix in two provisioning regimes:

* **provisioned** — every link at 100 Mbps: "enough capacity to make it
  possible to alleviate congestion, but not enough capacity for every flow to
  be satisfied on its shortest path";
* **underprovisioned** — every link at 75 Mbps: "not enough capacity to
  completely eliminate congestion".

This module builds those scenarios — at full scale (31 POPs, all-pairs
aggregates) or at a reduced scale for affordable pure-Python benchmark runs.
Reduced scenarios keep the provisioning *story* intact by calibrating flow
counts so the shortest-path demanded utilization matches a target, instead of
hard-coding capacities that only make sense at full scale.

Set the environment variable ``FUBAR_FULL_SCALE=1`` to make every scenario
default to the paper's full 31-POP configuration.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional

from repro.baselines.shortest_path import shortest_path_routing
from repro.core.config import FubarConfig
from repro.exceptions import ExperimentError
from repro.paths.cache import path_generator_for
from repro.topology.graph import Network
from repro.topology.hurricane_electric import (
    PROVISIONED_CAPACITY_BPS,
    UNDERPROVISIONED_CAPACITY_BPS,
    hurricane_electric_core,
    reduced_core,
)
from repro.topology.random_topologies import random_regular_core, waxman_topology
from repro.topology.zoo import abilene, geant
from repro.traffic.classes import LARGE_TRANSFER
from repro.traffic.generators import PaperTrafficConfig, paper_traffic_matrix
from repro.traffic.matrix import TrafficMatrix
from repro.trafficmodel.waterfill import traffic_model_for
from repro.utility.aggregation import PriorityWeights

#: Environment variable that switches every scenario to the paper's full scale.
FULL_SCALE_ENV_VAR = "FUBAR_FULL_SCALE"

#: POP count used by the reduced (default) scenarios.  Eight POPs (the US
#: west/central portion of the core) keep a pure-Python optimizer run in the
#: one-second range while still exhibiting the paper's provisioned /
#: underprovisioned contrast; see EXPERIMENTS.md for the calibration notes.
REDUCED_NUM_POPS = 8

#: Shortest-path demanded utilization the reduced scenarios are calibrated to,
#: always measured against the *provisioned* (100 Mbps) capacities.  The same
#: flow counts are then reused by the underprovisioned case, whose 75 Mbps
#: links are automatically ~4/3 as loaded — exactly the paper's construction.
DEFAULT_TARGET_DEMANDED_UTILIZATION = 0.55

#: Priority factor used for the Figure 5 scenario (large flows weighted up).
#: Chosen so that, at the reduced benchmark scale, large-transfer aggregates
#: reach their peak utility as in the paper's Figure 5.
DEFAULT_PRIORITY_FACTOR = 16.0


def full_scale_enabled() -> bool:
    """True when the paper's full 31-POP configuration was requested via env var."""
    return os.environ.get(FULL_SCALE_ENV_VAR, "").strip() in {"1", "true", "yes", "on"}  # repro: allow[PURE101] — the full-scale flag is resolved once into the scenario spec, so the cache key already captures it


@dataclass
class Scenario:
    """A ready-to-run evaluation scenario."""

    name: str
    network: Network
    traffic_matrix: TrafficMatrix
    fubar_config: FubarConfig
    description: str = ""
    metadata: Dict[str, object] = field(default_factory=dict)

    def summary(self) -> dict:
        """Compact description used by reports and EXPERIMENTS.md."""
        return {
            "name": self.name,
            "network": self.network.name,
            "num_pops": self.network.num_nodes,
            "num_links": self.network.num_links,
            "num_aggregates": self.traffic_matrix.num_aggregates,
            "total_flows": self.traffic_matrix.total_flows,
            "total_demand_bps": self.traffic_matrix.total_demand_bps,
            **self.metadata,
        }


def calibrate_flow_counts(
    network: Network,
    traffic_matrix: TrafficMatrix,
    target_demanded_utilization: float,
) -> TrafficMatrix:
    """Scale flow counts so shortest-path demanded utilization hits a target.

    The paper's absolute numbers (961 aggregates, 100 Mbps links) fix the
    offered-load-to-capacity ratio; reduced topologies need their flow counts
    rescaled to recreate the same pressure.  The calibration routes the matrix
    over shortest paths, reads the demanded utilization and scales flow
    counts by the ratio to the target.
    """
    if not 0.0 < target_demanded_utilization < 2.0:
        raise ExperimentError(
            "target demanded utilization must be in (0, 2), got "
            f"{target_demanded_utilization!r}"
        )
    # Inside a shared-cache sweep worker (repro.runner.worker) the calibration
    # route reuses the warm path generator and traffic-model engine for this
    # topology; outside one, caches is None and fresh instances are built
    # exactly as before.  Lazy import: the runner layer sits above this one.
    from repro.runner.worker import active_worker_caches

    caches = active_worker_caches()
    baseline = shortest_path_routing(
        network,
        traffic_matrix,
        generator=path_generator_for(
            network, cache=caches.path_cache if caches else None
        ),
        model=traffic_model_for(
            network, cache=caches.model_cache if caches else None
        ),
    )
    demanded = baseline.model_result.demanded_utilization()
    if demanded <= 0.0:
        raise ExperimentError("traffic matrix has no demand; cannot calibrate")
    factor = target_demanded_utilization / demanded
    if abs(factor - 1.0) < 0.05:
        return traffic_matrix
    # Keep every endpoint pair represented (drop_empty=False): the paper's
    # construction assumes the full aggregate set, and a strong
    # down-calibration must not silently delete 1-2-flow aggregates.
    return traffic_matrix.scaled_flows(
        factor, name=f"{traffic_matrix.name}-calibrated", drop_empty=False
    )


def _calibrate_against_provisioned(
    network: Network,
    traffic_matrix: TrafficMatrix,
    at_provisioned_capacity: bool,
    target_demanded_utilization: float,
) -> TrafficMatrix:
    """Calibrate flow counts against the paper's *provisioned* capacities.

    Shared by the paper scenarios and the sweep scenarios so both keep the
    paper's construction: the traffic matrix is fixed against the 100 Mbps
    reference and only link capacity differs between provisioning cases.
    """
    calibration_network = (
        network
        if at_provisioned_capacity
        else network.with_uniform_capacity(PROVISIONED_CAPACITY_BPS)
    )
    return calibrate_flow_counts(
        calibration_network, traffic_matrix, target_demanded_utilization
    )


def _priority_weights(priority_factor: float) -> PriorityWeights:
    """Objective weights for a large-transfer priority factor (1.0 = uniform)."""
    if priority_factor != 1.0:
        return PriorityWeights.prioritize(LARGE_TRANSFER, priority_factor)
    return PriorityWeights.uniform()


def _build_network(provisioned: bool, num_pops: Optional[int]) -> Network:
    capacity = PROVISIONED_CAPACITY_BPS if provisioned else UNDERPROVISIONED_CAPACITY_BPS
    if num_pops is None:
        label = "provisioned" if provisioned else "underprovisioned"
        return hurricane_electric_core(capacity_bps=capacity, name=f"he-{label}")
    return reduced_core(num_pops, capacity_bps=capacity)


def build_paper_scenario(
    provisioned: bool = True,
    seed: int = 0,
    num_pops: Optional[int] = None,
    relax_delay_factor: Optional[float] = None,
    delay_cutoff_scale: float = 1.0,
    prioritize_large_flows: bool = False,
    priority_factor: float = DEFAULT_PRIORITY_FACTOR,
    target_demanded_utilization: float = DEFAULT_TARGET_DEMANDED_UTILIZATION,
    traffic_config: Optional[PaperTrafficConfig] = None,
    fubar_config: Optional[FubarConfig] = None,
    max_wall_clock_s: Optional[float] = None,
) -> Scenario:
    """Build one of the paper's evaluation scenarios.

    Parameters
    ----------
    provisioned:
        True for the 100 Mbps case, False for the 75 Mbps case.
    seed:
        Seed of the synthetic traffic matrix (Figure 7 varies this).
    num_pops:
        None uses the scale selected by :func:`default_num_pops` (the full 31
        POPs when ``FUBAR_FULL_SCALE=1``, a reduced core otherwise).  Pass an
        explicit value to override.
    relax_delay_factor:
        Relaxes the small-flow delay curves (Figure 6 uses 2.0).
    delay_cutoff_scale:
        Rescales every class's delay cut-off before the relax factor is
        applied.  Reduced-scale delay experiments use a value below 1 so the
        delay component binds on continental-only paths.
    prioritize_large_flows:
        Weights large-transfer aggregates up in the objective (Figure 5).
    target_demanded_utilization:
        Calibration target applied to reduced-scale scenarios (ignored at
        full scale, which uses the paper's absolute numbers).
    max_wall_clock_s:
        Optional optimizer time budget.
    """
    resolved_pops = num_pops if num_pops is not None else default_num_pops()
    at_full_scale = resolved_pops >= 31
    network = _build_network(provisioned, None if at_full_scale else resolved_pops)

    config = traffic_config or PaperTrafficConfig()
    config = replace(
        config,
        relax_delay_factor=relax_delay_factor,
        delay_cutoff_scale=delay_cutoff_scale,
    )
    traffic_matrix = paper_traffic_matrix(network, seed=seed, config=config)
    if not at_full_scale:
        # Calibrate against the provisioned capacities regardless of which
        # case is being built: the paper keeps the traffic matrix fixed and
        # only changes link capacity between the two cases.
        traffic_matrix = _calibrate_against_provisioned(
            network, traffic_matrix, provisioned, target_demanded_utilization
        )

    weights = _priority_weights(priority_factor if prioritize_large_flows else 1.0)
    base_config = fubar_config or FubarConfig()
    base_config = base_config.with_priority(weights)
    if max_wall_clock_s is not None:
        base_config = replace(base_config, max_wall_clock_s=max_wall_clock_s)

    parts = ["provisioned" if provisioned else "underprovisioned"]
    if prioritize_large_flows:
        parts.append("prioritized")
    if relax_delay_factor is not None:
        parts.append(f"relaxed-delay-x{relax_delay_factor:g}")
    name = "-".join(parts) + f"-seed{seed}"
    return Scenario(
        name=name,
        network=network,
        traffic_matrix=traffic_matrix,
        fubar_config=base_config,
        description=(
            "Paper §3 scenario: "
            + ("100 Mbps links" if provisioned else "75 Mbps links")
            + (", large flows prioritized" if prioritize_large_flows else "")
            + (
                f", small-flow delay curves relaxed x{relax_delay_factor:g}"
                if relax_delay_factor is not None
                else ""
            )
        ),
        metadata={
            "provisioned": provisioned,
            "seed": seed,
            "full_scale": at_full_scale,
            "priority_factor": priority_factor if prioritize_large_flows else 1.0,
            "relax_delay_factor": relax_delay_factor,
            "delay_cutoff_scale": delay_cutoff_scale,
        },
    )


def default_num_pops() -> int:
    """POP count scenarios use by default (31 at full scale, reduced otherwise)."""
    return 31 if full_scale_enabled() else REDUCED_NUM_POPS


def provisioned_scenario(seed: int = 0, **kwargs: Any) -> Scenario:
    """The Figure 3 scenario."""
    return build_paper_scenario(provisioned=True, seed=seed, **kwargs)


def underprovisioned_scenario(seed: int = 0, **kwargs: Any) -> Scenario:
    """The Figure 4 scenario."""
    return build_paper_scenario(provisioned=False, seed=seed, **kwargs)


def prioritized_scenario(seed: int = 0, **kwargs: Any) -> Scenario:
    """The Figure 5 scenario (underprovisioned, large flows weighted up)."""
    return build_paper_scenario(
        provisioned=False, seed=seed, prioritize_large_flows=True, **kwargs
    )


def relaxed_delay_scenario(seed: int = 0, factor: float = 2.0, **kwargs: Any) -> Scenario:
    """The Figure 6 comparison scenario (small-flow delay parameter doubled)."""
    return build_paper_scenario(
        provisioned=False, seed=seed, relax_delay_factor=factor, **kwargs
    )


# ------------------------------------------------------------ sweep scenarios
#
# The paper evaluates on one real topology in two provisioning regimes.  The
# sweep machinery below generalizes that recipe along four axes — topology
# family, POP count, provisioning ratio, and traffic mix / priority weights —
# so the runner (``repro.runner``) can evaluate FUBAR and its baselines over
# whole families of scenarios instead of a single point.


def _sweep_hurricane_electric(num_pops: Optional[int], capacity_bps: float, seed: int) -> Network:
    resolved = num_pops if num_pops is not None else default_num_pops()
    if resolved >= 31:
        return hurricane_electric_core(capacity_bps=capacity_bps)
    return reduced_core(resolved, capacity_bps=capacity_bps)


def _sweep_abilene(num_pops: Optional[int], capacity_bps: float, seed: int) -> Network:
    return abilene(capacity_bps=capacity_bps)


def _sweep_geant(num_pops: Optional[int], capacity_bps: float, seed: int) -> Network:
    return geant(capacity_bps=capacity_bps)


def _sweep_waxman(num_pops: Optional[int], capacity_bps: float, seed: int) -> Network:
    resolved = num_pops if num_pops is not None else default_num_pops()
    return waxman_topology(resolved, capacity_bps=capacity_bps, seed=seed)


def _sweep_random_core(num_pops: Optional[int], capacity_bps: float, seed: int) -> Network:
    resolved = num_pops if num_pops is not None else default_num_pops()
    return random_regular_core(resolved, capacity_bps=capacity_bps, seed=seed)


#: Topology families the sweep scenarios can draw from.  Each builder takes
#: ``(num_pops, capacity_bps, seed)``; the fixed research backbones (Abilene,
#: GÉANT) ignore ``num_pops``, the random families use ``seed`` so that every
#: sweep cell gets its own — but reproducible — instance.
SWEEP_TOPOLOGY_BUILDERS = {
    "hurricane-electric": _sweep_hurricane_electric,
    "abilene": _sweep_abilene,
    "geant": _sweep_geant,
    "waxman": _sweep_waxman,
    "random-core": _sweep_random_core,
}

#: Topology families whose shape depends on the cell seed.
RANDOM_TOPOLOGY_FAMILIES = frozenset({"waxman", "random-core"})


def sweep_topology_families() -> tuple:
    """Names of the topology families available to sweep scenarios."""
    return tuple(sorted(SWEEP_TOPOLOGY_BUILDERS))


def build_sweep_scenario(
    topology: str = "hurricane-electric",
    num_pops: Optional[int] = None,
    provisioning_ratio: float = 1.0,
    real_time_probability: float = 0.5,
    large_probability: float = 0.02,
    priority_factor: float = 1.0,
    seed: int = 0,
    target_demanded_utilization: float = DEFAULT_TARGET_DEMANDED_UTILIZATION,
    max_steps: Optional[int] = None,
    max_wall_clock_s: Optional[float] = None,
) -> Scenario:
    """Build one cell of a scenario sweep.

    This generalizes :func:`build_paper_scenario` along the axes the runner
    sweeps over:

    Parameters
    ----------
    topology:
        One of :func:`sweep_topology_families` — the Hurricane Electric core
        (reduced or full), the Abilene / GÉANT research backbones, or the
        Waxman / random-regular synthetic families.
    num_pops:
        POP count for the sizeable families (``hurricane-electric``,
        ``waxman``, ``random-core``); ``None`` uses :func:`default_num_pops`.
        Ignored by the fixed-size research backbones.
    provisioning_ratio:
        Link capacity as a fraction of the paper's provisioned 100 Mbps.
        ``1.0`` reproduces the provisioned regime, ``0.75`` the
        underprovisioned one; any other ratio interpolates or extrapolates
        the provisioning story.
    real_time_probability:
        Probability that a small aggregate is real-time rather than bulk
        (the paper's mix is 0.5).
    large_probability:
        Probability of a large file-transfer aggregate (the paper uses 0.02).
    priority_factor:
        Weight applied to large-transfer aggregates in the objective; 1.0
        keeps the paper's uniform weighting, larger values reproduce the
        Figure 5 prioritization.
    seed:
        Drives the synthetic traffic matrix and (for the random families)
        the topology itself.
    target_demanded_utilization:
        Shortest-path calibration target (see :func:`calibrate_flow_counts`);
        the traffic matrix is always calibrated against the
        ``provisioning_ratio == 1.0`` capacities so that varying the ratio
        only changes capacity, exactly like the paper's two regimes.
    max_steps:
        Optional cap on committed optimizer steps.  Unlike a wall-clock
        budget this keeps the cell fully deterministic, so sweep presets use
        it to bound the cost of the larger topologies.
    max_wall_clock_s:
        Optional optimizer time budget for the cell (not deterministic
        across machines; prefer ``max_steps`` for cacheable sweeps).
    """
    if topology not in SWEEP_TOPOLOGY_BUILDERS:
        raise ExperimentError(
            f"unknown topology family {topology!r}; "
            f"expected one of {sweep_topology_families()}"
        )
    if provisioning_ratio <= 0.0:
        raise ExperimentError(
            f"provisioning_ratio must be positive, got {provisioning_ratio!r}"
        )
    if priority_factor <= 0.0:
        raise ExperimentError(
            f"priority_factor must be positive, got {priority_factor!r}"
        )

    capacity = PROVISIONED_CAPACITY_BPS * provisioning_ratio
    network = SWEEP_TOPOLOGY_BUILDERS[topology](num_pops, capacity, seed)

    traffic_config = PaperTrafficConfig(
        real_time_probability=real_time_probability,
        large_probability=large_probability,
    )
    traffic_matrix = paper_traffic_matrix(network, seed=seed, config=traffic_config)

    # Calibrate against the fully provisioned capacities so that, as in the
    # paper, the provisioning ratio changes capacity but never the demand.
    # The full 31-POP Hurricane Electric core uses the paper's absolute flow
    # counts instead (mirroring build_paper_scenario), so an `he-*` sweep
    # cell at full scale is exactly a figure run at the same seed.
    resolved_pops = num_pops if num_pops is not None else default_num_pops()
    at_paper_scale = topology == "hurricane-electric" and resolved_pops >= 31
    if not at_paper_scale:
        traffic_matrix = _calibrate_against_provisioned(
            network,
            traffic_matrix,
            provisioning_ratio == 1.0,
            target_demanded_utilization,
        )

    weights = _priority_weights(priority_factor)
    config = FubarConfig(
        priority_weights=weights,
        max_steps=max_steps,
        max_wall_clock_s=max_wall_clock_s,
    )

    parts = [topology, f"r{provisioning_ratio:g}"]
    if priority_factor != 1.0:
        parts.append(f"p{priority_factor:g}")
    name = "-".join(parts) + f"-seed{seed}"
    return Scenario(
        name=name,
        network=network,
        traffic_matrix=traffic_matrix,
        fubar_config=config,
        description=(
            f"Sweep cell: {topology} topology at {provisioning_ratio:g}x the "
            "paper's provisioned capacity"
            + (f", large flows weighted x{priority_factor:g}" if priority_factor != 1.0 else "")
        ),
        metadata={
            "topology": topology,
            "provisioning_ratio": provisioning_ratio,
            "real_time_probability": real_time_probability,
            "large_probability": large_probability,
            "priority_factor": priority_factor,
            "seed": seed,
            "target_demanded_utilization": target_demanded_utilization,
            "max_steps": max_steps,
        },
    )

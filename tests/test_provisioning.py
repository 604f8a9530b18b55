"""Tests for the capacity-planning subsystem (:mod:`repro.provisioning`).

Functional coverage uses deliberately tiny inputs — the triangle topology
(where every answer can be derived by hand) and 5-POP Hurricane Electric
cells — so the whole module stays in the seconds range; the benchmark
harness (``benchmarks/bench_provisioning.py``) exercises the default scale.
"""

import pytest

from repro.exceptions import ProvisioningError
from repro.experiments.scenarios import build_sweep_scenario
from repro.provisioning import (
    ProvisioningOutcome,
    build_provisioning_scenario,
    greedy_link_upgrades,
    is_provisioning,
    minimal_uniform_capacity,
    rebase_state,
    reference_capacity,
    run_scenario_provisioning,
    survivable_capacity,
)
from repro.core.state import AllocationState
from repro.runner.cache import ResultCache
from repro.runner.engine import evaluate_cell, run_sweep
from repro.runner.registry import SWEEP_PRESETS, get_family, provisioning_sweep_specs
from repro.runner.report import format_markdown_report, format_sweep_report
from repro.runner.spec import CellSpec
from repro.traffic.matrix import TrafficMatrix
from repro.trafficmodel.compiled import CompiledModelCache
from repro.units import kbps, mbps, ms
from tests.conftest import make_aggregate

#: The smallest useful Hurricane Electric cell.
TINY = {"num_pops": 5}


@pytest.fixture
def triangle_matrix():
    """One A->B aggregate demanding 180 Mbps on the triangle topology.

    With the direct A-B link *and* the A-C-B detour alive the demand fits
    once the two paths together offer 180 Mbps (uniform capacity ~90 Mbps);
    with any one link cut a single path must carry everything, so
    survivability needs roughly twice the failure-free capacity.
    """
    return TrafficMatrix(
        [make_aggregate("A", "B", num_flows=600, demand_bps=kbps(300))],
        name="triangle-capacity",
    )


# ---------------------------------------------------------------- frontier


class TestMinimalUniformCapacity:
    def test_triangle_frontier_brackets_the_split_capacity(self, triangle, triangle_matrix):
        frontier = minimal_uniform_capacity(
            triangle, triangle_matrix, target_utility=0.9, max_capacity_bps=mbps(150)
        )
        # Utility 0.9 needs ~162 Mbps across the two paths => ~81 Mbps/link.
        assert frontier.minimal_capacity_bps is not None
        assert mbps(75) < frontier.minimal_capacity_bps < mbps(100)
        assert frontier.is_monotone()
        assert frontier.total_model_evaluations > 0

    def test_frontier_points_are_capacity_sorted_and_flagged(self, triangle, triangle_matrix):
        frontier = minimal_uniform_capacity(
            triangle, triangle_matrix, target_utility=0.9, max_capacity_bps=mbps(150)
        )
        capacities = list(frontier.capacities)
        assert capacities == sorted(capacities)
        for point in frontier.points:
            assert point.feasible == (point.utility >= 0.9)

    def test_infeasible_target_returns_no_capacity(self, triangle, triangle_matrix):
        frontier = minimal_uniform_capacity(
            triangle,
            triangle_matrix,
            target_utility=1.0,
            min_capacity_bps=mbps(10),
            max_capacity_bps=mbps(20),
        )
        assert frontier.minimal_capacity_bps is None
        # Only the (infeasible) high bound is probed: there is nothing to
        # bisect without a feasible upper bracket.
        assert len(frontier.points) == 1

    def test_warm_and_cold_agree_on_the_frontier(self, small_core):
        scenario = build_sweep_scenario(topology="hurricane-electric", num_pops=5, seed=1)
        kwargs = dict(target_utility=0.97, fubar_config=scenario.fubar_config)
        warm = minimal_uniform_capacity(
            scenario.network, scenario.traffic_matrix, warm_start=True, **kwargs
        )
        cold = minimal_uniform_capacity(
            scenario.network, scenario.traffic_matrix, warm_start=False, **kwargs
        )
        assert warm.capacities == cold.capacities
        assert warm.minimal_capacity_bps == cold.minimal_capacity_bps
        assert warm.is_monotone() and cold.is_monotone()

    def test_deterministic_across_runs(self, triangle, triangle_matrix):
        first = minimal_uniform_capacity(
            triangle, triangle_matrix, target_utility=0.9, max_capacity_bps=mbps(150)
        )
        second = minimal_uniform_capacity(
            triangle, triangle_matrix, target_utility=0.9, max_capacity_bps=mbps(150)
        )
        assert first.as_dict() == second.as_dict()

    def test_validation(self, triangle, triangle_matrix):
        with pytest.raises(ProvisioningError):
            minimal_uniform_capacity(triangle, triangle_matrix, target_utility=0.0)
        with pytest.raises(ProvisioningError):
            minimal_uniform_capacity(triangle, triangle_matrix, 0.9, min_capacity_bps=mbps(100), max_capacity_bps=mbps(50))
        with pytest.raises(ProvisioningError):
            minimal_uniform_capacity(triangle, triangle_matrix, 0.9, max_probes=1)
        with pytest.raises(ProvisioningError):
            minimal_uniform_capacity(triangle, triangle_matrix, 0.9, relative_tolerance=0.0)

    def test_rebase_state_moves_allocation_across_capacity_variants(
        self, triangle, triangle_matrix
    ):
        state = AllocationState.initial(triangle, triangle_matrix)
        scaled = triangle.with_uniform_capacity(mbps(50))
        rebased = rebase_state(state, scaled)
        assert rebased.network is scaled
        assert rebased.allocation_of(("A", "B", "bulk")) == state.allocation_of(
            ("A", "B", "bulk")
        )

    def test_reference_capacity_is_largest_link(self, triangle):
        upgraded = triangle.with_link_capacity(("A", "B"), mbps(250))
        assert reference_capacity(upgraded) == mbps(250)


# ---------------------------------------------------------------- upgrades


class TestGreedyLinkUpgrades:
    def test_upgrades_raise_utility_monotonically(self):
        scenario = build_sweep_scenario(
            topology="hurricane-electric", num_pops=5, provisioning_ratio=0.6, seed=0
        )
        plan = greedy_link_upgrades(
            scenario.network,
            scenario.traffic_matrix,
            num_upgrades=3,
            fubar_config=scenario.fubar_config,
        )
        assert plan.base_utility < 1.0
        trajectory = [plan.base_utility] + [step.utility_after for step in plan.steps]
        assert all(b >= a - 1e-9 for a, b in zip(trajectory, trajectory[1:]))
        assert plan.final_utility == pytest.approx(trajectory[-1])
        assert plan.total_added_bps > 0

    def test_upgrade_steps_record_fibre_and_marginals(self):
        scenario = build_sweep_scenario(
            topology="hurricane-electric", num_pops=5, provisioning_ratio=0.6, seed=0
        )
        plan = greedy_link_upgrades(
            scenario.network,
            scenario.traffic_matrix,
            num_upgrades=2,
            upgrade_factor=1.5,
            fubar_config=scenario.fubar_config,
        )
        for step in plan.steps:
            assert step.link == tuple(sorted(step.link))
            assert step.new_capacity_bps == pytest.approx(1.5 * step.old_capacity_bps)
            assert step.candidates_probed >= 1
            assert step.marginal_utility_per_gbps == pytest.approx(
                step.utility_gain / (step.added_bps / 1e9)
            )

    def test_uncongested_network_stops_immediately(self, triangle):
        light = TrafficMatrix(
            [make_aggregate("A", "B", num_flows=10, demand_bps=kbps(100))],
            name="light",
        )
        plan = greedy_link_upgrades(triangle, light, num_upgrades=3)
        assert plan.steps == []
        assert plan.termination_reason == "no congestion remains"
        assert plan.final_utility == plan.base_utility

    def test_upgraded_network_carries_the_new_capacities(self, triangle):
        # 252 Mbps of demand exceeds the 200 Mbps the two paths offer, so
        # congestion survives optimization and an upgrade gets committed.
        congested = TrafficMatrix(
            [make_aggregate("A", "B", num_flows=600, demand_bps=kbps(420))],
            name="triangle-overloaded",
        )
        plan = greedy_link_upgrades(triangle, congested, num_upgrades=1)
        assert len(plan.steps) == 1
        step = plan.steps[0]
        link = plan.network.link_by_id(step.link)
        assert link.capacity_bps == pytest.approx(step.new_capacity_bps)

    def test_shared_model_cache_changes_no_field_and_hits(self):
        """The base run, the probes and every re-optimization draw their
        engine from the model cache: the plan equals the uncached plan field
        for field, and a second run on the same cache hits it."""
        scenario = build_sweep_scenario(
            topology="hurricane-electric", num_pops=5, provisioning_ratio=0.6, seed=0
        )

        def plan_with(model_cache):
            return greedy_link_upgrades(
                scenario.network,
                scenario.traffic_matrix,
                num_upgrades=2,
                fubar_config=scenario.fubar_config,
                model_cache=model_cache,
            )

        uncached = plan_with(None)
        cache = CompiledModelCache()
        first = plan_with(cache)
        assert first.steps and first.as_dict() == uncached.as_dict()
        assert first.network.capacities() == uncached.network.capacities()
        networks = 1 + len(first.steps)  # the base and each upgraded one
        assert cache.stats() == {"hits": 0, "misses": networks, "entries": networks}
        second = plan_with(cache)
        assert second.as_dict() == uncached.as_dict()
        assert cache.stats() == {
            "hits": networks, "misses": networks, "entries": networks
        }

    def test_validation(self, triangle, triangle_matrix):
        with pytest.raises(ProvisioningError):
            greedy_link_upgrades(triangle, triangle_matrix, num_upgrades=0)
        with pytest.raises(ProvisioningError):
            greedy_link_upgrades(triangle, triangle_matrix, upgrade_factor=1.0)
        with pytest.raises(ProvisioningError):
            greedy_link_upgrades(triangle, triangle_matrix, candidates_per_round=0)


# -------------------------------------------------------------- survivable


class TestSurvivableCapacity:
    def test_failure_forces_extra_headroom(self, triangle, triangle_matrix):
        # Healthy: two paths share the demand (~81 Mbps each suffices for
        # utility 0.9).  Any single cut leaves one path carrying all 180
        # Mbps, so the survivable capacity must sit near 162 Mbps — well
        # above the failure-free minimum.
        failure_free = minimal_uniform_capacity(
            triangle, triangle_matrix, target_utility=0.9, max_capacity_bps=mbps(250)
        )
        survivable = survivable_capacity(
            triangle,
            triangle_matrix,
            target_utility=0.9,
            max_capacity_bps=mbps(250),
            max_probes=8,
        )
        assert survivable.survivable_capacity_bps is not None
        assert failure_free.minimal_capacity_bps is not None
        assert (
            survivable.survivable_capacity_bps
            >= 1.5 * failure_free.minimal_capacity_bps
        )
        assert survivable.num_failures == 3
        assert survivable.skipped_disconnecting == 0

    def test_disconnecting_cut_is_skipped_by_default(self, line3):
        # Cutting either chain link strands the A->C aggregate entirely;
        # with both cuts excluded the (trivially failure-free) search
        # succeeds and reports what it skipped.
        matrix = TrafficMatrix(
            [make_aggregate("N0", "N2", num_flows=10, demand_bps=kbps(100))],
            name="chain",
        )
        result = survivable_capacity(line3, matrix, target_utility=0.9)
        assert result.skipped_disconnecting == 2
        assert result.num_failures == 0
        assert result.survivable_capacity_bps is not None

    def test_disconnecting_cut_pins_search_when_not_skipped(self, line3):
        matrix = TrafficMatrix(
            [make_aggregate("N0", "N2", num_flows=10, demand_bps=kbps(100))],
            name="chain",
        )
        result = survivable_capacity(
            line3, matrix, target_utility=0.9, skip_disconnecting=False, max_probes=3
        )
        # Stranding the only aggregate scores zero, so no capacity is ever
        # survivably feasible.
        assert result.survivable_capacity_bps is None

    def test_deterministic_across_runs(self, triangle, triangle_matrix):
        kwargs = dict(target_utility=0.9, max_capacity_bps=mbps(250), max_probes=6)
        first = survivable_capacity(triangle, triangle_matrix, **kwargs)
        second = survivable_capacity(triangle, triangle_matrix, **kwargs)
        assert first.as_dict() == second.as_dict()


# ------------------------------------------------------- runner integration


class TestProvisioningScenarios:
    def test_builder_attaches_metadata(self):
        scenario = build_provisioning_scenario(num_pops=5, mode="frontier")
        assert is_provisioning(scenario)
        spec = scenario.metadata["provisioning"]
        assert spec["mode"] == "frontier"
        assert scenario.name.endswith("-frontier")

    def test_builder_rejects_unknown_mode(self):
        with pytest.raises(ProvisioningError):
            build_provisioning_scenario(mode="teleport")
        with pytest.raises(ProvisioningError):
            build_provisioning_scenario(min_scale=2.0, max_scale=1.0)

    def test_run_scenario_provisioning_dispatches_by_mode(self):
        frontier_outcome = run_scenario_provisioning(
            build_provisioning_scenario(num_pops=5, mode="frontier", max_probes=4)
        )
        assert frontier_outcome.frontier is not None
        assert frontier_outcome.upgrades is None
        upgrade_outcome = run_scenario_provisioning(
            build_provisioning_scenario(
                num_pops=5, mode="upgrades", provisioning_ratio=0.6, num_upgrades=1
            )
        )
        assert upgrade_outcome.upgrades is not None
        record = upgrade_outcome.to_record()
        assert record["mode"] == "upgrades"
        assert "upgrades" in record

    def test_non_provisioning_scenario_rejected(self):
        static = build_sweep_scenario(num_pops=5)
        assert not is_provisioning(static)
        with pytest.raises(ProvisioningError):
            run_scenario_provisioning(static)

    def test_families_and_preset_registered(self):
        for name in ("he-capacity-plan", "he-upgrade-path", "he-survivable-capacity"):
            family = get_family(name)
            assert "num_pops" in family.sweepable
        assert "provisioning" in SWEEP_PRESETS
        specs = provisioning_sweep_specs()
        assert {spec.family for spec in specs} == {
            "he-capacity-plan",
            "he-upgrade-path",
            "he-survivable-capacity",
        }

    def test_evaluate_cell_attaches_provisioning_record(self):
        spec = CellSpec("he-capacity-plan", {**TINY, "max_probes": 4}, seed=1)
        outcome = evaluate_cell(spec)
        record = outcome.to_record()
        assert record["provisioning"]["mode"] == "frontier"
        frontier = record["provisioning"]["frontier"]
        utilities = [point["utility"] for point in frontier["points"]]
        assert utilities == sorted(utilities)
        # The comparison table is still populated from the static plan.
        assert "fubar" in record["schemes"]

    def test_serial_and_parallel_sweeps_agree(self, tmp_path):
        specs = [
            CellSpec("he-capacity-plan", {**TINY, "max_probes": 4}, seed=2),
            CellSpec(
                "he-upgrade-path",
                {**TINY, "num_upgrades": 1},
                seed=2,
            ),
        ]
        serial = run_sweep(specs, jobs=1, cache=ResultCache(tmp_path / "serial"))
        parallel = run_sweep(specs, jobs=2, cache=ResultCache(tmp_path / "parallel"))
        assert not serial.failed and not parallel.failed

        def strip_timing(value):
            """Records match modulo wall-clock fields (inherently noisy)."""
            if isinstance(value, dict):
                return {
                    key: strip_timing(entry)
                    for key, entry in value.items()
                    if key != "wall_clock_s"
                }
            if isinstance(value, list):
                return [strip_timing(entry) for entry in value]
            return value

        assert strip_timing(serial.records) == strip_timing(parallel.records)
        # The provisioning answers themselves must be bit-for-bit identical.
        for serial_record, parallel_record in zip(serial.records, parallel.records):
            assert serial_record["provisioning"] == parallel_record["provisioning"]

    def test_reports_render_provisioning_sections(self, tmp_path):
        spec = CellSpec("he-capacity-plan", {**TINY, "max_probes": 4}, seed=1)
        result = run_sweep([spec], jobs=1, cache=ResultCache(tmp_path / "cache"))
        console = format_sweep_report(result.records, result.stats.as_dict())
        assert "capacity frontier:" in console
        assert "minimal capacity" in console
        markdown = format_markdown_report(result.records)
        assert "## Capacity-planning cells" in markdown

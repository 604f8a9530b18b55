"""Tests for the experiment harness (scenarios and figure runners).

These use deliberately tiny configurations (5–6 POPs) so the whole suite
stays fast; the benchmark harness exercises the default and full scales.
"""

import pytest

from repro.exceptions import ExperimentError
from repro.experiments.figures import (
    run_figure1_figure2,
    run_figure3,
    run_figure5,
    run_figure6,
    run_figure7,
    run_running_time,
    run_scenario,
)
from repro.experiments.scenarios import (
    FULL_SCALE_ENV_VAR,
    build_paper_scenario,
    calibrate_flow_counts,
    default_num_pops,
    full_scale_enabled,
    prioritized_scenario,
    provisioned_scenario,
    relaxed_delay_scenario,
    underprovisioned_scenario,
)
from repro.topology.hurricane_electric import (
    PROVISIONED_CAPACITY_BPS,
    UNDERPROVISIONED_CAPACITY_BPS,
    reduced_core,
)
from repro.traffic.classes import LARGE_TRANSFER
from repro.traffic.generators import paper_traffic_matrix

TINY = {"num_pops": 6}


class TestScenarios:
    def test_wall_clock_budget_preserves_other_config_fields(self):
        # Regression: the max_wall_clock_s rebuild used to re-list every
        # FubarConfig field by hand and silently dropped new ones.
        from repro.core.config import FubarConfig

        scenario = provisioned_scenario(
            seed=0,
            fubar_config=FubarConfig(consider_existing_paths=False),
            max_wall_clock_s=1.0,
            **TINY,
        )
        assert scenario.fubar_config.max_wall_clock_s == 1.0
        assert scenario.fubar_config.consider_existing_paths is False

    def test_provisioned_uses_100mbps_links(self):
        scenario = provisioned_scenario(seed=0, **TINY)
        assert all(
            link.capacity_bps == PROVISIONED_CAPACITY_BPS
            for link in scenario.network.links
        )

    def test_underprovisioned_uses_75mbps_links(self):
        scenario = underprovisioned_scenario(seed=0, **TINY)
        assert all(
            link.capacity_bps == UNDERPROVISIONED_CAPACITY_BPS
            for link in scenario.network.links
        )

    def test_same_seed_same_flow_counts_across_cases(self):
        provisioned = provisioned_scenario(seed=3, **TINY)
        underprovisioned = underprovisioned_scenario(seed=3, **TINY)
        assert (
            provisioned.traffic_matrix.total_flows
            == underprovisioned.traffic_matrix.total_flows
        )

    def test_prioritized_scenario_weights_large_flows(self):
        scenario = prioritized_scenario(seed=0, **TINY)
        weights = scenario.fubar_config.priority_weights
        assert weights.weight_for(LARGE_TRANSFER) > 1.0

    def test_relaxed_delay_scenario_doubles_small_flow_cutoffs(self):
        normal = underprovisioned_scenario(seed=0, **TINY)
        relaxed = relaxed_delay_scenario(seed=0, factor=2.0, **TINY)
        normal_cutoff = min(
            a.utility.delay_cutoff_s
            for a in normal.traffic_matrix
            if a.traffic_class != LARGE_TRANSFER
        )
        relaxed_cutoff = min(
            a.utility.delay_cutoff_s
            for a in relaxed.traffic_matrix
            if a.traffic_class != LARGE_TRANSFER
        )
        assert relaxed_cutoff == pytest.approx(2.0 * normal_cutoff)

    def test_scenario_summary(self):
        scenario = provisioned_scenario(seed=0, **TINY)
        summary = scenario.summary()
        assert summary["num_pops"] == 6
        assert summary["num_aggregates"] == 30

    def test_calibration_hits_target(self):
        network = reduced_core(6)
        matrix = paper_traffic_matrix(network, seed=0)
        calibrated = calibrate_flow_counts(network, matrix, 0.5)
        from repro.baselines.shortest_path import shortest_path_routing

        demanded = shortest_path_routing(network, calibrated).model_result.demanded_utilization()
        assert demanded == pytest.approx(0.5, rel=0.15)

    def test_calibration_rejects_bad_target(self):
        network = reduced_core(6)
        matrix = paper_traffic_matrix(network, seed=0)
        with pytest.raises(ExperimentError):
            calibrate_flow_counts(network, matrix, 0.0)

    def test_full_scale_env_var(self, monkeypatch):
        monkeypatch.delenv(FULL_SCALE_ENV_VAR, raising=False)
        assert not full_scale_enabled()
        assert default_num_pops() < 31
        monkeypatch.setenv(FULL_SCALE_ENV_VAR, "1")
        assert full_scale_enabled()
        assert default_num_pops() == 31

    def test_explicit_num_pops_overrides_default(self):
        scenario = build_paper_scenario(num_pops=5, seed=0)
        assert scenario.network.num_nodes == 5


class TestFigureRunners:
    def test_figure1_figure2_curves(self):
        curves = run_figure1_figure2(num_points=11)
        assert set(curves) == {"real-time", "bulk"}
        real_time = curves["real-time"]
        assert len(real_time["bandwidth_kbps"]) == 11
        # Real-time bandwidth component saturates at 50 kbps.
        index_50 = real_time["bandwidth_kbps"].index(50.0)
        assert real_time["bandwidth_utility"][index_50] == pytest.approx(1.0)
        # Real-time delay component hits zero at 100 ms.
        index_100 = real_time["delay_ms"].index(100.0)
        assert real_time["delay_utility"][index_100] == pytest.approx(0.0)
        # Bulk still has positive delay utility at 250 ms.
        assert curves["bulk"]["delay_utility"][-1] > 0.0

    def test_run_scenario_references_bracket_fubar(self):
        result = run_figure3(seed=0, **TINY)
        assert result.shortest_path_utility <= result.final_utility + 1e-9
        assert result.final_utility <= result.upper_bound + 1e-6
        assert result.improvement_over_shortest_path() >= 0.0

    def test_run_scenario_series_are_consistent(self):
        result = run_figure3(seed=0, **TINY)
        times, utilities = result.utility_series()
        assert len(times) == len(utilities) >= 2
        assert utilities[-1] == pytest.approx(result.final_utility, abs=1e-9)
        times_u, actual, demanded = result.utilization_series()
        assert len(times_u) == len(actual) == len(demanded)
        summary = result.summary()
        assert summary["scenario"].startswith("provisioned")

    def test_figure5_prioritized_brackets_like_other_figures(self):
        result = run_figure5(seed=0, **TINY)
        assert "prioritized" in result.summary()["scenario"]
        assert result.shortest_path_utility <= result.final_utility + 1e-9
        assert result.final_utility <= result.upper_bound + 1e-6

    def test_figure6_reports_shift_and_utility(self):
        result = run_figure6(seed=0, **TINY)
        summary = result.summary()
        # Relaxing the delay restriction can only help utility.
        assert summary["relaxed_utility"] >= summary["original_utility"] - 1e-9
        assert "median_shift_ms" in summary

    def test_figure7_repeatability(self):
        result = run_figure7(num_runs=3, base_seed=0, **TINY)
        assert result.num_runs == 3
        summary = result.summary()
        assert summary["fraction_above_shortest_path"] == pytest.approx(1.0)
        assert summary["fubar_median"] >= summary["shortest_path_median"] - 1e-9
        assert len(result.fubar_cdf()) == 3

    def test_running_time_experiment(self):
        result = run_running_time(seed=0, **TINY)
        summary = result.summary()
        assert summary["provisioned_wall_clock_s"] > 0.0
        assert summary["underprovisioned_wall_clock_s"] > 0.0

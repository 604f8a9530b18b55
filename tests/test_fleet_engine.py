"""Tests for the fleet-scale sweep engine (ISSUE 7).

Covers the three tentpole pieces — worker-affinity cache sharing (gated by
byte-identity against isolated cold starts), streaming ``iter_sweep`` with
mid-sweep interruption and resume, and the perf-budget machinery — plus the
satellites: affinity grouping, cached error records with retry semantics,
cache pruning, JSONL streaming, and the affinity-aware ``default_jobs``.

The byte-identity tests are the correctness contract of the whole refactor:
whatever the warm caches reuse, a shared-cache sweep must produce records
byte-identical (timing stripped) to a sweep where every cell cold-starts in
isolation, across every cell kind the runner knows (static, dynamic,
failure, provisioning).
"""

import json
import os

import pytest

from benchmarks import perf_budget
from repro.runner.cache import ResultCache
from repro.runner.cli import main as cli_main
from repro.runner.engine import default_jobs, iter_sweep, run_sweep
from repro.runner.registry import resolve_spec
from repro.runner.report import append_jsonl_record, load_jsonl_records
from repro.runner.spec import SPEC_SCHEMA_VERSION, CellSpec
from repro.runner.worker import (
    WorkerCaches,
    active_worker_caches,
    clear_worker_caches,
    install_worker_caches,
)

#: The smallest useful Hurricane Electric cell.
TINY = {"num_pops": 5}


def strip_timing(value):
    """Drop every wall-clock field so records compare on content only."""
    if isinstance(value, dict):
        return {
            k: strip_timing(v)
            for k, v in value.items()
            if not k.endswith("wall_clock_s")
        }
    if isinstance(value, list):
        return [strip_timing(v) for v in value]
    return value


def _sweep_records(specs, tmp_path, subdir, **kwargs):
    result = run_sweep(
        specs, jobs=1, cache=ResultCache(tmp_path / subdir), **kwargs
    )
    assert not result.failed, result.failed and result.failed[0].get("error")
    return result.records


# ----------------------------------------------------- shared-cache identity


class TestSharedCacheByteIdentity:
    """Shared worker caches must never change any record, for any cell kind."""

    @pytest.mark.parametrize(
        "specs",
        [
            pytest.param(
                [CellSpec("he-provisioned", TINY, seed=s) for s in (0, 1, 2)],
                id="static",
            ),
            pytest.param(
                [
                    CellSpec(
                        "he-drift",
                        {**TINY, "num_epochs": 3},
                        seed=s,
                    )
                    for s in (0, 1)
                ],
                id="dynamic",
            ),
            pytest.param(
                [
                    CellSpec(
                        "he-single-link-failure",
                        {**TINY, "num_epochs": 3, "failure_epoch": 1},
                        seed=s,
                    )
                    for s in (0, 1)
                ],
                id="failure",
            ),
            pytest.param(
                [
                    CellSpec(
                        "he-capacity-plan",
                        {**TINY, "max_probes": 3},
                        seed=s,
                    )
                    for s in (0, 1)
                ],
                id="provisioning",
            ),
        ],
    )
    def test_shared_records_match_isolated(self, tmp_path, specs):
        shared = _sweep_records(specs, tmp_path, "shared", share_caches=True)
        isolated = _sweep_records(specs, tmp_path, "isolated", share_caches=False)
        assert strip_timing(shared) == strip_timing(isolated)

    def test_serial_sweep_restores_prior_caches(self, tmp_path):
        clear_worker_caches()
        specs = [CellSpec("he-provisioned", TINY, seed=0)]
        run_sweep(specs, jobs=1, cache=ResultCache(tmp_path / "a"))
        assert active_worker_caches() is None
        mine = install_worker_caches(WorkerCaches())
        try:
            run_sweep(
                specs, jobs=1, cache=ResultCache(tmp_path / "b"), share_caches=False
            )
            # The isolated sweep must neither use nor drop my caches.
            assert active_worker_caches() is mine
        finally:
            clear_worker_caches()

    def test_serial_sweep_reuses_active_caches(self, tmp_path):
        """Repeated serial sweeps in one process stay warm."""
        caches = install_worker_caches(WorkerCaches())
        try:
            specs = [CellSpec("he-provisioned", TINY, seed=s) for s in (0, 1)]
            run_sweep(specs, jobs=1, cache=ResultCache(tmp_path / "cache"))
            stats = caches.stats()
            assert stats["paths"]["misses"] >= 1
            assert stats["paths"]["hits"] >= 1  # second cell hit the warm cache
        finally:
            clear_worker_caches()


# ------------------------------------------------------------ affinity keys


class TestAffinityGrouping:
    def test_same_topology_cells_share_a_key(self):
        keys = {
            resolve_spec(
                CellSpec("he-provisioned", TINY, seed=s)
            ).cache_affinity_key()
            for s in range(4)
        }
        assert len(keys) == 1

    def test_seed_drawn_topologies_split_by_seed(self):
        keys = {
            resolve_spec(
                CellSpec("waxman", {"num_pops": 6}, seed=s)
            ).cache_affinity_key()
            for s in range(3)
        }
        assert len(keys) == 3

    def test_different_sizing_splits_the_key(self):
        small = resolve_spec(CellSpec("he-provisioned", {"num_pops": 5}, seed=0))
        large = resolve_spec(CellSpec("he-provisioned", {"num_pops": 6}, seed=0))
        assert small.cache_affinity_key() != large.cache_affinity_key()

    def test_tiered_key_covers_size_and_seed(self):
        a = resolve_spec(CellSpec("tiered-small", {}, seed=0))
        b = resolve_spec(CellSpec("tiered-small", {}, seed=1))
        assert a.cache_affinity_key() != b.cache_affinity_key()
        assert "tiered-small" in a.cache_affinity_key()


# ------------------------------------------------------------- streaming


class TestIterSweep:
    def test_yields_as_cells_finish_and_caches_immediately(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        specs = [CellSpec("he-provisioned", TINY, seed=s) for s in (0, 1)]
        events = []
        for event, record in iter_sweep(specs, jobs=1, cache=cache):
            events.append(event)
            # The record is already durable when it is yielded.
            assert cache.load(str(record["config_hash"])) is not None
        assert events == ["done", "done"]

    def test_interrupted_sweep_resumes_from_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        specs = [CellSpec("he-provisioned", TINY, seed=s) for s in (0, 1, 2)]
        stream = iter_sweep(specs, jobs=1, cache=cache)
        next(stream)  # complete exactly one cell
        stream.close()  # interrupt mid-sweep
        assert len(cache) == 1
        events = [event for event, _ in iter_sweep(specs, jobs=1, cache=cache)]
        assert sorted(events) == ["done", "done", "hit"]

    def test_duplicates_counted_not_yielded(self, tmp_path):
        from repro.runner.engine import SweepStats

        cache = ResultCache(tmp_path / "cache")
        spec = CellSpec("he-provisioned", TINY, seed=0)
        stats = SweepStats()
        yielded = list(iter_sweep([spec, spec], jobs=1, cache=cache, stats=stats))
        assert len(yielded) == 1
        assert stats.duplicates == 1
        assert stats.cells == stats.cache_hits + stats.computed + stats.failures + stats.duplicates


# ------------------------------------------------------------ error records


class TestErrorRecords:
    BAD = {"num_pops": 5, "unknown_parameter": 1}

    def test_errors_cached_apart_from_successes(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        result = run_sweep(
            [CellSpec("he-provisioned", self.BAD, seed=0)], jobs=1, cache=cache
        )
        assert result.stats.failures == 1
        assert len(cache) == 0  # errors never pollute the success cache
        assert len(cache.error_hashes()) == 1

    def test_retry_errors_recomputes_by_default(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = CellSpec("he-provisioned", self.BAD, seed=0)
        run_sweep([spec], jobs=1, cache=cache)
        again = run_sweep([spec], jobs=1, cache=cache)
        assert again.stats.failures == 1
        assert again.stats.computed == 0  # failed again, not served from cache

    def test_no_retry_serves_the_cached_error(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = CellSpec("he-provisioned", self.BAD, seed=0)
        run_sweep([spec], jobs=1, cache=cache)
        stored = cache.load_error(
            resolve_spec(spec).config_hash()
        )
        served = run_sweep([spec], jobs=1, cache=cache, retry_errors=False)
        assert served.stats.failures == 1
        assert served.records[0] == stored

    def test_successful_retry_discards_the_error(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = CellSpec("he-provisioned", TINY, seed=0)
        config_hash = resolve_spec(spec).config_hash()
        cache.store_error(config_hash, {"error": "transient", "config_hash": config_hash})
        result = run_sweep([spec], jobs=1, cache=cache)
        assert result.stats.computed == 1
        assert cache.load_error(config_hash) is None


# --------------------------------------------------------------- cache tools


class TestCacheMaintenance:
    def test_prune_drops_stale_schemas(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.store("current", {"schema": SPEC_SCHEMA_VERSION})
        cache.store("stale", {"schema": SPEC_SCHEMA_VERSION - 1})
        cache.store_error("stale-error", {"schema": -1, "error": "x"})
        (cache.directory / "corrupt.json").write_text("{not json")
        removed = cache.prune(SPEC_SCHEMA_VERSION)
        assert removed == 3
        assert cache.hashes() == ["current"]
        assert cache.error_hashes() == []

    def test_cache_cli_list_prune_clear(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        cache = ResultCache(cache_dir)
        cache.store("aaaa", {"schema": SPEC_SCHEMA_VERSION, "label": "cell-a"})
        cache.store("bbbb", {"schema": 0, "label": "cell-b"})
        assert cli_main(["cache", "list", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "cell-a" in out and "cell-b" in out
        assert cli_main(["cache", "prune", "--cache-dir", cache_dir]) == 0
        assert cache.hashes() == ["aaaa"]
        assert cli_main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert len(cache) == 0


# ------------------------------------------------------------ JSONL streaming


class TestJsonlStreaming:
    def test_append_and_load_round_trip(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        append_jsonl_record(path, {"config_hash": "a", "value": 1})
        append_jsonl_record(path, {"config_hash": "b", "value": 2})
        records = load_jsonl_records(path)
        assert [r["config_hash"] for r in records] == ["a", "b"]

    def test_corrupt_tail_and_duplicates_tolerated(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        append_jsonl_record(path, {"config_hash": "a", "value": 1})
        append_jsonl_record(path, {"config_hash": "a", "value": 2})  # retry wins
        with path.open("a") as handle:
            handle.write('{"config_hash": "trunc')  # killed mid-write
        records = load_jsonl_records(path)
        assert records == [{"config_hash": "a", "value": 2}]

    def test_missing_file_is_empty(self, tmp_path):
        assert load_jsonl_records(tmp_path / "absent.jsonl") == []

    def test_sweep_streams_and_report_renders_partial(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        stream = str(tmp_path / "stream.jsonl")
        code = cli_main(
            [
                "sweep",
                "--family",
                "he-provisioned",
                "--set",
                "num_pops=5",
                "--seeds",
                "0,1",
                "--jobs",
                "1",
                "--cache-dir",
                cache_dir,
                "--stream-jsonl",
                stream,
            ]
        )
        assert code == 0
        capsys.readouterr()
        records = load_jsonl_records(stream)
        assert len(records) == 2
        # Drop a line to simulate an interrupted sweep; the report still renders.
        with open(stream) as handle:
            lines = handle.read().splitlines()
        with open(stream, "w") as handle:
            handle.write(lines[0] + "\n")
        assert cli_main(["report", "--from-jsonl", stream]) == 0
        out = capsys.readouterr().out
        assert "he-provisioned" in out


# -------------------------------------------------------------- default_jobs


class TestDefaultJobs:
    def test_respects_the_scheduling_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert default_jobs(8) == 2  # the mask, not the machine

    def test_falls_back_to_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert default_jobs(8) == 3

    def test_never_exceeds_the_cell_count_or_drops_below_one(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)), raising=False)
        assert default_jobs(2) == 2
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert default_jobs(5) == 1


# --------------------------------------------------------------- perf budget


class TestPerfBudget:
    def _write_records(self, root, fleet_speedup=2.0):
        # A minimal BENCH set: one registered file, correct shape.
        (root / "BENCH_fleet.json").write_text(
            json.dumps({"schema": 1, "speedup": fleet_speedup})
        )

    def _single_metric_budget(self, monkeypatch):
        monkeypatch.setattr(
            perf_budget,
            "BUDGET",
            {
                "BENCH_fleet.json": [
                    perf_budget.Metric(
                        "fleet cache-sharing speedup", ("speedup",), tolerance=0.15
                    )
                ]
            },
        )

    def test_refresh_then_check_passes(self, tmp_path, monkeypatch):
        self._single_metric_budget(monkeypatch)
        self._write_records(tmp_path)
        baselines = tmp_path / "baselines.json"
        perf_budget.refresh(root=tmp_path, baselines_path=baselines)
        assert perf_budget.check(root=tmp_path, baselines_path=baselines) == []

    def test_regression_past_tolerance_fails(self, tmp_path, monkeypatch):
        self._single_metric_budget(monkeypatch)
        self._write_records(tmp_path, fleet_speedup=2.0)
        baselines = tmp_path / "baselines.json"
        perf_budget.refresh(root=tmp_path, baselines_path=baselines)
        self._write_records(tmp_path, fleet_speedup=1.5)  # -25% < -15% tolerance
        failures = perf_budget.check(root=tmp_path, baselines_path=baselines)
        assert failures and "regressed" in failures[0]

    def test_within_tolerance_passes(self, tmp_path, monkeypatch):
        self._single_metric_budget(monkeypatch)
        self._write_records(tmp_path, fleet_speedup=2.0)
        baselines = tmp_path / "baselines.json"
        perf_budget.refresh(root=tmp_path, baselines_path=baselines)
        self._write_records(tmp_path, fleet_speedup=1.8)  # -10% within 15%
        assert perf_budget.check(root=tmp_path, baselines_path=baselines) == []

    def test_unregistered_bench_record_fails(self, tmp_path, monkeypatch):
        self._single_metric_budget(monkeypatch)
        self._write_records(tmp_path)
        (tmp_path / "BENCH_rogue.json").write_text("{}")
        baselines = tmp_path / "baselines.json"
        # refresh refuses incomplete/unregistered sets...
        with pytest.raises(RuntimeError):
            perf_budget.refresh(root=tmp_path, baselines_path=baselines)
        # ...and check reports the unregistered record.
        baselines.write_text(json.dumps({"BENCH_fleet.json": {"fleet cache-sharing speedup": 2.0}}))
        failures = perf_budget.check(root=tmp_path, baselines_path=baselines)
        assert any("not registered" in failure for failure in failures)

    def test_missing_baselines_file_fails(self, tmp_path, monkeypatch):
        self._single_metric_budget(monkeypatch)
        self._write_records(tmp_path)
        failures = perf_budget.check(
            root=tmp_path, baselines_path=tmp_path / "absent.json"
        )
        assert any("refresh" in failure for failure in failures)

    def test_committed_records_hold_the_budget(self):
        """The in-repo BENCH records and baselines must pass the real gate."""
        assert perf_budget.check() == []

    def test_nested_path_extraction(self):
        metric = perf_budget.Metric(
            "x", ("points", ("num_nodes", 200), "speedup"), tolerance=0.1
        )
        record = {"points": [{"num_nodes": 100, "speedup": 1.0}, {"num_nodes": 200, "speedup": 3.5}]}
        assert metric.extract(record) == 3.5
        assert metric.extract({"points": []}) is None
        assert metric.extract({}) is None

"""Tests for the cross-epoch path-set cache (repro.paths.cache).

The cache may only ever return a generator for a topology that routes
*identically* to the one requested — so the invalidation tests are the
heart of this file: a capacity override, a link failure or a node failure
must miss, while a repair restoring previously seen content must hit even
through a different ``Network`` object.
"""

from __future__ import annotations

import pytest

from repro.dynamics.loop import ControlLoopConfig, run_control_loop
from repro.dynamics.processes import StaticProcess
from repro.failures.degraded import DegradedNetwork
from repro.failures.schedule import FailureSchedule
from repro.paths.cache import PathSetCache, path_generator_for, topology_signature
from repro.paths.policy import PathPolicy
from repro.topology.builders import ring_topology, triangle_topology
from repro.traffic.matrix import TrafficMatrix
from repro.units import kbps, mbps, ms
from tests.conftest import make_aggregate


def make_triangle():
    return triangle_topology(
        capacity_bps=mbps(100), short_delay_s=ms(5), long_delay_s=ms(20)
    )


# ----------------------------------------------------------- signatures


class TestTopologySignature:
    def test_identical_content_same_signature(self):
        assert topology_signature(make_triangle()) == topology_signature(
            make_triangle()
        )

    def test_capacity_override_changes_signature(self):
        base = make_triangle()
        altered = triangle_topology(
            capacity_bps=mbps(50), short_delay_s=ms(5), long_delay_s=ms(20)
        )
        assert topology_signature(base) != topology_signature(altered)

    def test_delay_change_changes_signature(self):
        base = make_triangle()
        altered = triangle_topology(
            capacity_bps=mbps(100), short_delay_s=ms(6), long_delay_s=ms(20)
        )
        assert topology_signature(base) != topology_signature(altered)

    def test_link_failure_changes_signature(self):
        base = make_triangle()
        degraded = DegradedNetwork(base, failed_links=[("A", "B")])
        assert topology_signature(base) != topology_signature(degraded)

    def test_node_failure_changes_signature(self):
        base = make_triangle()
        degraded = DegradedNetwork(base, failed_nodes=["C"])
        assert topology_signature(base) != topology_signature(degraded)

    def test_distinct_failures_get_distinct_signatures(self):
        base = make_triangle()
        one = DegradedNetwork(base, failed_links=[("A", "B")])
        other = DegradedNetwork(base, failed_links=[("B", "C")])
        assert topology_signature(one) != topology_signature(other)


# ---------------------------------------------------------------- cache


class TestPathSetCache:
    def test_hit_returns_the_same_generator(self):
        cache = PathSetCache()
        network = make_triangle()
        first = cache.generator_for(network)
        second = cache.generator_for(network)
        assert second is first
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}

    def test_repair_hits_through_a_different_object(self):
        """Content equality is what matters, not object identity."""
        cache = PathSetCache()
        first = cache.generator_for(make_triangle())
        second = cache.generator_for(make_triangle())
        assert second is first

    def test_capacity_override_misses(self):
        cache = PathSetCache()
        base = cache.generator_for(make_triangle())
        overridden = cache.generator_for(
            triangle_topology(
                capacity_bps=mbps(50), short_delay_s=ms(5), long_delay_s=ms(20)
            )
        )
        assert overridden is not base
        assert cache.misses == 2

    def test_link_failure_misses_and_repair_hits(self):
        cache = PathSetCache()
        base = make_triangle()
        base_generator = cache.generator_for(base)
        degraded = DegradedNetwork(base, failed_links=[("A", "B")])
        degraded_generator = cache.generator_for(degraded)
        assert degraded_generator is not base_generator
        # The degraded generator must not route over the dead link.
        path = degraded_generator.lowest_delay_path("A", "B")
        assert path is None or list(path) != ["A", "B"]
        # Repair: asking for the base again is a hit, warm cache included.
        assert cache.generator_for(base) is base_generator
        assert cache.stats() == {"hits": 1, "misses": 2, "entries": 2}

    def test_lru_eviction(self):
        cache = PathSetCache(max_entries=2)
        base = make_triangle()
        first = cache.generator_for(base)
        cache.generator_for(DegradedNetwork(base, failed_links=[("A", "B")]))
        cache.generator_for(DegradedNetwork(base, failed_links=[("B", "C")]))
        assert len(cache) == 2
        # base was least recently used and must have been evicted.
        assert cache.generator_for(base) is not first

    def test_clear(self):
        cache = PathSetCache()
        cache.generator_for(make_triangle())
        cache.clear()
        assert len(cache) == 0
        assert cache.stats() == {"hits": 0, "misses": 0, "entries": 0}

    def test_max_entries_validated(self):
        with pytest.raises(ValueError):
            PathSetCache(max_entries=0)


class TestPathGeneratorFor:
    def test_matching_policy_returns_the_cached_generator(self):
        cache = PathSetCache()
        network = make_triangle()
        cached = cache.generator_for(network)
        assert path_generator_for(network, cache=cache) is cached
        assert path_generator_for(network, PathPolicy.unrestricted(), cache) is cached

    def test_other_policy_gets_a_fresh_generator_carrying_it(self):
        cache = PathSetCache()
        network = make_triangle()
        cached = cache.generator_for(network)
        policy = PathPolicy.avoiding_links([("A", "B")])
        generator = path_generator_for(network, policy, cache)
        assert generator is not cached
        assert generator.policy == policy
        assert cache.stats() == {"hits": 0, "misses": 1, "entries": 1}

    def test_no_cache_gets_a_fresh_generator(self):
        network = make_triangle()
        policy = PathPolicy.avoiding_nodes(["C"])
        first = path_generator_for(network, policy)
        assert first.policy == policy
        assert path_generator_for(network, policy) is not first


# ----------------------------------------------------- loop integration


class TestControlLoopIntegration:
    def _ring_and_matrix(self):
        ring = ring_topology(4, capacity_bps=mbps(100), delay_s=ms(5))
        matrix = TrafficMatrix(
            [
                make_aggregate("N0", "N2", num_flows=20, demand_bps=kbps(200)),
                make_aggregate("N1", "N3", num_flows=10, demand_bps=kbps(100)),
            ],
            name="ring-traffic",
        )
        return ring, matrix

    def test_failure_misses_then_repair_hits(self):
        """Down epoch misses (new content); the repair epoch reuses the
        base network's cached generator instead of rebuilding it."""
        ring, matrix = self._ring_and_matrix()
        schedule = FailureSchedule.single_link(
            ("N0", "N1"), epoch=1, repair_epoch=2
        )
        cache = PathSetCache()
        result = run_control_loop(
            ring,
            StaticProcess(matrix),
            loop_config=ControlLoopConfig(num_epochs=3),
            failures=schedule,
            path_cache=cache,
        )
        assert len(result.records) == 3
        # Epoch 0 (base) and epoch 1 (degraded) each miss; the repair at
        # epoch 2 restores base content and hits.
        assert cache.misses == 2
        assert cache.hits >= 1

    def test_cached_loop_matches_uncached(self):
        """The cache must be behaviour-invisible: same plans, same records."""
        ring, matrix = self._ring_and_matrix()
        schedule = FailureSchedule.single_link(
            ("N0", "N1"), epoch=1, repair_epoch=2
        )

        def run(cache):
            return run_control_loop(
                ring,
                StaticProcess(matrix),
                loop_config=ControlLoopConfig(num_epochs=3),
                failures=schedule,
                path_cache=cache,
            )

        cached = run(PathSetCache())
        uncached = run(None)
        for got, want in zip(cached.records, uncached.records):
            assert got.delivered_utility == want.delivered_utility
            assert got.stranded_aggregates == want.stranded_aggregates
            assert got.install.rules_installed == want.install.rules_installed

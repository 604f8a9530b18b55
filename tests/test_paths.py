"""Tests for shortest paths, k-shortest paths, policies, path sets and the generator."""

import networkx as nx
import pytest

from repro.exceptions import NoPathError, PathError, UnknownNodeError
from repro.paths.dijkstra import (
    all_pairs_shortest_paths,
    path_exists,
    shortest_path,
    shortest_path_or_none,
    shortest_path_tree,
    shortest_paths_from,
)
from repro.paths.generator import AlternativePaths, PathGenerator
from repro.paths.ksp import k_shortest_paths, k_shortest_paths_or_fewer, path_diversity
from repro.paths.pathset import PathSet
from repro.paths.policy import PathPolicy
from repro.topology.builders import ring_topology, triangle_topology
from repro.topology.hurricane_electric import reduced_core
from repro.topology.random_topologies import waxman_topology
from repro.units import mbps, ms


class TestDijkstra:
    def test_direct_path_preferred(self, triangle):
        assert shortest_path(triangle, "A", "B") == ("A", "B")

    def test_detour_when_direct_excluded(self, triangle):
        path = shortest_path(triangle, "A", "B", excluded_links=frozenset({("A", "B")}))
        assert path == ("A", "C", "B")

    def test_no_path_when_fully_excluded(self, triangle):
        with pytest.raises(NoPathError):
            shortest_path(
                triangle,
                "A",
                "B",
                excluded_links=frozenset({("A", "B"), ("A", "C")}),
            )

    def test_or_none_variant(self, triangle):
        assert shortest_path_or_none(
            triangle, "A", "B", excluded_links=frozenset({("A", "B"), ("A", "C")})
        ) is None

    def test_excluded_node(self, triangle):
        with pytest.raises(NoPathError):
            shortest_path(triangle, "A", "B",
                          excluded_links=frozenset({("A", "B")}),
                          excluded_nodes=frozenset({"C"}))

    def test_unknown_node(self, triangle):
        with pytest.raises(UnknownNodeError):
            shortest_path(triangle, "A", "Z")

    def test_same_source_destination(self, triangle):
        with pytest.raises(NoPathError):
            shortest_path(triangle, "A", "A")

    def test_matches_networkx_on_core(self):
        net = reduced_core(10)
        graph = net.to_networkx()
        for source in list(net.node_names)[:4]:
            for destination in list(net.node_names)[-4:]:
                if source == destination:
                    continue
                ours = net.path_delay(shortest_path(net, source, destination))
                reference = nx.shortest_path_length(
                    graph, source, destination, weight="delay_s"
                )
                assert ours == pytest.approx(reference)

    def test_shortest_path_tree_covers_all_destinations(self, ring6):
        tree = shortest_path_tree(ring6, "N0")
        assert set(tree) == set(ring6.node_names) - {"N0"}
        for destination, path in tree.items():
            assert path[0] == "N0"
            assert path[-1] == destination

    def test_all_pairs(self, triangle):
        paths = all_pairs_shortest_paths(triangle)
        assert len(paths) == 6

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_one_search_per_source_equals_the_per_pair_searches(self, seed):
        """Every source's one search finds, for each requested destination,
        the per-pair search's path tuple for tuple — under excluded links,
        and under excluded nodes that are requested destinations too (the
        per-pair search reaches its own destination, never another's)."""
        net = waxman_topology(14, alpha=0.6, seed=seed)
        names = list(net.node_names)
        excluded_nodes = frozenset(names[3:6])
        excluded_links = frozenset(link.link_id for link in net.links[::7])
        for links, nodes in (
            (frozenset(), frozenset()),
            (excluded_links, frozenset()),
            (excluded_links, excluded_nodes),
        ):
            for source in names[:5]:
                found = shortest_paths_from(net, source, names, links, nodes)
                for destination in names:
                    expected = (
                        None
                        if destination == source
                        else shortest_path_or_none(
                            net, source, destination, links, nodes
                        )
                    )
                    assert found.get(destination) == expected

    def test_one_search_breaks_ties_as_the_per_pair_searches(self, ring6):
        """Equal-delay routes tie; both searches settle them in the same
        (distance, node name) order, so they pick the same route."""
        for source in ring6.node_names:
            found = shortest_paths_from(ring6, source, ring6.node_names)
            for destination, path in found.items():
                assert path == shortest_path(ring6, source, destination)

    def test_one_search_rejects_unknown_nodes(self, triangle):
        with pytest.raises(UnknownNodeError):
            shortest_paths_from(triangle, "A", ["B", "Z"])
        with pytest.raises(UnknownNodeError):
            shortest_paths_from(triangle, "Z", ["B"])

    def test_path_exists(self, triangle):
        assert path_exists(triangle, "A", "B")
        assert not path_exists(
            triangle, "A", "B", excluded_links=frozenset({("A", "B"), ("A", "C")})
        )


class TestKShortestPaths:
    def test_returns_paths_in_delay_order(self, triangle):
        paths = k_shortest_paths(triangle, "A", "B", 3)
        delays = [triangle.path_delay(path) for path in paths]
        assert delays == sorted(delays)
        assert paths[0] == ("A", "B")

    def test_ring_has_exactly_two_simple_paths(self, ring6):
        paths = k_shortest_paths(ring6, "N0", "N3", 10)
        assert len(paths) == 2

    def test_paths_are_unique_and_simple(self):
        net = reduced_core(8)
        paths = k_shortest_paths(net, net.node_names[0], net.node_names[-1], 6)
        assert len(set(paths)) == len(paths)
        for path in paths:
            assert len(set(path)) == len(path)

    def test_invalid_k(self, triangle):
        with pytest.raises(PathError):
            k_shortest_paths(triangle, "A", "B", 0)

    def test_disconnected_raises(self):
        net = triangle_topology()
        net.add_node("island")
        with pytest.raises(NoPathError):
            k_shortest_paths(net, "A", "island", 2)

    def test_or_fewer_returns_empty_when_disconnected(self):
        net = triangle_topology()
        net.add_node("island")
        assert k_shortest_paths_or_fewer(net, "A", "island", 2) == []

    def test_path_diversity(self):
        assert path_diversity([("A", "B"), ("A", "C", "B")]) == 1.0
        assert path_diversity([]) == 0.0
        assert path_diversity([("A", "B"), ("A", "B")]) == pytest.approx(0.5)


class TestPathPolicy:
    def test_unrestricted_allows_everything(self, triangle):
        policy = PathPolicy.unrestricted()
        assert policy.is_compliant(triangle, ("A", "C", "B"))

    def test_forbidden_node(self, triangle):
        policy = PathPolicy.avoiding_nodes(["C"])
        assert not policy.is_compliant(triangle, ("A", "C", "B"))
        assert policy.is_compliant(triangle, ("A", "B"))

    def test_forbidden_link(self, triangle):
        policy = PathPolicy.avoiding_links([("A", "B")])
        assert not policy.is_compliant(triangle, ("A", "B"))

    def test_max_hops(self, triangle):
        policy = PathPolicy(max_hops=1)
        assert policy.is_compliant(triangle, ("A", "B"))
        assert not policy.is_compliant(triangle, ("A", "C", "B"))

    def test_max_delay(self, triangle):
        policy = PathPolicy(max_delay_s=ms(10))
        assert policy.is_compliant(triangle, ("A", "B"))
        assert not policy.is_compliant(triangle, ("A", "C", "B"))

    def test_require_compliant_raises(self, triangle):
        policy = PathPolicy(max_hops=1)
        with pytest.raises(PathError):
            policy.require_compliant(triangle, ("A", "C", "B"))

    def test_with_extra_exclusions(self, triangle):
        policy = PathPolicy.unrestricted().with_extra_exclusions(links=[("A", "B")])
        assert ("A", "B") in policy.forbidden_links

    def test_validation(self):
        with pytest.raises(PathError):
            PathPolicy(max_hops=0)
        with pytest.raises(PathError):
            PathPolicy(max_delay_s=0.0)


class TestPathSet:
    def test_add_and_default(self, triangle):
        paths = PathSet(triangle, [("A", "B")])
        assert paths.default_path == ("A", "B")
        assert len(paths) == 1

    def test_duplicates_ignored(self, triangle):
        paths = PathSet(triangle, [("A", "B")])
        assert not paths.add(("A", "B"))
        assert len(paths) == 1

    def test_add_many(self, triangle):
        paths = PathSet(triangle)
        added = paths.add_many([("A", "B"), ("A", "C", "B"), ("A", "B")])
        assert added == 2

    def test_invalid_path_rejected(self, triangle):
        from repro.exceptions import TopologyError, UnknownLinkError

        paths = PathSet(triangle)
        with pytest.raises(TopologyError):
            paths.add(("A",))
        with pytest.raises(TopologyError):
            paths.add(("A", "B", "A"))
        with pytest.raises(UnknownLinkError):
            paths.add(("A", "B", "Z"))

    def test_delay_helpers(self, triangle):
        paths = PathSet(triangle, [("A", "C", "B"), ("A", "B")])
        assert paths.lowest_delay_path() == ("A", "B")
        assert paths.sorted_by_delay()[0] == ("A", "B")
        assert paths.delay_of(("A", "B")) == pytest.approx(ms(5))
        with pytest.raises(PathError):
            paths.delay_of(("A", "C"))

    def test_paths_avoiding_link(self, triangle):
        paths = PathSet(triangle, [("A", "B"), ("A", "C", "B")])
        avoiding = paths.paths_avoiding(("A", "B"))
        assert avoiding == (("A", "C", "B"),)
        assert paths.uses_link(("A", "B"))

    def test_empty_path_set_errors(self, triangle):
        paths = PathSet(triangle)
        with pytest.raises(PathError):
            paths.default_path
        with pytest.raises(PathError):
            paths.lowest_delay_path()


class TestPathGenerator:
    def test_lowest_delay_path(self, triangle):
        generator = PathGenerator(triangle)
        assert generator.lowest_delay_path("A", "B") == ("A", "B")

    def test_policy_is_enforced(self, triangle):
        generator = PathGenerator(triangle, PathPolicy.avoiding_nodes(["C"]))
        assert generator.lowest_delay_path("A", "B") == ("A", "B")
        assert generator.lowest_delay_path_avoiding("A", "B", {("A", "B")}) is None

    def test_max_delay_policy_filters_result(self, triangle):
        generator = PathGenerator(triangle, PathPolicy(max_delay_s=ms(10)))
        assert generator.lowest_delay_path_avoiding("A", "B", {("A", "B")}) is None

    def test_alternatives_global_local_link_local(self, ring6):
        generator = PathGenerator(ring6)
        # Congest the clockwise link N0->N1; the aggregate N0->N2 uses it.
        alternatives = generator.alternatives(
            "N0",
            "N2",
            congested_links={("N0", "N1")},
            aggregate_congested_links={("N0", "N1")},
            most_congested_link=("N0", "N1"),
        )
        # The anticlockwise path avoids the congested link for all three queries.
        expected = ("N0", "N5", "N4", "N3", "N2")
        assert alternatives.global_path == expected
        assert alternatives.local_path == expected
        assert alternatives.link_local_path == expected
        assert alternatives.candidates() == (expected,)

    def test_alternatives_skip_paths_already_in_path_set(self, ring6):
        generator = PathGenerator(ring6)
        existing = PathSet(ring6, [("N0", "N5", "N4", "N3", "N2")])
        alternatives = generator.alternatives(
            "N0",
            "N2",
            congested_links={("N0", "N1")},
            aggregate_congested_links={("N0", "N1")},
            most_congested_link=("N0", "N1"),
            existing_paths=existing,
        )
        assert alternatives.is_empty()

    def test_alternatives_differ_when_exclusion_scopes_differ(self, small_core):
        generator = PathGenerator(small_core)
        names = list(small_core.node_names)
        source, destination = names[0], names[-1]
        all_congested = {link.link_id for link in small_core.links[:6]}
        alternatives = generator.alternatives(
            source,
            destination,
            congested_links=all_congested,
            aggregate_congested_links=set(list(all_congested)[:1]),
            most_congested_link=list(all_congested)[0],
        )
        # With broader exclusions the global path can only be longer (or missing).
        if alternatives.global_path and alternatives.link_local_path:
            assert small_core.path_delay(alternatives.global_path) >= small_core.path_delay(
                alternatives.link_local_path
            ) - 1e-12

    def test_cache_grows_and_clears(self, triangle):
        generator = PathGenerator(triangle)
        generator.lowest_delay_path("A", "B")
        generator.lowest_delay_path("A", "C")
        assert generator.cache_size == 2
        generator.lowest_delay_path("A", "B")
        assert generator.cache_size == 2
        generator.clear_cache()
        assert generator.cache_size == 0

    @pytest.mark.parametrize(
        "policy",
        [
            PathPolicy.unrestricted(),
            PathPolicy(max_hops=2),
            PathPolicy(forbidden_nodes=frozenset({"POP2", "POP5"})),
        ],
    )
    def test_lowest_delay_paths_equal_per_pair_queries(self, policy):
        """One search per source gives each destination the policy-compliant
        path :meth:`lowest_delay_path` gives, and fills the same cache."""
        net = waxman_topology(12, alpha=0.5, seed=4)
        names = list(net.node_names)
        batched = PathGenerator(net, policy)
        per_pair = PathGenerator(net, policy)
        for source in names:
            paths = batched.lowest_delay_paths(source, names)
            assert paths == {
                destination: per_pair.lowest_delay_path(source, destination)
                for destination in names
            }
        assert batched.cache_size == per_pair.cache_size == len(names) ** 2
        assert batched.lowest_delay_paths(names[0], names[:3]) == {
            name: per_pair.lowest_delay_path(names[0], name) for name in names[:3]
        }
        assert batched.cache_size == len(names) ** 2

    def test_k_shortest_respects_policy(self, triangle):
        generator = PathGenerator(triangle, PathPolicy(max_hops=1))
        paths = generator.k_shortest("A", "B", 5)
        assert paths == [("A", "B")]

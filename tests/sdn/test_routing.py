"""Tests for path computation."""

import pytest

from repro.exceptions import RoutingError
from repro.sdn.routing import (
    chain_path,
    path_length_statistics,
    shortest_path_in_al,
    simple_path,
)


class TestSimplePath:
    def test_shortest_path_found(self, paper_dcn):
        path = simple_path(paper_dcn, "server-0", "server-5")
        assert path[0] == "server-0"
        assert path[-1] == "server-5"
        graph = paper_dcn.graph
        for a, b in zip(path, path[1:]):
            assert graph.has_edge(a, b)

    def test_unknown_endpoint_raises(self, paper_dcn):
        with pytest.raises(RoutingError):
            simple_path(paper_dcn, "server-0", "mars")


class TestShortestPathInAl:
    def test_path_uses_only_al_switches(self, paper_dcn):
        al = {"ops-0", "ops-2"}
        path = shortest_path_in_al(paper_dcn, "server-0", "server-4", al)
        for node in path:
            if node.startswith("ops"):
                assert node in al

    def test_empty_al_cannot_cross_core(self, paper_dcn):
        # server-0 (rack 0) and server-4 (rack 2) share no ToR, so the
        # path must cross the core — impossible with an empty AL.
        with pytest.raises(RoutingError):
            shortest_path_in_al(paper_dcn, "server-0", "server-4", set())

    def test_same_rack_path_avoids_core(self, paper_dcn):
        # server-0 and server-1 share tor-0; no OPS needed.
        path = shortest_path_in_al(paper_dcn, "server-0", "server-1", set())
        assert path == ["server-0", "tor-0", "server-1"]

    def test_unknown_endpoint_raises(self, paper_dcn):
        with pytest.raises(RoutingError):
            shortest_path_in_al(paper_dcn, "mars", "server-0", {"ops-0"})

    def test_ops_endpoint_must_be_in_al(self, paper_dcn):
        with pytest.raises(RoutingError):
            shortest_path_in_al(paper_dcn, "ops-1", "server-0", {"ops-0"})

    def test_ops_endpoint_inside_al_ok(self, paper_dcn):
        path = shortest_path_in_al(paper_dcn, "ops-0", "server-0", {"ops-0"})
        assert path[0] == "ops-0"
        assert path[-1] == "server-0"


class TestChainPath:
    def test_visits_waypoints_in_order(self, paper_dcn):
        waypoints = ["server-0", "ops-0", "server-5"]
        path = chain_path(paper_dcn, waypoints)
        positions = [path.index(node) for node in waypoints]
        assert positions == sorted(positions)

    def test_duplicate_waypoints_collapse(self, paper_dcn):
        path = chain_path(paper_dcn, ["server-0", "server-0", "server-1"])
        assert path[0] == "server-0"
        assert path.count("server-0") == 1

    def test_all_same_waypoint_gives_single_node(self, paper_dcn):
        assert chain_path(paper_dcn, ["server-0", "server-0"]) == ["server-0"]

    def test_needs_two_waypoints(self, paper_dcn):
        with pytest.raises(RoutingError):
            chain_path(paper_dcn, ["server-0"])

    def test_respects_al_restriction(self, paper_dcn):
        al = {"ops-0"}
        path = chain_path(
            paper_dcn, ["server-0", "ops-0", "server-5"], al_switches=al
        )
        for node in path:
            if node.startswith("ops"):
                assert node in al

    def test_consecutive_hops_are_edges(self, paper_dcn):
        path = chain_path(paper_dcn, ["server-0", "ops-2", "server-4"])
        graph = paper_dcn.graph
        for a, b in zip(path, path[1:]):
            assert graph.has_edge(a, b)


class TestPathLengthStatistics:
    def test_statistics(self, paper_dcn):
        stats = path_length_statistics(
            paper_dcn.graph,
            [("server-0", "server-1"), ("server-0", "server-5")],
        )
        assert stats["pairs"] == 2
        assert stats["min"] == 2  # same-rack: server-tor-server
        assert stats["max"] >= stats["min"]

    def test_empty_sample(self, paper_dcn):
        stats = path_length_statistics(paper_dcn.graph, [])
        assert stats["pairs"] == 0
        assert stats["mean"] == 0.0

    def test_unreachable_pairs_skipped(self, paper_dcn):
        stats = path_length_statistics(
            paper_dcn.graph, [("server-0", "mars")]
        )
        assert stats["pairs"] == 0


class TestKShortestPaths:
    def test_returns_sorted_by_length(self, paper_dcn):
        from repro.sdn.routing import k_shortest_paths

        paths = k_shortest_paths(paper_dcn, "server-0", "server-5", k=4)
        lengths = [len(path) for path in paths]
        assert lengths == sorted(lengths)
        assert 1 <= len(paths) <= 4

    def test_all_paths_valid(self, paper_dcn):
        from repro.sdn.routing import k_shortest_paths

        graph = paper_dcn.graph
        for path in k_shortest_paths(paper_dcn, "server-0", "server-4", k=3):
            assert path[0] == "server-0"
            assert path[-1] == "server-4"
            for a, b in zip(path, path[1:]):
                assert graph.has_edge(a, b)

    def test_al_restriction(self, paper_dcn):
        from repro.sdn.routing import k_shortest_paths

        paths = k_shortest_paths(
            paper_dcn, "server-0", "server-4", k=5,
            al_switches={"ops-0", "ops-2"},
        )
        for path in paths:
            for node in path:
                if node.startswith("ops"):
                    assert node in {"ops-0", "ops-2"}

    def test_invalid_k(self, paper_dcn):
        from repro.sdn.routing import k_shortest_paths

        with pytest.raises(RoutingError):
            k_shortest_paths(paper_dcn, "server-0", "server-1", k=0)

    def test_no_path_raises(self, paper_dcn):
        from repro.sdn.routing import k_shortest_paths

        with pytest.raises(RoutingError):
            k_shortest_paths(
                paper_dcn, "server-0", "server-4", al_switches=set()
            )

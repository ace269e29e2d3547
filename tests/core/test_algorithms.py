"""Tests for the covering algorithms."""

import random

import networkx as nx
import pytest

from repro.core.algorithms import (
    bipartite_min_vertex_cover,
    greedy_marginal_cover,
    greedy_max_weight_cover,
    natural_sort_key,
    random_cover,
)
from repro.exceptions import CoverInfeasibleError, ValidationError
from repro.opt.cover import exact_weighted_cover
from tests.opt.cover_oracle import min_cover_size


UNIVERSE = frozenset({"a", "b", "c", "d"})
CANDIDATES = {
    "tor-0": frozenset({"a", "b"}),
    "tor-1": frozenset({"b", "c"}),
    "tor-2": frozenset({"c", "d"}),
    "tor-3": frozenset({"a", "b", "c", "d"}),
}


class TestNaturalSortKey:
    def test_numeric_before_lexicographic(self):
        items = ["tor-10", "tor-2", "tor-1"]
        assert sorted(items, key=natural_sort_key) == [
            "tor-1",
            "tor-2",
            "tor-10",
        ]

    def test_prefix_groups(self):
        items = ["tor-1", "ops-2", "ops-1"]
        assert sorted(items, key=natural_sort_key) == [
            "ops-1",
            "ops-2",
            "tor-1",
        ]

    def test_non_indexed_ids_sort_after(self):
        assert sorted(
            ["tor-extra", "tor-1"], key=natural_sort_key
        ) == ["tor-1", "tor-extra"]


class TestGreedyMaxWeight:
    def test_highest_weight_first(self):
        weights = {"tor-0": 1, "tor-1": 2, "tor-2": 3, "tor-3": 10}
        result = greedy_max_weight_cover(UNIVERSE, CANDIDATES, weights)
        assert result.selected == ("tor-3",)

    def test_skips_redundant_candidates(self):
        weights = {"tor-0": 4, "tor-1": 3, "tor-2": 2, "tor-3": 1}
        result = greedy_max_weight_cover(UNIVERSE, CANDIDATES, weights)
        # tor-0 covers {a,b}; tor-1 adds c; tor-2 adds d; all selected.
        assert result.selected == ("tor-0", "tor-1", "tor-2")

    def test_skip_recorded_in_trace(self):
        candidates = {
            "tor-0": frozenset({"a", "b"}),
            "tor-1": frozenset({"a", "b"}),  # fully redundant
            "tor-2": frozenset({"c", "d"}),
        }
        weights = {"tor-0": 3, "tor-1": 2, "tor-2": 1}
        result = greedy_max_weight_cover(UNIVERSE, candidates, weights)
        assert result.selected == ("tor-0", "tor-2")
        skipped = [s for s in result.steps if not s.selected]
        assert [s.candidate for s in skipped] == ["tor-1"]

    def test_stops_once_covered(self):
        weights = {"tor-3": 10, "tor-0": 3, "tor-1": 2, "tor-2": 1}
        result = greedy_max_weight_cover(UNIVERSE, CANDIDATES, weights)
        # tor-3 covers everything; the others are never considered.
        assert result.considered_order() == ["tor-3"]

    def test_tie_break_by_natural_id(self):
        candidates = {
            "tor-2": frozenset({"a"}),
            "tor-10": frozenset({"a"}),
        }
        result = greedy_max_weight_cover(
            {"a"}, candidates, {"tor-2": 1, "tor-10": 1}
        )
        assert result.selected == ("tor-2",)

    def test_infeasible_raises(self):
        with pytest.raises(CoverInfeasibleError) as info:
            greedy_max_weight_cover(
                {"a", "z"}, {"tor-0": frozenset({"a"})}, {"tor-0": 1}
            )
        assert info.value.uncovered == frozenset({"z"})

    def test_empty_universe_selects_nothing(self):
        weights = {name: 1 for name in CANDIDATES}
        result = greedy_max_weight_cover(frozenset(), CANDIDATES, weights)
        assert result.selected == ()

    def test_missing_weight_raises(self):
        weights = {name: 1 for name in CANDIDATES}
        weights.pop("tor-2")
        with pytest.raises(ValidationError) as info:
            greedy_max_weight_cover(UNIVERSE, CANDIDATES, weights)
        assert "tor-2" in str(info.value)

    def test_missing_weights_listed_in_order(self):
        with pytest.raises(ValidationError) as info:
            greedy_max_weight_cover(UNIVERSE, CANDIDATES, {})
        message = str(info.value)
        assert message.index("tor-0") < message.index("tor-3")

    def test_covered_matches_universe(self):
        weights = {name: 1 for name in CANDIDATES}
        result = greedy_max_weight_cover(UNIVERSE, CANDIDATES, weights)
        assert result.covered() == UNIVERSE


class TestGreedyMarginal:
    def test_picks_largest_gain(self):
        result = greedy_marginal_cover(UNIVERSE, CANDIDATES)
        assert result.selected == ("tor-3",)

    def test_gain_recomputed_each_round(self):
        candidates = {
            "s1": frozenset({"a", "b", "c"}),
            "s2": frozenset({"b", "c", "d"}),
            "s3": frozenset({"d", "e"}),
        }
        result = greedy_marginal_cover({"a", "b", "c", "d", "e"}, candidates)
        # s1 (gain 3) then s3 (gain 2, vs s2's remaining gain 1).
        assert result.selected == ("s1", "s3")

    def test_tie_break_deterministic(self):
        candidates = {
            "s2": frozenset({"a"}),
            "s1": frozenset({"a"}),
        }
        result = greedy_marginal_cover({"a"}, candidates)
        assert result.selected == ("s1",)

    def test_infeasible_raises(self):
        with pytest.raises(CoverInfeasibleError):
            greedy_marginal_cover({"a", "z"}, {"s": frozenset({"a"})})


class TestRandomCover:
    def test_deterministic_per_seed(self):
        first = random_cover(UNIVERSE, CANDIDATES, random.Random(5))
        second = random_cover(UNIVERSE, CANDIDATES, random.Random(5))
        assert first.selected == second.selected

    def test_valid_cover(self):
        for seed in range(10):
            result = random_cover(UNIVERSE, CANDIDATES, random.Random(seed))
            assert result.covered() == UNIVERSE

    def test_never_selects_useless_candidate(self):
        for seed in range(10):
            result = random_cover(UNIVERSE, CANDIDATES, random.Random(seed))
            for step in result.steps:
                if step.selected:
                    assert step.newly_covered

    def test_infeasible_raises(self):
        with pytest.raises(CoverInfeasibleError):
            random_cover(
                {"a", "z"}, {"s": frozenset({"a"})}, random.Random(0)
            )


class TestExactMinCover:
    """The certified cover MILP against hand-made and brute-force minima."""

    def test_finds_minimum(self):
        result = exact_weighted_cover(UNIVERSE, CANDIDATES)
        assert result.size == 1
        assert result.selected == ("tor-3",)

    def test_two_set_minimum(self):
        candidates = {
            "s1": frozenset({"a", "b"}),
            "s2": frozenset({"c", "d"}),
            "s3": frozenset({"a", "c"}),
            "s4": frozenset({"b", "d"}),
        }
        result = exact_weighted_cover(UNIVERSE, candidates)
        assert result.size == 2

    def test_never_larger_than_greedy(self):
        rng = random.Random(0)
        for _ in range(20):
            universe = frozenset(range(8))
            candidates = {
                f"s{i}": frozenset(rng.sample(range(8), rng.randint(1, 4)))
                for i in range(8)
            }
            coverable = frozenset().union(*candidates.values())
            if coverable != universe:
                continue
            exact = exact_weighted_cover(universe, candidates)
            greedy = greedy_marginal_cover(universe, candidates)
            assert exact.size == min_cover_size(universe, candidates)
            assert exact.size <= greedy.size

    def test_empty_universe(self):
        assert exact_weighted_cover(frozenset(), CANDIDATES).size == 0

    def test_infeasible_raises(self):
        with pytest.raises(CoverInfeasibleError):
            exact_weighted_cover({"a", "z"}, {"s": frozenset({"a"})})


class TestBipartiteMinVertexCover:
    def test_star_graph(self):
        graph = nx.Graph()
        for leaf in ("m1", "m2", "m3"):
            graph.add_edge("tor", leaf)
        cover = bipartite_min_vertex_cover(graph, {"tor"})
        assert cover == {"tor"}

    def test_koenig_equals_matching_size(self):
        graph = nx.Graph()
        edges = [
            ("t0", "m0"), ("t0", "m1"), ("t1", "m1"), ("t1", "m2"),
            ("t2", "m2"), ("t2", "m3"),
        ]
        graph.add_edges_from(edges)
        top = {"t0", "t1", "t2"}
        cover = bipartite_min_vertex_cover(graph, top)
        matching = nx.algorithms.bipartite.hopcroft_karp_matching(graph, top)
        assert len(cover) == len(matching) // 2
        # Every edge is covered.
        for a, b in edges:
            assert a in cover or b in cover

    def test_empty_graph(self):
        assert bipartite_min_vertex_cover(nx.Graph(), set()) == set()

"""Exact weighted set cover: optimality, result parity, error contracts."""

import pytest

from repro.core.algorithms import CoverResult, greedy_max_weight_cover
from repro.exceptions import CoverInfeasibleError, ValidationError
from repro.opt.cover import (
    exact_weighted_cover,
    exact_weighted_cover_with_certificate,
)
from tests.opt.cover_oracle import min_cover_size


def _instance():
    universe = frozenset({"m-0", "m-1", "m-2", "m-3"})
    candidates = {
        "t-1": frozenset({"m-0", "m-1"}),
        "t-2": frozenset({"m-1", "m-2"}),
        "t-3": frozenset({"m-2", "m-3"}),
    }
    weights = {"t-1": 3, "t-2": 1, "t-3": 2}
    return universe, candidates, weights


def test_minimum_cardinality():
    universe, candidates, weights = _instance()
    result, certificate = exact_weighted_cover_with_certificate(
        universe, candidates, weights
    )
    assert result.selected == ("t-1", "t-3")
    assert certificate.proven_optimal
    assert certificate.lower_bound == 2.0
    assert certificate.gap == 0.0
    # Cardinality agrees with the brute-force minimum.
    assert len(result.selected) == min_cover_size(universe, candidates)


def test_weights_break_ties_toward_heavier():
    universe = frozenset({"m-0"})
    candidates = {
        "t-1": frozenset({"m-0"}),
        "t-2": frozenset({"m-0"}),
    }
    light = exact_weighted_cover(universe, candidates, {"t-1": 5, "t-2": 1})
    heavy = exact_weighted_cover(universe, candidates, {"t-1": 1, "t-2": 5})
    assert light.selected == ("t-1",)
    assert heavy.selected == ("t-2",)


def test_result_object_matches_greedy_shape():
    # Digest parity: same CoverResult type, same trace fields, same
    # universe — and identical to greedy whenever greedy is optimal.
    universe, candidates, weights = _instance()
    exact = exact_weighted_cover(universe, candidates, weights)
    greedy = greedy_max_weight_cover(universe, candidates, weights)
    assert isinstance(exact, CoverResult)
    assert exact.universe == greedy.universe == universe
    assert exact.selected == tuple(
        step.candidate for step in exact.steps if step.selected
    )
    covered = frozenset().union(
        *(candidates[name] for name in exact.selected)
    )
    assert covered == universe
    if len(greedy.selected) == len(exact.selected):
        assert exact.selected == greedy.selected


def test_weightless_covers():
    universe, candidates, _ = _instance()
    result = exact_weighted_cover(universe, candidates, None)
    assert len(result.selected) == 2
    for step in result.steps:
        assert step.weight == float(len(candidates[step.candidate]))


def test_infeasible_raises_cover_error():
    universe = frozenset({"m-0", "ghost"})
    candidates = {"t-1": frozenset({"m-0"})}
    with pytest.raises(CoverInfeasibleError) as info:
        exact_weighted_cover(universe, candidates, {"t-1": 1})
    assert "ghost" in info.value.uncovered


def test_feasibility_checked_before_weights():
    # Same precedence as the greedy kernels: an instance that is both
    # infeasible and missing weights reports infeasibility.
    universe = frozenset({"m-0", "ghost"})
    candidates = {"t-1": frozenset({"m-0"})}
    with pytest.raises(CoverInfeasibleError):
        exact_weighted_cover(universe, candidates, {})


def test_missing_weights_raise_validation_error():
    universe, candidates, weights = _instance()
    del weights["t-2"]
    with pytest.raises(ValidationError):
        exact_weighted_cover(universe, candidates, weights)


def test_degenerate_empty_instance():
    result, certificate = exact_weighted_cover_with_certificate(
        frozenset(), {}
    )
    assert result == CoverResult(selected=(), steps=(), universe=frozenset())
    assert certificate.proven_optimal
    assert certificate.nodes == 0


def test_degenerate_empty_candidates_nonempty_universe():
    with pytest.raises(CoverInfeasibleError) as info:
        exact_weighted_cover(frozenset({"m-0"}), {})
    assert info.value.uncovered == frozenset({"m-0"})


def test_node_budget_uncertified_bound_stays_valid():
    # Starve the search: whatever certificate comes back, its lower
    # bound must still bracket the true optimum from below.
    universe = frozenset(f"m-{i}" for i in range(8))
    candidates = {
        f"t-{i}": frozenset({f"m-{i}", f"m-{(i + 1) % 8}"}) for i in range(8)
    }
    closed, closed_cert = exact_weighted_cover_with_certificate(
        universe, candidates
    )
    assert closed_cert.proven_optimal
    _, starved = exact_weighted_cover_with_certificate(
        universe, candidates, max_nodes=3
    )
    assert starved.lower_bound <= len(closed.selected)
    # One node ends the search before any incumbent: the answer is the
    # greedy cover (here a minimum one), uncertified, with a valid bound.
    greedy, starved = exact_weighted_cover_with_certificate(
        universe, candidates, max_nodes=1
    )
    assert greedy.covered() == universe
    assert greedy.selected == ("t-0", "t-2", "t-4", "t-6")
    assert len(greedy.selected) == len(closed.selected)
    assert not starved.proven_optimal
    assert 0 < starved.lower_bound <= len(closed.selected)
    assert starved.gap == starved.objective - starved.lower_bound

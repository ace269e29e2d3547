"""Property-based tests for the covering algorithms."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithms import (
    greedy_marginal_cover,
    greedy_max_weight_cover,
    random_cover,
)
from repro.opt.cover import exact_weighted_cover_with_certificate
from tests.opt.cover_oracle import min_cover_size


@st.composite
def cover_instances(draw, max_elements=10, max_candidates=8):
    """A feasible set-cover instance: (universe, candidates, weights)."""
    n_elements = draw(st.integers(min_value=1, max_value=max_elements))
    universe = frozenset(range(n_elements))
    n_candidates = draw(st.integers(min_value=1, max_value=max_candidates))
    candidates = {}
    for index in range(n_candidates):
        members = draw(
            st.frozensets(
                st.integers(min_value=0, max_value=n_elements - 1),
                min_size=0,
                max_size=n_elements,
            )
        )
        candidates[f"s-{index}"] = members
    # Guarantee feasibility: one candidate covering the leftovers.
    covered = frozenset().union(*candidates.values()) if candidates else frozenset()
    leftovers = universe - covered
    if leftovers:
        candidates["s-fix"] = leftovers
    weights = {
        name: draw(st.integers(min_value=0, max_value=20))
        for name in candidates
    }
    return universe, candidates, weights


@given(cover_instances())
@settings(max_examples=60, deadline=None)
def test_greedy_max_weight_always_covers(instance):
    universe, candidates, weights = instance
    result = greedy_max_weight_cover(universe, candidates, weights)
    assert result.covered() == universe


@given(cover_instances())
@settings(max_examples=60, deadline=None)
def test_greedy_max_weight_no_useless_selections(instance):
    universe, candidates, weights = instance
    result = greedy_max_weight_cover(universe, candidates, weights)
    for step in result.steps:
        if step.selected:
            assert step.newly_covered, "selected a redundant candidate"


@given(cover_instances())
@settings(max_examples=60, deadline=None)
def test_greedy_max_weight_selection_irredundant_prefixwise(instance):
    universe, candidates, weights = instance
    result = greedy_max_weight_cover(universe, candidates, weights)
    # Each selected candidate added something not covered by the ones
    # selected before it.
    covered = set()
    for candidate in result.selection_order():
        assert not candidates[candidate] <= covered
        covered |= candidates[candidate]


@given(cover_instances())
@settings(max_examples=60, deadline=None)
def test_marginal_greedy_always_covers(instance):
    universe, candidates, _ = instance
    result = greedy_marginal_cover(universe, candidates)
    assert result.covered() == universe


@given(cover_instances(), st.integers(min_value=0, max_value=1000))
@settings(max_examples=60, deadline=None)
def test_random_cover_always_covers(instance, seed):
    universe, candidates, _ = instance
    result = random_cover(universe, candidates, random.Random(seed))
    assert result.covered() == universe


@given(cover_instances(max_elements=7, max_candidates=6))
@settings(max_examples=40, deadline=None)
def test_exact_is_lower_bound_for_all_heuristics(instance):
    universe, candidates, weights = instance
    exact, certificate = exact_weighted_cover_with_certificate(
        universe, candidates, weights
    )
    assert certificate.proven_optimal
    assert exact.size == min_cover_size(universe, candidates)
    greedy = greedy_max_weight_cover(universe, candidates, weights)
    marginal = greedy_marginal_cover(universe, candidates)
    rand = random_cover(universe, candidates, random.Random(1))
    assert exact.size <= greedy.size
    assert exact.size <= marginal.size
    assert exact.size <= rand.size


@given(cover_instances(max_elements=7, max_candidates=6))
@settings(max_examples=40, deadline=None)
def test_exact_result_is_a_cover(instance):
    universe, candidates, weights = instance
    result, _ = exact_weighted_cover_with_certificate(
        universe, candidates, weights
    )
    assert result.covered() == universe


@given(cover_instances())
@settings(max_examples=40, deadline=None)
def test_greedy_deterministic(instance):
    universe, candidates, weights = instance
    first = greedy_max_weight_cover(universe, candidates, weights)
    second = greedy_max_weight_cover(universe, candidates, weights)
    assert first.selected == second.selected

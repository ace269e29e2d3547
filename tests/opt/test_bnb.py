"""Unit tests for the best-first branch-and-bound MILP engine."""

import pytest

from repro.opt.bnb import MilpResult, solve_milp
from repro.opt.model import MilpModel


def _knapsack():
    # maximize 10a + 13b + 7c subject to 3a + 4b + 2c <= 6 (binaries);
    # minimize form negates the values.  Optimum picks {b, c} = 20.
    model = MilpModel()
    a = model.add_binary("a", cost=-10.0)
    b = model.add_binary("b", cost=-13.0)
    c = model.add_binary("c", cost=-7.0)
    model.add_le({a: 3.0, b: 4.0, c: 2.0}, 6.0)
    return model


def test_knapsack_optimum():
    result = solve_milp(_knapsack())
    assert result.proven_optimal
    assert result.objective == pytest.approx(-20.0)
    assert result.values == {"a": 0.0, "b": 1.0, "c": 1.0}
    assert result.bound == pytest.approx(result.objective)
    assert result.gap == pytest.approx(0.0)


def test_branching_required():
    # LP relaxation is fractional (x1 = x2 = 0.75); the integer optimum
    # needs 2 selections.
    model = MilpModel()
    x1 = model.add_binary("x1", cost=1.0)
    x2 = model.add_binary("x2", cost=1.0)
    model.add_ge({x1: 2.0, x2: 2.0}, 3.0)
    result = solve_milp(model)
    assert result.proven_optimal
    assert result.objective == pytest.approx(2.0)
    assert result.nodes > 1  # the root alone cannot close this


def test_integral_root_closes_in_one_node():
    model = MilpModel()
    x = model.add_binary("x", cost=1.0)
    model.add_ge({x: 1.0}, 1.0)
    result = solve_milp(model)
    assert result.proven_optimal
    assert result.nodes == 1


def test_infeasible():
    model = MilpModel()
    x = model.add_binary("x")
    model.add_ge({x: 1.0}, 2.0)
    result = solve_milp(model)
    assert result.status == "infeasible"
    assert not result.proven_optimal
    assert result.values == {}


def test_unbounded():
    model = MilpModel()
    model.add_var("x", cost=-1.0)
    assert solve_milp(model).status == "unbounded"


def test_determinism():
    results = [solve_milp(_knapsack()) for _ in range(3)]
    assert results[0] == results[1] == results[2]
    assert isinstance(results[0], MilpResult)


def test_node_budget_returns_certified_bound():
    # A tiny budget cannot close the tree, but whatever comes back must
    # bracket the true optimum: bound <= -20 <= objective.
    result = solve_milp(_knapsack(), max_nodes=2)
    assert result.status in ("feasible", "no_solution")
    assert result.bound <= -20.0 + 1e-6
    if result.status == "feasible":
        assert result.objective >= -20.0 - 1e-6
        assert result.gap >= 0.0

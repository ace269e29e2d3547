"""Exact chain placement MILP: optimality, knobs, result parity."""

import pytest

from repro.core.chaining import NetworkFunctionChain
from repro.core.placement import (
    ChainPlacement,
    PlacementAlgorithm,
    PlacementSolver,
)
from repro.nfv.functions import FunctionCatalog
from repro.opt.placement import (
    exact_chain_placement,
    exact_chain_placement_with_certificate,
)
from repro.topology.elements import Domain, ResourceVector

CATALOG = FunctionCatalog.standard()


def make_chain(names, chain_id="chain-x", **knobs):
    return NetworkFunctionChain.from_names(chain_id, names, CATALOG, **knobs)


def pool(count=2, cpu=4, memory=8, storage=64):
    return {
        f"ops-{index}": ResourceVector(cpu, memory, storage)
        for index in range(count)
    }


def test_matches_subset_search_per_visit():
    chain = make_chain(("nat", "firewall", "dpi", "load-balancer"))
    capacity = pool(count=3, cpu=8, memory=16, storage=64)
    optimal = PlacementSolver(dict(capacity)).solve(
        chain, PlacementAlgorithm.EXACT
    )
    exact, certificate = exact_chain_placement_with_certificate(
        chain, dict(capacity)
    )
    assert exact.conversions == optimal.conversions
    assert exact.optical_hosts() == optimal.optical_hosts()
    assert exact == optimal  # digest-compatible result objects
    assert certificate.proven_optimal
    assert certificate.lower_bound == float(exact.conversions)


def test_matches_subset_search_merge_mode():
    chain = make_chain(("nat", "firewall", "dpi", "load-balancer"))
    capacity = pool(count=3, cpu=8, memory=16, storage=64)
    optimal = PlacementSolver(
        dict(capacity), merge_consecutive=True
    ).solve(chain, PlacementAlgorithm.EXACT)
    exact, certificate = exact_chain_placement_with_certificate(
        chain, dict(capacity), merge_consecutive=True
    )
    assert exact.conversions == optimal.conversions
    assert exact.merge_consecutive
    assert certificate.proven_optimal


def test_empty_pool_is_all_electronic():
    chain = make_chain(("nat", "firewall"))
    placement, certificate = exact_chain_placement_with_certificate(
        chain, {}
    )
    assert placement.optical_count == 0
    assert all(
        placed.domain is Domain.ELECTRONIC
        for placed in placement.assignments
    )
    assert certificate.proven_optimal


def test_optical_incapable_stays_electronic():
    chain = make_chain(("nat", "dpi", "firewall"))
    placement = exact_chain_placement(
        chain, pool(count=2, cpu=4, memory=8, storage=64)
    )
    dpi = placement.assignments[1]
    assert dpi.function.name == "dpi"
    assert dpi.domain is Domain.ELECTRONIC


def test_capacity_rows_bind():
    # One router with room for exactly one light VNF: the MILP may only
    # place one of the two optically.
    chain = make_chain(("firewall", "firewall"))
    placement = exact_chain_placement(
        chain, {"ops-0": ResourceVector(1, 2, 4)}
    )
    assert placement.optical_count == 1


def test_anti_affinity_separates_hosts():
    chain = make_chain(
        ("nat", "firewall", "load-balancer"),
        anti_affinity=((0, 1), (1, 2)),
    )
    placement = exact_chain_placement(chain, pool(count=3))
    hosts = dict(placement.optical_hosts())
    if 0 in hosts and 1 in hosts:
        assert hosts[0] != hosts[1]
    if 1 in hosts and 2 in hosts:
        assert hosts[1] != hosts[2]
    assert placement.optical_count == 3  # three routers suffice


def test_anti_affinity_with_single_host_degrades():
    # One router, two conflicting positions: only one may go optical.
    chain = make_chain(("nat", "firewall"), anti_affinity=((0, 1),))
    placement = exact_chain_placement(chain, pool(count=1))
    assert placement.optical_count == 1


def test_wavelength_cap_bounds_router_fanin():
    chain = make_chain(("nat", "firewall", "load-balancer", "proxy"))
    placement = exact_chain_placement(
        chain,
        pool(count=2, cpu=16, memory=32, storage=128),
        wavelengths_per_router=2,
    )
    per_host: dict = {}
    for _, host in placement.optical_hosts().items():
        per_host[host] = per_host.get(host, 0) + 1
    assert all(count <= 2 for count in per_host.values())
    assert placement.optical_count == 4


def test_certificate_brackets_greedy():
    chain = make_chain(
        ("nat", "firewall", "dpi", "load-balancer", "proxy")
    )
    capacity = pool(count=2, cpu=2, memory=4, storage=16)
    greedy = PlacementSolver(
        dict(capacity), merge_consecutive=True
    ).solve(chain, PlacementAlgorithm.GREEDY)
    exact, certificate = exact_chain_placement_with_certificate(
        chain, dict(capacity), merge_consecutive=True
    )
    assert (
        certificate.lower_bound
        <= exact.conversions
        <= greedy.conversions
    )


def test_returns_chain_placement_type():
    chain = make_chain(("nat",))
    placement = exact_chain_placement(chain, pool())
    assert isinstance(placement, ChainPlacement)
    assert len(placement.assignments) == len(chain)


@pytest.mark.parametrize("merge", [False, True])
def test_node_budget_without_incumbent_places_all_electronic(merge):
    # A one-node budget solves only the root relaxation, so
    # branch-and-bound stops before it holds any incumbent
    # ("no_solution").  All-electronic is always feasible: the chain is
    # placed there, uncertified, under the root's bound.
    chain = make_chain(("nat", "firewall", "dpi", "load-balancer"))
    capacity = pool(count=3, cpu=8, memory=16, storage=64)
    placement, certificate = exact_chain_placement_with_certificate(
        chain, dict(capacity), merge_consecutive=merge, max_nodes=1
    )
    assert placement.optical_count == 0
    assert not certificate.proven_optimal
    assert certificate.objective == float(placement.conversions)
    _, proven = exact_chain_placement_with_certificate(
        chain, dict(capacity), merge_consecutive=merge
    )
    assert proven.proven_optimal
    assert certificate.lower_bound <= proven.objective <= certificate.objective
    assert certificate.gap == certificate.objective - certificate.lower_bound

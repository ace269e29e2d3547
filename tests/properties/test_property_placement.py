"""Property-based tests for VNF placement."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chaining import NetworkFunctionChain
from repro.core.placement import PlacementAlgorithm, PlacementSolver
from repro.nfv.functions import FunctionCatalog
from repro.optical.conversion import count_excursions
from repro.topology.elements import Domain, ResourceVector

CATALOG = FunctionCatalog.standard()
LIGHT = ("nat", "firewall", "load-balancer", "proxy", "security-gateway")
ALL_NAMES = LIGHT + ("dpi", "ids", "cache")


@st.composite
def placement_instances(draw):
    """A chain plus a pool of router capacities."""
    length = draw(st.integers(min_value=1, max_value=8))
    names = tuple(draw(st.sampled_from(ALL_NAMES)) for _ in range(length))
    chain = NetworkFunctionChain.from_names("chain-h", names, CATALOG)
    n_routers = draw(st.integers(min_value=0, max_value=3))
    pool = {
        f"ops-{index}": ResourceVector(
            cpu_cores=draw(st.sampled_from([0.5, 1, 2, 4, 8])),
            memory_gb=64,
            storage_gb=512,
        )
        for index in range(n_routers)
    }
    return chain, pool


@given(placement_instances(), st.sampled_from(list(PlacementAlgorithm)))
@settings(max_examples=80, deadline=None)
def test_capacity_never_exceeded(instance, algorithm):
    chain, pool = instance
    placement = PlacementSolver(dict(pool), seed=1).solve(chain, algorithm)
    used: dict[str, ResourceVector] = {}
    for placed in placement.assignments:
        if placed.domain is Domain.OPTICAL:
            used[placed.host] = (
                used.get(placed.host, ResourceVector.zero())
                + placed.function.demand
            )
    for host, total in used.items():
        assert total.fits_within(pool[host])


@given(placement_instances(), st.sampled_from(list(PlacementAlgorithm)))
@settings(max_examples=80, deadline=None)
def test_every_position_assigned_exactly_once(instance, algorithm):
    chain, pool = instance
    placement = PlacementSolver(dict(pool), seed=2).solve(chain, algorithm)
    positions = [placed.position for placed in placement.assignments]
    assert positions == list(range(len(chain)))


@given(placement_instances(), st.sampled_from(list(PlacementAlgorithm)))
@settings(max_examples=80, deadline=None)
def test_conversions_bounded_by_all_electronic(instance, algorithm):
    chain, pool = instance
    placement = PlacementSolver(dict(pool), seed=3).solve(chain, algorithm)
    ceiling = count_excursions([Domain.ELECTRONIC] * len(chain))
    assert 0 <= placement.conversions <= ceiling


@given(placement_instances())
@settings(max_examples=50, deadline=None)
def test_optimal_never_worse_than_other_algorithms(instance):
    chain, pool = instance
    optimal = PlacementSolver(dict(pool), seed=4).solve(
        chain, PlacementAlgorithm.EXACT
    )
    for algorithm in (
        PlacementAlgorithm.ALL_ELECTRONIC,
        PlacementAlgorithm.RANDOM,
        PlacementAlgorithm.GREEDY,
    ):
        other = PlacementSolver(dict(pool), seed=4).solve(chain, algorithm)
        assert optimal.conversions <= other.conversions


@given(placement_instances())
@settings(max_examples=50, deadline=None)
def test_greedy_saved_conversions_consistent(instance):
    chain, pool = instance
    placement = PlacementSolver(dict(pool), seed=5).solve(chain)
    assert placement.conversions_saved() == (
        len(chain) - placement.conversions
    )


@given(placement_instances())
@settings(max_examples=50, deadline=None)
def test_improve_never_increases_conversions(instance):
    chain, pool = instance
    solver = PlacementSolver(dict(pool), seed=6)
    before = solver.solve(chain, PlacementAlgorithm.RANDOM)
    # Improve against the leftover capacity after the random placement.
    leftover = dict(pool)
    for placed in before.assignments:
        if placed.domain is Domain.OPTICAL:
            leftover[placed.host] = (
                leftover[placed.host] - placed.function.demand
            )
    after = PlacementSolver(leftover, seed=6).improve(before)
    assert after.conversions <= before.conversions
    # Existing optical assignments are preserved.
    assert set(before.optical_hosts().items()) <= set(
        after.optical_hosts().items()
    )

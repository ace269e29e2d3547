"""Tests for the O/E/O-minimizing VNF placement solver."""

import itertools

import pytest

from repro.core.chaining import NetworkFunctionChain
from repro.core.placement import (
    ChainPlacement,
    PlacedVnf,
    PlacementAlgorithm,
    PlacementSolver,
    _exact_pack,
)
from repro.exceptions import PlacementError
from repro.nfv.functions import FunctionCatalog
from repro.opt.placement import exact_chain_placement
from repro.optical.conversion import ConversionModel, count_excursions
from repro.topology.elements import Domain, ResourceVector


CATALOG = FunctionCatalog.standard()


def _subset_search(chain, free, merge):
    """Reference optimum: every optical subset, largest first, packed
    exactly; the first one with the least ``(conversions, optical
    count)`` wins.  Returns position -> router."""
    movable = [
        position
        for position, function in enumerate(chain)
        if function.optical_capable
    ]
    conflicts = chain.anti_affinity_conflicts()
    best_key, best = None, {}
    for size in range(len(movable), -1, -1):
        for subset in itertools.combinations(movable, size):
            key = (
                count_excursions(
                    [
                        Domain.OPTICAL if position in subset
                        else Domain.ELECTRONIC
                        for position in range(len(chain))
                    ],
                    merge_consecutive=merge,
                ),
                size,
            )
            if best_key is not None and key >= best_key:
                continue
            packing = _exact_pack(
                [(position, chain.functions[position].demand)
                 for position in subset],
                dict(free),
                conflicts=conflicts,
            )
            if packing is not None:
                best_key, best = key, packing
    return best


def make_chain(names, chain_id="chain-t"):
    return NetworkFunctionChain.from_names(chain_id, names, CATALOG)


def pool(cpu=4, memory=8, storage=64, count=2):
    return {
        f"ops-{index}": ResourceVector(cpu, memory, storage)
        for index in range(count)
    }


class TestPlacedVnf:
    def test_optical_needs_host(self):
        with pytest.raises(PlacementError):
            PlacedVnf(0, CATALOG.get("nat"), Domain.OPTICAL, None)

    def test_electronic_forbids_host(self):
        with pytest.raises(PlacementError):
            PlacedVnf(0, CATALOG.get("nat"), Domain.ELECTRONIC, "ops-0")


class TestChainPlacement:
    def test_length_mismatch_rejected(self):
        chain = make_chain(("nat", "firewall"))
        with pytest.raises(PlacementError):
            ChainPlacement(
                chain=chain,
                assignments=(
                    PlacedVnf(0, CATALOG.get("nat"), Domain.ELECTRONIC, None),
                ),
            )

    def test_conversions_per_visit(self):
        chain = make_chain(("nat", "firewall", "proxy"))
        placement = ChainPlacement(
            chain=chain,
            assignments=(
                PlacedVnf(0, chain.functions[0], Domain.ELECTRONIC, None),
                PlacedVnf(1, chain.functions[1], Domain.OPTICAL, "ops-0"),
                PlacedVnf(2, chain.functions[2], Domain.ELECTRONIC, None),
            ),
        )
        assert placement.conversions == 2
        assert placement.optical_count == 1
        assert placement.conversions_saved() == 1

    def test_conversion_cost_and_energy(self):
        chain = make_chain(("nat",))
        placement = ChainPlacement(
            chain=chain,
            assignments=(
                PlacedVnf(0, chain.functions[0], Domain.ELECTRONIC, None),
            ),
        )
        model = ConversionModel(cost_per_gb=1.0, pj_per_bit=20.0)
        assert placement.conversion_cost(model, 1e9) == pytest.approx(1.0)
        assert placement.conversion_energy_joules(model, 1e9) == (
            pytest.approx(0.16)
        )

    def test_optical_hosts_map(self):
        chain = make_chain(("nat", "firewall"))
        placement = ChainPlacement(
            chain=chain,
            assignments=(
                PlacedVnf(0, chain.functions[0], Domain.OPTICAL, "ops-1"),
                PlacedVnf(1, chain.functions[1], Domain.ELECTRONIC, None),
            ),
        )
        assert placement.optical_hosts() == {0: "ops-1"}


class TestAllElectronic:
    def test_everything_electronic(self):
        solver = PlacementSolver(pool())
        placement = solver.solve(
            make_chain(("nat", "firewall")), PlacementAlgorithm.ALL_ELECTRONIC
        )
        assert placement.optical_count == 0
        assert placement.conversions == 2


class TestGreedyPerVisit:
    def test_packs_everything_that_fits(self):
        solver = PlacementSolver(pool())
        placement = solver.solve(make_chain(("nat", "firewall", "nat")))
        assert placement.optical_count == 3
        assert placement.conversions == 0

    def test_heavy_function_stays_electronic(self):
        solver = PlacementSolver(pool())
        placement = solver.solve(make_chain(("nat", "dpi", "firewall")))
        assert placement.conversions == 1
        domains = placement.domains()
        assert domains[1] is Domain.ELECTRONIC

    def test_empty_pool_places_nothing(self):
        solver = PlacementSolver({})
        placement = solver.solve(make_chain(("nat", "firewall")))
        assert placement.optical_count == 0

    def test_cheapest_first_under_scarcity(self):
        # Capacity for NAT (0.5 cpu) but not security-gateway (2 cpu).
        solver = PlacementSolver(pool(cpu=1, count=1))
        placement = solver.solve(
            make_chain(("security-gateway", "nat"))
        )
        assert placement.domains() == [Domain.ELECTRONIC, Domain.OPTICAL]

    def test_capacity_respected_across_positions(self):
        # One router with 1 cpu: only two 0.5-cpu NATs fit.
        solver = PlacementSolver(pool(cpu=1, memory=8, storage=64, count=1))
        placement = solver.solve(make_chain(("nat", "nat", "nat")))
        assert placement.optical_count == 2

    def test_optical_incapable_functions_never_moved(self):
        from repro.nfv.functions import NetworkFunctionType

        catalog = FunctionCatalog.standard()
        catalog.register(
            NetworkFunctionType(
                "legacy",
                ResourceVector(cpu_cores=0.1),
                optical_capable=False,
            )
        )
        chain = NetworkFunctionChain.from_names(
            "chain-l", ("legacy", "nat"), catalog
        )
        placement = PlacementSolver(pool()).solve(chain)
        assert placement.domains()[0] is Domain.ELECTRONIC
        assert placement.domains()[1] is Domain.OPTICAL


class TestGreedyMergedRuns:
    def test_whole_run_moves_together(self):
        solver = PlacementSolver(pool(), merge_consecutive=True)
        placement = solver.solve(make_chain(("nat", "firewall")))
        # Under excursion semantics the only way to save is to move the
        # entire [nat, firewall] run.
        assert placement.optical_count == 2
        assert placement.conversions == 0

    def test_unmovable_run_left_alone(self):
        # DPI pins the excursion: moving its neighbours saves nothing.
        solver = PlacementSolver(pool(), merge_consecutive=True)
        placement = solver.solve(make_chain(("nat", "dpi", "firewall")))
        assert placement.conversions == 1
        assert placement.optical_count == 0

    def test_from_scratch_single_excursion_is_already_optimal(self):
        # All-electronic is one excursion under merge semantics; with DPI
        # unpackable the excursion cannot be eliminated, so moving any
        # subset saves nothing and the greedy correctly moves nothing.
        solver = PlacementSolver(
            pool(cpu=1, count=1), merge_consecutive=True
        )
        chain = make_chain(("nat", "dpi", "security-gateway"))
        placement = solver.solve(chain)
        assert placement.optical_count == 0
        assert placement.conversions == 1

    def test_improve_moves_cheapest_feasible_run(self):
        # Before: [E, O, E] — two single-position runs around the optical
        # firewall.  Only NAT (0.5 cpu) fits the remaining capacity, so
        # exactly that run is eliminated.
        chain = make_chain(("nat", "firewall", "security-gateway"))
        before = ChainPlacement(
            chain=chain,
            assignments=(
                PlacedVnf(0, chain.functions[0], Domain.ELECTRONIC, None),
                PlacedVnf(1, chain.functions[1], Domain.OPTICAL, "ops-0"),
                PlacedVnf(2, chain.functions[2], Domain.ELECTRONIC, None),
            ),
            merge_consecutive=True,
        )
        solver = PlacementSolver(
            pool(cpu=1, count=1), merge_consecutive=True
        )
        after = solver.improve(before)
        assert after.domains() == [
            Domain.OPTICAL, Domain.OPTICAL, Domain.ELECTRONIC,
        ]
        assert before.conversions == 2
        assert after.conversions == 1


class TestRandomPlacement:
    def test_deterministic_per_seed(self):
        chain = make_chain(("nat", "firewall", "proxy"))
        first = PlacementSolver(pool(), seed=5).solve(
            chain, PlacementAlgorithm.RANDOM
        )
        second = PlacementSolver(pool(), seed=5).solve(
            chain, PlacementAlgorithm.RANDOM
        )
        assert first.optical_hosts() == second.optical_hosts()

    def test_respects_capacity(self):
        chain = make_chain(("nat",) * 6)
        placement = PlacementSolver(
            pool(cpu=1, count=1), seed=0
        ).solve(chain, PlacementAlgorithm.RANDOM)
        assert placement.optical_count <= 2


class TestOptimalPlacement:
    def test_matches_greedy_on_easy_instance(self):
        chain = make_chain(("nat", "firewall"))
        optimal = PlacementSolver(pool()).solve(
            chain, PlacementAlgorithm.EXACT
        )
        greedy = PlacementSolver(pool()).solve(
            chain, PlacementAlgorithm.GREEDY
        )
        assert optimal.conversions == greedy.conversions == 0

    def test_never_worse_than_greedy(self):
        import random

        light = ("nat", "firewall", "load-balancer", "proxy",
                 "security-gateway")
        for seed in range(6):
            rng = random.Random(seed)
            names = tuple(rng.choice(light) for _ in range(5))
            chain = make_chain(names, chain_id=f"chain-{seed}")
            capacity = pool(cpu=rng.choice([1, 2, 4]), count=2)
            optimal = PlacementSolver(dict(capacity)).solve(
                chain, PlacementAlgorithm.EXACT
            )
            greedy = PlacementSolver(dict(capacity)).solve(
                chain, PlacementAlgorithm.GREEDY
            )
            assert optimal.conversions <= greedy.conversions

    def test_prefers_fewer_optical_on_tie(self):
        # Everything fits, but zero conversions needs all positions; a tie
        # at equal conversions prefers fewer optical deployments.
        chain = make_chain(("nat",))
        placement = PlacementSolver(pool()).solve(
            chain, PlacementAlgorithm.EXACT
        )
        assert placement.conversions == 0
        assert placement.optical_count == 1

    def test_position_limit(self):
        # Past the subset search's 14 movable positions EXACT answers
        # with the MILP.
        chain = make_chain(("nat",) * 15)
        capacity = {"ops-0": ResourceVector(2, 8, 64)}
        for merge, conversions, optical in ((False, 11, 4), (True, 1, 0)):
            placement = PlacementSolver(
                dict(capacity), merge_consecutive=merge
            ).solve(chain, PlacementAlgorithm.EXACT)
            assert placement == exact_chain_placement(
                chain, dict(capacity), merge_consecutive=merge
            )
            assert placement.conversions == conversions
            assert placement.optical_count == optical

    @pytest.mark.parametrize("merge", [False, True])
    def test_matches_subset_search_up_to_fourteen_positions(self, merge):
        # Up to the cap EXACT is the subset search, bit for bit: the
        # same optical positions on the same routers.
        import random

        names = ("nat", "firewall", "load-balancer", "proxy",
                 "security-gateway", "cache", "dpi")
        rng = random.Random(29 if merge else 31)
        for length in (1, 2, 3, 5, 8, 14):
            for trial in range(1 if length == 14 else 3):
                chain = NetworkFunctionChain.from_names(
                    f"chain-{length}-{trial}",
                    [rng.choice(names) for _ in range(length)],
                    CATALOG,
                    anti_affinity=(
                        ((0, length - 1),) if length > 1 and trial == 2
                        else ()
                    ),
                )
                capacity = {
                    f"ops-{index}": ResourceVector(
                        rng.choice((1, 2, 4)), rng.choice((4, 8)), 64
                    )
                    for index in range(rng.randint(0, 3))
                }
                placement = PlacementSolver(
                    dict(capacity), merge_consecutive=merge
                ).solve(chain, PlacementAlgorithm.EXACT)
                assert placement.optical_hosts() == _subset_search(
                    chain, capacity, merge
                )

    def test_bin_packing_split_across_routers(self):
        # Two 2-cpu routers; three VNFs of 1, 1, 2 cpu: feasible only by
        # packing {1, 1} together and {2} alone.
        capacity = {
            "ops-0": ResourceVector(2, 100, 100),
            "ops-1": ResourceVector(2, 100, 100),
        }
        chain = make_chain(("firewall", "load-balancer", "security-gateway"))
        placement = PlacementSolver(capacity).solve(
            chain, PlacementAlgorithm.EXACT
        )
        assert placement.conversions == 0
        hosts = placement.optical_hosts()
        assert len(hosts) == 3


class TestImprove:
    def test_fig8_improvement(self):
        chain = make_chain(("nat", "firewall", "dpi"))
        firewall = CATALOG.get("firewall")
        before = ChainPlacement(
            chain=chain,
            assignments=(
                PlacedVnf(0, chain.functions[0], Domain.ELECTRONIC, None),
                PlacedVnf(1, firewall, Domain.OPTICAL, "ops-0"),
                PlacedVnf(2, chain.functions[2], Domain.ELECTRONIC, None),
            ),
        )
        remaining = {
            "ops-0": ResourceVector(4, 8, 64) - firewall.demand
        }
        after = PlacementSolver(remaining).improve(before)
        assert before.conversions == 2
        assert after.conversions == 1
        assert after.optical_count == 2

    def test_improve_keeps_existing_assignments(self):
        chain = make_chain(("nat", "firewall"))
        before = ChainPlacement(
            chain=chain,
            assignments=(
                PlacedVnf(0, chain.functions[0], Domain.OPTICAL, "ops-9"),
                PlacedVnf(1, chain.functions[1], Domain.ELECTRONIC, None),
            ),
        )
        after = PlacementSolver(pool()).improve(before)
        assert after.optical_hosts()[0] == "ops-9"
        assert after.optical_count == 2

    def test_improve_with_no_capacity_is_identity(self):
        chain = make_chain(("nat", "firewall"))
        before = PlacementSolver({}).solve(
            chain, PlacementAlgorithm.ALL_ELECTRONIC
        )
        after = PlacementSolver({}).improve(before)
        assert after.domains() == before.domains()

    def test_improve_merged_moves_whole_runs(self):
        chain = make_chain(("nat", "firewall", "dpi"))
        before = PlacementSolver({}, merge_consecutive=True).solve(
            chain, PlacementAlgorithm.ALL_ELECTRONIC
        )
        after = PlacementSolver(
            pool(), merge_consecutive=True
        ).improve(before)
        # The run [nat, firewall, dpi] contains DPI (unpackable), so
        # nothing moves under excursion semantics.
        assert after.optical_count == 0

    def test_improve_merged_rejects_tie_objective_moves(self):
        # Regression: moving either flanking VNF around the unpackable
        # DPI leaves the excursion count at 1 — a tie, not an
        # improvement.  Tie swaps used to be committed, burning
        # capacity and letting repeated improve() calls cycle.
        chain = make_chain(("nat", "dpi", "firewall"))
        base = PlacementSolver({}, merge_consecutive=True).solve(
            chain, PlacementAlgorithm.ALL_ELECTRONIC
        )
        solver = PlacementSolver(pool(), merge_consecutive=True)
        after = solver.improve(base)
        assert after.conversions == base.conversions
        assert after.optical_count == 0

    def test_improve_converges_on_repeated_calls(self):
        # Repeated improve() on one solver reaches a fixed point: the
        # second call sees the same placement and identical domains.
        chain = make_chain(("nat", "dpi", "firewall"))
        base = PlacementSolver({}, merge_consecutive=True).solve(
            chain, PlacementAlgorithm.ALL_ELECTRONIC
        )
        solver = PlacementSolver(pool(), merge_consecutive=True)
        once = solver.improve(base)
        twice = solver.improve(once)
        assert twice.domains() == once.domains()
        assert twice.optical_hosts() == once.optical_hosts()

    def test_improve_commits_consumed_capacity(self):
        # Regression: committed moves must be deducted from the
        # solver's own snapshot — a second improve() from the same
        # starting placement must not re-spend the capacity the first
        # call consumed.
        capacity = {"ops-0": ResourceVector(2, 4, 8)}  # one run's worth
        chain = make_chain(("nat", "firewall"))
        base = PlacementSolver({}, merge_consecutive=True).solve(
            chain, PlacementAlgorithm.ALL_ELECTRONIC
        )
        solver = PlacementSolver(capacity, merge_consecutive=True)
        first = solver.improve(base)
        assert first.optical_count == 2
        assert first.conversions == 0
        second = solver.improve(base)
        assert second.optical_count == 0  # snapshot already spent


class TestHostPolicy:
    def _pool4(self):
        return {
            f"ops-{i}": ResourceVector(4, 16, 64) for i in range(4)
        }

    def test_first_fit_consolidates(self):
        chain = make_chain(("nat", "firewall", "load-balancer", "proxy"))
        placement = PlacementSolver(self._pool4()).solve(chain)
        assert placement.optical_host_count == 1

    def test_worst_fit_spreads(self):
        from repro.core.placement import HostPolicy

        chain = make_chain(("nat", "firewall", "load-balancer", "proxy"))
        placement = PlacementSolver(
            self._pool4(), host_policy=HostPolicy.WORST_FIT
        ).solve(chain)
        assert placement.optical_host_count == 4

    def test_best_fit_prefers_tightest(self):
        from repro.core.placement import HostPolicy

        capacity = {
            "ops-0": ResourceVector(8, 64, 64),
            "ops-1": ResourceVector(1, 64, 64),  # tight but sufficient
        }
        chain = make_chain(("nat",))  # 0.5 cpu
        placement = PlacementSolver(
            capacity, host_policy=HostPolicy.BEST_FIT
        ).solve(chain)
        assert placement.optical_hosts()[0] == "ops-1"

    def test_policy_never_changes_conversions(self):
        from repro.core.placement import HostPolicy

        chain = make_chain(
            ("nat", "firewall", "dpi", "load-balancer", "proxy")
        )
        results = {
            policy: PlacementSolver(
                self._pool4(), host_policy=policy
            ).solve(chain).conversions
            for policy in HostPolicy
        }
        assert len(set(results.values())) == 1

    def test_worst_fit_balances_load(self):
        from repro.core.placement import HostPolicy

        chain = make_chain(("nat",) * 4)
        pool = self._pool4()
        placement = PlacementSolver(
            dict(pool), host_policy=HostPolicy.WORST_FIT
        ).solve(chain)
        hosts = list(placement.optical_hosts().values())
        # Four equal routers, four equal VNFs: one each.
        assert sorted(hosts) == sorted(pool)

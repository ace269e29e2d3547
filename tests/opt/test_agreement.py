"""Seeded greedy-vs-exact agreement suite.

The acceptance contract for the exact baselines: on instances the
branch-and-bound certifies, the exact objective never exceeds the
greedy one; whenever greedy achieves the certified optimum the result
objects are interchangeable (bit-identical for digest tooling); and
the exact entry points honor the same validation contracts as the
greedy paths — including through the ``engine=`` selector and
``EngineConfig.solver``, which must reach every provision entry point.
"""

import asyncio
import random

import pytest

from repro.config import EngineConfig
from repro.core.abstraction_layer import AlConstructor
from repro.core.algorithms import greedy_max_weight_cover
from repro.core.chaining import ChainRequest, NetworkFunctionChain
from repro.core.placement import PlacementAlgorithm, PlacementSolver
from repro.core.tenancy import QuotaGuard, Tenant, TenantRegistry
from repro.exceptions import ValidationError
from repro.nfv.functions import FunctionCatalog
from repro.opt.cover import exact_weighted_cover_with_certificate
from repro.opt.placement import exact_chain_placement_with_certificate
from repro.service import ProvisionRequest
from repro.service.journal import read_journal
from repro.service.restore import restore_stack
from repro.service.snapshot import state_digest
from repro.stack import AlvcStack
from repro.topology.builder import TopologyBuilder
from repro.topology.elements import ResourceVector
from repro.topology.generators import build_alvc_fabric
from repro.virtualization.vm_placement import PlacementStrategy

CATALOG = FunctionCatalog.standard()

#: Light, optical-capable functions the random chains draw from; DPI is
#: mixed in to force electronic excursions.
_NAMES = ("firewall", "nat", "load-balancer", "proxy", "dpi")


def _random_cover_instance(rng: random.Random):
    universe = frozenset(f"m-{i}" for i in range(rng.randint(4, 10)))
    members = sorted(universe)
    candidates = {}
    for index in range(rng.randint(3, 7)):
        size = rng.randint(1, max(1, len(members) // 2))
        candidates[f"t-{index}"] = frozenset(rng.sample(members, size))
    covered = frozenset().union(*candidates.values())
    leftovers = universe - covered
    if leftovers:
        victim = f"t-{rng.randrange(len(candidates))}"
        candidates[victim] = candidates[victim] | leftovers
    weights = {name: rng.randint(1, 9) for name in candidates}
    return universe, candidates, weights


class TestCoverAgreement:
    def test_exact_never_larger_than_greedy(self):
        rng = random.Random(7)
        for _ in range(40):
            universe, candidates, weights = _random_cover_instance(rng)
            greedy = greedy_max_weight_cover(universe, candidates, weights)
            exact, certificate = exact_weighted_cover_with_certificate(
                universe, candidates, weights
            )
            assert certificate.proven_optimal
            assert len(exact.selected) <= len(greedy.selected)
            assert certificate.lower_bound == float(len(exact.selected))
            # Both are genuine covers of the same universe.
            assert exact.universe == greedy.universe
            for result in (exact, greedy):
                covered = frozenset().union(
                    *(candidates[name] for name in result.selected)
                )
                assert covered == universe

    def test_identical_objectives_on_certified_ties(self):
        # Whenever greedy hits the certified optimum cardinality, the
        # two CoverResults carry interchangeable structure: identical
        # selected-step traces modulo greedy's skip steps.
        rng = random.Random(11)
        ties = 0
        for _ in range(40):
            universe, candidates, weights = _random_cover_instance(rng)
            greedy = greedy_max_weight_cover(universe, candidates, weights)
            exact, certificate = exact_weighted_cover_with_certificate(
                universe, candidates, weights
            )
            assert certificate.proven_optimal
            if len(exact.selected) == len(greedy.selected):
                ties += 1
                assert {
                    step.candidate for step in exact.steps
                } <= set(candidates)
        assert ties >= 10  # greedy is near-optimal on these sizes


def _random_placement_instance(rng: random.Random):
    length = rng.randint(2, 5)
    names = [rng.choice(_NAMES) for _ in range(length)]
    chain = NetworkFunctionChain.from_names(
        f"chain-{rng.randrange(10**6)}", names, CATALOG
    )
    pool = {
        f"ops-{index}": ResourceVector(
            rng.choice((1, 2, 4, 8)),
            rng.choice((2, 4, 8, 16)),
            rng.choice((8, 16, 64)),
        )
        for index in range(rng.randint(1, 3))
    }
    return chain, pool


class TestPlacementAgreement:
    @pytest.mark.parametrize("merge", [False, True])
    def test_exact_matches_certified_subset_search(self, merge):
        rng = random.Random(13 if merge else 17)
        for _ in range(25):
            chain, pool = _random_placement_instance(rng)
            optimal = PlacementSolver(
                dict(pool), merge_consecutive=merge
            ).solve(chain, PlacementAlgorithm.EXACT)
            greedy = PlacementSolver(
                dict(pool), merge_consecutive=merge
            ).solve(chain, PlacementAlgorithm.GREEDY)
            exact, certificate = exact_chain_placement_with_certificate(
                chain, dict(pool), merge_consecutive=merge
            )
            assert certificate.proven_optimal
            # Identical certified objectives.  Ties between optima may
            # pick different optical patterns, but whenever the domain
            # traces coincide the result objects are bit-identical —
            # hosts re-derive through the same exact packer.
            assert exact.conversions == optimal.conversions
            assert exact.conversions <= greedy.conversions
            if exact.domains() == optimal.domains():
                assert exact == optimal
            repeat, _ = exact_chain_placement_with_certificate(
                chain, dict(pool), merge_consecutive=merge
            )
            assert repeat == exact  # deterministic tie-breaking


class TestEngineContracts:
    def test_placement_solver_has_one_exact_algorithm(self):
        # One exact member, and no engine selector on the solver: the
        # orchestrator alone maps EngineConfig.solver to an algorithm.
        assert [algorithm.value for algorithm in PlacementAlgorithm] == [
            "all_electronic", "random", "greedy", "exact",
        ]
        with pytest.raises(TypeError):
            PlacementSolver({}, engine="exact")

    def test_constructor_engine_selector_validates(self):
        dcn = build_alvc_fabric(
            n_racks=2, servers_per_rack=2, n_ops=2, seed=0
        )
        with pytest.raises(ValidationError):
            AlConstructor(dcn, engine="milp")

    def test_engine_config_solver_validates(self):
        with pytest.raises(ValidationError):
            EngineConfig(solver="milp")
        assert EngineConfig(solver="exact").solver == "exact"

    def test_exact_engine_solver_defaults_to_exact_algorithm(self):
        stack = AlvcStack.build(
            n_racks=4, servers_per_rack=4, n_ops=6, seed=0,
            telemetry="json", engines=EngineConfig(solver="exact"),
        )
        stack.provision(("nat", "firewall"), service="web")
        stack.plan(("proxy",), service="web")
        registry = stack.telemetry.registry
        solved = "alvc_placements_solved_total"
        assert registry.value_of(solved, algorithm="exact") == 2
        assert registry.value_of(solved, algorithm="greedy") is None

    def test_exact_engine_constructor_builds_feasible_al(self):
        dcn = build_alvc_fabric(
            n_racks=4, servers_per_rack=3, n_ops=4,
            dual_homing_fraction=0.5, seed=3,
        )
        greedy_al = AlConstructor(dcn).construct_for_servers(
            "cluster-a", dcn.servers()
        )
        exact_al = AlConstructor(dcn, engine="exact").construct_for_servers(
            "cluster-a", dcn.servers()
        )
        assert exact_al.size <= greedy_al.size
        for server in dcn.servers():
            assert exact_al.connects(dcn.tors_of_server(server))


class TestStackDigestParity:
    def test_state_digest_identical_when_greedy_is_optimal(self):
        # The exact engine returns the same result objects, so the
        # canonical control-plane digest matches bit-for-bit whenever
        # both engines land on the same optimum.
        from repro.service.snapshot import state_digest
        from repro.stack import AlvcStack

        digests = {}
        for solver in ("greedy", "exact"):
            stack = AlvcStack.build(
                n_racks=4, servers_per_rack=4, n_ops=6, seed=0,
                engines=EngineConfig(solver=solver),
            )
            stack.provision(("firewall", "nat"), service="web")
            digests[solver] = state_digest(stack)
        assert digests["greedy"] == digests["exact"]


def _wide_stack(**options) -> AlvcStack:
    """A stack whose clusters span eight racks, one OPS per rack: every
    cluster's AL holds all eight optoelectronic routers."""
    builder = TopologyBuilder("wide")
    for ops in builder.add_optical_core(8, interconnect="ring"):
        builder.add_rack(servers=2, uplinks=[ops])
    return AlvcStack.build(
        fabric=builder.build(),
        placement_strategy=PlacementStrategy.ROUND_ROBIN,
        vms_per_service=16,
        **options,
    )


class TestSolverReachesEveryProvision:
    def test_auto_plan_previews_the_committed_placement(self):
        # Greedy first-fit and the exact packer host these four VNFs on
        # different routers, so a plan resolved by any other rule than
        # the provision's shows a placement the provision never makes.
        stack = _wide_stack(engines=EngineConfig(solver="auto"))
        cluster = stack.cluster("web")
        assert len(cluster.al_switches) >= 7
        request = ChainRequest(
            tenant="tenant-0",
            chain=NetworkFunctionChain.from_names(
                "chain-auto",
                ("load-balancer", "nat", "firewall", "security-gateway"),
                CATALOG,
            ),
            service="web",
        )
        plan = stack.orchestrator.plan_chain(request)
        live = stack.orchestrator.provision_chain(request)
        assert plan.placement == live.placement
        greedy = PlacementSolver(
            {
                ops: ResourceVector(4, 8, 64)
                for ops in cluster.al_switches
            }
        ).solve(request.chain, PlacementAlgorithm.GREEDY)
        assert live.placement != greedy

    def test_exact_solver_reaches_every_entry_point(self, tmp_path):
        path = tmp_path / "exact.alvc"
        stack = AlvcStack.build(
            n_racks=4, servers_per_rack=4, n_ops=6, seed=0,
            vms_per_service=3, exclusive_chains=False, sync="off",
            engines=EngineConfig(solver="exact"), journal=path,
        )
        stack.provision(("firewall", "nat"), service="web")
        stack.provision_batch(
            [ProvisionRequest(("proxy",), service="streaming")]
        )

        async def scenario():
            async with stack.serve() as frontend:
                return await frontend.submit(
                    ProvisionRequest(("nat", "firewall"), service="backup")
                )

        assert asyncio.run(scenario()).ok
        registry = TenantRegistry()
        registry.register(Tenant("gold"))
        QuotaGuard(registry, stack.orchestrator).provision_chain(
            ChainRequest(
                tenant="gold",
                chain=NetworkFunctionChain.from_names(
                    "chain-quota", ("load-balancer",), CATALOG
                ),
                service="web",
            )
        )
        digest = state_digest(stack)
        stack.journal.close()

        algorithms = [
            record.data["algorithm"]
            for record in read_journal(path).records
            if record.op == "provision"
        ]
        assert algorithms == ["exact"] * 4
        assert state_digest(restore_stack(path).stack) == digest

"""Tests for abstraction-layer construction, including Fig. 4."""

import pytest

from repro.core.abstraction_layer import (
    AlConstructionStrategy,
    AlConstructor,
)
from repro.exceptions import CoverInfeasibleError, TopologyError
from repro.topology.generators import build_alvc_fabric


class TestFig4WorkedExample:
    """The paper's Section III.C walk-through, step by step."""

    @pytest.fixture
    def layer(self, paper_dcn):
        constructor = AlConstructor(paper_dcn)
        return constructor.construct_for_servers(
            "cluster-fig4", paper_dcn.servers()
        )

    def test_tor1_selected_first(self, layer):
        # "our algorithm selects first ToR 1 as it has four incoming
        # connections and two outgoing".
        first_step = layer.tor_trace.steps[0]
        assert first_step.candidate == "tor-0"
        assert first_step.weight == 6
        assert first_step.selected

    def test_tor2_tried_and_skipped(self, layer):
        # "After this, it tries to select ToR 2 and notices that machines
        # against this switch are already connected by ToR 1."
        second_step = layer.tor_trace.steps[1]
        assert second_step.candidate == "tor-1"
        assert not second_step.selected
        assert second_step.newly_covered == frozenset()

    def test_tor3_completes_cover(self, layer):
        # "Next, it selects TOR 3 and notice that all the machines are
        # being covered."
        third_step = layer.tor_trace.steps[2]
        assert third_step.candidate == "tor-2"
        assert third_step.selected
        assert layer.tor_trace.selection_order() == ["tor-0", "tor-2"]

    def test_tor_n_never_considered(self, layer):
        assert "tor-3" not in layer.tor_trace.considered_order()

    def test_ops_stage_covers_selected_tors(self, layer, paper_dcn):
        for tor in layer.tor_ids:
            assert set(paper_dcn.ops_of_tor(tor)) & layer.ops_ids

    def test_final_al(self, layer):
        assert sorted(layer.ops_ids) == ["ops-0", "ops-2"]
        assert layer.size == 2

    def test_al_size_is_minimum(self, paper_dcn):
        exact = AlConstructor(
            paper_dcn, strategy=AlConstructionStrategy.EXACT
        ).construct_for_servers("cluster-x", paper_dcn.servers())
        greedy = AlConstructor(paper_dcn).construct_for_servers(
            "cluster-x", paper_dcn.servers()
        )
        assert greedy.size == exact.size

    def test_connects_predicate(self, layer, paper_dcn):
        for server in paper_dcn.servers():
            assert layer.connects(paper_dcn.tors_of_server(server))
        assert not layer.connects(["tor-3"])


class TestCoverageInvariant:
    @pytest.mark.parametrize("strategy", list(AlConstructionStrategy))
    def test_every_machine_reachable(self, small_fabric, strategy):
        constructor = AlConstructor(small_fabric, strategy=strategy, seed=1)
        layer = constructor.construct_for_servers(
            "cluster-x", small_fabric.servers()
        )
        for server in small_fabric.servers():
            tors = set(small_fabric.tors_of_server(server))
            assert tors & layer.tor_ids, f"{server} not covered"
        for tor in layer.tor_ids:
            assert set(small_fabric.ops_of_tor(tor)) & layer.ops_ids

    @pytest.mark.parametrize("strategy", list(AlConstructionStrategy))
    def test_subset_of_machines(self, small_fabric, strategy):
        servers = small_fabric.servers()[:4]
        constructor = AlConstructor(small_fabric, strategy=strategy, seed=2)
        layer = constructor.construct_for_servers("cluster-x", servers)
        for server in servers:
            assert set(small_fabric.tors_of_server(server)) & layer.tor_ids


class TestAvailableOpsRestriction:
    def test_restricted_pool_respected(self, paper_dcn):
        constructor = AlConstructor(paper_dcn)
        layer = constructor.construct_for_servers(
            "cluster-x",
            paper_dcn.servers(),
            available_ops=["ops-1", "ops-2", "ops-3"],
        )
        assert layer.ops_ids <= {"ops-1", "ops-2", "ops-3"}

    def test_exhausted_pool_raises(self, paper_dcn):
        constructor = AlConstructor(paper_dcn)
        # ops-1 cannot reach tor-2/tor-3's machines side: tor-2 uplinks
        # are ops-2/ops-3 only, so covering the selected ToRs fails.
        with pytest.raises(CoverInfeasibleError):
            constructor.construct_for_servers(
                "cluster-x", paper_dcn.servers(), available_ops=["ops-1"]
            )

    def test_weight_counts_only_available_uplinks(self, paper_dcn):
        constructor = AlConstructor(paper_dcn)
        # With ops-0 removed from the pool, tor-0's weight drops to 5
        # (4 machines + 1 uplink).
        layer = constructor.construct_for_servers(
            "cluster-x",
            paper_dcn.servers(),
            available_ops=["ops-1", "ops-2", "ops-3"],
        )
        first = layer.tor_trace.steps[0]
        assert first.candidate == "tor-0"
        assert first.weight == 5


class TestErrors:
    def test_empty_cluster_rejected(self, paper_dcn):
        with pytest.raises(TopologyError):
            AlConstructor(paper_dcn).construct("cluster-x", {})

    def test_machine_without_tor_infeasible(self, paper_dcn):
        with pytest.raises(CoverInfeasibleError):
            AlConstructor(paper_dcn).construct(
                "cluster-x", {"vm-0": []}
            )


class TestStrategies:
    def test_random_varies_with_seed(self, medium_fabric):
        sizes = set()
        for seed in range(8):
            layer = AlConstructor(
                medium_fabric,
                strategy=AlConstructionStrategy.RANDOM,
                seed=seed,
            ).construct_for_servers("cluster-x", medium_fabric.servers())
            sizes.add(tuple(sorted(layer.ops_ids)))
        assert len(sizes) > 1

    def test_greedy_deterministic(self, medium_fabric):
        layers = [
            AlConstructor(medium_fabric).construct_for_servers(
                "cluster-x", medium_fabric.servers()
            )
            for _ in range(2)
        ]
        assert layers[0].ops_ids == layers[1].ops_ids

    def test_exact_never_larger_than_others(self, small_fabric):
        exact = AlConstructor(
            small_fabric, strategy=AlConstructionStrategy.EXACT
        ).construct_for_servers("cluster-x", small_fabric.servers())
        for strategy in (
            AlConstructionStrategy.VERTEX_COVER_GREEDY,
            AlConstructionStrategy.MARGINAL_GREEDY,
            AlConstructionStrategy.RANDOM,
        ):
            other = AlConstructor(
                small_fabric, strategy=strategy, seed=3
            ).construct_for_servers("cluster-x", small_fabric.servers())
            assert exact.size <= other.size

    def test_exact_beyond_24_candidates(self):
        # 32 ToR candidates: past what a subset search can enumerate,
        # routine for the cover MILP.
        fabric = build_alvc_fabric(
            n_racks=32, n_ops=12, servers_per_rack=2, seed=0
        )
        exact = AlConstructor(
            fabric, strategy=AlConstructionStrategy.EXACT
        ).construct_for_servers("cluster-x", fabric.servers())
        greedy = AlConstructor(fabric).construct_for_servers(
            "cluster-x", fabric.servers()
        )
        for server in fabric.servers():
            assert set(fabric.tors_of_server(server)) & exact.tor_ids
        assert exact.size <= greedy.size

    def test_strategy_recorded_on_layer(self, small_fabric):
        layer = AlConstructor(
            small_fabric, strategy=AlConstructionStrategy.MARGINAL_GREEDY
        ).construct_for_servers("cluster-x", small_fabric.servers())
        assert layer.strategy is AlConstructionStrategy.MARGINAL_GREEDY


class TestInDegreeAblation:
    """DESIGN.md §6: in-degree-only weight ablation of the greedy."""

    def test_valid_cover(self, medium_fabric):
        layer = AlConstructor(
            medium_fabric,
            strategy=AlConstructionStrategy.IN_DEGREE_GREEDY,
        ).construct_for_servers("cluster-x", medium_fabric.servers())
        for server in medium_fabric.servers():
            assert set(medium_fabric.tors_of_server(server)) & layer.tor_ids

    def test_can_differ_from_full_weight(self, paper_dcn):
        # On Fig. 4 the in-degree order is the same (tor-0 still wins on
        # 4 machines), so both converge to the same AL — the ablation
        # differs on fabrics where OPS degree breaks ties.
        full = AlConstructor(paper_dcn).construct_for_servers(
            "cluster-x", paper_dcn.servers()
        )
        ablated = AlConstructor(
            paper_dcn, strategy=AlConstructionStrategy.IN_DEGREE_GREEDY
        ).construct_for_servers("cluster-x", paper_dcn.servers())
        assert ablated.ops_ids == full.ops_ids

    def test_weight_excludes_uplinks(self, paper_dcn):
        layer = AlConstructor(
            paper_dcn, strategy=AlConstructionStrategy.IN_DEGREE_GREEDY
        ).construct_for_servers("cluster-x", paper_dcn.servers())
        first = layer.tor_trace.steps[0]
        assert first.candidate == "tor-0"
        assert first.weight == 4  # machines only, no +2 uplinks

    def test_exact_still_lower_bound(self, small_fabric):
        exact = AlConstructor(
            small_fabric, strategy=AlConstructionStrategy.EXACT
        ).construct_for_servers("cluster-x", small_fabric.servers())
        ablated = AlConstructor(
            small_fabric,
            strategy=AlConstructionStrategy.IN_DEGREE_GREEDY,
        ).construct_for_servers("cluster-x", small_fabric.servers())
        assert exact.size <= ablated.size

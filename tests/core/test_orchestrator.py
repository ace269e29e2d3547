"""Tests for the network orchestrator (end-to-end NFC management)."""

import pytest

from repro.core.chaining import ChainRequest, NetworkFunctionChain
from repro.core.orchestrator import NetworkOrchestrator
from repro.core.placement import PlacementAlgorithm
from repro.exceptions import DuplicateEntityError, UnknownEntityError
from repro.nfv.functions import FunctionCatalog
from repro.topology.elements import Domain


CATALOG = FunctionCatalog.standard()


@pytest.fixture
def orchestrator(populated_inventory):
    orch = NetworkOrchestrator(populated_inventory)
    for service in ("web", "map-reduce", "sns"):
        orch.cluster_manager.create_cluster(service)
    return orch


def make_request(names=("firewall", "nat"), service="web",
                 chain_id="chain-0"):
    chain = NetworkFunctionChain.from_names(chain_id, names, CATALOG)
    return ChainRequest(tenant="tenant-0", chain=chain, service=service)


class TestProvision:
    def test_basic_provision(self, orchestrator):
        live = orchestrator.provision_chain(make_request())
        assert live.chain_id == "chain-0"
        assert len(live.vnf_ids) == 2
        assert live.optical_slice.cluster == "cluster-web"
        assert orchestrator.chains() == [live]

    def test_light_functions_deploy_optically(self, orchestrator):
        live = orchestrator.provision_chain(make_request(("firewall", "nat")))
        assert live.placement.optical_count == 2
        assert live.conversions == 0
        for vnf in live.vnf_ids:
            instance = orchestrator.nfv_manager.instance_of(vnf)
            assert instance.domain is Domain.OPTICAL
            assert instance.host in live.cluster.al_switches

    def test_heavy_function_deploys_electronically(self, orchestrator):
        live = orchestrator.provision_chain(make_request(("dpi",)))
        instance = orchestrator.nfv_manager.instance_of(live.vnf_ids[0])
        assert instance.domain is Domain.ELECTRONIC
        assert instance.host.startswith("server")
        assert live.conversions == 1

    def test_path_stays_inside_al(self, orchestrator):
        live = orchestrator.provision_chain(make_request(("firewall", "dpi")))
        for node in live.path:
            if node.startswith("ops"):
                assert node in live.cluster.al_switches

    def test_flow_rules_installed(self, orchestrator):
        live = orchestrator.provision_chain(make_request(("firewall", "dpi")))
        if len(live.path) >= 2:
            assert orchestrator.sdn.has_flow(live.chain_id)

    def test_duplicate_chain_id_rejected(self, orchestrator):
        orchestrator.provision_chain(make_request())
        with pytest.raises(DuplicateEntityError):
            orchestrator.provision_chain(make_request(service="sns"))

    def test_one_chain_per_cluster(self, orchestrator):
        orchestrator.provision_chain(make_request())
        with pytest.raises(DuplicateEntityError):
            orchestrator.provision_chain(
                make_request(chain_id="chain-1", service="web")
            )

    def test_unknown_service_rejected(self, orchestrator):
        with pytest.raises(UnknownEntityError):
            orchestrator.provision_chain(make_request(service="backup"))

    def test_placement_algorithm_honoured(self, orchestrator):
        live = orchestrator.provision_chain(
            make_request(("firewall", "nat")),
            algorithm=PlacementAlgorithm.ALL_ELECTRONIC,
        )
        assert live.placement.optical_count == 0
        assert live.conversions == 2

    def test_slice_released_on_deploy_failure(self, orchestrator):
        # An impossible chain (no server fits 100 DPIs worth of demand
        # in a single VNF) must not leak its slice.
        from repro.nfv.functions import NetworkFunctionType
        from repro.topology.elements import ResourceVector

        giant = NetworkFunctionType(
            "giant", ResourceVector(cpu_cores=10_000)
        )
        chain = NetworkFunctionChain(
            chain_id="chain-giant", functions=(giant,)
        )
        request = ChainRequest(
            tenant="tenant-0", chain=chain, service="web"
        )
        with pytest.raises(Exception):
            orchestrator.provision_chain(request)
        # The web cluster can still get a slice afterwards.
        live = orchestrator.provision_chain(make_request())
        assert live.optical_slice.cluster == "cluster-web"


class TestLifecycle:
    def test_upgrade_touches_every_vnf(self, orchestrator):
        live = orchestrator.provision_chain(make_request())
        count = orchestrator.upgrade_chain(live.chain_id)
        assert count == 2
        events = orchestrator.nfv_manager.lifecycle.event_counts()
        assert events["updating"] == 2

    def test_modify_replaces_chain(self, orchestrator):
        orchestrator.provision_chain(make_request())
        new_chain = NetworkFunctionChain.from_names(
            "chain-0b", ("nat",), CATALOG
        )
        live = orchestrator.modify_chain("chain-0", new_chain)
        assert live.chain_id == "chain-0b"
        with pytest.raises(UnknownEntityError):
            orchestrator.chain("chain-0")

    def test_delete_cleans_everything(self, orchestrator):
        live = orchestrator.provision_chain(make_request(("firewall", "dpi")))
        pool_before = orchestrator.nfv_manager.pool.total_free()
        orchestrator.teardown_chain(live.chain_id)
        assert orchestrator.chains() == []
        assert orchestrator.sdn.total_rules() == 0
        assert not orchestrator.sdn.has_flow(live.chain_id)
        # Optical capacity restored.
        assert (
            orchestrator.nfv_manager.pool.total_free().cpu_cores
            >= pool_before.cpu_cores
        )
        # Slice free again: re-provision succeeds.
        orchestrator.provision_chain(make_request(chain_id="chain-2"))

    def test_delete_unknown_raises(self, orchestrator):
        with pytest.raises(UnknownEntityError), pytest.warns(
            DeprecationWarning, match="teardown_chain"
        ):
            orchestrator.delete_chain("chain-9")

    def test_action_log_order(self, orchestrator):
        live = orchestrator.provision_chain(make_request())
        orchestrator.upgrade_chain(live.chain_id)
        orchestrator.teardown_chain(live.chain_id)
        actions = [action for action, _ in orchestrator.action_log()]
        assert actions == ["provision", "upgrade", "delete"]


class TestMultiTenant:
    def test_three_tenants_isolated(self, orchestrator):
        chains = []
        for index, service in enumerate(("web", "map-reduce", "sns")):
            chains.append(
                orchestrator.provision_chain(
                    make_request(
                        ("firewall",),
                        service=service,
                        chain_id=f"chain-{index}",
                    )
                )
            )
        orchestrator.slice_allocator.verify_isolation()
        switch_sets = [live.optical_slice.switches for live in chains]
        for i in range(3):
            for j in range(i + 1, 3):
                assert not (switch_sets[i] & switch_sets[j])


class TestSharedSliceMode:
    """Per-user/per-application chaining (Section IV.A): several chains
    over one cluster, sharing its optical slice."""

    @pytest.fixture
    def shared(self, populated_inventory):
        orch = NetworkOrchestrator(
            populated_inventory, exclusive_chains=False
        )
        orch.cluster_manager.create_cluster("web")
        return orch

    def test_two_chains_share_one_slice(self, shared):
        first = shared.provision_chain(make_request(chain_id="chain-a"))
        second = shared.provision_chain(
            make_request(("nat",), chain_id="chain-b")
        )
        assert (
            first.optical_slice.slice_id == second.optical_slice.slice_id
        )
        assert len(shared.slice_allocator.slices()) == 1

    def test_slice_survives_partial_deletion(self, shared):
        shared.provision_chain(make_request(chain_id="chain-a"))
        shared.provision_chain(make_request(("nat",), chain_id="chain-b"))
        shared.teardown_chain("chain-a")
        assert len(shared.slice_allocator.slices()) == 1
        # The remaining chain is still live and addressable.
        assert shared.chain("chain-b")

    def test_slice_released_with_last_chain(self, shared):
        shared.provision_chain(make_request(chain_id="chain-a"))
        shared.provision_chain(make_request(("nat",), chain_id="chain-b"))
        shared.teardown_chain("chain-a")
        shared.teardown_chain("chain-b")
        assert shared.slice_allocator.slices() == []
        # A fresh chain re-allocates cleanly.
        shared.provision_chain(make_request(chain_id="chain-c"))

    def test_exclusive_mode_still_default(self, populated_inventory):
        orch = NetworkOrchestrator(populated_inventory)
        orch.cluster_manager.create_cluster("web")
        orch.provision_chain(make_request(chain_id="chain-a"))
        with pytest.raises(DuplicateEntityError):
            orch.provision_chain(make_request(("nat",), chain_id="chain-b"))


class TestPlanChain:
    """Dry-run admission control."""

    def test_feasible_plan(self, orchestrator):
        plan = orchestrator.plan_chain(make_request())
        assert plan.feasible
        assert plan.problems == ()
        assert plan.conversions == 0  # firewall + nat both go optical
        assert plan.placement.optical_count == 2

    def test_plan_does_not_mutate(self, orchestrator):
        pool_before = orchestrator.nfv_manager.pool.total_free()
        orchestrator.plan_chain(make_request(("firewall", "dpi")))
        assert orchestrator.nfv_manager.pool.total_free() == pool_before
        assert orchestrator.slice_allocator.slices() == []
        assert orchestrator.chains() == []

    def test_plan_then_provision_agrees(self, orchestrator):
        plan = orchestrator.plan_chain(make_request(("firewall", "dpi")))
        live = orchestrator.provision_chain(make_request(("firewall", "dpi")))
        assert plan.feasible
        assert plan.conversions == live.conversions

    def test_unknown_service_infeasible(self, orchestrator):
        plan = orchestrator.plan_chain(make_request(service="backup"))
        assert not plan.feasible
        assert any("no cluster" in problem for problem in plan.problems)

    def test_occupied_cluster_infeasible_in_exclusive_mode(
        self, orchestrator
    ):
        orchestrator.provision_chain(make_request())
        plan = orchestrator.plan_chain(
            make_request(chain_id="chain-x")
        )
        assert not plan.feasible
        assert any("already hosts" in problem for problem in plan.problems)

    def test_duplicate_chain_id_flagged(self, orchestrator):
        orchestrator.provision_chain(make_request())
        plan = orchestrator.plan_chain(make_request(service="sns"))
        assert not plan.feasible
        assert any("already in use" in p for p in plan.problems)

    def test_impossible_vnf_flagged(self, orchestrator):
        from repro.nfv.functions import NetworkFunctionType
        from repro.topology.elements import ResourceVector

        giant = NetworkFunctionType(
            "giant", ResourceVector(cpu_cores=10_000)
        )
        chain = NetworkFunctionChain(
            chain_id="chain-giant", functions=(giant,)
        )
        plan = orchestrator.plan_chain(
            ChainRequest(tenant="t", chain=chain, service="web")
        )
        assert not plan.feasible
        assert any("no server" in p for p in plan.problems)
        assert plan.conversions == 1  # placement preview still computed


class TestVmMigration:
    """Operational churn: migrate a VM, repair the AL, reroute chains."""

    def _far_server(self, inventory, vm):
        current = inventory.host_of(vm)
        current_rack = inventory.network.spec_of(current).rack
        demand = inventory.get(vm).demand
        return next(
            server
            for server in inventory.network.servers()
            if inventory.network.spec_of(server).rack != current_rack
            and demand.fits_within(inventory.remaining_capacity(server))
        )

    def test_migration_repairs_and_reroutes(
        self, orchestrator, populated_inventory
    ):
        live = orchestrator.provision_chain(make_request(("firewall", "dpi")))
        vm = sorted(live.cluster.vm_ids)[0]
        target = self._far_server(populated_inventory, vm)
        result = orchestrator.handle_vm_migration(vm, target)
        assert result["chains_rerouted"] == 1
        assert populated_inventory.host_of(vm) == target
        updated = orchestrator.chain(live.chain_id)
        # The repaired AL covers the new host's ToR.
        new_tors = set(populated_inventory.network.tors_of_server(target))
        assert new_tors & updated.cluster.tor_switches
        # Path OPS hops stay within the (extended) slice.
        for node in updated.path:
            if node.startswith("ops"):
                assert node in updated.optical_slice.switches
        orchestrator.slice_allocator.verify_isolation()

    def test_slice_extended_with_al(
        self, orchestrator, populated_inventory
    ):
        live = orchestrator.provision_chain(make_request())
        vm = sorted(live.cluster.vm_ids)[0]
        target = self._far_server(populated_inventory, vm)
        orchestrator.handle_vm_migration(vm, target)
        updated = orchestrator.chain(live.chain_id)
        assert (
            updated.cluster.al_switches <= updated.optical_slice.switches
        )

    def test_migration_without_chain(
        self, orchestrator, populated_inventory
    ):
        cluster = orchestrator.cluster_manager.cluster_of_service("sns")
        vm = sorted(cluster.vm_ids)[0]
        target = self._far_server(populated_inventory, vm)
        result = orchestrator.handle_vm_migration(vm, target)
        assert result["chains_rerouted"] == 0

    def test_same_rack_migration_touches_nothing(
        self, orchestrator, populated_inventory
    ):
        cluster = orchestrator.cluster_manager.cluster_of_service("web")
        vm = sorted(cluster.vm_ids)[0]
        current = populated_inventory.host_of(vm)
        rack = populated_inventory.network.spec_of(current).rack
        demand = populated_inventory.get(vm).demand
        sibling = next(
            (
                server
                for server in populated_inventory.network.servers()
                if server != current
                and populated_inventory.network.spec_of(server).rack == rack
                and demand.fits_within(
                    populated_inventory.remaining_capacity(server)
                )
            ),
            None,
        )
        if sibling is None:
            pytest.skip("no same-rack sibling with capacity")
        result = orchestrator.handle_vm_migration(vm, sibling)
        assert result["switches_touched"] == 0

    def test_migration_to_full_server_fails_cleanly(
        self, orchestrator, populated_inventory
    ):
        from repro.exceptions import PlacementError
        from repro.nfv.manager import NFV_INFRA_SERVICE

        cluster = orchestrator.cluster_manager.cluster_of_service("web")
        vm = sorted(cluster.vm_ids)[0]
        current = populated_inventory.host_of(vm)
        target = self._far_server(populated_inventory, vm)
        blocker = populated_inventory.create_vm(
            NFV_INFRA_SERVICE,
            populated_inventory.remaining_capacity(target),
        )
        populated_inventory.place(blocker, target)
        with pytest.raises(PlacementError):
            orchestrator.handle_vm_migration(vm, target)
        assert populated_inventory.host_of(vm) == current


class TestCostReport:
    def test_rows_per_live_chain(self, orchestrator):
        orchestrator.provision_chain(make_request(("firewall", "nat")))
        orchestrator.provision_chain(
            make_request(("dpi",), service="sns", chain_id="chain-1")
        )
        rows = orchestrator.cost_report()
        assert len(rows) == 2
        by_chain = {row["chain"]: row for row in rows}
        assert by_chain["chain-0"]["conversions_per_flow"] == 0
        assert by_chain["chain-0"]["cost_per_flow"] == 0
        assert by_chain["chain-1"]["conversions_per_flow"] == 1
        assert by_chain["chain-1"]["cost_per_flow"] > 0

    def test_empty_when_no_chains(self, orchestrator):
        assert orchestrator.cost_report() == []

    def test_custom_model_scales_cost(self, orchestrator):
        from repro.optical.conversion import ConversionModel

        orchestrator.provision_chain(make_request(("dpi",)))
        cheap = orchestrator.cost_report(ConversionModel(cost_per_gb=1.0))
        pricey = orchestrator.cost_report(ConversionModel(cost_per_gb=5.0))
        assert pricey[0]["cost_per_flow"] == pytest.approx(
            5 * cheap[0]["cost_per_flow"]
        )

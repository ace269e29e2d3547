"""Tests for the Cloud/NFV manager."""

import pytest

from repro.exceptions import PlacementError, UnknownEntityError
from repro.nfv.lifecycle import VnfState
from repro.nfv.manager import NFV_INFRA_SERVICE, CloudNfvManager
from repro.topology.elements import Domain


@pytest.fixture
def manager(populated_inventory):
    return CloudNfvManager(populated_inventory)


class TestOpticalDeployment:
    def test_deploy_optical_first_fit(self, manager):
        instance = manager.deploy_optical("firewall")
        assert instance.domain is Domain.OPTICAL
        assert instance.host in manager.pool.host_ids()
        assert manager.state_of(instance.vnf_id) is VnfState.RUNNING

    def test_deploy_optical_specific_router(self, manager):
        router = manager.pool.host_ids()[1]
        instance = manager.deploy_optical("nat", ops=router)
        assert instance.host == router

    def test_capacity_charged(self, manager):
        before = manager.pool.total_free()
        instance = manager.deploy_optical("firewall")
        after = manager.pool.total_free()
        assert after == before - instance.function.demand

    def test_heavy_function_rejected_when_nothing_fits(self, manager):
        # DPI exceeds every optoelectronic router's capacity.
        with pytest.raises(PlacementError):
            manager.deploy_optical("dpi")

    def test_unknown_function_raises(self, manager):
        with pytest.raises(UnknownEntityError):
            manager.deploy_optical("nope")


class TestElectronicDeployment:
    def test_deploy_electronic_uses_carrier_vm(
        self, manager, populated_inventory
    ):
        vm_count = len(populated_inventory)
        instance = manager.deploy_electronic("dpi")
        assert instance.domain is Domain.ELECTRONIC
        assert len(populated_inventory) == vm_count + 1
        carriers = populated_inventory.vms_of_service(
            NFV_INFRA_SERVICE.name
        )
        assert len(carriers) == 1
        assert carriers[0].demand == instance.function.demand

    def test_deploy_electronic_specific_server(
        self, manager, populated_inventory
    ):
        server = populated_inventory.network.servers()[5]
        instance = manager.deploy_electronic("firewall", server=server)
        assert instance.host == server

    def test_deploy_electronic_rolls_back_on_failure(
        self, manager, populated_inventory
    ):
        vm_count = len(populated_inventory)
        server = populated_inventory.network.servers()[0]
        # Exhaust that server first.
        capacity = populated_inventory.remaining_capacity(server)
        blocker = populated_inventory.create_vm(NFV_INFRA_SERVICE, capacity)
        populated_inventory.place(blocker, server)
        with pytest.raises(PlacementError):
            manager.deploy_electronic("dpi", server=server)
        # The carrier VM of the failed deployment is cleaned up.
        assert len(populated_inventory) == vm_count + 1  # only the blocker


class TestLifecycleOperations:
    def test_scale_updates_reservation(self, manager):
        instance = manager.deploy_optical("firewall")
        host = manager.pool.get(instance.host)
        used_before = host.used
        scaled = manager.scale(instance.vnf_id, 2.0)
        assert scaled.function.demand == instance.function.demand.scaled(2.0)
        assert host.used == used_before + instance.function.demand
        assert manager.state_of(instance.vnf_id) is VnfState.RUNNING

    def test_scale_electronic(self, manager, populated_inventory):
        instance = manager.deploy_electronic("firewall")
        scaled = manager.scale(instance.vnf_id, 3.0)
        carriers = populated_inventory.vms_of_service(NFV_INFRA_SERVICE.name)
        assert carriers[0].demand == scaled.function.demand

    def test_scale_beyond_capacity_restores_state(self, manager):
        instance = manager.deploy_optical("security-gateway")
        host = manager.pool.get(instance.host)
        used_before = host.used
        counts_before = manager.lifecycle.event_counts()
        with pytest.raises(PlacementError):
            manager.scale(instance.vnf_id, 100.0)
        assert host.used == used_before
        # VNF is back to RUNNING despite the failed scale, and the
        # failed command left no transition count behind.
        assert manager.state_of(instance.vnf_id) is VnfState.RUNNING
        assert manager.lifecycle.event_counts() == counts_before

    def test_invalid_scale_factor(self, manager):
        instance = manager.deploy_optical("nat")
        with pytest.raises(ValueError):
            manager.scale(instance.vnf_id, 0)

    def test_update_round_trip(self, manager):
        instance = manager.deploy_optical("nat")
        manager.update(instance.vnf_id)
        assert manager.state_of(instance.vnf_id) is VnfState.RUNNING
        events = manager.lifecycle.event_counts()
        assert events["updating"] == 1

    def test_terminate_optical_releases_capacity(self, manager):
        before = manager.pool.total_free()
        instance = manager.deploy_optical("firewall")
        manager.terminate(instance.vnf_id)
        assert manager.pool.total_free() == before
        # The record goes with the VNF; its lifecycle counts the end.
        with pytest.raises(UnknownEntityError):
            manager.state_of(instance.vnf_id)
        with pytest.raises(UnknownEntityError):
            manager.instance_of(instance.vnf_id)
        assert manager.lifecycle.event_counts()["terminated"] == 1
        with pytest.raises(UnknownEntityError):
            manager.terminate(instance.vnf_id)
        assert manager.lifecycle.event_counts()["terminated"] == 1

    def test_terminate_electronic_removes_carrier(
        self, manager, populated_inventory
    ):
        vm_count = len(populated_inventory)
        instance = manager.deploy_electronic("dpi")
        manager.terminate(instance.vnf_id)
        assert len(populated_inventory) == vm_count


class TestQueries:
    def test_instance_of_unknown_raises(self, manager):
        with pytest.raises(UnknownEntityError):
            manager.instance_of("vnf-9")

    def test_live_instances(self, manager):
        first = manager.deploy_optical("firewall")
        second = manager.deploy_optical("nat")
        manager.terminate(first.vnf_id)
        live = manager.live_instances()
        assert [i.vnf_id for i in live] == [second.vnf_id]

    def test_instances_on_host(self, manager):
        router = manager.pool.host_ids()[0]
        instance = manager.deploy_optical("firewall", ops=router)
        hosted = manager.instances_on(router)
        assert [i.vnf_id for i in hosted] == [instance.vnf_id]
        assert manager.instances_on("server-0") == []


class TestMigration:
    """VNF evacuation between hosts (the self-healing path)."""

    def test_optical_migration_moves_reservation(self, manager):
        instance = manager.deploy_optical("firewall")
        source = instance.host
        target = next(
            router
            for router in manager.pool.host_ids()
            if router != source
        )
        moved = manager.migrate(instance.vnf_id, target)
        assert moved.host == target
        assert manager.instance_of(instance.vnf_id).host == target
        assert manager.state_of(instance.vnf_id) is VnfState.RUNNING
        # the reservation followed the instance
        assert manager.instances_on(target) == [moved]
        assert manager.instances_on(source) == []

    def test_electronic_migration_moves_carrier_vm(
        self, manager, populated_inventory
    ):
        instance = manager.deploy_electronic("firewall")
        source = instance.host
        target = next(
            server
            for server in populated_inventory.network.servers()
            if server != source
        )
        moved = manager.migrate(instance.vnf_id, target)
        assert moved.host == target
        carriers = populated_inventory.vms_of_service(
            NFV_INFRA_SERVICE.name
        )
        assert len(carriers) == 1
        assert populated_inventory.host_of(carriers[0].vm_id) == target

    def test_migrate_to_same_host_rejected(self, manager):
        from repro.exceptions import ValidationError

        instance = manager.deploy_optical("firewall")
        with pytest.raises(ValidationError):
            manager.migrate(instance.vnf_id, instance.host)

    def test_optical_migration_rolls_back_on_full_target(self, manager):
        instance = manager.deploy_optical("firewall")
        source = instance.host
        target = next(
            router
            for router in manager.pool.host_ids()
            if router != source
        )
        # Fill the target completely.
        filler = manager.pool.get(target)
        filler.host("filler", filler.free)
        counts_before = manager.lifecycle.event_counts()
        with pytest.raises(PlacementError):
            manager.migrate(instance.vnf_id, target)
        # The VNF kept its original reservation and stayed RUNNING, and
        # the failed command left no transition count behind.
        assert manager.instance_of(instance.vnf_id).host == source
        assert manager.state_of(instance.vnf_id) is VnfState.RUNNING
        assert manager.lifecycle.event_counts() == counts_before

    def test_electronic_migration_rolls_back_on_unknown_server(
        self, manager, populated_inventory
    ):
        instance = manager.deploy_electronic("firewall")
        source = instance.host
        with pytest.raises(UnknownEntityError):
            manager.migrate(instance.vnf_id, "server-does-not-exist")
        carriers = populated_inventory.vms_of_service(
            NFV_INFRA_SERVICE.name
        )
        assert len(carriers) == 1  # no leaked carrier VM
        assert populated_inventory.host_of(carriers[0].vm_id) == source
        assert manager.state_of(instance.vnf_id) is VnfState.RUNNING

    def test_migration_counted_in_telemetry(self, populated_inventory):
        from repro.observability import Telemetry

        telemetry = Telemetry.enabled_instance()
        manager = CloudNfvManager(populated_inventory, telemetry=telemetry)
        instance = manager.deploy_optical("firewall")
        target = next(
            router
            for router in manager.pool.host_ids()
            if router != instance.host
        )
        manager.migrate(instance.vnf_id, target)
        assert (
            telemetry.registry.value_of(
                "alvc_vnfs_migrated_total", domain="optical"
            )
            == 1
        )

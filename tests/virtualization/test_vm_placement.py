"""Tests for VM placement strategies."""

import random

import pytest

from repro.exceptions import PlacementError
from repro.topology.elements import ResourceVector
from repro.virtualization.machines import MachineInventory, VirtualMachine
from repro.virtualization.vm_placement import (
    PlacementStrategy,
    VmPlacementEngine,
)


@pytest.fixture
def web(service_catalog):
    return service_catalog.get("web")


class TestFirstFit:
    def test_fills_first_server(self, inventory, web):
        engine = VmPlacementEngine(inventory, PlacementStrategy.FIRST_FIT)
        first = inventory.network.servers()[0]
        for _ in range(3):
            assert engine.place(inventory.create_vm(web)) == first

    def test_overflows_to_next(self, inventory, web):
        engine = VmPlacementEngine(inventory, PlacementStrategy.FIRST_FIT)
        servers = inventory.network.servers()
        capacity = inventory.network.spec_of(servers[0]).capacity
        engine.place(inventory.create_vm(web, capacity))
        assert engine.place(inventory.create_vm(web)) == servers[1]


class TestRoundRobin:
    def test_rotates_servers(self, inventory, web):
        engine = VmPlacementEngine(inventory, PlacementStrategy.ROUND_ROBIN)
        servers = inventory.network.servers()
        chosen = [engine.place(inventory.create_vm(web)) for _ in range(4)]
        assert chosen == servers[:4]

    def test_wraps_around(self, inventory, web):
        engine = VmPlacementEngine(inventory, PlacementStrategy.ROUND_ROBIN)
        total = len(inventory.network.servers())
        chosen = [
            engine.place(inventory.create_vm(web)) for _ in range(total + 1)
        ]
        assert chosen[0] == chosen[total]


class TestRandom:
    def test_deterministic_per_seed(self, small_fabric, web):
        runs = []
        for _ in range(2):
            inv = MachineInventory(small_fabric)
            engine = VmPlacementEngine(
                inv, PlacementStrategy.RANDOM, seed=42
            )
            runs.append(
                [engine.place(inv.create_vm(web)) for _ in range(6)]
            )
        assert runs[0] == runs[1]

    def test_different_seeds_usually_differ(self, small_fabric, web):
        outcomes = set()
        for seed in range(5):
            inv = MachineInventory(small_fabric)
            engine = VmPlacementEngine(
                inv, PlacementStrategy.RANDOM, seed=seed
            )
            outcomes.add(
                tuple(engine.place(inv.create_vm(web)) for _ in range(6))
            )
        assert len(outcomes) > 1


class TestServiceAffinity:
    def test_same_service_packs_together(self, inventory, web):
        engine = VmPlacementEngine(
            inventory, PlacementStrategy.SERVICE_AFFINITY
        )
        chosen = {engine.place(inventory.create_vm(web)) for _ in range(4)}
        assert len(chosen) == 1

    def test_new_services_go_to_distinct_racks(
        self, inventory, service_catalog
    ):
        engine = VmPlacementEngine(
            inventory, PlacementStrategy.SERVICE_AFFINITY
        )
        racks = {}
        for name in ("web", "sns", "database"):
            server = engine.place(
                inventory.create_vm(service_catalog.get(name))
            )
            racks[name] = inventory.network.spec_of(server).rack
        assert len(set(racks.values())) == 3

    def test_service_stays_on_its_rack(self, inventory, service_catalog):
        engine = VmPlacementEngine(
            inventory, PlacementStrategy.SERVICE_AFFINITY
        )
        web = service_catalog.get("web")
        sns = service_catalog.get("sns")
        web_first = engine.place(inventory.create_vm(web))
        engine.place(inventory.create_vm(sns))
        web_second = engine.place(inventory.create_vm(web))
        rack_of = lambda s: inventory.network.spec_of(s).rack
        assert rack_of(web_first) == rack_of(web_second)


def _rescan_affinity_order(inventory, vm):
    """Reference ordering: rescans every server's guests and spec.

    This is the ordering the service-affinity strategy used before the
    inventory kept per-service and per-rack counts; the lazy indexed
    ordering must match it exactly, tie-breaks included.
    """
    servers = inventory.network.servers()
    same_on_server = {}
    same_in_rack = {}
    total_in_rack = {}
    for server in servers:
        rack = inventory.network.spec_of(server).rack
        guests = inventory.vms_on(server)
        same_here = sum(1 for guest in guests if guest.service == vm.service)
        same_on_server[server] = same_here
        same_in_rack[rack] = same_in_rack.get(rack, 0) + same_here
        total_in_rack[rack] = total_in_rack.get(rack, 0) + len(guests)

    def sort_key(server):
        rack = inventory.network.spec_of(server).rack
        return (
            -same_on_server[server],
            -same_in_rack[rack],
            total_in_rack[rack],
            server,
        )

    return sorted(servers, key=sort_key)


AFFINITY_SERVICES = ("web", "sns", "database", "map-reduce")


def assert_affinity_order_matches(inventory, catalog):
    """The engine's lazy order equals the rescan for every service."""
    engine = VmPlacementEngine(inventory, PlacementStrategy.SERVICE_AFFINITY)
    for name in AFFINITY_SERVICES:
        probe = VirtualMachine(
            vm_id="vm-probe",
            service=name,
            demand=catalog.get(name).vm_demand,
        )
        assert list(engine._affinity_candidates(probe)) == (
            _rescan_affinity_order(inventory, probe)
        )


class TestAffinityIndexParity:
    @pytest.mark.parametrize("seed", range(12))
    def test_indexed_order_matches_rescan(
        self, medium_fabric, service_catalog, seed
    ):
        rng = random.Random(seed)
        inventory = MachineInventory(medium_fabric)
        engine = VmPlacementEngine(
            inventory, PlacementStrategy.SERVICE_AFFINITY
        )
        servers = medium_fabric.servers()
        assert_affinity_order_matches(inventory, service_catalog)
        # Scramble the inventory: affinity and random placements,
        # migrations and removals, so counts rise and fall; the order
        # must match after every operation.
        for _ in range(rng.randrange(20, 160)):
            service = service_catalog.get(rng.choice(AFFINITY_SERVICES))
            roll = rng.random()
            try:
                if roll < 0.4:
                    engine.place(inventory.create_vm(service))
                elif roll < 0.7:
                    inventory.place(
                        inventory.create_vm(service), rng.choice(servers)
                    )
                elif roll < 0.85 and inventory.placed_vms():
                    vm = rng.choice(inventory.placed_vms())
                    host = inventory.host_of(vm.vm_id)
                    inventory.migrate(
                        vm, rng.choice([s for s in servers if s != host])
                    )
                elif inventory.placed_vms():
                    inventory.remove(rng.choice(inventory.placed_vms()))
            except PlacementError:
                pass
            assert_affinity_order_matches(inventory, service_catalog)

    def test_full_servers_are_skipped(self, small_fabric, service_catalog):
        # The first candidate that fits wins: a full host of the service
        # is passed over for the next server in the rescan order.
        inventory = MachineInventory(small_fabric)
        engine = VmPlacementEngine(inventory)
        web = service_catalog.get("web")
        first = engine.place(inventory.create_vm(web))
        capacity = small_fabric.spec_of(first).capacity
        filler = capacity - inventory.used_capacity(first)
        inventory.place(inventory.create_vm(web, filler), first)
        vm = inventory.create_vm(web)
        expected = next(
            server
            for server in _rescan_affinity_order(inventory, vm)
            if vm.demand.fits_within(inventory.remaining_capacity(server))
        )
        assert expected != first
        assert engine.place(vm) == expected


class TestPlaceAll:
    def test_returns_mapping(self, inventory, web):
        engine = VmPlacementEngine(inventory)
        vms = [inventory.create_vm(web) for _ in range(3)]
        result = engine.place_all(vms)
        assert set(result) == {vm.vm_id for vm in vms}
        for vm in vms:
            assert inventory.host_of(vm.vm_id) == result[vm.vm_id]


class TestExhaustion:
    def test_no_room_raises(self, inventory, web):
        engine = VmPlacementEngine(inventory, PlacementStrategy.FIRST_FIT)
        for server in inventory.network.servers():
            capacity = inventory.network.spec_of(server).capacity
            inventory.place(inventory.create_vm(web, capacity), server)
        with pytest.raises(PlacementError):
            engine.place(
                inventory.create_vm(web, ResourceVector(cpu_cores=1))
            )

"""Tests for the VM inventory: lifecycle, capacity, queries."""

import math
import random
from collections import Counter

import pytest

from repro.exceptions import (
    DuplicateEntityError,
    PlacementError,
    UnknownEntityError,
    ValidationError,
)
from repro.service.journal import NULL_RECORDER
from repro.service.snapshot import load_snapshot, write_snapshot
from repro.stack import AlvcStack
from repro.topology.elements import ResourceVector
from repro.virtualization.machines import MachineInventory, VirtualMachine


@pytest.fixture
def web(service_catalog):
    return service_catalog.get("web")


class TestCreation:
    def test_create_vm_ids_monotonic(self, inventory, web):
        first = inventory.create_vm(web)
        second = inventory.create_vm(web)
        assert first.vm_id == "vm-0"
        assert second.vm_id == "vm-1"

    def test_create_vm_uses_service_demand(self, inventory, web):
        vm = inventory.create_vm(web)
        assert vm.demand == web.vm_demand

    def test_create_vm_custom_demand(self, inventory, web):
        demand = ResourceVector(cpu_cores=1)
        assert inventory.create_vm(web, demand).demand == demand

    def test_register_external_vm(self, inventory):
        vm = VirtualMachine(
            vm_id="vm-custom", service="web", demand=ResourceVector(1, 1, 1)
        )
        inventory.register_vm(vm)
        assert inventory.get("vm-custom") is vm

    def test_register_duplicate_rejected(self, inventory, web):
        vm = inventory.create_vm(web)
        with pytest.raises(DuplicateEntityError):
            inventory.register_vm(vm)

    def test_len_counts_vms(self, inventory, web):
        inventory.create_vm(web)
        inventory.create_vm(web)
        assert len(inventory) == 2

    def test_contains(self, inventory, web):
        vm = inventory.create_vm(web)
        assert vm.vm_id in inventory
        assert "vm-99" not in inventory


class TestPlacement:
    def test_place_and_host_of(self, inventory, web):
        vm = inventory.create_vm(web)
        server = inventory.network.servers()[0]
        inventory.place(vm, server)
        assert inventory.host_of(vm.vm_id) == server

    def test_place_accepts_vm_or_id(self, inventory, web):
        vm = inventory.create_vm(web)
        server = inventory.network.servers()[0]
        inventory.place(vm.vm_id, server)
        assert inventory.is_placed(vm.vm_id)

    def test_place_twice_rejected(self, inventory, web):
        vm = inventory.create_vm(web)
        servers = inventory.network.servers()
        inventory.place(vm, servers[0])
        with pytest.raises(PlacementError):
            inventory.place(vm, servers[1])

    def test_place_on_unknown_server_rejected(self, inventory, web):
        vm = inventory.create_vm(web)
        with pytest.raises(UnknownEntityError):
            inventory.place(vm, "server-999")

    def test_capacity_enforced(self, inventory, web):
        server = inventory.network.servers()[0]
        capacity = inventory.network.spec_of(server).capacity
        big = inventory.create_vm(
            web, ResourceVector(cpu_cores=capacity.cpu_cores + 1)
        )
        with pytest.raises(PlacementError):
            inventory.place(big, server)

    def test_capacity_accumulates(self, inventory, web):
        server = inventory.network.servers()[0]
        capacity = inventory.network.spec_of(server).capacity
        half = ResourceVector(cpu_cores=capacity.cpu_cores / 2 + 1)
        inventory.place(inventory.create_vm(web, half), server)
        with pytest.raises(PlacementError):
            inventory.place(inventory.create_vm(web, half), server)

    def test_host_of_unplaced_raises(self, inventory, web):
        vm = inventory.create_vm(web)
        with pytest.raises(PlacementError):
            inventory.host_of(vm.vm_id)

    def test_host_of_unknown_raises(self, inventory):
        with pytest.raises(UnknownEntityError):
            inventory.host_of("vm-999")


class TestMigration:
    def test_migrate_moves_capacity(self, inventory, web):
        vm = inventory.create_vm(web)
        servers = inventory.network.servers()
        inventory.place(vm, servers[0])
        used_before = inventory.used_capacity(servers[0])
        old = inventory.migrate(vm, servers[1])
        assert old == servers[0]
        assert inventory.host_of(vm.vm_id) == servers[1]
        assert inventory.used_capacity(servers[0]) == used_before - vm.demand
        assert inventory.used_capacity(servers[1]) == vm.demand

    def test_migrate_to_same_server_rejected(self, inventory, web):
        vm = inventory.create_vm(web)
        server = inventory.network.servers()[0]
        inventory.place(vm, server)
        with pytest.raises(PlacementError):
            inventory.migrate(vm, server)

    def test_migrate_unplaced_rejected(self, inventory, web):
        vm = inventory.create_vm(web)
        with pytest.raises(PlacementError):
            inventory.migrate(vm, inventory.network.servers()[0])

    def test_migrate_capacity_checked_first(self, inventory, web):
        servers = inventory.network.servers()
        capacity = inventory.network.spec_of(servers[1]).capacity
        blocker = inventory.create_vm(web, capacity)
        inventory.place(blocker, servers[1])
        vm = inventory.create_vm(web)
        inventory.place(vm, servers[0])
        with pytest.raises(PlacementError):
            inventory.migrate(vm, servers[1])
        # Original placement untouched after the failed migration.
        assert inventory.host_of(vm.vm_id) == servers[0]


class TestRemoval:
    def test_remove_releases_capacity(self, inventory, web):
        vm = inventory.create_vm(web)
        server = inventory.network.servers()[0]
        inventory.place(vm, server)
        inventory.remove(vm)
        assert inventory.used_capacity(server).is_zero()
        assert vm.vm_id not in inventory

    def test_remove_unplaced_vm(self, inventory, web):
        vm = inventory.create_vm(web)
        inventory.remove(vm)
        assert vm.vm_id not in inventory

    def test_remove_unknown_raises(self, inventory):
        with pytest.raises(UnknownEntityError):
            inventory.remove("vm-999")


class TestQueries:
    def test_vms_on(self, inventory, web):
        vm = inventory.create_vm(web)
        server = inventory.network.servers()[0]
        inventory.place(vm, server)
        assert [v.vm_id for v in inventory.vms_on(server)] == [vm.vm_id]

    def test_vms_on_unknown_server(self, inventory):
        with pytest.raises(UnknownEntityError):
            inventory.vms_on("server-999")

    def test_vms_of_service(self, inventory, service_catalog):
        inventory.create_vm(service_catalog.get("web"))
        inventory.create_vm(service_catalog.get("sns"))
        inventory.create_vm(service_catalog.get("web"))
        assert len(inventory.vms_of_service("web")) == 2
        assert len(inventory.vms_of_service("sns")) == 1
        assert inventory.vms_of_service("nope") == []

    def test_placed_vms_only_placed(self, inventory, web):
        placed = inventory.create_vm(web)
        inventory.create_vm(web)  # never placed
        inventory.place(placed, inventory.network.servers()[0])
        assert [v.vm_id for v in inventory.placed_vms()] == [placed.vm_id]

    def test_services_present(self, inventory, service_catalog):
        inventory.create_vm(service_catalog.get("sns"))
        inventory.create_vm(service_catalog.get("web"))
        assert inventory.services_present() == ["sns", "web"]

    def test_tors_of_vm_matches_host_server(self, inventory, web):
        vm = inventory.create_vm(web)
        server = inventory.network.servers()[0]
        inventory.place(vm, server)
        assert inventory.tors_of_vm(vm.vm_id) == (
            inventory.network.tors_of_server(server)
        )

    def test_remaining_capacity(self, inventory, web):
        server = inventory.network.servers()[0]
        capacity = inventory.network.spec_of(server).capacity
        vm = inventory.create_vm(web)
        inventory.place(vm, server)
        assert inventory.remaining_capacity(server) == capacity - vm.demand

    def test_utilization_by_server(self, inventory, web):
        server = inventory.network.servers()[0]
        vm = inventory.create_vm(web)
        inventory.place(vm, server)
        utilization = inventory.utilization_by_server()
        capacity = inventory.network.spec_of(server).capacity
        assert utilization[server] == pytest.approx(
            vm.demand.cpu_cores / capacity.cpu_cores
        )
        assert all(
            value == 0.0
            for name, value in utilization.items()
            if name != server
        )


# ---------------------------------------------------------------------------
# Free-capacity index
# ---------------------------------------------------------------------------
INDEX_SERVICES = ("web", "sns", "database")
INDEX_DEMANDS = (
    ResourceVector(cpu_cores=1, memory_gb=2, storage_gb=10),
    ResourceVector(cpu_cores=4, memory_gb=8, storage_gb=100),
    # Binary fractions: the ledger adds and subtracts demands in any
    # order, and only these keep that arithmetic exact.
    ResourceVector(cpu_cores=0.25, memory_gb=0.75, storage_gb=1.5),
    ResourceVector(cpu_cores=12.5, memory_gb=40, storage_gb=500),
    ResourceVector(cpu_cores=1000),  # never fits: a refused placement
)


def _assert_index_matches(inventory):
    """Every indexed figure equals a recount from the ledger itself."""
    network = inventory.network
    servers = network.servers()
    assert list(inventory.free_capacities()) == servers
    recount: dict[str, dict[str, int]] = {}
    for server in servers:
        spec = network.spec_of(server)
        assert inventory.remaining_capacity(server) == (
            spec.capacity - inventory.used_capacity(server)
        )
        assert inventory.rack_of(server) == spec.rack
        guests = inventory.vms_on(server)
        assert inventory.guest_count(server) == len(guests)
        for service, count in Counter(vm.service for vm in guests).items():
            recount.setdefault(service, {})[server] = count
    services = {*recount, *INDEX_SERVICES, *inventory.services_present()}
    for service in services:
        assert dict(inventory.service_hosts(service)) == recount.get(
            service, {}
        )


def _placement_state(inventory):
    """What the generation counter vouches for: hosts and used capacity."""
    return (
        {vm.vm_id: inventory.host_of(vm.vm_id) for vm in inventory.placed_vms()},
        {
            server: inventory.used_capacity(server)
            for server in inventory.network.servers()
        },
    )


class _Unwind(Exception):
    """Raised inside a frame to unwind the mutation it framed."""


def _mutate(inventory, rng, catalog, op) -> None:
    servers = inventory.network.servers()
    if op == "place":
        vm = inventory.create_vm(
            catalog.get(rng.choice(INDEX_SERVICES)),
            rng.choice(INDEX_DEMANDS),
        )
        inventory.place(vm, rng.choice(servers))
    elif op == "migrate" and inventory.placed_vms():
        vm = rng.choice(inventory.placed_vms())
        host = inventory.host_of(vm.vm_id)
        inventory.migrate(vm, rng.choice([s for s in servers if s != host]))
    elif op == "remove" and len(inventory):
        inventory.remove(rng.choice(inventory.all_vms()))


def _random_step(inventory, rng, catalog):
    """One random place/migrate/remove, or one unwound by its frame.

    Returns False when refused and ``"unwound"`` when a frame undid it.
    """
    op = rng.choice(("place", "place", "migrate", "remove", "unwind"))
    try:
        if op == "unwind":
            with NULL_RECORDER.operation():
                _mutate(
                    inventory, rng, catalog,
                    rng.choice(("place", "migrate", "remove")),
                )
                raise _Unwind
        _mutate(inventory, rng, catalog, op)
    except PlacementError:
        return False
    except _Unwind:
        return "unwound"
    return True


class TestFreeCapacityIndex:
    @pytest.mark.parametrize("seed", range(8))
    def test_index_tracks_random_mutations(
        self, small_fabric, service_catalog, seed
    ):
        inventory = MachineInventory(small_fabric)
        rng = random.Random(seed)
        outcomes = Counter()
        _assert_index_matches(inventory)
        for _ in range(250):
            state = _placement_state(inventory)
            generation = inventory.generation
            outcome = _random_step(inventory, rng, service_catalog)
            outcomes[outcome] += 1
            changed = _placement_state(inventory) != state
            if outcome == "unwound":
                # An unwound booking leaves the state, not the
                # generation, where it was: memos keyed on a generation
                # the failed command reached must never match again.
                assert not changed
            else:
                assert (inventory.generation != generation) == changed
            _assert_index_matches(inventory)
        # Refused places/migrations and unwound ones were exercised.
        assert outcomes[False] > 0 and outcomes["unwound"] > 0

    def test_unplaced_bookkeeping_keeps_generation(
        self, inventory, service_catalog
    ):
        generation = inventory.generation
        with pytest.raises(_Unwind), NULL_RECORDER.operation():
            vm = inventory.create_vm(service_catalog.get("web"))
            inventory.remove(vm)
            raise _Unwind
        assert inventory.generation == generation
        assert len(inventory) == 0

    def test_remaining_capacity_unknown_server(self, inventory):
        with pytest.raises(UnknownEntityError):
            inventory.remaining_capacity("server-999")

    def test_views_are_read_only(self, inventory, service_catalog):
        server = inventory.network.servers()[0]
        inventory.place(inventory.create_vm(service_catalog.get("web")), server)
        with pytest.raises(TypeError):
            inventory.free_capacities()[server] = ResourceVector.zero()
        with pytest.raises(TypeError):
            inventory.service_hosts("web")[server] = 0

    def test_total_cpu_sums_every_server(self, inventory):
        network = inventory.network
        assert inventory.total_cpu_cores == sum(
            network.spec_of(server).capacity.cpu_cores
            for server in network.servers()
        )

    def test_index_survives_snapshot_round_trip(
        self, tmp_path, service_catalog
    ):
        stack = AlvcStack.build(n_racks=3, servers_per_rack=3, n_ops=4, seed=11)
        stack.provision(("firewall", "nat"), service="web")
        stack.provision(("dpi",), service="streaming")
        path = write_snapshot(stack, tmp_path / "snap.alvc", journal_seq=0)
        loaded = load_snapshot(path).stack.inventory
        live = stack.inventory
        assert loaded.generation == live.generation
        assert dict(loaded.free_capacities()) == dict(live.free_capacities())
        _assert_index_matches(loaded)
        rng = random.Random(5)
        for _ in range(120):
            _random_step(loaded, rng, service_catalog)
            _assert_index_matches(loaded)
        # The live inventory is untouched by the copy's mutations.
        _assert_index_matches(live)


# ---------------------------------------------------------------------------
# Release residues
# ---------------------------------------------------------------------------
#: Demand pairs whose release in reservation order leaves a negative
#: floating-point residue: (a + b) - a - b < 0.
DRIFT_PAIRS = ((0.2, 0.15), (0.7, 0.1), (1.1, 0.45))


def _ledger(inventory):
    """Everything a release touches, for no-trace comparisons."""
    servers = inventory.network.servers()
    return (
        {
            vm.vm_id: inventory.host_of(vm.vm_id)
            for vm in inventory.placed_vms()
        },
        sorted(vm.vm_id for vm in inventory.all_vms()),
        {server: inventory.used_capacity(server) for server in servers},
        dict(inventory.free_capacities()),
        {
            service: dict(inventory.service_hosts(service))
            for service in ("web",)
        },
        inventory.generation,
    )


class TestReleaseResidue:
    @pytest.mark.parametrize("first, second", DRIFT_PAIRS)
    def test_remove_in_reservation_order(self, inventory, web, first, second):
        assert (first + second) - first - second < 0.0
        server = inventory.network.servers()[0]
        capacity = inventory.network.spec_of(server).capacity
        a = inventory.create_vm(web, ResourceVector(cpu_cores=first))
        b = inventory.create_vm(web, ResourceVector(cpu_cores=second))
        inventory.place(a, server)
        inventory.place(b, server)
        inventory.remove(a)
        inventory.remove(b)
        used = inventory.used_capacity(server)
        assert used.cpu_cores == 0.0
        assert math.copysign(1.0, used.cpu_cores) == 1.0  # +0.0
        assert inventory.remaining_capacity(server) == capacity
        assert inventory.guest_count(server) == 0
        _assert_index_matches(inventory)

    @pytest.mark.parametrize("first, second", DRIFT_PAIRS)
    def test_migrate_away_in_reservation_order(
        self, inventory, web, first, second
    ):
        source, target = inventory.network.servers()[:2]
        a = inventory.create_vm(web, ResourceVector(cpu_cores=first))
        b = inventory.create_vm(web, ResourceVector(cpu_cores=second))
        inventory.place(a, source)
        inventory.place(b, source)
        inventory.migrate(a, target)
        inventory.migrate(b, target)
        assert inventory.used_capacity(source).is_zero()
        assert inventory.host_of(b.vm_id) == target
        _assert_index_matches(inventory)

    def test_positive_residue_is_unchanged(self, inventory, web):
        server = inventory.network.servers()[0]
        a = inventory.create_vm(web, ResourceVector(cpu_cores=0.1))
        b = inventory.create_vm(web, ResourceVector(cpu_cores=0.2))
        inventory.place(a, server)
        inventory.place(b, server)
        inventory.remove(b)
        # The plain difference, not rounded to the remaining demand.
        assert inventory.used_capacity(server).cpu_cores == (0.1 + 0.2) - 0.2

    def test_over_release_raises_and_leaves_no_trace(self, inventory, web):
        # A shortfall far beyond rounding is a corrupted ledger, not a
        # residue: the release raises as before and changes nothing.
        source, target = inventory.network.servers()[:2]
        a = inventory.create_vm(web, ResourceVector(cpu_cores=1.0))
        b = inventory.create_vm(web, ResourceVector(cpu_cores=2.0))
        inventory.place(a, source)
        inventory.place(b, source)
        inventory._used[source] = a.demand  # as if b had left already
        before = _ledger(inventory)
        with pytest.raises(ValidationError, match="cpu_cores"):
            inventory.remove(b)
        assert _ledger(inventory) == before
        with pytest.raises(ValidationError, match="cpu_cores"):
            inventory.migrate(b, target)
        assert _ledger(inventory) == before

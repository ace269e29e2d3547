"""Service-affinity candidate order against the k-way-merge oracle.

``VmPlacementEngine._affinity_candidates`` once merged every rack of an
equal-key group with ``heapq.merge``; it now walks every multi-rack
group in the fabric's sorted server order.  On generated fabrics with
partly filled racks the order must be exactly the merge's.
"""

from __future__ import annotations

import heapq
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology.builder import TopologyBuilder
from repro.topology.elements import ResourceVector
from repro.virtualization.machines import MachineInventory, VirtualMachine
from repro.virtualization.vm_placement import (
    PlacementStrategy,
    VmPlacementEngine,
)

SERVICES = ("web", "db", "cache")
SMALL = ResourceVector(cpu_cores=1, memory_gb=1, storage_gb=1)


def merge_oracle(inventory: MachineInventory, vm: VirtualMachine):
    """The candidate order as the k-way merge produced it."""
    same_on_server = inventory.service_hosts(vm.service)
    same_in_rack = inventory.service_racks(vm.service)
    total_in_rack = inventory.rack_guests()
    rack_of = inventory.rack_of

    def rack_key(rack):
        return -same_in_rack.get(rack, 0), total_in_rack[rack]

    def host_key(server):
        return (-same_on_server[server], *rack_key(rack_of(server)), server)

    yield from sorted(same_on_server, key=host_key)
    for _, group in itertools.groupby(
        sorted(total_in_rack, key=rack_key), key=rack_key
    ):
        lists = [inventory.rack_servers(rack) for rack in group]
        merged = lists[0] if len(lists) == 1 else heapq.merge(*lists)
        for server in merged:
            if server not in same_on_server:
                yield server


def _inventory(rack_sizes, dual_homed):
    builder = TopologyBuilder("affinity")
    core = builder.add_optical_core(2)
    tors = []
    for index, size in enumerate(rack_sizes):
        extra = [tors[-1]] if tors and index in dual_homed else None
        tor, _ = builder.add_rack(
            servers=size, uplinks=[core[index % 2]], extra_tors=extra
        )
        tors.append(tor)
    return MachineInventory(builder.build())


def _assert_same_order(inventory):
    engine = VmPlacementEngine(inventory, PlacementStrategy.SERVICE_AFFINITY)
    for service in (*SERVICES, "fresh"):
        vm = VirtualMachine(vm_id="probe", service=service, demand=SMALL)
        assert list(engine._affinity_candidates(vm)) == list(
            merge_oracle(inventory, vm)
        )


@settings(max_examples=120, deadline=None)
@given(
    rack_sizes=st.lists(st.integers(1, 6), min_size=1, max_size=24),
    dual_homed=st.sets(st.integers(0, 23), max_size=6),
    placements=st.lists(
        st.tuples(st.integers(0, 10_000), st.sampled_from(SERVICES)),
        max_size=40,
    ),
)
def test_candidate_order_matches_the_merge(rack_sizes, dual_homed,
                                           placements):
    inventory = _inventory(rack_sizes, dual_homed)
    servers = inventory.network.servers()
    for index, (pick, service) in enumerate(placements):
        vm = VirtualMachine(vm_id=f"vm-{index}", service=service, demand=SMALL)
        inventory.register_vm(vm)
        inventory.place(vm, servers[pick % len(servers)])
    _assert_same_order(inventory)


def test_single_and_multi_rack_groups():
    # Twelve racks of three: rack 0 holds two guests, racks 1-3 one each
    # and racks 4-11 none.
    inventory = _inventory([3] * 12, set())
    fills = {0: 2, 1: 1, 2: 1, 3: 1}
    for rack, guests in fills.items():
        for slot in range(guests):
            vm = VirtualMachine(
                vm_id=f"vm-{rack}-{slot}", service="web", demand=SMALL
            )
            inventory.register_vm(vm)
            inventory.place(vm, inventory.rack_servers(rack)[slot])
    _assert_same_order(inventory)
    # A bootstrap VM of a new service lands on the lowest server id of
    # the emptiest racks.
    engine = VmPlacementEngine(inventory, PlacementStrategy.SERVICE_AFFINITY)
    vm = VirtualMachine(vm_id="new", service="db", demand=SMALL)
    inventory.register_vm(vm)
    empty = [
        server
        for rack in range(4, 12)
        for server in inventory.rack_servers(rack)
    ]
    assert engine.place(vm) == min(empty)

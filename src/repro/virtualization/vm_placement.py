"""VM-to-server placement strategies.

The paper motivates service-based clustering with the observation that "two
machines providing similar service have high data correlation" (Section
III.A); the *service-affinity* strategy packs a service's VMs into as few
racks as possible, which both mirrors real deployments and produces small
abstraction layers.  Round-robin and random strategies provide spread-out
counterfactuals for the experiments.
"""

from __future__ import annotations

import enum
import itertools
import random
from typing import Iterable, Iterator, Sequence

from repro import undo
from repro.exceptions import PlacementError
from repro.ids import ServerId
from repro.virtualization.machines import MachineInventory, VirtualMachine


class PlacementStrategy(enum.Enum):
    """Available VM placement policies."""

    FIRST_FIT = "first_fit"
    ROUND_ROBIN = "round_robin"
    SERVICE_AFFINITY = "service_affinity"
    RANDOM = "random"


class VmPlacementEngine:
    """Places VMs onto servers according to a strategy.

    The engine is deterministic for a given seed: RANDOM uses its own
    :class:`random.Random`, and every other strategy iterates servers in
    sorted order.
    """

    def __init__(
        self,
        inventory: MachineInventory,
        strategy: PlacementStrategy = PlacementStrategy.SERVICE_AFFINITY,
        seed: int = 0,
    ) -> None:
        self._inventory = inventory
        self._strategy = strategy
        self._rng = random.Random(seed)
        self._rr_cursor = 0

    @property
    def strategy(self) -> PlacementStrategy:
        """The active placement policy."""
        return self._strategy

    def place(self, vm: VirtualMachine) -> ServerId:
        """Place one VM on the first server of its candidate order that
        fits; returns the chosen server.

        Raises:
            PlacementError: when no server has room for the VM.
        """
        inventory = self._inventory
        for server in self._candidate_order(vm):
            if vm.demand.fits_within(inventory.remaining_capacity(server)):
                inventory.place(vm, server)
                return server
        raise PlacementError(
            f"no server can host {vm.vm_id} (demand {vm.demand}, "
            f"strategy {self._strategy.value})"
        )

    def place_all(self, vms: Sequence[VirtualMachine]) -> dict[str, ServerId]:
        """Place many VMs; returns ``{vm_id: server_id}``.

        Placement is all-or-nothing per VM but not transactional across the
        batch: VMs placed before a failure stay placed, and the error
        reports which VM failed.
        """
        result = {}
        for vm in vms:
            result[vm.vm_id] = self.place(vm)
        return result

    def _candidate_order(self, vm: VirtualMachine) -> Iterable[ServerId]:
        if self._strategy is PlacementStrategy.SERVICE_AFFINITY:
            return self._affinity_candidates(vm)
        servers = self._inventory.network.servers()
        if self._strategy is PlacementStrategy.FIRST_FIT:
            return servers
        if self._strategy is PlacementStrategy.RANDOM:
            undo.save_random(self._rng)
            self._rng.shuffle(servers)
            return servers
        if self._strategy is PlacementStrategy.ROUND_ROBIN:
            start = self._rr_cursor % len(servers)
            undo.push((setattr, self, "_rr_cursor", self._rr_cursor))
            self._rr_cursor += 1
            return servers[start:] + servers[:start]
        raise PlacementError(f"unknown strategy {self._strategy!r}")

    def _affinity_candidates(self, vm: VirtualMachine) -> Iterator[ServerId]:
        """Every server, servers (then racks) hosting the VM's service first.

        A service with no presence anywhere prefers the *emptiest* rack,
        so distinct services land on distinct racks — the paper's
        service-based data layout ("DCs usually store their data on
        servers according to data type", Section III.A), which is also
        what keeps the clusters' abstraction layers small and disjoint.

        The order is every server sorted by ``(-same service on the
        server, -same service in its rack, guests in its rack, id)``,
        produced lazily from the inventory's per-server and per-rack
        counts: the service's hosts first, then the racks in groups of
        equal ``(-same service, guests)``, each group's servers by id
        minus the hosts already yielded.  :meth:`place` stops at the
        first that fits.

        A group of several racks is walked in the fabric's sorted server
        order, which is the merge of its racks' sorted lists.  The
        common such group, a bootstrap VM's every empty rack, yields
        nearly every server the walk visits, and :meth:`place` stops
        after a few.
        """
        inventory = self._inventory
        same_on_server = inventory.service_hosts(vm.service)
        same_in_rack = inventory.service_racks(vm.service)
        total_in_rack = inventory.rack_guests()
        rack_of = inventory.rack_of

        def rack_key(rack: int) -> tuple[int, int]:
            return -same_in_rack.get(rack, 0), total_in_rack[rack]

        def host_key(server: ServerId) -> tuple:
            return (-same_on_server[server], *rack_key(rack_of(server)), server)

        yield from sorted(same_on_server, key=host_key)
        for _, group in itertools.groupby(
            sorted(total_in_rack, key=rack_key), key=rack_key
        ):
            racks = list(group)
            if len(racks) == 1:
                members = inventory.rack_servers(racks[0])
            else:
                in_group = set(racks)
                members = (
                    server
                    for server in inventory.network.servers()
                    if rack_of(server) in in_group
                )
            for server in members:
                if server not in same_on_server:
                    yield server

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
import random
from typing import Sequence

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
        """Place one VM; returns the chosen server.

        Raises:
            PlacementError: when no server has room for the VM.
        """
        servers = self._inventory.network.servers()
        order = self._candidate_order(vm, servers)
        for server in order:
            if vm.demand.fits_within(self._inventory.remaining_capacity(server)):
                self._inventory.place(vm, server)
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

    def _candidate_order(
        self, vm: VirtualMachine, servers: list[ServerId]
    ) -> list[ServerId]:
        if self._strategy is PlacementStrategy.FIRST_FIT:
            return servers
        if self._strategy is PlacementStrategy.RANDOM:
            shuffled = list(servers)
            self._rng.shuffle(shuffled)
            return shuffled
        if self._strategy is PlacementStrategy.ROUND_ROBIN:
            start = self._rr_cursor % len(servers)
            self._rr_cursor += 1
            return servers[start:] + servers[:start]
        if self._strategy is PlacementStrategy.SERVICE_AFFINITY:
            return self._affinity_order(vm, servers)
        raise PlacementError(f"unknown strategy {self._strategy!r}")

    def _affinity_order(
        self, vm: VirtualMachine, servers: list[ServerId]
    ) -> list[ServerId]:
        """Prefer servers (then racks) already hosting the VM's service.

        A service with no presence anywhere prefers the *emptiest* rack,
        so distinct services land on distinct racks — the paper's
        service-based data layout ("DCs usually store their data on
        servers according to data type", Section III.A), which is also
        what keeps the clusters' abstraction layers small and disjoint.
        """
        inventory = self._inventory
        same_on_server = inventory.service_hosts(vm.service)
        same_in_rack: dict[int, int] = {}
        total_in_rack: dict[int, int] = {}
        for server in servers:
            rack = inventory.rack_of(server)
            same_in_rack[rack] = (
                same_in_rack.get(rack, 0) + same_on_server.get(server, 0)
            )
            total_in_rack[rack] = (
                total_in_rack.get(rack, 0) + inventory.guest_count(server)
            )

        def sort_key(server: ServerId):
            rack = inventory.rack_of(server)
            # Highest affinity first; new services go to the emptiest
            # rack; ties resolved by id for determinism.
            return (
                -same_on_server.get(server, 0),
                -same_in_rack[rack],
                total_in_rack[rack],
                server,
            )

        return sorted(servers, key=sort_key)

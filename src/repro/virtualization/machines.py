"""Virtual machines and the inventory tracking their physical placement.

"With virtualization, we can create multiple logical Virtual Machines (VMs)
on a single server to support multiple applications" (paper Section I).
:class:`MachineInventory` is the mutable ledger: which VM runs on which
server, with capacity bookkeeping, migration, and the VM→ToR adjacency that
abstraction-layer construction consumes.
"""

from __future__ import annotations

import bisect
import dataclasses
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from repro import undo
from repro.exceptions import (
    DuplicateEntityError,
    PlacementError,
    UnknownEntityError,
)
from repro.ids import IdAllocator, ServerId, TorId, VmId, vm_id
from repro.topology.datacenter import DataCenterNetwork
from repro.topology.elements import ResourceVector
from repro.virtualization.services import ServiceType


#: Largest negative residue, relative to the server's capacity, that a
#: release absorbs as floating-point rounding.  Any larger shortfall is
#: an over-release and still raises.
_RELEASE_RESIDUE = 1e-12


def _settled(value: float, capacity: float) -> float:
    """``value`` with a rounding residue below zero clamped to ``+0.0``."""
    if 0.0 > value >= -_RELEASE_RESIDUE * max(1.0, capacity):
        return 0.0
    return value


#: Every finite double is an integer multiple of 2**-1074 (the smallest
#: subnormal), so scaling by 2**1074 makes float sums exact integers.
_EXACT_SHIFT = 1074
_EXACT_ONE = 1 << _EXACT_SHIFT


def _exact(value: float) -> int:
    """``value * 2**1074`` as an exact integer."""
    numerator, denominator = value.as_integer_ratio()
    return numerator << (_EXACT_SHIFT + 1 - denominator.bit_length())


class _FreeCpuIndex:
    """Free CPU per server, kept as a level order and exact totals.

    *Levels*: the distinct free-CPU values in ascending order, each with
    the ascending ids of the servers at that value.  *Totals*: the
    fabric's free CPU, and per reference vector the free CPU of servers
    the reference fits on, each as an exact integer (:func:`_exact`).
    A usable total is built on its reference's first query.
    """

    __slots__ = ("levels", "level_ids", "free", "usable")

    def __init__(self, free: Mapping[ServerId, ResourceVector]) -> None:
        self.level_ids: dict[float, list[ServerId]] = {}
        total = 0
        for server in sorted(free):
            cpu = free[server].cpu_cores
            self.level_ids.setdefault(cpu, []).append(server)
            total += _exact(cpu)
        self.levels = sorted(self.level_ids)
        self.free = total
        self.usable: dict[ResourceVector, int] = {}

    def move(
        self, server: ServerId, old: ResourceVector, new: ResourceVector
    ) -> None:
        """Re-file one server whose free vector went ``old`` -> ``new``."""
        old_cpu = old.cpu_cores
        new_cpu = new.cpu_cores
        if old_cpu != new_cpu:
            ids = self.level_ids[old_cpu]
            del ids[bisect.bisect_left(ids, server)]
            if not ids:
                del self.level_ids[old_cpu]
                del self.levels[bisect.bisect_left(self.levels, old_cpu)]
            ids = self.level_ids.get(new_cpu)
            if ids is None:
                self.level_ids[new_cpu] = [server]
                bisect.insort(self.levels, new_cpu)
            else:
                bisect.insort(ids, server)
        old_exact = _exact(old_cpu)
        new_exact = _exact(new_cpu)
        self.free += new_exact - old_exact
        for reference, total in self.usable.items():
            if reference.fits_within(old):
                total -= old_exact
            if reference.fits_within(new):
                total += new_exact
            self.usable[reference] = total

    def usable_total(
        self,
        reference: ResourceVector,
        free: Mapping[ServerId, ResourceVector],
    ) -> int:
        """Exact free CPU of the servers ``reference`` fits on."""
        total = self.usable.get(reference)
        if total is None:
            total = sum(
                _exact(remaining.cpu_cores)
                for remaining in free.values()
                if reference.fits_within(remaining)
            )
            self.usable[reference] = total
        return total


@dataclasses.dataclass(frozen=True, slots=True)
class VirtualMachine:
    """An immutable VM description; placement lives in the inventory."""

    vm_id: VmId
    service: str
    demand: ResourceVector


class MachineInventory:
    """Ledger of VMs, their host servers and remaining server capacity.

    Free capacity is live state, not recomputed per query: every
    placement change (place, migrate, remove, and their unwinding)
    passes through :meth:`_book`, which refreshes the
    server's cached free vector, the per-service guest counts per
    server and per rack, the guest count per rack, and advances
    :attr:`generation`.  Capacity probes are then dict lookups.

    The fabric-wide free-CPU aggregates (the level order behind
    :meth:`free_cpu_levels` and the exact totals behind
    :meth:`free_cpu_cores`/:meth:`usable_cpu_cores`) are built on the
    first such query and kept live from then on, so a probe costs
    O(levels) or O(1) instead of a scan over every server.
    """

    def __init__(self, dcn: DataCenterNetwork) -> None:
        self._dcn = dcn
        self._ids = IdAllocator()
        self._vms: dict[VmId, VirtualMachine] = {}
        self._host: dict[VmId, ServerId] = {}
        servers = dcn.servers()
        self._capacity: dict[ServerId, ResourceVector] = {}
        self._rack: dict[ServerId, int] = {}
        rack_servers: dict[int, list[ServerId]] = {}
        for server in servers:
            spec = dcn.spec_of(server)
            self._capacity[server] = spec.capacity
            self._rack[server] = spec.rack
            rack_servers.setdefault(spec.rack, []).append(server)
        self._rack_servers = {
            rack: tuple(sorted(members))
            for rack, members in rack_servers.items()
        }
        # Occupied servers only: a server's guest set exists while it
        # hosts a VM, so idle servers cost no set.
        self._guests: dict[ServerId, set[VmId]] = {}
        zero = ResourceVector.zero()  # frozen, so one instance is shared
        self._used: dict[ServerId, ResourceVector] = dict.fromkeys(
            servers, zero
        )
        # Keyed in dcn.servers() order, so a sum over the free vectors
        # adds in the same order as a per-server scan of the fabric.  An
        # idle server's free vector is its capacity (capacity - 0 is
        # exact), so it starts as the spec's own frozen vector.
        self._free: dict[ServerId, ResourceVector] = dict(self._capacity)
        # service -> {server: placed VMs of that service}; zero counts
        # are dropped, so a service's map lists exactly its hosts.
        self._service_hosts: dict[str, dict[ServerId, int]] = {}
        # The same counts per rack (zero counts dropped), and every
        # rack's guest count (zeros kept, so it lists every rack).
        self._service_racks: dict[str, dict[int, int]] = {}
        self._rack_guests: dict[int, int] = dict.fromkeys(rack_servers, 0)
        self._cpu_index: _FreeCpuIndex | None = None  # first query builds it
        self._generation = 0
        total = 0.0
        for capacity in self._capacity.values():
            total += capacity.cpu_cores
        self._total_cpu_cores = total

    def __setstate__(self, state: dict) -> None:
        # Pickled while every server held a guest set: drop the empty.
        state["_guests"] = {
            server: members
            for server, members in state["_guests"].items()
            if members
        }
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    # VM lifecycle
    # ------------------------------------------------------------------
    def create_vm(
        self, service: ServiceType, demand: ResourceVector | None = None
    ) -> VirtualMachine:
        """Create an unplaced VM of a service (demand defaults to the
        service's typical VM demand)."""
        vm = VirtualMachine(
            vm_id=self._ids.allocate(vm_id),
            service=service.name,
            demand=demand if demand is not None else service.vm_demand,
        )
        undo.setitem(self._vms, vm.vm_id, vm)
        return vm

    def register_vm(self, vm: VirtualMachine) -> VirtualMachine:
        """Register an externally constructed VM (must have a fresh id)."""
        if vm.vm_id in self._vms:
            raise DuplicateEntityError("vm", vm.vm_id)
        undo.setitem(self._vms, vm.vm_id, vm)
        return vm

    def place(self, vm: VmId | VirtualMachine, server: ServerId) -> None:
        """Place an unplaced VM on a server, reserving capacity.

        Raises:
            PlacementError: if the VM is already placed or does not fit.
        """
        machine = self._resolve(vm)
        if machine.vm_id in self._host:
            raise PlacementError(
                f"{machine.vm_id} is already placed on "
                f"{self._host[machine.vm_id]}"
            )
        used, free = self._reserved(machine, server)
        undo.push((
            self._unplace, machine, server, self._used[server],
            self._free[server],
        ))
        self._book(machine, server, used, free, 1)
        self._host[machine.vm_id] = server

    def _unplace(
        self,
        machine: VirtualMachine,
        server: ServerId,
        used: ResourceVector,
        free: ResourceVector,
    ) -> None:
        """Undo one :meth:`place`."""
        self._book(machine, server, used, free, -1)
        del self._host[machine.vm_id]

    def migrate(self, vm: VmId | VirtualMachine, new_server: ServerId) -> ServerId:
        """Move a placed VM to another server; returns the old server."""
        machine = self._resolve(vm)
        old_server = self.host_of(machine.vm_id)
        if new_server == old_server:
            raise PlacementError(
                f"{machine.vm_id} is already on {new_server}"
            )
        # Both steps that can raise run before anything changes, so a
        # refused migration leaves no trace.
        released = self._released(machine, old_server)
        reserved = self._reserved(machine, new_server)
        undo.push((
            self._unmigrate, machine, old_server, self._used[old_server],
            self._free[old_server], new_server, self._used[new_server],
            self._free[new_server],
        ))
        self._book(machine, new_server, *reserved, 1)
        self._book(machine, old_server, *released, -1)
        self._host[machine.vm_id] = new_server
        return old_server

    def _unmigrate(
        self,
        machine: VirtualMachine,
        old_server: ServerId,
        old_used: ResourceVector,
        old_free: ResourceVector,
        new_server: ServerId,
        new_used: ResourceVector,
        new_free: ResourceVector,
    ) -> None:
        """Undo one :meth:`migrate`."""
        self._book(machine, old_server, old_used, old_free, 1)
        self._book(machine, new_server, new_used, new_free, -1)
        self._host[machine.vm_id] = old_server

    def remove(self, vm: VmId | VirtualMachine) -> None:
        """Delete a VM, releasing its capacity if placed."""
        machine = self._resolve(vm)
        server = self._host.get(machine.vm_id)
        if server is None:
            undo.push((self._unremove, machine, None, None, None))
        else:
            used, free = self._released(machine, server)
            undo.push((
                self._unremove, machine, server, self._used[server],
                self._free[server],
            ))
            self._book(machine, server, used, free, -1)
            del self._host[machine.vm_id]
        del self._vms[machine.vm_id]

    def _unremove(
        self,
        machine: VirtualMachine,
        server: ServerId | None,
        used: ResourceVector | None,
        free: ResourceVector | None,
    ) -> None:
        """Undo one :meth:`remove`."""
        self._vms[machine.vm_id] = machine
        if server is not None:
            self._book(machine, server, used, free, 1)
            self._host[machine.vm_id] = server

    def _reserved(
        self, machine: VirtualMachine, server: ServerId
    ) -> tuple[ResourceVector, ResourceVector]:
        """The server's used and free vectors once ``machine`` joins.

        Computed, not applied: this is the only part of a reservation
        that can raise.

        Raises:
            UnknownEntityError: on an unknown server.
            PlacementError: when ``machine`` does not fit.
        """
        capacity = self._capacity.get(server)
        if capacity is None:
            raise UnknownEntityError("server", server)
        proposed = self._used[server] + machine.demand
        if not proposed.fits_within(capacity):
            raise PlacementError(
                f"{machine.vm_id} (demand {machine.demand}) does not fit on "
                f"{server} (used {self._used[server]}, capacity {capacity})"
            )
        return proposed, capacity - proposed

    def _released(
        self, machine: VirtualMachine, server: ServerId
    ) -> tuple[ResourceVector, ResourceVector]:
        """The server's used and free vectors once ``machine`` leaves.

        Computed, not applied: this is the only part of a release that
        can raise.  Releasing demands in another order than they were
        reserved can leave a negative residue of a few ulps (reserve
        0.2 then 0.15 cores, release 0.2 then 0.15: -2.8e-17).  Only a
        residue within :data:`_RELEASE_RESIDUE` of the server's capacity
        is clamped to ``+0.0``; every other result is the plain
        difference, bit for bit, and releasing more than the server
        holds still raises.

        Raises:
            ValidationError: on an over-release (a corrupted ledger).
        """
        used = self._used[server]
        demand = machine.demand
        capacity = self._capacity[server]
        remaining = ResourceVector(
            _settled(
                used.cpu_cores - demand.cpu_cores, capacity.cpu_cores
            ),
            _settled(
                used.memory_gb - demand.memory_gb, capacity.memory_gb
            ),
            _settled(
                used.storage_gb - demand.storage_gb, capacity.storage_gb
            ),
        )
        return remaining, capacity - remaining

    def _book(
        self,
        machine: VirtualMachine,
        server: ServerId,
        used: ResourceVector,
        free: ResourceVector,
        step: int,
    ) -> None:
        """Set a server's used and free vectors and move ``machine``'s
        guest counts by ``step`` (+1 reserves, -1 releases).

        The one primitive every placement change passes through.  It
        logs nothing: each public mutation logs one inverse, which books
        the opposite step with the vectors it saved, so an unwound
        booking restores them bit for bit instead of re-deriving them.
        :attr:`generation` advances either way.
        """
        if self._cpu_index is not None:
            self._cpu_index.move(server, self._free[server], free)
        self._used[server] = used
        self._free[server] = free
        guests = self._guests
        if step > 0:
            members = guests.get(server)
            if members is None:
                guests[server] = {machine.vm_id}
            else:
                members.add(machine.vm_id)
        else:
            members = guests[server]
            members.discard(machine.vm_id)
            if not members:
                del guests[server]
        hosts = self._service_hosts.setdefault(machine.service, {})
        count = hosts.get(server, 0) + step
        if count:
            hosts[server] = count
        else:
            del hosts[server]
        rack = self._rack[server]
        self._rack_guests[rack] += step
        racks = self._service_racks.setdefault(machine.service, {})
        count = racks.get(rack, 0) + step
        if count:
            racks[rack] = count
        else:
            del racks[rack]
        self._generation += 1

    def _resolve(self, vm: VmId | VirtualMachine) -> VirtualMachine:
        key = vm.vm_id if isinstance(vm, VirtualMachine) else vm
        try:
            return self._vms[key]
        except KeyError:
            raise UnknownEntityError("vm", key) from None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def get(self, vm: VmId) -> VirtualMachine:
        """The VM with this id."""
        return self._resolve(vm)

    def __contains__(self, vm: VmId) -> bool:
        return vm in self._vms

    def __len__(self) -> int:
        return len(self._vms)

    def host_of(self, vm: VmId) -> ServerId:
        """Server hosting this VM; raises if the VM is unplaced."""
        self._resolve(vm)
        try:
            return self._host[vm]
        except KeyError:
            raise PlacementError(f"{vm} is not placed on any server") from None

    def hosts_of(self, vms: Iterable[VmId]) -> tuple[ServerId | None, ...]:
        """Each VM's server, in iteration order (None when unplaced or
        unknown); one dict probe per VM, for memo keys."""
        host = self._host
        return tuple([host.get(vm) for vm in vms])

    def is_placed(self, vm: VmId) -> bool:
        """True if the VM currently runs on a server."""
        self._resolve(vm)
        return vm in self._host

    def vms_on(self, server: ServerId) -> list[VirtualMachine]:
        """VMs hosted by a server (sorted by id)."""
        if server not in self._capacity:
            raise UnknownEntityError("server", server)
        return [self._vms[v] for v in sorted(self._guests.get(server, ()))]

    def vms_of_service(self, service_name: str) -> list[VirtualMachine]:
        """All VMs of one service (placed or not), sorted by id."""
        return [
            self._vms[key]
            for key in sorted(self._vms)
            if self._vms[key].service == service_name
        ]

    def all_vms(self) -> list[VirtualMachine]:
        """Every VM, sorted by id."""
        return [self._vms[key] for key in sorted(self._vms)]

    def placed_vms(self) -> list[VirtualMachine]:
        """Every placed VM, sorted by id."""
        return [self._vms[key] for key in sorted(self._host)]

    def services_present(self) -> list[str]:
        """Names of services with at least one VM, sorted."""
        return sorted({vm.service for vm in self._vms.values()})

    def tors_of_vm(self, vm: VmId) -> list[TorId]:
        """ToR switches reachable by a VM — the adjacency used by AL
        construction (a VM inherits its host server's ToR attachments)."""
        return self._dcn.tors_of_server(self.host_of(vm))

    def remaining_capacity(self, server: ServerId) -> ResourceVector:
        """Capacity a server still has free."""
        try:
            return self._free[server]
        except KeyError:
            raise UnknownEntityError("server", server) from None

    def used_capacity(self, server: ServerId) -> ResourceVector:
        """Capacity currently reserved on a server."""
        if server not in self._used:
            raise UnknownEntityError("server", server)
        return self._used[server]

    def free_capacities(self) -> Mapping[ServerId, ResourceVector]:
        """Every server's free vector, in ``network.servers()`` order.

        A read-only live view of the index :meth:`remaining_capacity`
        reads; pair it with :attr:`generation` to memoize aggregates.
        """
        return MappingProxyType(self._free)

    def _free_cpu_index(self) -> _FreeCpuIndex:
        if self._cpu_index is None:
            self._cpu_index = _FreeCpuIndex(self._free)
        return self._cpu_index

    def free_cpu_levels(self) -> Iterator[tuple[float, list[ServerId]]]:
        """``(free CPU, server ids)`` per distinct free-CPU value.

        Values descend; each list holds the servers at that value in
        ascending id order, so walking the pairs visits every server by
        ``(-free cpu, id)``.  The lists are live: consume the walk
        before the next placement change.
        """
        index = self._free_cpu_index()
        level_ids = index.level_ids
        for cpu in reversed(index.levels):
            yield cpu, level_ids[cpu]

    def free_cpu_cores(self) -> float:
        """Free CPU over every server, as one correctly rounded sum.

        Kept as an exact integer total, so the result is the exact sum
        rounded once: it equals a left-to-right sum whenever no partial
        sum rounds (true for demands that are multiples of 0.5 cores).
        """
        return self._free_cpu_index().free / _EXACT_ONE

    def usable_cpu_cores(self, reference: ResourceVector) -> float:
        """Free CPU of the servers ``reference`` still fits on.

        Correctly rounded like :meth:`free_cpu_cores`; the total for a
        reference is built on its first query and kept live after.
        """
        total = self._free_cpu_index().usable_total(reference, self._free)
        return total / _EXACT_ONE

    @property
    def generation(self) -> int:
        """Counter advanced by every capacity reservation or release.

        Equal generations mean identical free capacities, hosts and
        per-service counts.  Bookkeeping of unplaced VMs (create,
        register, removing an unplaced VM) does not advance it.
        """
        return self._generation

    @property
    def total_cpu_cores(self) -> float:
        """CPU capacity of every server, summed in server order."""
        return self._total_cpu_cores

    def rack_of(self, server: ServerId) -> int:
        """The rack a server sits in."""
        return self._rack[server]

    def guest_count(self, server: ServerId) -> int:
        """Number of VMs placed on a server."""
        if server not in self._capacity:
            raise UnknownEntityError("server", server)
        guests = self._guests.get(server)
        return 0 if guests is None else len(guests)

    def service_hosts(self, service_name: str) -> Mapping[ServerId, int]:
        """Placed VMs of one service per hosting server (read-only)."""
        return MappingProxyType(self._service_hosts.get(service_name, {}))

    def service_racks(self, service_name: str) -> Mapping[int, int]:
        """Placed VMs of one service per rack hosting any (read-only)."""
        return MappingProxyType(self._service_racks.get(service_name, {}))

    def rack_guests(self) -> Mapping[int, int]:
        """Placed VMs per rack, for every rack (read-only)."""
        return MappingProxyType(self._rack_guests)

    def rack_servers(self, rack: int) -> tuple[ServerId, ...]:
        """The servers of one rack, in ascending id order."""
        return self._rack_servers[rack]

    def utilization_by_server(self) -> dict[ServerId, float]:
        """CPU utilization fraction per server (0 when capacity is 0)."""
        result = {}
        for server, used in self._used.items():
            capacity = self._capacity[server]
            result[server] = (
                used.cpu_cores / capacity.cpu_cores if capacity.cpu_cores else 0.0
            )
        return result

    @property
    def network(self) -> DataCenterNetwork:
        """The physical fabric this inventory tracks."""
        return self._dcn

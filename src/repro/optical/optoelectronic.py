"""Capacity ledgers for optoelectronic routers hosting VNFs.

"Optoelectronic routers are a special kind of optical routers that have a
limited buffer, storage, and processing capability.  Therefore, they are
capable to host VNFs" (Section IV.D).  :class:`OptoelectronicHost` tracks
one router's remaining compute; :class:`OptoelectronicPool` tracks all the
routers of an abstraction layer and answers fit queries for the placement
optimizer.
"""

from __future__ import annotations

from typing import Iterable

from repro import undo
from repro.exceptions import PlacementError, UnknownEntityError
from repro.ids import OpsId, VnfId
from repro.topology.datacenter import DataCenterNetwork
from repro.topology.elements import ResourceVector


class OptoelectronicHost:
    """Mutable compute ledger of a single optoelectronic router."""

    def __init__(self, ops_id: OpsId, capacity: ResourceVector) -> None:
        self.ops_id = ops_id
        self.capacity = capacity
        self._used = ResourceVector.zero()
        self._hosted: dict[VnfId, ResourceVector] = {}

    @property
    def used(self) -> ResourceVector:
        """Resources currently reserved on this router."""
        return self._used

    @property
    def free(self) -> ResourceVector:
        """Resources still available on this router."""
        return self.capacity - self._used

    def fits(self, demand: ResourceVector) -> bool:
        """True if this demand fits in the free capacity."""
        return demand.fits_within(self.free)

    def host(self, vnf: VnfId, demand: ResourceVector) -> None:
        """Reserve capacity for a VNF.

        Raises:
            PlacementError: if the VNF is already hosted here or does not
                fit — "some VNFs' resource demand, e.g., CPU is quite large
                and that cannot be met by optoelectronic routers".
        """
        if vnf in self._hosted:
            raise PlacementError(f"{vnf} is already hosted on {self.ops_id}")
        if not self.fits(demand):
            raise PlacementError(
                f"{vnf} (demand {demand}) does not fit on {self.ops_id} "
                f"(free {self.free})"
            )
        undo.push((self._restore, vnf, None, self._used))
        self._hosted[vnf] = demand
        self._used = self._used + demand

    def evict(self, vnf: VnfId) -> ResourceVector:
        """Release a VNF's reservation; returns the freed demand."""
        try:
            demand = self._hosted[vnf]
        except KeyError:
            raise UnknownEntityError("hosted vnf", vnf) from None
        undo.push((self._restore, vnf, demand, self._used))
        del self._hosted[vnf]
        self._used = self._used - demand
        return demand

    def _restore(
        self, vnf: VnfId, demand: ResourceVector | None, used: ResourceVector
    ) -> None:
        """Undo one :meth:`host` (``demand`` None) or :meth:`evict`,
        putting back the used vector that stood before it."""
        if demand is None:
            del self._hosted[vnf]
        else:
            self._hosted[vnf] = demand
        self._used = used

    def hosted_vnfs(self) -> list[VnfId]:
        """Ids of VNFs currently hosted, sorted."""
        return sorted(self._hosted)

    def __contains__(self, vnf: VnfId) -> bool:
        return vnf in self._hosted


class OptoelectronicPool:
    """The optoelectronic routers available to one abstraction layer."""

    def __init__(self, hosts: Iterable[OptoelectronicHost]) -> None:
        self._hosts: dict[OpsId, OptoelectronicHost] = {}
        for host in hosts:
            if host.ops_id in self._hosts:
                raise PlacementError(f"duplicate host {host.ops_id} in pool")
            self._hosts[host.ops_id] = host

    @classmethod
    def from_network(
        cls, dcn: DataCenterNetwork, ops_ids: Iterable[OpsId]
    ) -> "OptoelectronicPool":
        """Pool over the *optoelectronic* members of the given OPS set.

        Plain OPSs (zero compute) are silently excluded: they participate
        in the AL's connectivity but cannot host VNFs.
        """
        hosts = []
        for ops in sorted(set(ops_ids)):
            spec = dcn.spec_of(ops)
            if spec.is_optoelectronic:
                hosts.append(OptoelectronicHost(ops, spec.compute))
        return cls(hosts)

    def __len__(self) -> int:
        return len(self._hosts)

    def __contains__(self, ops: OpsId) -> bool:
        return ops in self._hosts

    def host_ids(self) -> list[OpsId]:
        """Router ids in the pool, sorted."""
        return sorted(self._hosts)

    def get(self, ops: OpsId) -> OptoelectronicHost:
        """The ledger of one router."""
        try:
            return self._hosts[ops]
        except KeyError:
            raise UnknownEntityError("optoelectronic router", ops) from None

    def first_fit(self, demand: ResourceVector) -> OpsId | None:
        """Id of the first router (sorted order) that fits the demand."""
        for ops in self.host_ids():
            if self._hosts[ops].fits(demand):
                return ops
        return None

    def best_fit(self, demand: ResourceVector) -> OpsId | None:
        """Id of the fitting router with the least free CPU (tightest fit)."""
        candidates = [
            (self._hosts[ops].free.cpu_cores, ops)
            for ops in self.host_ids()
            if self._hosts[ops].fits(demand)
        ]
        if not candidates:
            return None
        return min(candidates)[1]

    def place(self, vnf: VnfId, demand: ResourceVector) -> OpsId:
        """First-fit placement of a VNF; raises PlacementError if none fits."""
        ops = self.first_fit(demand)
        if ops is None:
            raise PlacementError(
                f"no optoelectronic router in the pool fits {vnf} "
                f"(demand {demand})"
            )
        self._hosts[ops].host(vnf, demand)
        return ops

    def total_free(self) -> ResourceVector:
        """Aggregate free capacity across the pool."""
        return ResourceVector.total(host.free for host in self._hosts.values())

    def snapshot(self) -> dict[OpsId, dict[str, ResourceVector]]:
        """Per-router used/free capacities (for reports)."""
        return {
            ops: {"used": host.used, "free": host.free}
            for ops, host in sorted(self._hosts.items())
        }

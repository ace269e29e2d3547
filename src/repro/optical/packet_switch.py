"""Port accounting for optical packet switches.

Each OPS has a finite port count (:class:`OpticalSwitchSpec.port_count`);
slices and ToR uplinks consume ports.  :class:`PortAllocator` provides the
bookkeeping the slice allocator uses to refuse over-subscription.
"""

from __future__ import annotations

from repro.exceptions import InsufficientResourcesError, UnknownEntityError, ValidationError
from repro.ids import OpsId
from repro.topology.datacenter import DataCenterNetwork


class PortAllocator:
    """Tracks port usage on every OPS of a fabric.

    Physical ToR uplinks are charged automatically at construction; the
    remaining ports are available to dynamic consumers (slices, core
    interconnects added later).
    """

    def __init__(self, dcn: DataCenterNetwork) -> None:
        self._capacity: dict[OpsId, int] = {}
        self._used: dict[OpsId, int] = {}
        self._holders: dict[OpsId, dict[str, int]] = {}
        for ops in dcn.optical_switches():
            spec = dcn.spec_of(ops)
            physical_degree = dcn.degree(ops)
            if physical_degree > spec.port_count:
                raise InsufficientResourcesError(
                    f"{ops} has {physical_degree} physical links but only "
                    f"{spec.port_count} ports"
                )
            self._capacity[ops] = spec.port_count
            self._used[ops] = physical_degree
            self._holders[ops] = {"physical": physical_degree}

    def capacity(self, ops: OpsId) -> int:
        """Total ports on a switch."""
        try:
            return self._capacity[ops]
        except KeyError:
            raise UnknownEntityError("ops", ops) from None

    def used(self, ops: OpsId) -> int:
        """Ports currently in use on a switch."""
        self.capacity(ops)
        return self._used[ops]

    def free(self, ops: OpsId) -> int:
        """Ports still free on a switch."""
        return self.capacity(ops) - self.used(ops)

    def reserve(self, ops: OpsId, holder: str, count: int = 1) -> None:
        """Reserve ``count`` ports for a named holder.

        Raises:
            InsufficientResourcesError: when the switch has too few free
                ports.
        """
        if count <= 0:
            raise ValidationError(f"port count must be positive, got {count}")
        if self.free(ops) < count:
            raise InsufficientResourcesError(
                f"{ops} has {self.free(ops)} free port(s), {count} requested "
                f"by {holder!r}"
            )
        self._used[ops] += count
        holders = self._holders[ops]
        holders[holder] = holders.get(holder, 0) + count

    def release(self, ops: OpsId, holder: str) -> int:
        """Release all ports held by ``holder``; returns how many."""
        self.capacity(ops)
        holders = self._holders[ops]
        count = holders.pop(holder, 0)
        self._used[ops] -= count
        return count

    def holders_of(self, ops: OpsId) -> dict[str, int]:
        """Current holders and their port counts on a switch."""
        self.capacity(ops)
        return dict(self._holders[ops])

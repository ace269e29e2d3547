"""Optical slices: one per cluster, one per NFC (paper Sections IV.B-C).

The orchestrator "will logically divide the optical network into virtual
slices and will allocate each slice to a single NFC.  In AL-VC, that
division is in the shape of ALs."  A slice is therefore an AL plus a
wavelength and a bandwidth share; slices are mutually OPS-disjoint.
"""

from __future__ import annotations

import dataclasses

from repro import undo
from repro.core.cluster import VirtualCluster
from repro.exceptions import InsufficientResourcesError, SlicingError
from repro.ids import ClusterId, IdAllocator, SliceId, slice_id
from repro.observability.runtime import Telemetry, current_telemetry
from repro.optical.packet_switch import PortAllocator
from repro.optical.wavelengths import WavelengthAssigner
from repro.topology.datacenter import DataCenterNetwork


@dataclasses.dataclass(frozen=True, slots=True)
class OpticalSlice:
    """A virtual slice of the optical core allocated to one cluster/NFC."""

    slice_id: SliceId
    cluster: ClusterId
    switches: frozenset
    wavelength: int
    bandwidth_gbps: float

    def __post_init__(self) -> None:
        if not self.switches:
            raise SlicingError(f"slice {self.slice_id} has no switches")
        if self.bandwidth_gbps <= 0:
            raise SlicingError(
                f"slice {self.slice_id} bandwidth must be positive, "
                f"got {self.bandwidth_gbps}"
            )


class SliceAllocator:
    """Allocates OPS-disjoint optical slices over abstraction layers.

    Each slice holds a wavelength on every switch it uses, and — when a
    :class:`~repro.optical.packet_switch.PortAllocator` is supplied — one
    switch port per member (the slice's add/drop port).
    """

    def __init__(
        self,
        dcn: DataCenterNetwork,
        port_allocator: PortAllocator | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self._telemetry = (
            telemetry if telemetry is not None else current_telemetry()
        )
        self._assigner = WavelengthAssigner.from_network(dcn)
        self._ports = port_allocator
        self._ids = IdAllocator()
        self._slices: dict[SliceId, OpticalSlice] = {}
        self._by_cluster: dict[ClusterId, SliceId] = {}

    def _record_census(self) -> None:
        self._telemetry.gauge(
            "alvc_slices_active", "currently allocated optical slices"
        ).set(len(self._slices))

    def allocate(
        self, cluster: VirtualCluster, bandwidth_gbps: float = 1.0
    ) -> OpticalSlice:
        """Allocate the slice of a cluster (its AL plus a wavelength).

        Raises:
            SlicingError: if the cluster already has a slice or its
                switches overlap an existing slice (AL disjointness should
                make this impossible; violating it is a caller bug).
        """
        if cluster.cluster_id in self._by_cluster:
            raise SlicingError(
                f"cluster {cluster.cluster_id} already has a slice"
            )
        overlap = self._overlapping(cluster.al_switches)
        if overlap:
            raise SlicingError(
                f"AL of {cluster.cluster_id} overlaps slice(s) {overlap} — "
                f"abstraction layers must be OPS-disjoint"
            )
        new_id = self._ids.allocate(slice_id)
        assignment = self._assigner.assign(new_id, cluster.al_switches)
        if self._ports is not None:
            reserved: list = []
            try:
                for switch in sorted(cluster.al_switches):
                    self._ports.reserve(switch, new_id)
                    reserved.append(switch)
            except InsufficientResourcesError:
                for switch in reserved:
                    self._ports.release(switch, new_id)
                self._assigner.release(new_id)
                raise
        allocated = OpticalSlice(
            slice_id=new_id,
            cluster=cluster.cluster_id,
            switches=frozenset(cluster.al_switches),
            wavelength=assignment.wavelength,
            bandwidth_gbps=bandwidth_gbps,
        )
        undo.setitem(self._slices, new_id, allocated)
        undo.setitem(self._by_cluster, cluster.cluster_id, new_id)
        if self._telemetry.enabled:
            self._telemetry.counter(
                "alvc_slices_allocated_total", "optical slices allocated"
            ).inc()
            self._record_census()
        return allocated

    def _overlapping(self, switches) -> list[SliceId]:
        switch_set = set(switches)
        return sorted(
            existing.slice_id
            for existing in self._slices.values()
            if existing.switches & switch_set
        )

    def extend(
        self, extended: SliceId, extra_switches
    ) -> OpticalSlice:
        """Grow a slice to cover a repaired/extended abstraction layer.

        Keeps the wavelength; newly added switches get a port reservation
        when port accounting is enabled.

        Raises:
            SlicingError: on overlap with another slice or wavelength
                unavailability.
        """
        try:
            old = self._slices[extended]
        except KeyError:
            raise SlicingError(f"unknown slice {extended}") from None
        additions = frozenset(extra_switches) - old.switches
        if not additions:
            return old
        overlap = [
            other.slice_id
            for other in self._slices.values()
            if other.slice_id != extended and other.switches & additions
        ]
        if overlap:
            raise SlicingError(
                f"extension of {extended} overlaps slice(s) {sorted(overlap)}"
            )
        assignment = self._assigner.extend(extended, additions)
        if self._ports is not None:
            reserved = []
            try:
                for switch in sorted(additions):
                    self._ports.reserve(switch, extended)
                    reserved.append(switch)
            except InsufficientResourcesError:
                for switch in reserved:
                    self._ports.release(switch, extended)
                raise
        updated = dataclasses.replace(
            old, switches=assignment.switches
        )
        undo.setitem(self._slices, extended, updated)
        return updated

    def release(self, released: SliceId) -> OpticalSlice:
        """Release a slice, returning its wavelength to the pool."""
        try:
            old = undo.pop(self._slices, released)
        except KeyError:
            raise SlicingError(f"unknown slice {released}") from None
        self._assigner.release(released)
        if self._ports is not None:
            for switch in old.switches:
                self._ports.release(switch, released)
        undo.pop(self._by_cluster, old.cluster)
        if self._telemetry.enabled:
            self._telemetry.counter(
                "alvc_slices_released_total", "optical slices released"
            ).inc()
            self._record_census()
        return old

    def slice_of_cluster(self, cluster: ClusterId) -> OpticalSlice:
        """The active slice of a cluster."""
        try:
            return self._slices[self._by_cluster[cluster]]
        except KeyError:
            raise SlicingError(f"cluster {cluster} has no slice") from None

    def slices(self) -> list[OpticalSlice]:
        """All active slices, sorted by id."""
        return [self._slices[key] for key in sorted(self._slices)]

    def verify_isolation(self) -> None:
        """Assert pairwise switch-disjointness of all active slices.

        Raises:
            SlicingError: when two slices share an OPS.
        """
        seen: dict[str, SliceId] = {}
        for active in self.slices():
            for switch in active.switches:
                if switch in seen:
                    raise SlicingError(
                        f"{switch} is in both {seen[switch]} and "
                        f"{active.slice_id}"
                    )
                seen[switch] = active.slice_id

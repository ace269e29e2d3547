"""Virtual clusters and their manager (paper Sections I, III.A).

"A particular group of VMs and its corresponding AL forms a Virtual
Cluster (VC)."  The :class:`ClusterManager` groups VMs by service type,
constructs one abstraction layer per cluster, and enforces the paper's
disjointness rule: "one OPS cannot be part of two ALs at the same time."
"""

from __future__ import annotations

import dataclasses
from typing import Iterable

from repro import undo
from repro.core.abstraction_layer import (
    AbstractionLayer,
    AlConstructionStrategy,
    AlConstructor,
)
from repro.exceptions import (
    DuplicateEntityError,
    TopologyError,
    UnknownEntityError,
)
from repro.ids import ClusterId, OpsId, VmId, cluster_id
from repro.observability.runtime import Telemetry, current_telemetry
from repro.virtualization.machines import MachineInventory


@dataclasses.dataclass(frozen=True)
class VirtualCluster:
    """One service's VMs together with the AL that manages them."""

    cluster_id: ClusterId
    service: str
    vm_ids: frozenset
    abstraction_layer: AbstractionLayer

    @property
    def al_switches(self) -> frozenset:
        """The cluster's optical slice: its AL's OPS ids."""
        return self.abstraction_layer.ops_ids

    @property
    def tor_switches(self) -> frozenset:
        """ToRs selected by the AL's vertex-cover stage."""
        return self.abstraction_layer.tor_ids

    def __len__(self) -> int:
        return len(self.vm_ids)


class ClusterManager:
    """Creates and tracks service-based virtual clusters.

    OPS assignments are exclusive across clusters; dissolving a cluster
    returns its switches to the free pool.
    """

    def __init__(
        self,
        inventory: MachineInventory,
        strategy: AlConstructionStrategy = AlConstructionStrategy.VERTEX_COVER_GREEDY,
        seed: int = 0,
        telemetry: Telemetry | None = None,
        kernel: str = "auto",
        engine: str = "greedy",
    ) -> None:
        self._telemetry = (
            telemetry if telemetry is not None else current_telemetry()
        )
        self._inventory = inventory
        self._kernel = kernel
        self._engine = engine
        self._constructor = AlConstructor(
            inventory.network,
            strategy=strategy,
            seed=seed,
            telemetry=self._telemetry,
            kernel=kernel,
            engine=engine,
        )
        self._clusters: dict[ClusterId, VirtualCluster] = {}
        self._assigned_ops: dict[OpsId, ClusterId] = {}

    # ------------------------------------------------------------------
    # Cluster lifecycle
    # ------------------------------------------------------------------
    def create_cluster(
        self, service: str, vms: Iterable[VmId] | None = None
    ) -> VirtualCluster:
        """Create the cluster of a service and construct its AL.

        Args:
            service: service name; the cluster id derives from it.
            vms: VMs to include; defaults to every placed VM of the
                service currently in the inventory.

        Raises:
            DuplicateEntityError: when the service already has a cluster.
            TopologyError: when the service has no placed VMs.
            CoverInfeasibleError: when the unassigned OPSs cannot connect
                the cluster (disjointness exhaustion).
        """
        new_id = cluster_id(service)
        if new_id in self._clusters:
            raise DuplicateEntityError("cluster", new_id)
        with self._telemetry.span("create_cluster", cluster=str(new_id)):
            members = self._resolve_members(service, vms)
            attachments = {
                vm: self._inventory.tors_of_vm(vm) for vm in sorted(members)
            }
            layer = self._constructor.construct(
                new_id, attachments, available_ops=self.free_ops()
            )
            cluster = VirtualCluster(
                cluster_id=new_id,
                service=service,
                vm_ids=frozenset(members),
                abstraction_layer=layer,
            )
            undo.setitem(self._clusters, new_id, cluster)
            for ops in layer.ops_ids:
                undo.setitem(self._assigned_ops, ops, new_id)
            self._telemetry.counter(
                "alvc_clusters_created_total", "virtual clusters created"
            ).inc()
            return cluster

    def _resolve_members(
        self, service: str, vms: Iterable[VmId] | None
    ) -> set:
        if vms is not None:
            members = set(vms)
            for vm in members:
                record = self._inventory.get(vm)
                if record.service != service:
                    raise TopologyError(
                        f"{vm} offers {record.service!r}, not {service!r}"
                    )
        else:
            members = {
                vm.vm_id
                for vm in self._inventory.vms_of_service(service)
                if self._inventory.is_placed(vm.vm_id)
            }
        if not members:
            raise TopologyError(f"service {service!r} has no placed VMs")
        return members

    def create_all_clusters(self) -> list[VirtualCluster]:
        """Create a cluster for every service with placed VMs.

        Services are processed in sorted order (deterministic OPS
        assignment); services that already have a cluster are skipped.

        Raises:
            CoverInfeasibleError: when the core runs out of OPSs mid-way
                (clusters created before the failure remain).
        """
        created = []
        for service in self._inventory.services_present():
            if cluster_id(service) in self._clusters:
                continue
            placed = [
                vm.vm_id
                for vm in self._inventory.vms_of_service(service)
                if self._inventory.is_placed(vm.vm_id)
            ]
            if not placed:
                continue
            created.append(self.create_cluster(service))
        return created

    def rebuild_cluster(self, service: str) -> VirtualCluster:
        """Dissolve and re-create a service's cluster (after churn)."""
        self.dissolve_cluster(service)
        return self.create_cluster(service)

    def replace_cluster(self, cluster: VirtualCluster) -> VirtualCluster:
        """Swap in an updated cluster record (e.g. after AL repair).

        OPS ownership follows the new abstraction layer.  The cluster id
        must already exist, and the new AL may only claim switches that
        are free or already owned by this cluster.

        Raises:
            UnknownEntityError: for an unknown cluster id.
            TopologyError: when the new AL claims another cluster's OPS.
        """
        key = cluster.cluster_id
        if key not in self._clusters:
            raise UnknownEntityError("cluster", key)
        for ops in cluster.al_switches:
            owner = self._assigned_ops.get(ops)
            if owner is not None and owner != key:
                raise TopologyError(
                    f"{ops} already belongs to {owner}; cannot move it "
                    f"to {key}"
                )
        old = self._clusters[key]
        for ops in old.al_switches - cluster.al_switches:
            if ops in self._assigned_ops:
                undo.pop(self._assigned_ops, ops)
        for ops in cluster.al_switches:
            undo.setitem(self._assigned_ops, ops, key)
        undo.setitem(self._clusters, key, cluster)
        return cluster

    def dissolve_cluster(self, service: str) -> VirtualCluster:
        """Remove a cluster, releasing its OPSs; returns the old cluster."""
        key = cluster_id(service)
        try:
            cluster = undo.pop(self._clusters, key)
        except KeyError:
            raise UnknownEntityError("cluster", key) from None
        for ops in cluster.al_switches:
            if ops in self._assigned_ops:
                undo.pop(self._assigned_ops, ops)
        return cluster

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def cluster_of_service(self, service: str) -> VirtualCluster:
        """The cluster serving a service name."""
        key = cluster_id(service)
        try:
            return self._clusters[key]
        except KeyError:
            raise UnknownEntityError("cluster", key) from None

    def cluster_of_vm(self, vm: VmId) -> VirtualCluster:
        """The cluster containing a VM."""
        for cluster in self._clusters.values():
            if vm in cluster.vm_ids:
                return cluster
        raise UnknownEntityError("cluster containing vm", vm)

    def clusters(self) -> list[VirtualCluster]:
        """All clusters, sorted by id."""
        return [self._clusters[key] for key in sorted(self._clusters)]

    def free_ops(self) -> set:
        """OPSs not assigned to any AL."""
        return {
            ops
            for ops in self._inventory.network.optical_switches()
            if ops not in self._assigned_ops
        }

    def owner_of_ops(self, ops: OpsId) -> ClusterId | None:
        """The cluster owning an OPS, or None when free."""
        return self._assigned_ops.get(ops)

    def census(self) -> dict[str, dict[str, int]]:
        """Per-cluster sizes (for reports): VMs, ToRs, AL switches."""
        return {
            cluster.cluster_id: {
                "vms": len(cluster.vm_ids),
                "tors": len(cluster.tor_switches),
                "al_switches": len(cluster.al_switches),
            }
            for cluster in self.clusters()
        }

    @property
    def inventory(self) -> MachineInventory:
        """The VM inventory the clusters are built over."""
        return self._inventory

    @property
    def kernel(self) -> str:
        """The cover kernel AL construction and repair run on."""
        return self._kernel

    @property
    def engine(self) -> str:
        """The solver engine AL construction runs on."""
        return self._engine

"""The Cloud/NFV manager.

One of the two NFVI managers of the AL-VC functional architecture (Section
IV.B, Fig. 6): it is "responsible for managing VMs and storage resources
[and] for managing the VNFs during its lifetime, such as VNF creation,
scaling, termination, and update events".

Deployment model:

* an **optical-domain** VNF is hosted directly on an optoelectronic router,
  reserving part of its limited compute;
* an **electronic-domain** VNF runs inside a carrier VM on a server, so its
  capacity is charged through the same :class:`MachineInventory` that
  tracks tenant VMs.
"""

from __future__ import annotations

from repro import undo
from repro.exceptions import PlacementError, UnknownEntityError, ValidationError
from repro.ids import IdAllocator, OpsId, ServerId, VnfId, vnf_id
from repro.nfv.functions import FunctionCatalog, NetworkFunctionType, VnfInstance
from repro.nfv.lifecycle import VnfLifecycleManager, VnfState
from repro.observability.runtime import Telemetry, current_telemetry
from repro.optical.optoelectronic import OptoelectronicPool
from repro.topology.elements import Domain, ResourceVector
from repro.virtualization.machines import MachineInventory
from repro.virtualization.services import ServiceType

# Carrier VMs for electronic VNFs are tagged with this pseudo-service so
# they are distinguishable from tenant VMs in inventory queries.
NFV_INFRA_SERVICE = ServiceType("nfv-infra", traffic_intensity=0.0)


class CloudNfvManager:
    """Deploys and manages VNF instances across both domains."""

    def __init__(
        self,
        inventory: MachineInventory,
        catalog: FunctionCatalog | None = None,
        pool: OptoelectronicPool | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self._telemetry = (
            telemetry if telemetry is not None else current_telemetry()
        )
        self._inventory = inventory
        self._catalog = catalog if catalog is not None else FunctionCatalog.standard()
        network = inventory.network
        self._pool = (
            pool
            if pool is not None
            else OptoelectronicPool.from_network(
                network, network.optical_switches()
            )
        )
        self._lifecycle = VnfLifecycleManager()
        self._ids = IdAllocator()
        self._instances: dict[VnfId, VnfInstance] = {}
        self._carrier_vms: dict[VnfId, str] = {}
        # Journal hook (shared with the orchestrator); a direct scale or
        # migrate call is a top-level command, the same call made inside
        # an orchestrator operation is suppressed by the depth guard.
        from repro.service.journal import NULL_RECORDER

        self._recorder = NULL_RECORDER

    def __setstate__(self, state: dict) -> None:
        # Pickled while terminated instances were kept: keep the live
        # ones, which the lifecycle (restored first) still holds.
        live = state["_lifecycle"]
        state["_instances"] = {
            vnf: instance
            for vnf, instance in state["_instances"].items()
            if vnf in live
        }
        self.__dict__.update(state)

    def attach_recorder(self, recorder) -> None:
        """Install the journal hook (see :class:`OpRecorder`)."""
        self._recorder = recorder

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------
    def deploy_optical(
        self, function_name: str, ops: OpsId | None = None
    ) -> VnfInstance:
        """Deploy a VNF on an optoelectronic router.

        Args:
            function_name: a name from the catalog.
            ops: target router; first-fit over the pool when omitted.

        Raises:
            PlacementError: if the function is not optical-capable or no
                router has room for it.
        """
        function = self._catalog.get(function_name)
        if not function.optical_capable:
            raise PlacementError(
                f"{function_name} cannot run in the optical domain"
            )
        new_id = self._ids.allocate(vnf_id)
        if ops is None:
            ops = self._pool.first_fit(function.demand)
            if ops is None:
                raise PlacementError(
                    f"no optoelectronic router fits {function_name} "
                    f"(demand {function.demand})"
                )
            self._pool.get(ops).host(new_id, function.demand)
        else:
            self._pool.get(ops).host(new_id, function.demand)
        instance = VnfInstance(
            vnf_id=new_id, function=function, host=ops, domain=Domain.OPTICAL
        )
        self._register(instance)
        return instance

    def deploy_electronic(
        self, function_name: str, server: ServerId | None = None
    ) -> VnfInstance:
        """Deploy a VNF in a carrier VM on a server (first-fit if omitted)."""
        function = self._catalog.get(function_name)
        carrier = self._inventory.create_vm(NFV_INFRA_SERVICE, function.demand)
        placed = False
        try:
            if server is None:
                for candidate in self._inventory.network.servers():
                    if function.demand.fits_within(
                        self._inventory.remaining_capacity(candidate)
                    ):
                        server = candidate
                        break
                if server is None:
                    raise PlacementError(
                        f"no server fits {function_name} "
                        f"(demand {function.demand})"
                    )
            self._inventory.place(carrier, server)
            placed = True
        finally:
            if not placed:
                self._inventory.remove(carrier)
        instance = VnfInstance(
            vnf_id=self._ids.allocate(vnf_id),
            function=function,
            host=server,
            domain=Domain.ELECTRONIC,
        )
        self._register(instance, carrier.vm_id)
        return instance

    def _register(
        self, instance: VnfInstance, carrier: str | None = None
    ) -> None:
        """Record a deployed instance (and its carrier VM) and start it."""
        vnf = instance.vnf_id
        undo.push((self._unregister, vnf, carrier is not None))
        self._instances[vnf] = instance
        if carrier is not None:
            self._carrier_vms[vnf] = carrier
        self._lifecycle.launch(vnf)
        if self._telemetry.enabled:
            self._telemetry.counter(
                "alvc_vnfs_deployed_total",
                "VNF instances deployed",
                domain=instance.domain.value,
            ).inc()

    def _unregister(self, vnf: VnfId, carried: bool) -> None:
        """Undo one :meth:`_register` (ids are fresh, so nothing it
        replaced needs restoring)."""
        del self._instances[vnf]
        if carried:
            del self._carrier_vms[vnf]

    # ------------------------------------------------------------------
    # Lifecycle management (paper: creation, scaling, update, termination)
    # ------------------------------------------------------------------
    def scale(self, vnf: VnfId, factor: float) -> VnfInstance:
        """Scale a VNF's reservation by ``factor`` (e.g. 2.0 to double).

        The new reservation must fit its current host; scaling never
        migrates.  A refused scale changes nothing (:mod:`repro.undo`).
        """
        with self._recorder.operation() as outermost:
            updated = self._scale(vnf, factor)
            if outermost:
                self._recorder.record("vnf_scale", vnf=vnf, factor=factor)
        return updated

    def _scale(self, vnf: VnfId, factor: float) -> VnfInstance:
        if factor <= 0:
            raise ValidationError(f"scale factor must be positive, got {factor}")
        instance = self.instance_of(vnf)
        self._lifecycle.scale(vnf)
        new_demand = instance.function.demand.scaled(factor)
        self._rehost(instance, new_demand)
        self._lifecycle.finish_management(vnf)
        scaled_function = NetworkFunctionType(
            name=instance.function.name,
            demand=new_demand,
            per_gb_processing_cost=instance.function.per_gb_processing_cost,
            optical_capable=instance.function.optical_capable,
        )
        updated = VnfInstance(
            vnf_id=instance.vnf_id,
            function=scaled_function,
            host=instance.host,
            domain=instance.domain,
        )
        undo.setitem(self._instances, vnf, updated)
        return updated

    def _rehost(self, instance: VnfInstance, new_demand: ResourceVector) -> None:
        """Replace an instance's reservation with ``new_demand`` in place."""
        if instance.domain is Domain.OPTICAL:
            host = self._pool.get(instance.host)
            host.evict(instance.vnf_id)
            host.host(instance.vnf_id, new_demand)
        else:
            self._recarry(instance.vnf_id, new_demand, None)

    def _recarry(
        self, vnf: VnfId, demand: ResourceVector, server: ServerId | None
    ) -> None:
        """Swap a VNF's carrier VM for a new one of ``demand`` on
        ``server`` (the old carrier's server when None)."""
        carrier_id = self._carrier_vms[vnf]
        if server is None:
            server = self._inventory.host_of(carrier_id)
        self._inventory.remove(carrier_id)
        carrier = self._inventory.create_vm(NFV_INFRA_SERVICE, demand)
        self._inventory.place(carrier, server)
        undo.setitem(self._carrier_vms, vnf, carrier.vm_id)

    def update(self, vnf: VnfId) -> None:
        """Run an update event (no resource change)."""
        self._lifecycle.update(vnf)
        self._lifecycle.finish_management(vnf)

    def migrate(self, vnf: VnfId, new_host: str) -> VnfInstance:
        """Move a live VNF to a new host in the same domain.

        The evacuation path of the self-healing story: when an
        optoelectronic router dies, its optical VNFs are re-hosted on a
        surviving router (and likewise electronic VNFs between
        servers).  The move is transactional — on a failure the original
        reservation and carrier are restored and the error re-raised.

        Args:
            vnf: the instance to move.
            new_host: target router (optical) or server (electronic).

        Raises:
            ValidationError: when the VNF already runs on ``new_host``.
            PlacementError: when the target lacks capacity (the VNF
                stays where it was).
            UnknownEntityError: on an unknown VNF or target host.
        """
        with self._recorder.operation() as outermost:
            updated = self._migrate(vnf, new_host)
            if outermost:
                self._recorder.record("vnf_migrate", vnf=vnf, host=new_host)
        return updated

    def _migrate(self, vnf: VnfId, new_host: str) -> VnfInstance:
        instance = self.instance_of(vnf)
        if instance.host == new_host:
            raise ValidationError(
                f"{vnf} already runs on {new_host}"
            )
        self._lifecycle.update(vnf)
        if instance.domain is Domain.OPTICAL:
            source = self._pool.get(instance.host)
            target = self._pool.get(new_host)
            source.evict(vnf)
            target.host(vnf, instance.function.demand)
        else:
            self._recarry(vnf, instance.function.demand, new_host)
        self._lifecycle.finish_management(vnf)
        updated = VnfInstance(
            vnf_id=vnf,
            function=instance.function,
            host=new_host,
            domain=instance.domain,
        )
        undo.setitem(self._instances, vnf, updated)
        self._telemetry.counter(
            "alvc_vnfs_migrated_total",
            "VNF instances migrated between hosts",
            domain=instance.domain.value,
        ).inc()
        return updated

    def terminate(self, vnf: VnfId) -> None:
        """Terminate a VNF and release its resources.

        The instance record goes with it (its lifecycle counts the
        termination), so a terminated id is unknown from then on.
        """
        instance = self.instance_of(vnf)
        lifecycle = self._lifecycle
        undo.push((self._unterminate, instance, lifecycle._terminating(vnf)))
        del self._instances[vnf]
        lifecycle._drop(vnf)
        if instance.domain is Domain.OPTICAL:
            self._pool.get(instance.host).evict(vnf)
        else:
            self._inventory.remove(undo.pop(self._carrier_vms, vnf))
        if self._telemetry.enabled:
            self._telemetry.counter(
                "alvc_vnfs_terminated_total",
                "VNF instances terminated",
                domain=instance.domain.value,
            ).inc()

    def _unterminate(self, instance: VnfInstance, lifecycle: tuple) -> None:
        """Undo one :meth:`terminate`'s record and lifecycle drop."""
        self._instances[instance.vnf_id] = instance
        lifecycle[0](*lifecycle[1:])

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def instance_of(self, vnf: VnfId) -> VnfInstance:
        """The instance record of a VNF."""
        try:
            return self._instances[vnf]
        except KeyError:
            raise UnknownEntityError("vnf", vnf) from None

    def state_of(self, vnf: VnfId) -> VnfState:
        """Lifecycle state of a VNF."""
        return self._lifecycle.state_of(vnf)

    def live_instances(self) -> list[VnfInstance]:
        """Instances not yet terminated, sorted by id."""
        instances = self._instances
        return [instances[vnf] for vnf in sorted(instances)]

    def instances_on(self, host: str) -> list[VnfInstance]:
        """Live instances on one host node."""
        return [
            instance
            for instance in self.live_instances()
            if instance.host == host
        ]

    @property
    def catalog(self) -> FunctionCatalog:
        """The function catalog used for deployments."""
        return self._catalog

    @property
    def pool(self) -> OptoelectronicPool:
        """The optoelectronic router pool backing optical deployments."""
        return self._pool

    @property
    def lifecycle(self) -> VnfLifecycleManager:
        """The lifecycle state machine and its counts (read-mostly)."""
        return self._lifecycle

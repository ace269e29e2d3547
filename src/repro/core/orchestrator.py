"""The network orchestrator for multi-tenant NFC management.

Paper Section IV.B: "we proposed a network orchestrator for multiple-tenant
SDN-enabled network.  It is responsible for managing (provisioning,
creation, modification, upgradation, and deletion) of multiple NFCs.  It
will logically divide the optical network into virtual slices and will
allocate each slice to a single NFC."

``provision_chain`` runs the full AL-VC pipeline for one
:class:`~repro.core.chaining.ChainRequest`:

1. look up (or build) the service's virtual cluster and its AL;
2. allocate the cluster's optical slice;
3. solve VNF placement over the AL's optoelectronic routers
   (O/E/O-minimizing, Section IV.D);
4. deploy the VNFs through the Cloud/NFV manager;
5. route the chain inside the AL and install flow rules through the SDN
   controller.
"""

from __future__ import annotations

import dataclasses

from repro import undo
from repro.config import EngineConfig
from repro.core.chaining import ChainRequest, NetworkFunctionChain
from repro.core.cluster import ClusterManager, VirtualCluster
from repro.core.placement import (
    ChainPlacement,
    HostPolicy,
    PlacementAlgorithm,
    PlacementSolver,
)
from repro.core.reconfiguration import AlReconfigurator
from repro.core.slicing import OpticalSlice, SliceAllocator
from repro.exceptions import (
    CoverInfeasibleError,
    DuplicateEntityError,
    PlacementError,
    RoutingError,
    SlicingError,
    UnknownEntityError,
)
from repro.ids import ChainId, OpsId, ServerId, VnfId
from repro.nfv.manager import CloudNfvManager
from repro.observability.runtime import Telemetry, current_telemetry
from repro.observability.tracing import NULL_SPAN
from repro.optical.conversion import ConversionModel
from repro.sdn.controller import SdnController
from repro.sdn.path_engine import engine_for
from repro.sdn.routing import shortest_path_in_al
from repro.service.journal import NULL_RECORDER
from repro.service.records import chain_to_spec, policy_to_spec
from repro.topology.elements import Domain
from repro.virtualization.machines import MachineInventory


@dataclasses.dataclass(frozen=True)
class ProvisioningPlan:
    """A dry-run answer to "would this chain provision succeed?".

    Produced by :meth:`NetworkOrchestrator.plan_chain` without mutating
    any state; ``problems`` is empty exactly when provisioning would be
    admitted.
    """

    request: ChainRequest
    feasible: bool
    problems: tuple[str, ...]
    placement: ChainPlacement | None = None
    electronic_hosts: tuple[ServerId, ...] = ()

    @property
    def conversions(self) -> int | None:
        """Predicted O/E/O conversions per flow (None when infeasible)."""
        return self.placement.conversions if self.placement else None


@dataclasses.dataclass(frozen=True, slots=True)
class _ClusterContext:
    """Per-cluster admission context, memoized across commands.

    Holds only capacity-*independent* facts (candidate server order,
    routing endpoints, the AL's routers in solver order); free capacity
    is always probed live.  :meth:`NetworkOrchestrator._context_of`
    says what invalidates it.
    """

    candidates: tuple[ServerId, ...]
    vm_servers: tuple[ServerId, ...]
    routers: tuple[OpsId, ...]


#: ``EngineConfig(solver="auto")`` places with ``EXACT`` up to this many
#: movable positions and with ``GREEDY`` beyond.
_AUTO_EXACT_POSITIONS = 12


#: AL-confined route segments the orchestrator memoizes before it
#: drops the whole memo and starts over.
SEGMENT_MEMO_LIMIT = 1024


#: Histogram buckets for virtual recovery time after an OPS failure.
RECOVERY_SECONDS_BUCKETS: tuple[float, ...] = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


@dataclasses.dataclass(frozen=True)
class OpsFailureRecovery:
    """Outcome of one orchestrator-level OPS failure recovery.

    Attributes:
        failed: the dead optical switch.
        cluster: id of the cluster whose AL contained it (``None`` for
            a free switch — the blast radius the paper promises).
        recovered: False when AL repair gave up and the cluster's
            chains entered degraded mode.
        attempts: repair attempts made (1 without a policy).
        recovery_time: virtual seconds of backoff spent before the
            final attempt (0.0 on first-try success).
        switches_touched: update cost of the AL repair.
        rebuilt: whether repair fell back to full reconstruction.
        chains_rerouted: live chains re-pathed inside the repaired AL.
        vnfs_migrated: VNF instances evacuated off the dead router.
        degraded_chains: chains newly marked degraded by this event.
    """

    failed: OpsId
    cluster: str | None
    recovered: bool
    attempts: int
    recovery_time: float
    switches_touched: int
    rebuilt: bool
    chains_rerouted: int
    vnfs_migrated: int
    degraded_chains: tuple[ChainId, ...] = ()


@dataclasses.dataclass(frozen=True)
class OrchestratedChain:
    """A live NFC: its cluster, slice, placement, instances and path."""

    request: ChainRequest
    cluster: VirtualCluster
    optical_slice: OpticalSlice
    placement: ChainPlacement
    vnf_ids: tuple[VnfId, ...]
    path: tuple[str, ...]

    @property
    def chain_id(self) -> ChainId:
        """Id of the underlying chain."""
        return self.request.chain.chain_id

    @property
    def conversions(self) -> int:
        """O/E/O conversions per flow of this chain."""
        return self.placement.conversions


class NetworkOrchestrator:
    """End-to-end manager of clusters, slices, placements and chains."""

    def __init__(
        self,
        inventory: MachineInventory,
        *,
        cluster_manager: ClusterManager | None = None,
        nfv_manager: CloudNfvManager | None = None,
        sdn: SdnController | None = None,
        merge_consecutive: bool = False,
        placement_seed: int = 0,
        exclusive_chains: bool = True,
        host_policy: HostPolicy | None = None,
        telemetry: Telemetry | None = None,
        engines: EngineConfig | dict | None = None,
    ) -> None:
        """Create an orchestrator over a populated inventory.

        All collaborators are injected keyword-only; only the inventory —
        the one mandatory dependency — may be passed positionally.

        Args:
            inventory: the VM ledger (and through it, the fabric).
            cluster_manager: cluster manager to use (one is created when
                omitted).
            nfv_manager: Cloud/NFV manager (created when omitted).
            sdn: SDN controller (created when omitted).
            merge_consecutive: O/E/O accounting semantics; see
                :mod:`repro.optical.conversion`.
            placement_seed: seed for randomized placement algorithms.
            exclusive_chains: when True (the paper's Section IV.C
                specialization) each cluster hosts exactly one NFC; when
                False (the per-user/per-application mode of Section IV.A)
                a cluster may carry several chains sharing its slice.
            host_policy: how optical VNFs pick among fitting routers
                (FIRST_FIT consolidates; WORST_FIT load-balances); see
                :class:`~repro.core.placement.HostPolicy`.
            telemetry: metrics/tracing sink; defaults to the ambient
                telemetry (a zero-cost no-op unless enabled).  Collaborators
                created here inherit it.
            engines: an :class:`~repro.config.EngineConfig` (or kwargs
                dict) bundling every backend selector — the routing
                engine for chain routing and rerouting
                (``"auto"``/``"csr"``/``"nx"``, see
                :mod:`repro.sdn.routing`; bit-identical outputs), the
                cover kernel used for AL construction and repair, and
                the ``solver`` that picks the placement algorithm when
                a caller names none.
        """
        engines = EngineConfig.coerce(engines)
        self._engines = engines
        self._telemetry = (
            telemetry if telemetry is not None else current_telemetry()
        )
        self._inventory = inventory
        self._clusters = cluster_manager or ClusterManager(
            inventory,
            telemetry=self._telemetry,
            kernel=engines.cover_kernel,
            engine=engines.solver,
        )
        self._nfv = nfv_manager or CloudNfvManager(
            inventory, telemetry=self._telemetry
        )
        self._sdn = sdn or SdnController(
            inventory.network, telemetry=self._telemetry
        )
        self._slices = SliceAllocator(
            inventory.network, telemetry=self._telemetry
        )
        self._merge = merge_consecutive
        self._seed = placement_seed
        self._exclusive = exclusive_chains
        self._host_policy = host_policy
        self._chains: dict[ChainId, OrchestratedChain] = {}
        self._slice_users: dict[str, set] = {}
        self._actions: list[tuple[str, str]] = []
        self._failed_ops: set[OpsId] = set()
        self._degraded_chains: set[ChainId] = set()
        self._recorder = NULL_RECORDER
        # (source, target, al_switches) -> path tuple; see _al_path.
        self._segments: dict[tuple, tuple[str, ...]] = {}
        self._segments_generation = inventory.network.topology_generation
        # cluster id -> (memo key, _ClusterContext); see _context_of.
        self._contexts: dict[str, tuple[tuple, _ClusterContext]] = {}

    def attach_recorder(self, recorder) -> None:
        """Install the journal hook on this orchestrator and its NFV
        manager (see :class:`~repro.service.journal.OpRecorder`).

        The same recorder instance must be shared by every component of
        one stack — the depth guard that keeps composite operations
        single-record lives in the recorder.
        """
        self._recorder = recorder
        if hasattr(self._nfv, "attach_recorder"):
            self._nfv.attach_recorder(recorder)

    @property
    def engines(self) -> EngineConfig:
        """The backend selectors this orchestrator runs on."""
        return self._engines

    # ------------------------------------------------------------------
    # Admission control: dry-run planning
    # ------------------------------------------------------------------
    def plan_chain(
        self,
        request: ChainRequest,
        algorithm: PlacementAlgorithm | None = None,
    ) -> ProvisioningPlan:
        """Answer whether :meth:`provision_chain` would succeed, and how.

        Nothing is allocated: the plan previews the placement (which VNFs
        go optical, which servers would carry the electronic ones) and
        lists every blocking problem found.

        The electronic-host preview checks each VNF against *current*
        free capacity independently; a plan with several electronic VNFs
        that only fit one-at-a-time can therefore be optimistic — the
        authoritative answer remains :meth:`provision_chain`, which is
        transactional (failures roll back fully).
        """
        telemetry = self._telemetry
        with (
            telemetry.span("plan_chain", chain=str(request.chain.chain_id))
            if telemetry.enabled
            else NULL_SPAN
        ):
            problems: list[str] = []
            chain = request.chain
            if chain.chain_id in self._chains:
                problems.append(f"chain id {chain.chain_id} already in use")
            try:
                cluster = self._clusters.cluster_of_service(request.service)
            except UnknownEntityError:
                return ProvisioningPlan(
                    request=request,
                    feasible=False,
                    problems=(
                        f"service {request.service!r} has no cluster",
                        *problems,
                    ),
                )
            users = self._slice_users.get(cluster.cluster_id, set())
            if self._exclusive and users:
                problems.append(
                    f"cluster {cluster.cluster_id} already hosts a chain "
                    f"(exclusive mode)"
                )

            ctx = self._context_of(cluster)
            placement = self._solver_for(ctx).solve(
                chain, self._resolve_algorithm(algorithm, chain)
            )
            electronic_hosts: list[ServerId] = []
            for placed in placement.assignments:
                if placed.domain is Domain.OPTICAL:
                    continue
                try:
                    electronic_hosts.append(
                        self._electronic_host(cluster, placed.function, ctx)
                    )
                except PlacementError as error:
                    problems.append(str(error))
            return ProvisioningPlan(
                request=request,
                feasible=not problems,
                problems=tuple(problems),
                placement=placement,
                electronic_hosts=tuple(electronic_hosts),
            )

    def _resolve_algorithm(
        self,
        algorithm: PlacementAlgorithm | None,
        chain: NetworkFunctionChain,
    ) -> PlacementAlgorithm:
        """Concrete algorithm for a request: explicit wins, else the
        engines' ``solver`` selector decides (resolved *before* the
        journal record is written, so replay is deterministic).

        The one place :attr:`EngineConfig.solver` picks a placement
        algorithm: dry runs, provisions and modifications all resolve
        here, so a plan previews what the provision commits."""
        if algorithm is not None:
            return algorithm
        solver = self._engines.solver
        if solver == "exact":
            return PlacementAlgorithm.EXACT
        if solver == "auto":
            movable = sum(
                1 for function in chain if function.optical_capable
            )
            if movable <= _AUTO_EXACT_POSITIONS:
                return PlacementAlgorithm.EXACT
        return PlacementAlgorithm.GREEDY

    def _solver_for(self, ctx: _ClusterContext) -> PlacementSolver:
        """A placement solver over the cluster AL's current free capacity."""
        pool = self._nfv.pool
        al_free = {ops: pool.get(ops).free for ops in ctx.routers}
        return PlacementSolver(
            al_free,
            merge_consecutive=self._merge,
            host_policy=self._host_policy,
            seed=self._seed,
            telemetry=self._telemetry,
        )

    # ------------------------------------------------------------------
    # NFC lifecycle: provisioning / creation
    # ------------------------------------------------------------------
    def provision_chain(
        self,
        request: ChainRequest,
        algorithm: PlacementAlgorithm | None = None,
    ) -> OrchestratedChain:
        """Provision one NFC over its service's cluster.

        The cluster must already exist (create it with
        :meth:`ClusterManager.create_cluster`).  In the default exclusive
        mode one cluster hosts exactly one NFC ("one VC host only one
        NFC", Section IV.C); with ``exclusive_chains=False`` additional
        chains share the cluster's existing slice.

        When telemetry is enabled, one span wraps the whole call and one
        child span wraps each of the five pipeline stages
        (``provision.cluster_lookup``, ``provision.slice_allocation``,
        ``provision.placement_solve``, ``provision.deploy``,
        ``provision.route``).
        """
        algorithm = self._resolve_algorithm(algorithm, request.chain)
        with self._recorder.operation() as outermost:
            orchestrated = self._provision_chain(request, algorithm)
            if outermost:
                self._record_provision(request, algorithm)
        return orchestrated

    def _record_provision(
        self, request: ChainRequest, algorithm: PlacementAlgorithm
    ) -> None:
        if not self._recorder.active:
            return
        self._recorder.record(
            "provision",
            entry="orchestrator",
            tenant=request.tenant,
            service=request.service,
            chain={"spec": chain_to_spec(request.chain)},
            flow_size_gb=request.flow_size_gb,
            algorithm=algorithm.value,
        )

    def _provision_chain(
        self,
        request: ChainRequest,
        algorithm: PlacementAlgorithm,
    ) -> OrchestratedChain:
        """Provision one request (the body serial and batched
        provisions share).

        With telemetry off no span is opened: each ``with`` enters the
        shared no-op span instead.  A failure is unwound by the
        caller's frame (:mod:`repro.undo`).
        """
        telemetry = self._telemetry
        traced = telemetry.enabled
        chain = request.chain
        with (
            telemetry.span("provision_chain", chain=str(chain.chain_id))
            if traced
            else NULL_SPAN
        ) as root:
            with (
                telemetry.span("provision.cluster_lookup")
                if traced
                else NULL_SPAN
            ):
                if chain.chain_id in self._chains:
                    raise DuplicateEntityError("chain", chain.chain_id)
                cluster = self._clusters.cluster_of_service(request.service)
                users = self._slice_users.get(cluster.cluster_id, set())
                if self._exclusive and users:
                    raise DuplicateEntityError(
                        "chain on cluster", cluster.cluster_id
                    )
            ctx = self._context_of(cluster)
            with (
                telemetry.span("provision.slice_allocation")
                if traced
                else NULL_SPAN
            ):
                if users:
                    optical_slice = self._slices.slice_of_cluster(
                        cluster.cluster_id
                    )
                else:
                    optical_slice = self._slices.allocate(
                        cluster, chain.bandwidth_gbps
                    )
            try:
                placement, vnf_ids, path = self._deploy(
                    request, cluster, algorithm, ctx
                )
            except Exception:
                if traced:
                    telemetry.counter(
                        "alvc_chains_provision_failures_total",
                        "provision_chain calls that raised",
                    ).inc()
                raise
            orchestrated = OrchestratedChain(
                request=request,
                cluster=cluster,
                optical_slice=optical_slice,
                placement=placement,
                vnf_ids=vnf_ids,
                path=tuple(path),
            )
            self._commit_chain(orchestrated, users or None)
            if traced:
                telemetry.counter(
                    "alvc_chains_provisioned_total",
                    "NFCs successfully provisioned",
                ).inc()
                root.set(
                    conversions=orchestrated.conversions,
                    path_hops=max(0, len(path) - 1),
                )
            return orchestrated

    def _deploy(
        self,
        request: ChainRequest,
        cluster: VirtualCluster,
        algorithm: PlacementAlgorithm,
        ctx: _ClusterContext,
    ) -> tuple[ChainPlacement, tuple[VnfId, ...], list[str]]:
        telemetry = self._telemetry
        traced = telemetry.enabled
        chain = request.chain
        with (
            telemetry.span("provision.placement_solve") if traced else NULL_SPAN
        ):
            placement = self._solver_for(ctx).solve(chain, algorithm)
        vnf_ids: list[VnfId] = []
        deployed_hosts: list[str] = []
        with telemetry.span("provision.deploy") if traced else NULL_SPAN:
            for placed in placement.assignments:
                if placed.domain is Domain.OPTICAL:
                    instance = self._nfv.deploy_optical(
                        placed.function.name, ops=placed.host
                    )
                else:
                    server = self._electronic_host(
                        cluster, placed.function, ctx
                    )
                    instance = self._nfv.deploy_electronic(
                        placed.function.name, server=server
                    )
                vnf_ids.append(instance.vnf_id)
                deployed_hosts.append(instance.host)
        with telemetry.span("provision.route") if traced else NULL_SPAN:
            path = self._route(request, cluster, deployed_hosts, ctx)
        return placement, tuple(vnf_ids), path

    def _vm_servers(self, cluster: VirtualCluster) -> list[ServerId]:
        """Sorted servers hosting the cluster's placed VMs."""
        return sorted(
            {
                self._inventory.host_of(vm)
                for vm in cluster.vm_ids
                if self._inventory.is_placed(vm)
            }
        )

    def _context_of(self, cluster: VirtualCluster) -> _ClusterContext:
        """The cluster's admission context, memoized across commands.

        The memo key is exactly what :meth:`_cluster_context` reads: the
        AL's ToRs and routers, the hosts of the cluster's own VMs and
        the fabric's topology generation.  A VM migration, an AL repair
        or replacement, a re-created cluster and any topology mutation
        each change the key; carrier-VM placements (which move
        ``MachineInventory.generation`` on every provision) and free
        capacity do not, so the memo survives the provisions and
        teardowns between two such events.
        """
        inventory = self._inventory
        key = (
            cluster.tor_switches,
            cluster.al_switches,
            inventory.hosts_of(cluster.vm_ids),
            inventory.network.topology_generation,
        )
        memo = self._contexts.get(cluster.cluster_id)
        if memo is not None and memo[0] == key:
            return memo[1]
        ctx = self._cluster_context(cluster)
        self._contexts[cluster.cluster_id] = (key, ctx)
        return ctx

    def _cluster_context(self, cluster: VirtualCluster) -> _ClusterContext:
        """Capacity-independent admission context for one cluster.

        Every piece depends only on the cluster's VM hosts, its AL and
        the fabric — never on free capacity — so reusing it while those
        stand still admits the same chains as recomputing it per VNF
        would.
        """
        cluster_servers = self._vm_servers(cluster)
        al_servers = sorted(
            {
                server
                for tor in cluster.tor_switches
                for server in self._inventory.network.servers_under(tor)
            }
            - set(cluster_servers)
        )
        pool = self._nfv.pool
        return _ClusterContext(
            candidates=(*cluster_servers, *al_servers),
            vm_servers=tuple(cluster_servers),
            routers=tuple(
                ops for ops in sorted(cluster.al_switches) if ops in pool
            ),
        )

    def _electronic_host(
        self,
        cluster: VirtualCluster,
        function,
        ctx: _ClusterContext,
    ) -> ServerId:
        """A server inside the cluster's reach with room for the VNF.

        Preference order: servers hosting the cluster's VMs, then any
        server attached to one of the AL's selected ToRs — either keeps
        the chain path inside the abstraction layer.
        """
        for server in ctx.candidates:
            if function.demand.fits_within(
                self._inventory.remaining_capacity(server)
            ):
                return server
        raise PlacementError(
            f"no server in cluster {cluster.cluster_id} fits "
            f"{function.name} (demand {function.demand})"
        )

    def _route(
        self,
        request: ChainRequest,
        cluster: VirtualCluster,
        hosts: list[str],
        ctx: _ClusterContext,
    ) -> list[str]:
        """Route ingress → VNF hosts (in order) → egress inside the AL."""
        waypoints = [ctx.vm_servers[0], *hosts, ctx.vm_servers[-1]]
        path = self._al_path(waypoints, cluster.al_switches)
        if len(path) >= 2:
            self._sdn.install_path(request.chain.chain_id, path)
        return path

    def _al_path(
        self, waypoints: list[str], al_switches: frozenset
    ) -> list[str]:
        """:func:`~repro.sdn.routing.chain_path` inside one AL, with
        every segment memoized.

        A segment is a pure function of the fabric and the AL, so it is
        keyed by ``(source, target, al_switches)``.  The memo is dropped
        when the fabric's topology generation moves and when it holds
        :data:`SEGMENT_MEMO_LIMIT` segments; a routing error is raised
        and not memoized.  Paths are stored as tuples and every call
        returns a fresh list.
        """
        dcn = self._inventory.network
        segments = self._segments
        if self._segments_generation != dcn.topology_generation:
            segments.clear()
            self._segments_generation = dcn.topology_generation
        path = [waypoints[0]]
        for source, target in zip(waypoints, waypoints[1:]):
            if source == target:
                continue
            key = (source, target, al_switches)
            segment = segments.get(key)
            if segment is None:
                segment = tuple(
                    shortest_path_in_al(
                        dcn, source, target, al_switches,
                        engine=self._engines.routing,
                    )
                )
                if len(segments) >= SEGMENT_MEMO_LIMIT:
                    segments.clear()
                segments[key] = segment
            path.extend(segment[1:])
        return path

    # ------------------------------------------------------------------
    # Cluster churn: VM migration with AL repair and chain rerouting
    # ------------------------------------------------------------------
    def handle_vm_migration(
        self, vm: str, new_server: ServerId
    ) -> dict[str, int]:
        """Migrate a cluster VM and repair everything that depends on it.

        The operational path the low-update-cost claim is about: the VM
        moves in the inventory, the cluster's abstraction layer is
        repaired incrementally (never rebuilt unless coverage demands
        it), and the cluster's live chain — if any — is rerouted inside
        the (possibly extended) AL.

        Returns:
            ``{"switches_touched": ..., "chains_rerouted": ...}`` — the
            update-cost accounting of the whole event.

        Raises:
            UnknownEntityError: when the VM is in no cluster.
            PlacementError: when the target server lacks capacity (the
                VM stays put).
        """
        telemetry = self._telemetry
        with self._recorder.operation() as outermost:
            with (
                telemetry.span("vm_migration", vm=str(vm))
                if telemetry.enabled
                else NULL_SPAN
            ):
                result = self._handle_vm_migration(vm, new_server)
            if outermost:
                self._recorder.record(
                    "vm_migrate", vm=vm, server=new_server
                )
        return result

    def _handle_vm_migration(
        self, vm: str, new_server: ServerId
    ) -> dict[str, int]:
        cluster = self._clusters.cluster_of_service(
            self._inventory.get(vm).service
        )
        self._inventory.migrate(vm, new_server)
        attachments = {
            member: self._inventory.tors_of_vm(member)
            for member in sorted(cluster.vm_ids)
            if self._inventory.is_placed(member)
        }
        reconfigurator = AlReconfigurator(
            self._inventory.network,
            cluster.abstraction_layer,
            {m: t for m, t in attachments.items() if m != vm},
            kernel=self._engines.cover_kernel,
            recorder=self._recorder,
        )
        available = self._clusters.free_ops()
        result = reconfigurator.add_vm(vm, attachments[vm], available)
        repaired = dataclasses.replace(
            cluster, abstraction_layer=reconfigurator.layer
        )
        self._clusters.replace_cluster(repaired)
        # Keep the optical slice congruent with the repaired AL.
        updated_slice = None
        if self._slice_users.get(cluster.cluster_id):
            current_slice = self._slices.slice_of_cluster(cluster.cluster_id)
            updated_slice = self._slices.extend(
                current_slice.slice_id, repaired.al_switches
            )

        rerouted = 0
        for live in list(self._chains.values()):
            if live.cluster.cluster_id != cluster.cluster_id:
                continue
            updated = self._reroute_chain(live, repaired)
            if updated_slice is not None:
                updated = dataclasses.replace(
                    updated, optical_slice=updated_slice
                )
            undo.setitem(self._chains, updated.chain_id, updated)
            rerouted += 1
        undo.append(self._actions, ("migrate", vm))
        if self._telemetry.enabled:
            self._telemetry.counter(
                "alvc_vm_migrations_total", "VM migrations handled"
            ).inc()
            self._telemetry.counter(
                "alvc_migration_switches_touched_total",
                "switches touched repairing ALs after migrations",
            ).inc(result.cost)
        return {
            "switches_touched": result.cost,
            "chains_rerouted": rerouted,
        }

    def _reroute_chain(
        self, live: OrchestratedChain, cluster: VirtualCluster
    ) -> OrchestratedChain:
        hosts = [
            self._nfv.instance_of(vnf).host for vnf in live.vnf_ids
        ]
        vm_servers = self._vm_servers(cluster)
        waypoints = [vm_servers[0], *hosts, vm_servers[-1]]
        path = self._al_path(waypoints, cluster.al_switches)
        if self._sdn.has_flow(live.chain_id):
            if len(path) >= 2:
                self._sdn.reroute(live.chain_id, path)
            else:
                self._sdn.remove_flow(live.chain_id)
        elif len(path) >= 2:
            self._sdn.install_path(live.chain_id, path)
        return dataclasses.replace(
            live, cluster=cluster, path=tuple(path)
        )

    # ------------------------------------------------------------------
    # Failure handling: OPS crash recovery (self-healing)
    # ------------------------------------------------------------------
    def handle_ops_failure(
        self, failed: OpsId, *, policy=None
    ) -> OpsFailureRecovery:
        """React to an optical-switch crash end to end.

        The self-healing pipeline: record the death (the switch leaves
        every candidate pool until :meth:`mark_ops_repaired`), repair
        the owning cluster's AL through
        :class:`~repro.core.reconfiguration.AlReconfigurator` (retried
        under ``policy`` when given), keep the optical slice congruent,
        evacuate optical VNFs off the dead router via
        :meth:`CloudNfvManager.migrate`, and re-path the cluster's live
        chains inside the repaired AL (rewriting SDN flow tables).
        When repair gives up, the cluster's chains enter *degraded
        mode*: they stay installed but are listed in
        :meth:`degraded_chains` and the ``alvc_degraded_chains`` gauge.

        By AL disjointness at most one cluster is ever touched — the
        isolation claim the chaos suite asserts.

        Args:
            failed: the crashed optical switch.
            policy: optional retry policy (duck-typed; see
                :class:`repro.chaos.RecoveryPolicy`).  ``policy.run``
                receives the repair thunk and must return an outcome
                with ``succeeded``/``attempts``/``total_delay``/
                ``result`` fields.  Without a policy the repair is
                attempted exactly once.

        Raises:
            UnknownEntityError: when ``failed`` is not an optical
                switch of the fabric.
            DuplicateEntityError: when the switch is already recorded
                as failed (repair it first).
        """
        if failed not in set(self._inventory.network.optical_switches()):
            raise UnknownEntityError("optical switch", failed)
        if failed in self._failed_ops:
            raise DuplicateEntityError("failed ops", failed)
        with self._recorder.operation() as outermost:
            # Serialize the policy *before* mutating anything: an
            # unjournalable (opaque duck-typed) policy must fail the
            # call, not leave a command the journal cannot replay.
            policy_spec = (
                policy_to_spec(policy)
                if outermost and self._recorder.active
                else None
            )
            with (
                self._telemetry.span("ops_failure", ops=str(failed))
                if self._telemetry.enabled
                else NULL_SPAN
            ):
                recovery = self._handle_ops_failure(failed, policy)
            if outermost:
                self._recorder.record(
                    "ops_failure", ops=failed, policy=policy_spec
                )
        if self._telemetry.enabled:
            self._telemetry.counter(
                "alvc_ops_failures_total",
                "optical switch failures handled by the orchestrator",
            ).inc()
            self._telemetry.histogram(
                "alvc_recovery_seconds",
                "virtual time spent recovering from an OPS failure",
                RECOVERY_SECONDS_BUCKETS,
            ).observe(recovery.recovery_time)
            self._telemetry.gauge(
                "alvc_degraded_chains",
                "chains currently running in degraded mode",
            ).set(len(self._degraded_chains))
        return recovery

    def _handle_ops_failure(
        self, failed: OpsId, policy
    ) -> OpsFailureRecovery:
        undo.add(self._failed_ops, failed)
        # Fault without topology mutation: invalidate the path engine's
        # cached availability (mask generation bump).
        engine_for(self._inventory.network).note_fault()
        owner = self._clusters.owner_of_ops(failed)
        attempts = 1
        recovery_time = 0.0
        recovered = True
        switches_touched = 0
        rebuilt = False
        rerouted = 0
        migrated = 0
        newly_degraded: list[ChainId] = []
        repaired_cluster: VirtualCluster | None = None

        def degrade(chain_id: ChainId) -> None:
            if chain_id not in self._degraded_chains:
                undo.add(self._degraded_chains, chain_id)
                newly_degraded.append(chain_id)

        if owner is not None:
            cluster = next(
                candidate
                for candidate in self._clusters.clusters()
                if candidate.cluster_id == owner
            )
            attachments = {
                member: self._inventory.tors_of_vm(member)
                for member in sorted(cluster.vm_ids)
                if self._inventory.is_placed(member)
            }
            reconfigurator = AlReconfigurator(
                self._inventory.network,
                cluster.abstraction_layer,
                attachments,
                failed_ops=self._failed_ops - {failed},
                kernel=self._engines.cover_kernel,
                recorder=self._recorder,
            )
            available = self._clusters.free_ops() - self._failed_ops

            def repair():
                return reconfigurator.handle_ops_failure(failed, available)

            if policy is not None:
                outcome = policy.run(repair)
                attempts = outcome.attempts
                recovery_time = outcome.total_delay
                result = outcome.result if outcome.succeeded else None
            else:
                try:
                    result = repair()
                except CoverInfeasibleError:
                    result = None

            if result is None:
                recovered = False
                for live in self.chains():
                    if live.cluster.cluster_id == owner:
                        degrade(live.chain_id)
            else:
                switches_touched = result.cost
                rebuilt = result.rebuilt
                repaired_cluster = dataclasses.replace(
                    cluster, abstraction_layer=reconfigurator.layer
                )
                # Extend the cluster's optical slice onto the repaired
                # AL *before* committing it: a replacement OPS can carry
                # another slice's wavelengths (cluster bookkeeping frees
                # an OPS when its AL drops it, but a live slice keeps
                # its lambdas), in which case the repair must fail —
                # degrading the cluster's chains — not corrupt slice
                # isolation or crash mid-recovery.
                committed = True
                if self._slice_users.get(owner):
                    current_slice = self._slices.slice_of_cluster(owner)
                    try:
                        self._slices.extend(
                            current_slice.slice_id,
                            repaired_cluster.al_switches,
                        )
                    except SlicingError:
                        committed = False
                if committed:
                    self._clusters.replace_cluster(repaired_cluster)
                else:
                    recovered = False
                    switches_touched = 0
                    rebuilt = False
                    repaired_cluster = None
                    for live in self.chains():
                        if live.cluster.cluster_id == owner:
                            degrade(live.chain_id)

        # Evacuate optical VNFs off the dead router — preferring the
        # repaired AL's routers so chain paths stay inside the layer.
        pool = self._nfv.pool
        preferred = (
            sorted(repaired_cluster.al_switches)
            if repaired_cluster is not None
            else []
        )
        fallback = sorted(set(pool.host_ids()) - set(preferred))
        for instance in self._nfv.instances_on(failed):
            target = None
            for candidate in (*preferred, *fallback):
                if candidate == failed or candidate in self._failed_ops:
                    continue
                if candidate not in pool:
                    continue
                if pool.get(candidate).fits(instance.function.demand):
                    target = candidate
                    break
            if target is None:
                chain_id = self._chain_of_vnf(instance.vnf_id)
                if chain_id is not None:
                    degrade(chain_id)
                continue
            self._nfv.migrate(instance.vnf_id, target)
            migrated += 1

        # Re-path the cluster's live chains inside the repaired AL
        # (rewrites the affected switches' flow tables).
        if repaired_cluster is not None:
            for live in list(self._chains.values()):
                if live.cluster.cluster_id != owner:
                    continue
                try:
                    updated = self._reroute_chain(live, repaired_cluster)
                except RoutingError:
                    degrade(live.chain_id)
                    continue
                undo.setitem(self._chains, updated.chain_id, updated)
                rerouted += 1

        undo.append(self._actions, ("ops_failure", failed))
        return OpsFailureRecovery(
            failed=failed,
            cluster=owner,
            recovered=recovered,
            attempts=attempts,
            recovery_time=recovery_time,
            switches_touched=switches_touched,
            rebuilt=rebuilt,
            chains_rerouted=rerouted,
            vnfs_migrated=migrated,
            degraded_chains=tuple(newly_degraded),
        )

    def _chain_of_vnf(self, vnf: VnfId) -> ChainId | None:
        for live in self._chains.values():
            if vnf in live.vnf_ids:
                return live.chain_id
        return None

    def mark_ops_repaired(self, ops: OpsId) -> None:
        """Return a previously failed switch to the candidate pools.

        Raises:
            UnknownEntityError: when the switch is not recorded failed.
        """
        if ops not in self._failed_ops:
            raise UnknownEntityError("failed ops", ops)
        with self._recorder.operation() as outermost:
            undo.discard(self._failed_ops, ops)
            # Repair is an availability change too — same invalidation
            # as the failure itself.
            engine_for(self._inventory.network).note_fault()
            undo.append(self._actions, ("ops_repair", ops))
            if outermost:
                self._recorder.record("ops_repair", ops=ops)

    @property
    def failed_ops(self) -> frozenset:
        """Optical switches currently recorded as failed."""
        return frozenset(self._failed_ops)

    def degraded_chains(self) -> list[ChainId]:
        """Chains running in degraded mode, sorted."""
        return sorted(self._degraded_chains)

    # ------------------------------------------------------------------
    # NFC lifecycle: modification / upgradation / deletion
    # ------------------------------------------------------------------
    def modify_chain(
        self,
        chain_id: ChainId,
        new_chain: NetworkFunctionChain,
        algorithm: PlacementAlgorithm | None = None,
    ) -> OrchestratedChain:
        """Replace a chain's function list, re-placing and re-routing.

        All or nothing: when the new chain cannot be provisioned, the
        old one stays up as it was (:mod:`repro.undo`).
        """
        algorithm = self._resolve_algorithm(algorithm, new_chain)
        with self._recorder.operation() as outermost:
            old = self.chain(chain_id)
            self.teardown_chain(chain_id)
            new_request = ChainRequest(
                tenant=old.request.tenant,
                chain=new_chain,
                service=old.request.service,
                flow_size_gb=old.request.flow_size_gb,
            )
            result = self.provision_chain(new_request, algorithm)
            undo.append(self._actions, ("modify", new_chain.chain_id))
            if outermost and self._recorder.active:
                self._recorder.record(
                    "modify",
                    chain_id=chain_id,
                    new_chain=chain_to_spec(new_chain),
                    algorithm=algorithm.value,
                )
        return result

    def upgrade_chain(self, chain_id: ChainId) -> int:
        """Run an update event on every VNF of a chain (software upgrade).

        Returns the number of VNFs updated.
        """
        with self._recorder.operation() as outermost:
            live = self.chain(chain_id)
            for vnf in live.vnf_ids:
                self._nfv.update(vnf)
            undo.append(self._actions, ("upgrade", chain_id))
            if outermost:
                self._recorder.record("upgrade", chain_id=chain_id)
        return len(live.vnf_ids)

    def teardown_chain(self, chain_id: ChainId) -> None:
        """Tear down a chain: VNFs, flow rules, and (when it was the
        cluster's last chain) its slice.

        The action log keeps the paper's lifecycle verb (``"delete"``).
        """
        telemetry = self._telemetry
        traced = telemetry.enabled
        with self._recorder.operation() as outermost, (
            telemetry.span("teardown_chain", chain=str(chain_id))
            if traced
            else NULL_SPAN
        ):
            live = self.chain(chain_id)
            for vnf in live.vnf_ids:
                self._nfv.terminate(vnf)
            if self._sdn.has_flow(chain_id):
                self._sdn.remove_flow(chain_id)
            users = self._slice_users[live.cluster.cluster_id]
            if len(users) == 1:
                self._slices.release(live.optical_slice.slice_id)
            self._drop_chain(live, users)
            if traced:
                telemetry.counter(
                    "alvc_chains_torn_down_total", "NFCs torn down"
                ).inc()
            if outermost:
                self._recorder.record("teardown", chain_id=chain_id)

    # The orchestrator's own chain stores: a live chain is in
    # ``_chains`` and in its cluster's ``_slice_users`` set, whose key
    # exists exactly while the set is non-empty.  Each change logs one
    # inverse for all three stores (with the action log).
    def _commit_chain(
        self, live: OrchestratedChain, users: set | None
    ) -> None:
        """Admit a provisioned chain; ``users`` is its cluster's set of
        chains, None when it is the first."""
        chain_id = live.chain_id
        undo.push((self._uncommit_chain, live, users))
        if users is None:
            self._slice_users[live.cluster.cluster_id] = {chain_id}
        else:
            users.add(chain_id)
        self._chains[chain_id] = live
        self._actions.append(("provision", chain_id))

    def _uncommit_chain(
        self, live: OrchestratedChain, users: set | None
    ) -> None:
        self._actions.pop()
        del self._chains[live.chain_id]
        if users is None:
            del self._slice_users[live.cluster.cluster_id]
        else:
            users.discard(live.chain_id)

    def _drop_chain(self, live: OrchestratedChain, users: set) -> None:
        """Retire a torn-down chain from its cluster's ``users``."""
        chain_id = live.chain_id
        undo.push((self._undrop_chain, live, users))
        users.discard(chain_id)
        if not users:
            del self._slice_users[live.cluster.cluster_id]
        del self._chains[chain_id]
        self._actions.append(("delete", chain_id))

    def _undrop_chain(self, live: OrchestratedChain, users: set) -> None:
        self._actions.pop()
        self._chains[live.chain_id] = live
        users.add(live.chain_id)
        self._slice_users[live.cluster.cluster_id] = users

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def chain(self, chain_id: ChainId) -> OrchestratedChain:
        """The live chain with this id."""
        try:
            return self._chains[chain_id]
        except KeyError:
            raise UnknownEntityError("chain", chain_id) from None

    def chains(self) -> list[OrchestratedChain]:
        """All live chains, sorted by id."""
        return [self._chains[key] for key in sorted(self._chains)]

    def action_log(self) -> list[tuple[str, str]]:
        """Every orchestration action taken, in order."""
        return list(self._actions)

    def cost_report(
        self, model: ConversionModel | None = None
    ) -> list[dict]:
        """Per-chain O/E/O accounting rows for every live chain.

        Each row prices one flow of the chain's declared
        ``flow_size_gb``; operators use this to see which chains still
        pay conversions and what optical capacity would save.
        """
        conversion_model = model or ConversionModel()
        rows = []
        for live in self.chains():
            flow_bytes = live.request.flow_size_gb * 1e9
            rows.append(
                {
                    "chain": live.chain_id,
                    "service": live.request.service,
                    "vnfs": len(live.vnf_ids),
                    "optical_vnfs": live.placement.optical_count,
                    "conversions_per_flow": live.conversions,
                    "cost_per_flow": live.placement.conversion_cost(
                        conversion_model, flow_bytes
                    ),
                    "energy_per_flow_joules": (
                        live.placement.conversion_energy_joules(
                            conversion_model, flow_bytes
                        )
                    ),
                }
            )
        return rows

    @property
    def cluster_manager(self) -> ClusterManager:
        """The cluster manager (create clusters through this)."""
        return self._clusters

    @property
    def nfv_manager(self) -> CloudNfvManager:
        """The Cloud/NFV manager."""
        return self._nfv

    @property
    def sdn(self) -> SdnController:
        """The SDN controller."""
        return self._sdn

    @property
    def slice_allocator(self) -> SliceAllocator:
        """The optical slice allocator."""
        return self._slices

    @property
    def telemetry(self) -> Telemetry:
        """The metrics/tracing sink this orchestrator reports into."""
        return self._telemetry

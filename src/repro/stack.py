"""``AlvcStack`` — the one-stop facade over the AL-VC pipeline.

The hand-wired quickstart takes six objects to provision one chain
(fabric → inventory → service catalog → placement engine → cluster
manager → orchestrator).  The facade collapses that dance::

    from repro import AlvcStack

    stack = AlvcStack.build(n_racks=8, servers_per_rack=8, n_ops=8, seed=1)
    live = stack.provision(("firewall", "nat"), service="web")
    print(live.conversions, stack.telemetry.to_json())

``build`` assembles the whole stack; ``provision`` normalizes its input
(a chain object *or* a plain tuple of function names), creates the
service's cluster on first use — populating it with a default batch of
VMs when the service has none — and runs the orchestrator's transactional
pipeline.  Every underlying collaborator stays reachable
(:attr:`orchestrator`, :attr:`inventory`, …) so the facade never becomes
a ceiling: anything the long-form API can do, the facade's attributes
can too.

Telemetry rides along: pass ``telemetry="json"``/``"prom"``/``True`` (or
a :class:`~repro.observability.Telemetry`) to ``build`` and every stage
of every provision is traced; leave it off and the stack inherits the
ambient (default no-op, zero-cost) sink.
"""

from __future__ import annotations

import contextlib
from pathlib import Path
from typing import Sequence

from repro import undo
from repro.config import EngineConfig
from repro.core.chaining import ChainRequest, NetworkFunctionChain
from repro.core.cluster import VirtualCluster
from repro.core.orchestrator import (
    NetworkOrchestrator,
    OrchestratedChain,
    ProvisioningPlan,
)
from repro.core.placement import HostPolicy, PlacementAlgorithm
from repro.exceptions import ALVCError, JournalError, UnknownEntityError, ValidationError
from repro.ids import ChainId
from repro.nfv.functions import FunctionCatalog
from repro.observability.runtime import Telemetry, resolve
from repro.service.journal import NULL_RECORDER, Journal, OpRecorder
from repro.service.records import chain_to_spec
from repro.topology.datacenter import DataCenterNetwork
from repro.topology.elements import ResourceVector
from repro.topology.generators import build_alvc_fabric
from repro.virtualization.machines import MachineInventory, VirtualMachine
from repro.virtualization.services import ServiceCatalog, ServiceType
from repro.virtualization.vm_placement import PlacementStrategy, VmPlacementEngine

#: VMs created per service when ``provision`` has to bootstrap a cluster
#: for a service that has no placed VMs yet.
DEFAULT_VMS_PER_SERVICE = 8


class AlvcStack:
    """A fully-wired AL-VC deployment behind one object.

    Construct with :meth:`build` (or wire the collaborators yourself and
    call the constructor).  The facade owns nothing exotic — it simply
    holds the same objects the quickstart used to create by hand and
    adds input normalization plus lazy cluster bootstrap.
    """

    def __init__(
        self,
        *,
        inventory: MachineInventory,
        orchestrator: NetworkOrchestrator,
        services: ServiceCatalog,
        functions: FunctionCatalog,
        engine: VmPlacementEngine,
        vms_per_service: int = DEFAULT_VMS_PER_SERVICE,
        engines: EngineConfig | None = None,
    ) -> None:
        """Assemble a stack from pre-built collaborators (keyword-only)."""
        self._inventory = inventory
        self._orchestrator = orchestrator
        self._services = services
        self._functions = functions
        self._engine = engine
        self._vms_per_service = vms_per_service
        self._chain_serial = 0
        self._engines = (
            engines if engines is not None else orchestrator.engines
        )
        self._recorder = NULL_RECORDER

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        n_racks: int = 8,
        servers_per_rack: int = 8,
        n_ops: int = 8,
        *,
        seed: int = 0,
        fabric: DataCenterNetwork | None = None,
        telemetry: Telemetry | str | bool | None = None,
        services: ServiceCatalog | None = None,
        functions: FunctionCatalog | None = None,
        placement_strategy: PlacementStrategy | None = None,
        vms_per_service: int = DEFAULT_VMS_PER_SERVICE,
        merge_consecutive: bool = False,
        exclusive_chains: bool = True,
        host_policy: HostPolicy | str | None = None,
        engines: EngineConfig | dict | None = None,
        journal: Journal | str | Path | None = None,
        sync: str = "always",
        **fabric_options,
    ) -> "AlvcStack":
        """Build fabric, inventory, catalogs, engine and orchestrator.

        Args:
            n_racks / servers_per_rack / n_ops: fabric dimensions
                (ignored when ``fabric`` is supplied).
            seed: one seed drives fabric generation, VM placement, and
                randomized chain placement — two stacks built with the
                same arguments are bit-identical.
            fabric: bring your own :class:`DataCenterNetwork` instead of
                generating one.
            telemetry: ``"json"``/``"prom"``/``True`` to enable an
                isolated telemetry sink, ``"off"``/``False`` for an
                explicit no-op, a :class:`Telemetry` to inject your own,
                or ``None`` to inherit the ambient sink (see
                :func:`repro.observability.configure`).
            services / functions: catalogs (standard ones when omitted).
            placement_strategy: VM placement policy (service affinity
                when omitted).
            vms_per_service: batch size for lazy cluster bootstrap.
            merge_consecutive / exclusive_chains / host_policy: passed
                through to :class:`NetworkOrchestrator` (``host_policy``
                also accepts the enum's string value, e.g.
                ``"first_fit"``).
            engines: typed :class:`~repro.config.EngineConfig` (or a
                mapping coercible to one) selecting the cover kernel,
                routing engine, solver (AL construction and the
                placement algorithm of provisions that name none) and
                default sweep worker count in one place.
            journal: a :class:`~repro.service.Journal` (or a path to
                one) that records every state-mutating call on this
                stack; the journal receives a ``genesis`` record of
                these build arguments so
                :func:`~repro.service.restore_stack` can rebuild the
                stack from the log alone.  The journal must be empty —
                attaching a fresh build to a journal that already holds
                records raises :class:`~repro.exceptions.JournalError`
                (resume one with :meth:`restore` /
                :meth:`~repro.service.ControlPlaneService.open`
                instead).  Journaled builds must be
                reproducible from JSON-able arguments — passing
                ``fabric=``/``services=``/``functions=``/
                ``placement_strategy=`` or a :class:`Telemetry`
                *instance* alongside ``journal`` raises
                :class:`~repro.exceptions.JournalError`.
            sync: journal durability mode (``"always"`` fsyncs every
                commit, ``"off"`` leaves flushing to the OS); only used
                when ``journal`` is given as a path.
            **fabric_options: extra keywords for
                :func:`~repro.topology.generators.build_alvc_fabric`
                (e.g. ``tor_uplinks``, ``dual_homing_fraction``).
        """
        engine_config = EngineConfig.coerce(engines)
        if isinstance(host_policy, str):
            host_policy = HostPolicy(host_policy)
        if journal is not None:
            opaque = {
                "fabric": fabric,
                "services": services,
                "functions": functions,
                "placement_strategy": placement_strategy,
            }
            passed = sorted(k for k, v in opaque.items() if v is not None)
            if isinstance(telemetry, Telemetry):
                passed.append("telemetry instance")
            if passed:
                raise JournalError(
                    "journaled builds must be reproducible from the "
                    "genesis record; cannot journal opaque arguments: "
                    + ", ".join(passed)
                )
        sink = resolve(telemetry)
        if fabric is None:
            fabric = build_alvc_fabric(
                n_racks=n_racks,
                servers_per_rack=servers_per_rack,
                n_ops=n_ops,
                seed=seed,
                **fabric_options,
            )
        inventory = MachineInventory(fabric)
        service_catalog = services if services is not None else ServiceCatalog.standard()
        function_catalog = (
            functions if functions is not None else FunctionCatalog.standard()
        )
        engine = (
            VmPlacementEngine(inventory, placement_strategy, seed=seed)
            if placement_strategy is not None
            else VmPlacementEngine(inventory, seed=seed)
        )
        orchestrator = NetworkOrchestrator(
            inventory,
            merge_consecutive=merge_consecutive,
            placement_seed=seed,
            exclusive_chains=exclusive_chains,
            host_policy=host_policy,
            telemetry=sink,
            engines=engine_config,
        )
        stack = cls(
            inventory=inventory,
            orchestrator=orchestrator,
            services=service_catalog,
            functions=function_catalog,
            engine=engine,
            vms_per_service=vms_per_service,
            engines=engine_config,
        )
        if journal is not None:
            if not isinstance(journal, Journal):
                journal = Journal(journal, sync=sync, telemetry=sink)
            if journal.next_seq != 0:
                journal.close()
                raise JournalError(
                    f"journal already holds {journal.next_seq} records; a "
                    f"fresh build would diverge from its history without "
                    f"re-journaling a genesis record — use AlvcStack.restore"
                    f" / ControlPlaneService.open to resume it"
                )
            stack.attach_journal(journal)
            build_args = {
                "n_racks": n_racks,
                "servers_per_rack": servers_per_rack,
                "n_ops": n_ops,
                "seed": seed,
                "telemetry": (
                    telemetry if not isinstance(telemetry, Telemetry)
                    else None
                ),
                "vms_per_service": vms_per_service,
                "merge_consecutive": merge_consecutive,
                "exclusive_chains": exclusive_chains,
                "host_policy": (
                    host_policy.value if host_policy is not None else None
                ),
                "engines": engine_config.to_dict(),
                **fabric_options,
            }
            journal.append("genesis", {"build": build_args})
        return stack

    # ------------------------------------------------------------------
    # Workload population and clusters
    # ------------------------------------------------------------------
    def populate(self, service: str, vms: int) -> list[VirtualMachine]:
        """Create and place ``vms`` VMs of a service; returns them.

        All-or-nothing: when placement fails partway, the command's frame
        unwinds every VM created so far and their ids
        (:mod:`repro.undo`), so a failed populate leaves zero trace —
        which is what lets the journal record only *committed* commands
        and still replay bit-identically.
        """
        with self._recorder.operation() as outermost:
            service_type = self._services.get(service)
            placed: list[VirtualMachine] = []
            for _ in range(vms):
                machine = self._inventory.create_vm(service_type)
                self._engine.place(machine)
                placed.append(machine)
            if outermost:
                self._recorder.record("populate", service=service, vms=vms)
        return placed

    def cluster(self, service: str) -> VirtualCluster:
        """The service's virtual cluster, built on first use.

        When the service has no placed VMs yet, a batch of
        ``vms_per_service`` VMs is created and placed first, so
        ``AlvcStack.build().provision(...)`` works on an empty fabric.
        A bootstrap that cannot cover its VMs unwinds them too.
        """
        manager = self._orchestrator.cluster_manager
        try:
            return manager.cluster_of_service(service)
        except UnknownEntityError:
            pass
        with self._recorder.operation() as outermost:
            if not self._inventory.vms_of_service(service):
                self.populate(service, self._vms_per_service)
            created = manager.create_cluster(service)
            if outermost:
                self._recorder.record("cluster", service=service)
        return created

    def register_service(
        self,
        name: str,
        *,
        cpu_cores: float = 2,
        memory_gb: float = 4,
        storage_gb: float = 50,
        traffic_intensity: float = 1.0,
    ) -> ServiceType:
        """Register a new service type in the stack's catalog.

        The journaled way to grow the catalog at runtime — long-horizon
        workloads register one service slot per concurrent tenant, and
        replay re-registers them in order.  ``build(services=...)``
        remains the non-journaled alternative for a bespoke catalog.

        Raises:
            DuplicateEntityError: the name is already registered.
            ValidationError: on a malformed service definition.
        """
        with self._recorder.operation() as outermost:
            registered = self._services.register(
                ServiceType(
                    name,
                    vm_demand=ResourceVector(
                        cpu_cores=cpu_cores,
                        memory_gb=memory_gb,
                        storage_gb=storage_gb,
                    ),
                    traffic_intensity=traffic_intensity,
                )
            )
            if outermost:
                self._recorder.record(
                    "register_service",
                    name=name,
                    cpu_cores=cpu_cores,
                    memory_gb=memory_gb,
                    storage_gb=storage_gb,
                    traffic_intensity=traffic_intensity,
                )
        return registered

    # ------------------------------------------------------------------
    # Chain lifecycle (the facade's reason to exist)
    # ------------------------------------------------------------------
    def provision(
        self,
        chain: NetworkFunctionChain | Sequence[str],
        *,
        service: str,
        tenant: str = "tenant-0",
        chain_id: ChainId | None = None,
        flow_size_gb: float = 1.0,
        bandwidth_gbps: float = 1.0,
        algorithm: PlacementAlgorithm | None = None,
    ) -> OrchestratedChain:
        """Provision one NFC over a service's cluster (built on demand).

        Args:
            chain: a :class:`NetworkFunctionChain`, or simply an ordered
                sequence of catalog function names (``("firewall",
                "nat")``) — the facade builds the chain object.
            service: the service whose cluster carries the chain.
            tenant / flow_size_gb: request metadata.
            chain_id: id for a name-sequence chain (auto-numbered when
                omitted; ignored when ``chain`` is already a chain).
            bandwidth_gbps: link requirement for a name-sequence chain.
            algorithm: VNF placement algorithm; None lets the stack's
                ``EngineConfig.solver`` pick it.
        """
        if not isinstance(chain, NetworkFunctionChain):
            chain = tuple(chain)
        # Bootstrap OUTSIDE the provision frame: when it creates the
        # cluster, that mutation commits even if the provision below
        # fails, so it must journal its own "cluster" command.
        self.cluster(service)
        with self._recorder.operation() as outermost:
            request = self._request(
                chain, service, tenant, chain_id, flow_size_gb,
                bandwidth_gbps,
            )
            algorithm = self._orchestrator._resolve_algorithm(
                algorithm, request.chain
            )
            live = self._orchestrator.provision_chain(request, algorithm)
            self._commit_serial(chain, chain_id)
            if outermost:
                self._record_provision(
                    chain, service, tenant, chain_id, flow_size_gb,
                    bandwidth_gbps, algorithm,
                )
        return live

    def plan(
        self,
        chain: NetworkFunctionChain | Sequence[str],
        *,
        service: str,
        tenant: str = "tenant-0",
        chain_id: ChainId | None = None,
        flow_size_gb: float = 1.0,
        bandwidth_gbps: float = 1.0,
        algorithm: PlacementAlgorithm | None = None,
    ) -> ProvisioningPlan:
        """Dry-run admission check; mutates nothing.

        Unlike :meth:`provision`, this never bootstraps a cluster — a
        missing cluster is reported as a blocking problem in the plan.
        The placement algorithm resolves as in :meth:`provision`.
        """
        request = self._request(
            chain, service, tenant, chain_id, flow_size_gb, bandwidth_gbps
        )
        return self._orchestrator.plan_chain(request, algorithm)

    def teardown(self, chain_id: ChainId | None = None) -> int:
        """Tear down one chain, or every live chain when id is omitted.

        Returns the number of chains torn down.
        """
        if chain_id is not None:
            self._orchestrator.teardown_chain(chain_id)
            return 1
        count = 0
        for live in self._orchestrator.chains():
            self._orchestrator.teardown_chain(live.chain_id)
            count += 1
        return count

    def provision_batch(
        self,
        requests: Sequence,
        *,
        on_error: str = "raise",
    ) -> list:
        """Admit many provision requests as one batched operation.

        The batch shares one journal group commit (a single fsync
        instead of one per chain) across all requests — the lever
        behind the durable service's batched-throughput win.  Requests
        are admitted strictly in order, each through the same pipeline
        as :meth:`provision`, so a batch commits the exact same state
        (and journal records) as the equivalent serial calls.

        Args:
            requests: :class:`~repro.service.ProvisionRequest` items, or
                mappings of :meth:`provision` keyword arguments.
            on_error: ``"raise"`` aborts on the first failed request
                (already-admitted chains stay up); ``"collect"`` records
                the exception in that request's result slot and
                continues.

        Returns:
            One entry per request, in order: an
            :class:`~repro.core.orchestrator.OrchestratedChain`, or the
            :class:`~repro.exceptions.ALVCError` the request raised
            (``on_error="collect"`` only).
        """
        from repro.service.frontend import ProvisionRequest

        if on_error not in ("raise", "collect"):
            raise ValidationError(
                f"on_error must be 'raise' or 'collect', got {on_error!r}"
            )
        normalized: list[ProvisionRequest] = []
        for item in requests:
            if isinstance(item, ProvisionRequest):
                normalized.append(item)
            elif isinstance(item, dict):
                normalized.append(ProvisionRequest(**item))
            else:
                raise ValidationError(
                    "provision_batch items must be ProvisionRequest "
                    f"objects or mappings, got {type(item).__name__}"
                )
        journal = self._recorder.journal
        scope = (
            journal.batch()
            if self._recorder.active and journal is not None
            else contextlib.nullcontext()
        )
        results: list = []
        with scope:
            for item in normalized:
                chain = item.chain
                if not isinstance(chain, NetworkFunctionChain):
                    chain = tuple(chain)
                try:
                    # Lazy per-request bootstrap at recorder depth 0
                    # (not hoisted before the loop, not inside the
                    # provision frame): it journals its own "cluster"
                    # command when it creates one, and replay then
                    # bootstraps in this same order, keeping VM id
                    # allocation — and thus the state digest —
                    # bit-identical.
                    self.cluster(item.service)
                    with self._recorder.operation() as outermost:
                        request = self._request(
                            chain, item.service, item.tenant,
                            item.chain_id, item.flow_size_gb,
                            item.bandwidth_gbps,
                        )
                        algorithm = self._orchestrator._resolve_algorithm(
                            item.algorithm, request.chain
                        )
                        live = self._orchestrator._provision_chain(
                            request, algorithm
                        )
                        self._commit_serial(chain, item.chain_id)
                        if outermost:
                            self._record_provision(
                                chain, item.service, item.tenant,
                                item.chain_id, item.flow_size_gb,
                                item.bandwidth_gbps, algorithm,
                            )
                except ALVCError as exc:
                    if on_error == "raise":
                        raise
                    results.append(exc)
                    continue
                results.append(live)
        if self.telemetry.enabled:
            self.telemetry.counter(
                "alvc_provision_batches_total",
                "provision_batch batches admitted",
            ).inc()
        return results

    def _request(
        self,
        chain: NetworkFunctionChain | Sequence[str],
        service: str,
        tenant: str,
        chain_id: ChainId | None,
        flow_size_gb: float,
        bandwidth_gbps: float,
    ) -> ChainRequest:
        return ChainRequest(
            tenant=tenant,
            chain=self._as_chain(chain, chain_id, bandwidth_gbps),
            service=service,
            flow_size_gb=flow_size_gb,
        )

    def _as_chain(
        self,
        chain: NetworkFunctionChain | Sequence[str],
        chain_id: ChainId | None,
        bandwidth_gbps: float,
    ) -> NetworkFunctionChain:
        if isinstance(chain, NetworkFunctionChain):
            return chain
        if chain_id is None:
            # Peek, don't consume: the serial is committed only after a
            # successful provision (see _commit_serial) so failed or
            # dry-run requests never burn an auto-numbered id — and a
            # journal replay, which re-runs only committed provisions,
            # reproduces the exact same numbering.
            chain_id = f"chain-{self._chain_serial}"
        return NetworkFunctionChain.from_names(
            chain_id, tuple(chain), self._functions, bandwidth_gbps
        )

    def _commit_serial(
        self,
        chain: NetworkFunctionChain | Sequence[str],
        chain_id: ChainId | None,
    ) -> None:
        if not isinstance(chain, NetworkFunctionChain) and chain_id is None:
            undo.push((setattr, self, "_chain_serial", self._chain_serial))
            self._chain_serial += 1

    def _record_provision(
        self,
        chain: NetworkFunctionChain | tuple[str, ...],
        service: str,
        tenant: str,
        chain_id: ChainId | None,
        flow_size_gb: float,
        bandwidth_gbps: float,
        algorithm: PlacementAlgorithm,
    ) -> None:
        if not self._recorder.active:
            return
        if isinstance(chain, NetworkFunctionChain):
            payload = {"spec": chain_to_spec(chain)}
        else:
            payload = {
                "names": list(chain),
                "chain_id": chain_id,
                "bandwidth_gbps": bandwidth_gbps,
            }
        self._recorder.record(
            "provision",
            entry="stack",
            tenant=tenant,
            service=service,
            chain=payload,
            flow_size_gb=flow_size_gb,
            algorithm=algorithm.value,
        )

    # ------------------------------------------------------------------
    # Chaos engineering
    # ------------------------------------------------------------------
    def inject_faults(
        self,
        faults: Sequence = (),
        *,
        seed: int = 0,
        rate: float | None = None,
        duration: float = 100.0,
        repair_after: float | None = None,
        flows: Sequence | None = None,
        n_flows: int = 0,
        policy=None,
        simulator=None,
    ):
        """Run a chaos experiment against this stack and report.

        Two modes, mirroring :class:`~repro.chaos.FaultInjector`:

        * pass ``faults`` — an explicit schedule of
          :class:`~repro.chaos.FaultEvent` records (or legacy ``(time,
          node)`` tuples) — to replay a hand-written scenario;
        * pass ``rate`` to draw a seeded Poisson fault schedule over
          ``[0, duration)`` instead (``repair_after`` adds matching
          repairs).

        The schedule is played through the orchestrator (AL repair under
        ``policy``, VNF evacuation, SDN re-pathing) and the event-driven
        simulator (reroutes, drops, capacity revocation).

        Args:
            faults: explicit fault schedule (exclusive with ``rate``).
            seed: drives the random schedule *and* is recorded in the
                report; same seed + same arguments ⇒ identical report.
            rate: mean faults per virtual second for a random schedule.
            duration: random-schedule horizon (virtual seconds).
            repair_after: derive a repair this long after each random
                crash/cut.
            flows: data-plane workload; when ``None`` and ``n_flows`` >
                0, a seeded :class:`~repro.sim.TrafficGenerator` draws
                the workload.
            n_flows: number of generated flows (ignored when ``flows``
                is given).
            policy: :class:`~repro.chaos.RecoveryPolicy` for AL repair
                retries (single attempt when omitted).
            simulator: bring your own data-plane simulator.

        Returns:
            The run's :class:`~repro.chaos.ChaosReport`.

        Raises:
            ValidationError: when both ``faults`` and ``rate`` are given
                (or neither), or on bad schedule parameters.
        """
        from repro.chaos import ChaosRunner, FaultInjector
        from repro.exceptions import ValidationError
        from repro.sim.traffic import TrafficGenerator

        if faults and rate is not None:
            raise ValidationError(
                "pass an explicit fault schedule or rate=, not both"
            )
        if not faults and rate is None:
            raise ValidationError(
                "nothing to inject: pass a fault schedule or rate="
            )
        if rate is not None:
            injector = FaultInjector(
                self.fabric, seed=seed, telemetry=self.telemetry
            )
            injector.schedule(
                duration=duration, rate=rate, repair_after=repair_after
            )
            schedule = injector.events()
        else:
            schedule = list(faults)
        if flows is None and n_flows > 0:
            flows = TrafficGenerator(self._inventory, seed=seed).flows(
                n_flows
            )
        runner = ChaosRunner(
            self._orchestrator, simulator=simulator, policy=policy
        )
        return runner.run(schedule, flows or (), seed=seed)

    def run_sweep(
        self,
        trial,
        params: Sequence,
        *,
        chunk_size: int | None = None,
    ) -> list:
        """Shard a seeded experiment sweep across worker processes.

        A facade veneer over :class:`repro.parallel.SweepRunner`, wired
        to this stack's telemetry and ``engines.workers``: per-worker
        metrics roll up into :attr:`telemetry`, and ``workers=1`` (the
        default) runs trials inline under it with no multiprocessing
        machinery.  No selector is installed around the trials; a trial
        that needs a cover kernel or routing engine takes it in its
        parameter.

        ``trial`` must be a **top-level picklable callable** over
        picklable parameters — the ``_fig4_cell``-style trial functions
        in :mod:`repro.analysis.experiments` qualify.  Results come
        back in ``params`` order and are bit-identical for any worker
        count.

        Args:
            trial: top-level callable run once per parameter.
            params: the seeded parameter grid.
            chunk_size: trials per worker task (defaults to an even
                split, four chunks per worker).

        Returns:
            One result per parameter, in ``params`` order.
        """
        from repro.parallel import SweepRunner

        runner = SweepRunner(
            workers=self._engines.workers,
            chunk_size=chunk_size,
            telemetry=self.telemetry,
        )
        return runner.map(trial, params)

    def run_workload(
        self,
        scenario=None,
        *,
        seed: int = 0,
        config=None,
        admission=None,
        scaling=None,
        chaos_rate: float = 0.0,
        chaos_repair_after: float | None = 2.0,
        storm_period: int = 0,
        storm_size: int = 2,
        epoch_hook=None,
    ):
        """Play a long-horizon multi-tenant churn workload on this stack.

        Pass a pre-drawn :class:`~repro.workload.Scenario`, or let
        ``config``/``seed`` draw one via
        :func:`~repro.workload.generate_scenario`.  Every epoch the
        runner injects the scenario's chaos slice, tears down departing
        tenants, admits (or rejects) arrivals, feeds demand to the
        elastic VNF scaler, runs migration storms and — when stranded
        capacity crosses the policy threshold — a defragmenting
        re-embedding pass.  All mutations go through journaled entry
        points, so a whole run replays bit-identically from the
        stack's journal.

        Build the stack with ``exclusive_chains=False`` when tenants
        may bring more than one chain.  Returns the run's
        :class:`~repro.workload.WorkloadReport`.

        ``admission=`` here is the workload *admission policy*
        (tenant accept/reject).
        """
        from repro.workload import WorkloadRunner, generate_scenario

        if scenario is None:
            scenario = generate_scenario(config, seed=seed)
        elif config is not None:
            raise ValidationError(
                "pass a scenario or a config to draw one from, not both"
            )
        runner = WorkloadRunner(
            self,
            scenario,
            admission=admission,
            scaling=scaling,
            chaos_rate=chaos_rate,
            chaos_repair_after=chaos_repair_after,
            storm_period=storm_period,
            storm_size=storm_size,
            epoch_hook=epoch_hook,
        )
        return runner.run()

    # ------------------------------------------------------------------
    # Durable service surface (journal, snapshot, restore, frontend)
    # ------------------------------------------------------------------
    def attach_journal(self, journal: Journal | str | Path) -> Journal:
        """Journal every state-mutating call on this stack from now on.

        Accepts an open :class:`~repro.service.Journal` or a path to
        one.  The recorder is shared with the orchestrator and NFV
        manager, so composite operations (``modify_chain``,
        ``handle_ops_failure``, batch provisioning) journal exactly one
        command record each.  Returns the attached journal.
        """
        if not isinstance(journal, Journal):
            journal = Journal(journal, telemetry=self.telemetry)
        recorder = OpRecorder(journal)
        self._recorder = recorder
        self._orchestrator.attach_recorder(recorder)
        return journal

    @property
    def journal(self) -> Journal | None:
        """The attached journal (``None`` when not journaling)."""
        return self._recorder.journal

    @property
    def engines(self) -> EngineConfig:
        """The stack's engine selection."""
        return self._engines

    @property
    def journal_seq(self) -> int:
        """Sequence the next journaled record will get (0 when
        not journaling).  After a restore this resumes exactly where the
        journal left off — the genesis record is never re-journaled."""
        journal = self.journal
        return journal.next_seq if journal is not None else 0

    def snapshot(self, path: str | Path):
        """Write a CRC-framed snapshot of this stack's state to disk.

        The snapshot records the current journal position, so a restore
        loads it and replays only the journal tail.  Returns the
        :class:`~repro.service.SnapshotRecord` written.
        """
        from repro.service.snapshot import write_snapshot

        journal = self.journal
        seq = journal.next_seq if journal is not None else 0
        return write_snapshot(self, path, journal_seq=seq)

    def serve(self, **options):
        """An async batched request front-end over this stack.

        Keyword options are passed to
        :class:`~repro.service.RequestFrontend` (``max_queue``,
        ``max_batch``).  Use as an async context manager::

            async with stack.serve() as frontend:
                response = await frontend.submit(ProvisionRequest(...))
        """
        from repro.service.frontend import RequestFrontend

        return RequestFrontend(self, **options)

    @classmethod
    def restore(cls, path: str | Path) -> "AlvcStack":
        """Reconstruct a stack from a durable-service state directory.

        ``path`` is a directory created by
        :meth:`repro.service.ControlPlaneService.open` (or a journal
        file directly).  The genesis record rebuilds the stack, the
        newest intact snapshot (if any) short-circuits the replay, and
        the journal tail is replayed through the same public entry
        points that wrote it — yielding a bit-identical control plane
        with the journal reattached and open for append.
        """
        from repro.service.service import JOURNAL_NAME, SNAPSHOT_NAME
        from repro.service.restore import restore_stack

        path = Path(path)
        if path.is_dir():
            journal_path = path / JOURNAL_NAME
            snapshot_path = path / SNAPSHOT_NAME
        else:
            journal_path = path
            snapshot_path = path.with_name(SNAPSHOT_NAME)
        result = restore_stack(journal_path, snapshot_path)
        result.stack.attach_journal(journal_path)
        return result.stack

    # ------------------------------------------------------------------
    # Queries and collaborator access (the facade is not a ceiling)
    # ------------------------------------------------------------------
    def chains(self) -> list[OrchestratedChain]:
        """All live chains, sorted by id."""
        return self._orchestrator.chains()

    def chain(self, chain_id: ChainId) -> OrchestratedChain:
        """The live chain with this id."""
        return self._orchestrator.chain(chain_id)

    @property
    def telemetry(self) -> Telemetry:
        """The stack's metrics/tracing sink."""
        return self._orchestrator.telemetry

    @property
    def fabric(self) -> DataCenterNetwork:
        """The physical data-center network."""
        return self._inventory.network

    @property
    def inventory(self) -> MachineInventory:
        """The VM ledger."""
        return self._inventory

    @property
    def orchestrator(self) -> NetworkOrchestrator:
        """The underlying orchestrator (full long-form API)."""
        return self._orchestrator

    @property
    def services(self) -> ServiceCatalog:
        """The service catalog."""
        return self._services

    @property
    def functions(self) -> FunctionCatalog:
        """The network-function catalog."""
        return self._functions

    @property
    def engine(self) -> VmPlacementEngine:
        """The VM placement engine used by :meth:`populate`."""
        return self._engine

"""The long-horizon workload loop: churn, scaling, chaos, defrag.

:class:`WorkloadRunner` advances a :class:`~repro.workload.Scenario`
epoch by epoch against a live :class:`~repro.stack.AlvcStack`, driving
only journaled entry points so an entire "week in the life" is
restore-replayable:

==== ==========================================================
step what happens (fixed order inside every epoch)
==== ==========================================================
1    chaos — this epoch's slice of the seeded fault/repair
     schedule plays through ``inject_faults`` (OPS failures are
     journaled ``ops_failure``/``ops_repair`` commands)
2    departures — each departing tenant's chains tear down
3    arrivals — admission preflight (slots, headroom), then the
     transactional provision attempt; a failed attempt rejects
     the tenant and leaves zero trace
4    demand — per-chain demand feeds the elastic scaler
     (journaled ``vnf_scale``) and the SLA accounting
5    migration storm — on storm epochs, cluster VMs migrate off
     the hottest servers (journaled ``vm_migrate``)
6    defrag — when stranded capacity crosses the threshold, the
     widest-spread chains re-embed (journaled teardown +
     provision)
==== ==========================================================

The loop holds no hidden state: every decision derives from the
scenario value and observable stack state, so the same seed produces
the same :class:`WorkloadReport` — including the same ``state_digest``
— across runs, engines, worker counts and journal replays.
"""

from __future__ import annotations

import dataclasses
import zlib
from typing import Callable

from repro.exceptions import ALVCError, UnknownEntityError, ValidationError
from repro.nfv.autoscaler import AutoscalerPolicy
from repro.workload.admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionPolicy,
)
from repro.workload.scaling import ElasticScaler
from repro.workload.scenario import Scenario, TenantPlan

__all__ = ["WorkloadReport", "WorkloadRunner"]


@dataclasses.dataclass(frozen=True, slots=True)
class WorkloadReport:
    """Everything one workload run produced (value-comparable).

    Attributes:
        seed: the scenario seed.
        epochs / days: the horizon that ran.
        tenants_arrived: tenants that asked for admission.
        tenants_admitted / tenants_rejected: admission outcomes.
        rejections: ``(reason, count)`` pairs, sorted by reason.
        tenants_departed: tenants that left (their chains torn down).
        active_at_end: tenants still being served at the horizon.
        chains_provisioned / chains_torn_down: chain lifecycle totals
            (admission and departures; defrag re-embeds are counted
            separately).
        acceptance_ratio: admitted over arrived (1.0 with no arrivals).
        sla_violations: chain-epochs where demand outran the
            bottleneck VNF's scaled capacity.
        sla_chain_epochs: chain-epochs observed (the denominator).
        scale_ups / scale_downs / scale_blocked: elastic-scaler actions.
        reembeddings / reembed_losses: defrag outcomes.
        fragmentation_peak: worst stranded-capacity fraction observed.
        al_churn_cost: slice/AL churn: one per chain provisioned or
            torn down, one per re-embed leg, one per recovered OPS
            failure, plus every AL switch touched by storm migrations.
        faults_injected / faults_recovered / chaos_mttr: chaos totals
            (MTTR is the mean over recovered OPS failures).
        migration_storms / vms_migrated / migrations_blocked: storm
            accounting.
        decision_log: ``epoch:tenant:reason`` per admission decision.
        decisions_checksum: CRC32 over the decision log (what the
            benchmark baselines compare).
        state_digest: the stack's canonical digest after the run — the
            bit-replayability oracle.
        journal_records: journal position after the run (0 when the
            stack is not journaling).
    """

    seed: int
    epochs: int
    days: float
    tenants_arrived: int
    tenants_admitted: int
    tenants_rejected: int
    rejections: tuple[tuple[str, int], ...]
    tenants_departed: int
    active_at_end: int
    chains_provisioned: int
    chains_torn_down: int
    acceptance_ratio: float
    sla_violations: int
    sla_chain_epochs: int
    scale_ups: int
    scale_downs: int
    scale_blocked: int
    reembeddings: int
    reembed_losses: int
    fragmentation_peak: float
    al_churn_cost: float
    faults_injected: int
    faults_recovered: int
    chaos_mttr: float
    migration_storms: int
    vms_migrated: int
    migrations_blocked: int
    decision_log: tuple[str, ...]
    decisions_checksum: int
    state_digest: str
    journal_records: int

    def to_dict(self) -> dict:
        """JSON-ready summary (decision log folded to its checksum)."""
        payload = dataclasses.asdict(self)
        del payload["decision_log"]
        payload["rejections"] = dict(self.rejections)
        return payload


@dataclasses.dataclass
class _TenantState:
    plan: TenantPlan
    slot: str
    chain_ids: tuple[str, ...]


class WorkloadRunner:
    """Drives one scenario against one stack (see module docs)."""

    def __init__(
        self,
        stack,
        scenario: Scenario,
        *,
        admission: AdmissionPolicy | None = None,
        scaling: AutoscalerPolicy | None = None,
        chaos_rate: float = 0.0,
        chaos_repair_after: float | None = 2.0,
        storm_period: int = 0,
        storm_size: int = 2,
        epoch_hook: Callable | None = None,
    ) -> None:
        """Wire the loop.

        Args:
            stack: the :class:`~repro.stack.AlvcStack` under churn.
                Build it with ``exclusive_chains=False`` when tenants
                may bring more than one chain — a tenant's chains share
                its slot's cluster (and optical slice).
            scenario: the pre-drawn churn schedule.
            admission: rejection/defrag policy (defaults when omitted).
            scaling: autoscaler thresholds (defaults when omitted).
            chaos_rate: mean OPS failures per epoch (0 disables chaos).
            chaos_repair_after: epochs until each failure's repair
                (None leaves failures standing).
            storm_period: run a migration storm every this many epochs
                (0 disables storms).
            storm_size: VM migrations attempted per storm.
            epoch_hook: called as ``hook(stack, epoch)`` after each
                epoch — the property-test suites' invariant probe.
        """
        if chaos_rate < 0:
            raise ValidationError(
                f"chaos_rate must be non-negative, got {chaos_rate}"
            )
        if storm_period < 0 or storm_size < 1:
            raise ValidationError(
                "storm_period must be >= 0 and storm_size >= 1"
            )
        self._stack = stack
        self._scenario = scenario
        config = scenario.config
        self._admission = AdmissionController(
            stack,
            admission,
            reference_demand=_slot_demand(config),
        )
        self._scaler = ElasticScaler(stack, scaling)
        self._chaos_rate = chaos_rate
        self._chaos_repair_after = chaos_repair_after
        self._storm_period = storm_period
        self._storm_size = storm_size
        self._epoch_hook = epoch_hook

        self._slots = [f"slot-{i:02d}" for i in range(config.slots)]
        self._registered: set[str] = set()
        self._free_slots = list(reversed(self._slots))  # pop() gives slot-00
        self._active: dict[str, _TenantState] = {}

        self._provisioned = 0
        self._torn_down = 0
        self._departed = 0
        self._frag_peak = 0.0
        self._faults_injected = 0
        self._faults_recovered = 0
        self._mttr_total = 0.0
        self._storms = 0
        self._migrated = 0
        self._migrations_blocked = 0
        self._switches_touched = 0

    @property
    def admission(self) -> AdmissionController:
        """The run's admission controller (decision log lives here)."""
        return self._admission

    @property
    def scaler(self) -> ElasticScaler:
        """The run's elastic scaler."""
        return self._scaler

    @property
    def active_tenants(self) -> list[str]:
        """Tenants currently being served, sorted."""
        return sorted(self._active)

    # ------------------------------------------------------------------
    def run(self) -> WorkloadReport:
        """Play the whole scenario; returns the frozen report."""
        schedule = self._draw_chaos_schedule()
        for epoch in range(self._scenario.n_epochs):
            self._play_chaos(schedule, epoch)
            self._play_departures(epoch)
            self._play_arrivals(epoch)
            self._play_demand(epoch)
            self._play_storm(epoch)
            self._play_defrag(epoch)
            if self._epoch_hook is not None:
                self._epoch_hook(self._stack, epoch)
        return self._report()

    # ------------------------------------------------------------------
    # Epoch steps
    # ------------------------------------------------------------------
    def _draw_chaos_schedule(self) -> dict[int, list]:
        if self._chaos_rate <= 0:
            return {}
        from repro.chaos import FaultInjector
        from repro.sim.faults import FaultKind

        injector = FaultInjector(
            self._stack.fabric,
            seed=self._scenario.seed,
            telemetry=self._stack.telemetry,
        )
        injector.schedule(
            duration=float(self._scenario.n_epochs),
            rate=self._chaos_rate,
            kinds=(FaultKind.OPS_CRASH,),
            repair_after=self._chaos_repair_after,
        )
        by_epoch: dict[int, list] = {}
        for event in injector.events():
            by_epoch.setdefault(int(event.time), []).append(event)
        return by_epoch

    def _play_chaos(self, schedule: dict[int, list], epoch: int) -> None:
        events = schedule.get(epoch)
        if not events:
            return
        report = self._stack.inject_faults(
            faults=events, seed=self._scenario.seed
        )
        self._faults_injected += report.faults_injected
        self._faults_recovered += report.recovered_count
        self._mttr_total += sum(
            recovery.recovery_time
            for recovery in report.recoveries
            if recovery.recovered
        )

    def _play_departures(self, epoch: int) -> None:
        for plan in self._scenario.departures_at(epoch):
            state = self._active.pop(plan.tenant_id, None)
            if state is None:
                continue  # was rejected at arrival
            for chain_id in state.chain_ids:
                try:
                    self._stack.teardown(chain_id)
                except UnknownEntityError:
                    continue  # lost to a failed defrag re-embed
                self._torn_down += 1
            self._departed += 1
            self._free_slots.append(state.slot)

    def _play_arrivals(self, epoch: int) -> None:
        for plan in self._scenario.arrivals_at(epoch):
            reason = self._admission.preflight(len(self._free_slots))
            if reason is None:
                reason = self._try_provision(plan)
            self._admission.record(
                AdmissionDecision(
                    epoch=epoch,
                    tenant_id=plan.tenant_id,
                    admitted=reason == "admitted",
                    reason=reason,
                )
            )

    def _try_provision(self, plan: TenantPlan) -> str:
        slot = self._free_slots.pop()
        if slot not in self._registered:
            config = self._scenario.config
            self._stack.register_service(
                slot,
                cpu_cores=config.slot_cpu,
                memory_gb=config.slot_memory_gb,
                storage_gb=config.slot_storage_gb,
            )
            self._registered.add(slot)
        provisioned: list[str] = []
        for index, template in enumerate(plan.templates):
            chain_id = f"{plan.tenant_id}-{template.name}-{index}"
            try:
                self._stack.provision(
                    template.functions,
                    service=slot,
                    tenant=plan.tenant_id,
                    chain_id=chain_id,
                    flow_size_gb=template.flow_size_gb,
                    bandwidth_gbps=template.bandwidth_gbps,
                )
            except ALVCError as exc:
                # All-or-nothing admission: unwind the tenant's earlier
                # chains (journaled teardowns) and return the slot.
                for done in reversed(provisioned):
                    self._stack.teardown(done)
                self._free_slots.append(slot)
                return f"capacity:{type(exc).__name__}"
            provisioned.append(chain_id)
        self._provisioned += len(provisioned)
        self._active[plan.tenant_id] = _TenantState(
            plan=plan, slot=slot, chain_ids=tuple(provisioned)
        )
        return "admitted"

    def _play_demand(self, epoch: int) -> None:
        demands: dict[str, float] = {}
        for tenant_id in sorted(self._active):
            state = self._active[tenant_id]
            level = self._scenario.demand(state.plan, epoch)
            for chain_id in state.chain_ids:
                demands[chain_id] = level
        if demands:
            self._scaler.observe_epoch(demands)

    def _play_storm(self, epoch: int) -> None:
        if self._storm_period <= 0:
            return
        if (epoch + 1) % self._storm_period != 0:
            return
        self._storms += 1
        inventory = self._stack.inventory
        orchestrator = self._stack.orchestrator
        candidates: list[str] = []
        for tenant_id in sorted(self._active):
            slot = self._active[tenant_id].slot
            vms = sorted(
                inventory.vms_of_service(slot), key=lambda vm: vm.vm_id
            )
            candidates.extend(
                vm.vm_id for vm in vms if inventory.is_placed(vm.vm_id)
            )
        for vm_id in candidates[: self._storm_size]:
            target = self._coldest_server(vm_id)
            if target is None:
                self._migrations_blocked += 1
                continue
            try:
                result = orchestrator.handle_vm_migration(vm_id, target)
            except ALVCError:
                self._migrations_blocked += 1
                continue
            self._migrated += 1
            self._switches_touched += result.get("switches_touched", 0)

    def _coldest_server(self, vm_id: str) -> str | None:
        """The least-utilized server that can host the VM (not its own).

        The minimum of ``(-free cpu, server)`` over the servers the VM
        fits on: a walk of the inventory's free-CPU levels, highest
        first and ids ascending, that stops at the first fit or once the
        levels drop below the VM's CPU demand.
        """
        inventory = self._stack.inventory
        current = inventory.host_of(vm_id)
        demand = inventory.get(vm_id).demand
        free = inventory.free_capacities()
        for cpu, servers in inventory.free_cpu_levels():
            if cpu < demand.cpu_cores:
                break
            for server in servers:
                if server != current and demand.fits_within(free[server]):
                    return server
        return None

    def _play_defrag(self, epoch: int) -> None:
        frag = self._admission.fragmentation()
        self._frag_peak = max(self._frag_peak, frag)
        if self._admission.should_defrag(epoch):
            self._admission.defrag(epoch)

    # ------------------------------------------------------------------
    def _report(self) -> WorkloadReport:
        from repro.service.snapshot import state_digest

        decisions = self._admission.decisions()
        rejected: dict[str, int] = {}
        for decision in decisions:
            if not decision.admitted:
                rejected[decision.reason] = (
                    rejected.get(decision.reason, 0) + 1
                )
        log = tuple(decision.label() for decision in decisions)
        checksum = zlib.crc32("\n".join(log).encode())
        admitted = sum(1 for d in decisions if d.admitted)
        reembed_legs = self._admission.reembedded * 2
        churn = float(
            self._provisioned
            + self._torn_down
            + reembed_legs
            + self._admission.reembed_losses
            + self._faults_recovered
            + self._switches_touched
        )
        scenario = self._scenario
        return WorkloadReport(
            seed=scenario.seed,
            epochs=scenario.n_epochs,
            days=scenario.config.days,
            tenants_arrived=len(decisions),
            tenants_admitted=admitted,
            tenants_rejected=len(decisions) - admitted,
            rejections=tuple(sorted(rejected.items())),
            tenants_departed=self._departed,
            active_at_end=len(self._active),
            chains_provisioned=self._provisioned,
            chains_torn_down=self._torn_down,
            acceptance_ratio=(
                admitted / len(decisions) if decisions else 1.0
            ),
            sla_violations=self._scaler.sla_violations,
            sla_chain_epochs=self._scaler.observed_chain_epochs,
            scale_ups=self._scaler.scale_ups,
            scale_downs=self._scaler.scale_downs,
            scale_blocked=self._scaler.scale_blocked,
            reembeddings=self._admission.reembedded,
            reembed_losses=self._admission.reembed_losses,
            fragmentation_peak=self._frag_peak,
            al_churn_cost=churn,
            faults_injected=self._faults_injected,
            faults_recovered=self._faults_recovered,
            chaos_mttr=(
                self._mttr_total / self._faults_recovered
                if self._faults_recovered
                else 0.0
            ),
            migration_storms=self._storms,
            vms_migrated=self._migrated,
            migrations_blocked=self._migrations_blocked,
            decision_log=log,
            decisions_checksum=checksum,
            state_digest=state_digest(self._stack),
            journal_records=self._stack.journal_seq,
        )


def _slot_demand(config):
    from repro.topology.elements import ResourceVector

    return ResourceVector(
        cpu_cores=config.slot_cpu,
        memory_gb=config.slot_memory_gb,
        storage_gb=config.slot_storage_gb,
    )

"""Admission control and defragmenting re-embedding.

The admission controller sits in front of the provisioning pipeline
during a long-horizon run and answers two questions:

* **admit or reject** — a tenant is rejected outright when every
  service slot (= abstraction layer) is occupied, or when the fabric's
  free-capacity headroom is below the policy floor; a tenant whose
  provision *attempt* fails (placement, wavelengths, O/E/O ports) is
  rejected too, and the transactional pipeline guarantees the failed
  attempt leaves zero trace.
* **when to defragment** — long churn strands capacity: free resources
  scatter across servers in slivers too small to host a VM.  When the
  stranded fraction crosses the policy threshold, the controller
  re-embeds the widest-spread chains through the journaled
  teardown-and-reprovision path, packing them into the holes churn
  left behind.

Every decision is a pure function of observable stack state, so runs
are bit-replayable and engine-independent.
"""

from __future__ import annotations

import dataclasses

from repro.exceptions import ALVCError, ValidationError
from repro.topology.elements import ResourceVector

__all__ = [
    "AdmissionPolicy",
    "AdmissionDecision",
    "AdmissionController",
]


@dataclasses.dataclass(frozen=True, slots=True)
class AdmissionPolicy:
    """Rejection floors and defragmentation triggers.

    Attributes:
        headroom_fraction: reject arrivals while the fabric's free CPU
            fraction is at/below this floor (0 disables the check).
        defrag_threshold: stranded-capacity fraction above which a
            defragmentation pass runs.
        defrag_period: minimum epochs between defragmentation passes.
        defrag_batch: chains re-embedded per pass.
    """

    headroom_fraction: float = 0.02
    defrag_threshold: float = 0.5
    defrag_period: int = 12
    defrag_batch: int = 2

    def __post_init__(self) -> None:
        if not 0 <= self.headroom_fraction < 1:
            raise ValidationError(
                f"headroom_fraction must be in [0, 1), got "
                f"{self.headroom_fraction}"
            )
        if not 0 < self.defrag_threshold <= 1:
            raise ValidationError(
                f"defrag_threshold must be in (0, 1], got "
                f"{self.defrag_threshold}"
            )
        if self.defrag_period < 1:
            raise ValidationError(
                f"defrag_period must be >= 1, got {self.defrag_period}"
            )
        if self.defrag_batch < 1:
            raise ValidationError(
                f"defrag_batch must be >= 1, got {self.defrag_batch}"
            )


@dataclasses.dataclass(frozen=True, slots=True)
class AdmissionDecision:
    """One admit/reject outcome (the unit of the acceptance ratio)."""

    epoch: int
    tenant_id: str
    admitted: bool
    reason: str  # "admitted", "no-slot", "headroom", "capacity:<Error>"

    def label(self) -> str:
        """Compact ``epoch:tenant:reason`` form for decision logs."""
        return f"{self.epoch}:{self.tenant_id}:{self.reason}"


class AdmissionController:
    """Slot/headroom gatekeeping plus fragmentation-driven re-embedding.

    The controller never provisions by itself — the runner does, through
    the stack's transactional entry points — it only decides, observes
    and (when fragmentation crosses the threshold) re-embeds.
    """

    def __init__(
        self,
        stack,
        policy: AdmissionPolicy | None = None,
        *,
        reference_demand: ResourceVector | None = None,
    ) -> None:
        """Bind to a stack.

        Args:
            stack: the :class:`~repro.stack.AlvcStack` under churn.
            policy: rejection/defrag knobs (defaults when omitted).
            reference_demand: the VM-sized resource vector used to
                decide whether a server's free sliver is *usable*
                (defaults to a 1-CPU/2-GB/10-GB slot VM).
        """
        self._stack = stack
        self._policy = policy or AdmissionPolicy()
        self._reference = reference_demand or ResourceVector(
            cpu_cores=1, memory_gb=2, storage_gb=10
        )
        self._decisions: list[AdmissionDecision] = []
        self._last_defrag: int | None = None
        self._reembedded = 0
        self._reembed_losses = 0

    @property
    def policy(self) -> AdmissionPolicy:
        """The active policy."""
        return self._policy

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def preflight(self, free_slots: int) -> str | None:
        """Cheap pre-checks before a provision attempt.

        Returns a rejection reason, or None to proceed to the
        (transactional) provision attempt.
        """
        if free_slots <= 0:
            return "no-slot"
        floor = self._policy.headroom_fraction
        if floor > 0 and self.headroom() <= floor:
            return "headroom"
        return None

    def record(self, decision: AdmissionDecision) -> AdmissionDecision:
        """Append one decision to the log."""
        self._decisions.append(decision)
        return decision

    def decisions(self) -> list[AdmissionDecision]:
        """Every decision so far, in order."""
        return list(self._decisions)

    def acceptance_ratio(self) -> float:
        """Admitted over decided (1.0 before any decision)."""
        if not self._decisions:
            return 1.0
        admitted = sum(1 for d in self._decisions if d.admitted)
        return admitted / len(self._decisions)

    # ------------------------------------------------------------------
    # Capacity observation
    # ------------------------------------------------------------------
    def headroom(self) -> float:
        """Free CPU as a fraction of total server CPU."""
        total = self._stack.inventory.total_cpu_cores
        free, _ = self._free_cpu()
        return free / total if total else 0.0

    def fragmentation(self) -> float:
        """Stranded fraction of the fabric's free CPU.

        Free capacity on a server too full to host one more
        reference-sized VM is *stranded*: it exists, but admission
        cannot use it.  0.0 means every free core is reachable, 1.0
        means all of it sits in unusable slivers.
        """
        free, usable = self._free_cpu()
        if free == 0.0:
            return 0.0
        return 1.0 - usable / free

    def _free_cpu(self) -> tuple[float, float]:
        """``(free, usable)`` CPU summed over every server.

        Both are the inventory's exact running totals, each rounded once
        (:meth:`~repro.virtualization.machines.MachineInventory.free_cpu_cores`),
        so a probe costs O(1) however many servers the fabric has.
        """
        inventory = self._stack.inventory
        return (
            inventory.free_cpu_cores(),
            inventory.usable_cpu_cores(self._reference),
        )

    # ------------------------------------------------------------------
    # Defragmenting re-embedding
    # ------------------------------------------------------------------
    def should_defrag(self, epoch: int) -> bool:
        """True when fragmentation exceeds the threshold and the
        per-policy cool-down has elapsed."""
        if (
            self._last_defrag is not None
            and epoch - self._last_defrag < self._policy.defrag_period
        ):
            return False
        return self.fragmentation() > self._policy.defrag_threshold

    def defrag(self, epoch: int) -> int:
        """Re-embed the widest-spread chains; returns how many moved.

        Chains are ranked by *placement span* (distinct hosts touched) —
        the widest spread re-embeds first, ties broken by chain id for
        determinism.  Each re-embedding is a journaled teardown followed
        by a journaled re-provision of the identical request, so replay
        reproduces the packing decision exactly.  A chain whose
        re-provision fails (capacity moved underneath it) is counted as
        a loss — the journal stays consistent because the teardown
        committed and the failed provision left no trace.
        """
        self._last_defrag = epoch
        orchestrator = self._stack.orchestrator
        ranked = sorted(
            orchestrator.chains(),
            key=lambda live: (-self._span_of(live), live.chain_id),
        )
        moved = 0
        for live in ranked[: self._policy.defrag_batch]:
            orchestrator.teardown_chain(live.chain_id)
            try:
                orchestrator.provision_chain(live.request)
            except ALVCError:
                self._reembed_losses += 1
                continue
            moved += 1
        self._reembedded += moved
        return moved

    @staticmethod
    def _span_of(live) -> int:
        """Distinct hosts a chain's VNF placement touches."""
        return len(
            {placed.host for placed in live.placement.assignments}
        )

    @property
    def reembedded(self) -> int:
        """Chains successfully re-embedded by defrag passes."""
        return self._reembedded

    @property
    def reembed_losses(self) -> int:
        """Chains lost because their re-provision failed."""
        return self._reembed_losses

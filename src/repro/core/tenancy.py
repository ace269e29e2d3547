"""Tenant accounts and quota enforcement.

The orchestrator manages a "multiple-tenant SDN-enabled network" (Section
IV.B); this module adds the accounting a real operator would put in front
of it: per-tenant quotas on live chains, VNF instances and optical
compute, checked at admission and released at teardown.

Use with the orchestrator::

    quotas = TenantRegistry()
    quotas.register(Tenant("gold", max_chains=4, max_vnfs=16))
    guard = QuotaGuard(quotas, orchestrator)
    guard.provision_chain(request)          # enforces, then delegates
"""

from __future__ import annotations

import dataclasses
import math

from repro.core.chaining import ChainRequest
from repro.core.orchestrator import NetworkOrchestrator, OrchestratedChain
from repro.core.placement import PlacementAlgorithm
from repro.exceptions import (
    ALVCError,
    DuplicateEntityError,
    UnknownEntityError,
    ValidationError,
)
from repro.ids import ChainId, TenantId
from repro.topology.elements import Domain


class QuotaExceededError(ALVCError):
    """A tenant request would exceed one of its quotas."""


@dataclasses.dataclass(frozen=True, slots=True)
class Tenant:
    """A tenant account and its quotas.

    ``math.inf`` (the default) leaves a dimension unlimited.
    """

    tenant_id: TenantId
    max_chains: float = math.inf
    max_vnfs: float = math.inf
    max_optical_cpu: float = math.inf

    def __post_init__(self) -> None:
        if not self.tenant_id:
            raise ValidationError("tenant id must be non-empty")
        for name in ("max_chains", "max_vnfs", "max_optical_cpu"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be non-negative")


@dataclasses.dataclass
class TenantUsage:
    """Live resource consumption of one tenant."""

    chains: int = 0
    vnfs: int = 0
    optical_cpu: float = 0.0


class TenantRegistry:
    """Tenant accounts with their current usage."""

    def __init__(self) -> None:
        self._tenants: dict[TenantId, Tenant] = {}
        self._usage: dict[TenantId, TenantUsage] = {}

    def register(self, tenant: Tenant) -> Tenant:
        """Add a tenant account."""
        if tenant.tenant_id in self._tenants:
            raise DuplicateEntityError("tenant", tenant.tenant_id)
        self._tenants[tenant.tenant_id] = tenant
        self._usage[tenant.tenant_id] = TenantUsage()
        return tenant

    def get(self, tenant_id: TenantId) -> Tenant:
        """The account of a tenant."""
        try:
            return self._tenants[tenant_id]
        except KeyError:
            raise UnknownEntityError("tenant", tenant_id) from None

    def usage_of(self, tenant_id: TenantId) -> TenantUsage:
        """Current usage of a tenant."""
        self.get(tenant_id)
        return self._usage[tenant_id]

    def tenants(self) -> list[Tenant]:
        """All accounts, sorted by id."""
        return [self._tenants[key] for key in sorted(self._tenants)]

    # ------------------------------------------------------------------
    def check(
        self, tenant_id: TenantId, *, chains: int, vnfs: int,
        optical_cpu: float,
    ) -> None:
        """Raise unless the tenant can absorb this additional usage."""
        tenant = self.get(tenant_id)
        usage = self._usage[tenant_id]
        if usage.chains + chains > tenant.max_chains:
            raise QuotaExceededError(
                f"{tenant_id}: chain quota {tenant.max_chains} exceeded"
            )
        if usage.vnfs + vnfs > tenant.max_vnfs:
            raise QuotaExceededError(
                f"{tenant_id}: VNF quota {tenant.max_vnfs} exceeded"
            )
        if usage.optical_cpu + optical_cpu > tenant.max_optical_cpu:
            raise QuotaExceededError(
                f"{tenant_id}: optical CPU quota "
                f"{tenant.max_optical_cpu} exceeded"
            )

    def charge(
        self, tenant_id: TenantId, *, chains: int, vnfs: int,
        optical_cpu: float,
    ) -> None:
        """Record usage (after a successful provision)."""
        usage = self.usage_of(tenant_id)
        usage.chains += chains
        usage.vnfs += vnfs
        usage.optical_cpu += optical_cpu

    def credit(
        self, tenant_id: TenantId, *, chains: int, vnfs: int,
        optical_cpu: float,
    ) -> None:
        """Release usage (after teardown)."""
        usage = self.usage_of(tenant_id)
        usage.chains = max(0, usage.chains - chains)
        usage.vnfs = max(0, usage.vnfs - vnfs)
        usage.optical_cpu = max(0.0, usage.optical_cpu - optical_cpu)


class QuotaGuard:
    """Quota-enforcing facade over a :class:`NetworkOrchestrator`.

    Provisioning checks the tenant's quotas against the *planned*
    placement before any resource is allocated; deletion credits the
    usage back.  All other orchestrator methods remain available on the
    wrapped instance.
    """

    def __init__(
        self,
        registry: TenantRegistry,
        orchestrator: NetworkOrchestrator,
    ) -> None:
        self._registry = registry
        self._orchestrator = orchestrator
        self._charges: dict[ChainId, tuple[TenantId, int, float]] = {}

    @property
    def orchestrator(self) -> NetworkOrchestrator:
        """The wrapped orchestrator."""
        return self._orchestrator

    def provision_chain(
        self,
        request: ChainRequest,
        algorithm: PlacementAlgorithm | None = None,
    ) -> OrchestratedChain:
        """Enforce quotas, then provision.

        ``algorithm=None`` lets the orchestrator's ``EngineConfig.solver``
        pick it, for the quota plan and the provision alike.

        Raises:
            QuotaExceededError: before anything is allocated.
        """
        plan = self._orchestrator.plan_chain(request, algorithm)
        vnfs = len(request.chain)
        optical_cpu = 0.0
        if plan.placement is not None:
            optical_cpu = sum(
                placed.function.demand.cpu_cores
                for placed in plan.placement.assignments
                if placed.domain is Domain.OPTICAL
            )
        self._registry.check(
            request.tenant, chains=1, vnfs=vnfs, optical_cpu=optical_cpu
        )
        live = self._orchestrator.provision_chain(request, algorithm)
        # Charge what was actually deployed (the plan may differ when
        # capacity moved between plan and provision).
        actual_optical_cpu = sum(
            placed.function.demand.cpu_cores
            for placed in live.placement.assignments
            if placed.domain is Domain.OPTICAL
        )
        self._registry.charge(
            request.tenant,
            chains=1,
            vnfs=vnfs,
            optical_cpu=actual_optical_cpu,
        )
        self._charges[live.chain_id] = (
            request.tenant,
            vnfs,
            actual_optical_cpu,
        )
        return live

    def teardown_chain(self, chain_id: ChainId) -> None:
        """Tear down a chain and credit its tenant's usage."""
        self._orchestrator.teardown_chain(chain_id)
        tenant, vnfs, optical_cpu = self._charges.pop(
            chain_id, (None, 0, 0.0)
        )
        if tenant is not None:
            self._registry.credit(
                tenant, chains=1, vnfs=vnfs, optical_cpu=optical_cpu
            )

    def usage_report(self) -> list[dict]:
        """Per-tenant usage-vs-quota rows."""
        rows = []
        for tenant in self._registry.tenants():
            usage = self._registry.usage_of(tenant.tenant_id)
            rows.append(
                {
                    "tenant": tenant.tenant_id,
                    "chains": usage.chains,
                    "max_chains": tenant.max_chains,
                    "vnfs": usage.vnfs,
                    "max_vnfs": tenant.max_vnfs,
                    "optical_cpu": usage.optical_cpu,
                    "max_optical_cpu": tenant.max_optical_cpu,
                }
            )
        return rows

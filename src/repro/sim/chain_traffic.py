"""Flow traffic through orchestrated network function chains.

Complements the transport-only :class:`~repro.sim.simulator.FlowSimulator`
with the per-application view of Section IV: every flow of a cluster's
application traverses its NFC in order, paying

* O/E/O conversion cost per electronic VNF visit (linear in flow size),
* per-function processing cost (``per_gb_processing_cost`` of each NF),
* transport energy along the installed chain path,
* end-to-end latency (per-hop propagation/switching, per-conversion
  penalty, per-byte function processing) via :class:`LatencyModel`.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Iterable, Sequence

from repro.core.orchestrator import OrchestratedChain
from repro.exceptions import SimulationError, ValidationError
from repro.optical.conversion import (
    ConversionModel,
    TransportEnergyModel,
    domain_sequence,
)
from repro.sim.flows import Flow
from repro.virtualization.machines import MachineInventory


@dataclasses.dataclass(frozen=True, slots=True)
class LatencyModel:
    """End-to-end chain latency parameters.

    The paper's Section III.B goal is "larger bandwidth without delay";
    this model makes the delay measurable: optical hops switch faster
    than electronic store-and-forward hops, every O/E/O conversion adds a
    fixed penalty, and each function adds per-byte processing time.
    """

    optical_hop_us: float = 0.5
    electronic_hop_us: float = 5.0
    conversion_penalty_us: float = 10.0
    processing_us_per_mb: float = 2.0

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            if getattr(self, field.name) < 0:
                raise ValidationError(f"{field.name} must be non-negative")

    def flow_latency_seconds(
        self,
        flow_bytes: float,
        path_domains,
        conversions: int,
        n_functions: int,
    ) -> float:
        """Latency of one flow: hops + conversions + processing."""
        from repro.topology.elements import Domain

        hop_us = sum(
            self.optical_hop_us
            if domain is Domain.OPTICAL
            else self.electronic_hop_us
            for domain in path_domains[1:]
        )
        conversion_us = conversions * self.conversion_penalty_us
        processing_us = (
            n_functions * self.processing_us_per_mb * flow_bytes / 1e6
        )
        return (hop_us + conversion_us + processing_us) * 1e-6


@dataclasses.dataclass(frozen=True, slots=True)
class ChainFlowRecord:
    """Cost breakdown of one flow through one chain."""

    flow_id: str
    size_bytes: float
    conversions: int
    conversion_cost: float
    conversion_energy_joules: float
    processing_cost: float
    transport_energy_joules: float
    latency_seconds: float = 0.0

    @property
    def total_cost(self) -> float:
        """Conversion plus processing cost (the operator's bill)."""
        return self.conversion_cost + self.processing_cost


@dataclasses.dataclass(frozen=True)
class ChainTrafficReport:
    """Aggregate costs of a flow population through one chain."""

    chain_id: str
    records: tuple[ChainFlowRecord, ...]

    @property
    def flows(self) -> int:
        """Number of flows simulated."""
        return len(self.records)

    @property
    def total_conversion_cost(self) -> float:
        """Sum of O/E/O costs over all flows."""
        return sum(record.conversion_cost for record in self.records)

    @property
    def total_processing_cost(self) -> float:
        """Sum of NF processing costs over all flows."""
        return sum(record.processing_cost for record in self.records)

    @property
    def total_energy_joules(self) -> float:
        """Conversion plus transport energy over all flows."""
        return sum(
            record.conversion_energy_joules
            + record.transport_energy_joules
            for record in self.records
        )

    def latency_statistics(self) -> dict[str, float]:
        """Mean and p99 end-to-end latency over the flow population."""
        if not self.records:
            return {"mean": 0.0, "p99": 0.0}
        latencies = sorted(
            record.latency_seconds for record in self.records
        )
        import math as _math

        index = min(
            len(latencies) - 1,
            max(0, _math.ceil(0.99 * len(latencies)) - 1),
        )
        return {
            "mean": sum(latencies) / len(latencies),
            "p99": latencies[index],
        }

    @property
    def mean_conversions(self) -> float:
        """Average conversions per flow (constant per placement)."""
        if not self.records:
            return 0.0
        return sum(record.conversions for record in self.records) / len(
            self.records
        )

    def as_dict(self) -> dict[str, float]:
        """Scalar summary for reports."""
        return {
            "chain": self.chain_id,
            "flows": self.flows,
            "mean_conversions": self.mean_conversions,
            "conversion_cost": self.total_conversion_cost,
            "processing_cost": self.total_processing_cost,
            "energy_joules": self.total_energy_joules,
        }


class ChainTrafficSimulator:
    """Runs application flows through a provisioned chain."""

    def __init__(
        self,
        inventory: MachineInventory,
        *,
        conversion_model: ConversionModel | None = None,
        transport_model: TransportEnergyModel | None = None,
        latency_model: LatencyModel | None = None,
        seed: int = 0,
    ) -> None:
        self._inventory = inventory
        self._conversion = conversion_model or ConversionModel()
        self._transport = transport_model or TransportEnergyModel()
        self._latency = latency_model or LatencyModel()
        self._rng = random.Random(seed)

    def run(
        self,
        chain: OrchestratedChain,
        *,
        n_flows: int = 100,
        mean_flow_gb: float | None = None,
    ) -> ChainTrafficReport:
        """Simulate ``n_flows`` application flows through the chain.

        Flow sizes are lognormal around the request's ``flow_size_gb``
        (or ``mean_flow_gb`` when given).  Conversion counts come from
        the chain's placement; transport energy from the installed path.
        """
        if n_flows <= 0:
            raise SimulationError(f"n_flows must be positive, got {n_flows}")
        mean_gb = (
            mean_flow_gb
            if mean_flow_gb is not None
            else chain.request.flow_size_gb
        )
        if mean_gb <= 0:
            raise SimulationError("mean flow size must be positive")
        sized = (
            (f"{chain.chain_id}/flow-{index}", self._draw_size_bytes(mean_gb))
            for index in range(n_flows)
        )
        return self._report(chain, sized)

    def run_flows(
        self, chain: OrchestratedChain, flows: Sequence[Flow]
    ) -> ChainTrafficReport:
        """Simulate pre-drawn flows (sizes taken from the flow records)."""
        return self._report(
            chain, ((flow.flow_id, flow.size_bytes) for flow in flows)
        )

    def _report(
        self, chain: OrchestratedChain, sized: Iterable[tuple[str, float]]
    ) -> ChainTrafficReport:
        """One record per ``(flow_id, size_bytes)``, in order."""
        path_domains = domain_sequence(
            self._inventory.network, list(chain.path)
        )
        conversions = chain.conversions
        per_gb_processing = sum(
            function.per_gb_processing_cost
            for function in chain.request.chain.functions
        )
        records = tuple(
            ChainFlowRecord(
                flow_id=flow_id,
                size_bytes=size_bytes,
                conversions=conversions,
                conversion_cost=self._conversion.conversion_cost(
                    size_bytes, conversions
                ),
                conversion_energy_joules=(
                    self._conversion.conversion_energy_joules(
                        size_bytes, conversions
                    )
                ),
                processing_cost=per_gb_processing * size_bytes / 1e9,
                transport_energy_joules=self._transport.path_energy_joules(
                    size_bytes, path_domains
                ),
                latency_seconds=self._latency.flow_latency_seconds(
                    size_bytes,
                    path_domains,
                    conversions,
                    len(chain.request.chain),
                ),
            )
            for flow_id, size_bytes in sized
        )
        return ChainTrafficReport(chain_id=chain.chain_id, records=records)

    def _draw_size_bytes(self, mean_gb: float) -> float:
        import math

        sigma = 1.0
        mu = math.log(mean_gb * 1e9) - sigma * sigma / 2
        return self._rng.lognormvariate(mu, sigma)

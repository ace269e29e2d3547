"""Flow-level simulator: charges conversions and load over planned routes.

A static accounting pass over the routes the event-driven simulator
admits.  Each flow is keyed by :func:`~repro.sim.admission.flow_route_key`
and its path read from one :func:`~repro.sim.admission.plan_admission`
call, so the routing policy is the data plane's one rule:

* **clustered** (AL-VC): intra-service flows ride their cluster's
  abstraction layer (the flat fabric when the layer does not connect
  the pair); inter-service flows take the full fabric
  (cluster-to-cluster traffic leaves the slice);
* **flat**: every flow takes an unrestricted shortest path.

Per-flow accounting: hop count, transport O/E/O conversions (one per
maximal optical segment of the path — the flow converts E/O entering the
core and O/E leaving it), conversion cost/energy, and per-link byte load.
Links, conversions and confinement are computed once per route key.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Sequence

from repro.core.cluster import ClusterManager
from repro.exceptions import RoutingError
from repro.ids import NodeKind
from repro.observability.runtime import Telemetry, current_telemetry
from repro.optical.conversion import ConversionModel, domain_sequence
from repro.sim.admission import (
    NO_PLAN_ROUTE,
    InternedRoute,
    flow_route_key,
    plan_admission,
)
from repro.sim.flows import Flow
from repro.topology.elements import Domain
from repro.virtualization.machines import MachineInventory


def transport_conversions(domains: Sequence[Domain]) -> int:
    """O/E/O conversions of a transport path: its maximal optical runs."""
    conversions = 0
    previous = Domain.ELECTRONIC
    for domain in domains:
        if domain is Domain.OPTICAL and previous is Domain.ELECTRONIC:
            conversions += 1
        previous = domain
    return conversions


@dataclasses.dataclass(frozen=True)
class SimulationReport:
    """Aggregate outcome of one simulation run."""

    flows: int
    intra_service_flows: int
    total_bytes: float
    total_hops: int
    total_conversions: int
    total_conversion_cost: float
    total_energy_joules: float
    link_load_bytes: dict[frozenset, float]
    al_confined_flows: int

    @property
    def mean_hops(self) -> float:
        """Average path length over all flows."""
        return self.total_hops / self.flows if self.flows else 0.0

    @property
    def mean_conversions(self) -> float:
        """Average O/E/O conversions per flow."""
        return self.total_conversions / self.flows if self.flows else 0.0

    @property
    def intra_service_fraction(self) -> float:
        """Fraction of flows between same-service VMs."""
        return self.intra_service_flows / self.flows if self.flows else 0.0

    @property
    def max_link_load(self) -> float:
        """Bytes on the most loaded link."""
        return max(self.link_load_bytes.values(), default=0.0)

    def as_dict(self) -> dict[str, float]:
        """Scalar summary (for reports)."""
        return {
            "flows": self.flows,
            "intra_service_fraction": self.intra_service_fraction,
            "mean_hops": self.mean_hops,
            "mean_conversions": self.mean_conversions,
            "total_conversion_cost": self.total_conversion_cost,
            "total_energy_joules": self.total_energy_joules,
            "max_link_load": self.max_link_load,
            "al_confined_flows": self.al_confined_flows,
        }


class FlowSimulator:
    """Charges a batch of flows over the admission plan's routes."""

    def __init__(
        self,
        inventory: MachineInventory,
        clusters: ClusterManager | None = None,
        conversion_model: ConversionModel | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self._inventory = inventory
        self._clusters = clusters
        self._model = conversion_model or ConversionModel()
        self._telemetry = (
            telemetry if telemetry is not None else current_telemetry()
        )
        # Engine array position of every link, as the plan's interned
        # routes carry them; built once, like the event simulator's.
        self._link_index = {
            link: index
            for index, link in enumerate(
                inventory.network.link_bytes_per_second()
            )
        }

    def _routes(self, keys: Sequence[tuple]) -> dict[tuple, InternedRoute]:
        """Each unique ``(src_host, dst_host, AL)`` key's route, resolved
        in one :func:`plan_admission` call.

        Raises:
            RoutingError: when the fabric cannot connect a pair.
        """
        plan = plan_admission(
            self._inventory.network,
            keys,
            self._link_index,
            telemetry=self._telemetry,
        )
        routes = {}
        for key in dict.fromkeys(keys):
            route = routes[key] = plan.lookup(*key)
            if route is NO_PLAN_ROUTE:
                raise RoutingError(f"no path from {key[0]} to {key[1]}")
        return routes

    def _confined(self, key: tuple, path: Sequence[str]) -> bool:
        """Whether an AL key's path keeps every OPS inside its AL."""
        al = key[2]
        kind_of = self._inventory.network.kind_of
        return al is not None and all(
            node in al for node in path if kind_of(node) is NodeKind.OPS
        )

    def route(self, flow: Flow) -> tuple[list[str], bool]:
        """Path of one flow and whether it stayed inside one AL (the
        lookup :meth:`run` makes, for one flow)."""
        key = flow_route_key(self._inventory, self._clusters, flow)
        if key is None:
            return [self._inventory.host_of(flow.source)], True
        path = self._routes([key])[key].path
        return path, self._confined(key, path)

    def run(self, flows: Iterable[Flow]) -> SimulationReport:
        """Route every flow and return the aggregate report."""
        with self._telemetry.span("flow_simulation"):
            report = self._run(flows)
        if self._telemetry.enabled:
            self._telemetry.counter(
                "alvc_sim_flows_total", "flows routed by the analytic simulator"
            ).inc(report.flows)
            self._telemetry.counter(
                "alvc_sim_transport_conversions_total",
                "transport O/E/O conversions charged",
            ).inc(report.total_conversions)
        return report

    def _run(self, flows: Iterable[Flow]) -> SimulationReport:
        flows = list(flows)
        keys = [
            flow_route_key(self._inventory, self._clusters, flow)
            for flow in flows
        ]
        network = self._inventory.network
        # Per route key: (links, conversions, AL-confined); co-located
        # endpoints never route and count as confined.
        charges: dict = {None: ((), 0, True)}
        for key, route in self._routes(
            [key for key in keys if key is not None]
        ).items():
            charges[key] = (
                route.links,
                transport_conversions(domain_sequence(network, route.path)),
                self._confined(key, route.path),
            )
        intra = 0
        confined = 0
        total_bytes = 0.0
        total_hops = 0
        total_conversions = 0
        total_cost = 0.0
        total_energy = 0.0
        link_load: dict[frozenset, float] = {}
        for flow, key in zip(flows, keys):
            links, conversions, in_al = charges[key]
            intra += 1 if flow.intra_service else 0
            confined += 1 if in_al else 0
            total_bytes += flow.size_bytes
            total_hops += len(links)
            total_conversions += conversions
            total_cost += self._model.conversion_cost(
                flow.size_bytes, conversions
            )
            total_energy += self._model.conversion_energy_joules(
                flow.size_bytes, conversions
            )
            for link in links:
                link_load[link] = link_load.get(link, 0.0) + flow.size_bytes
        return SimulationReport(
            flows=len(flows),
            intra_service_flows=intra,
            total_bytes=total_bytes,
            total_hops=total_hops,
            total_conversions=total_conversions,
            total_conversion_cost=total_cost,
            total_energy_joules=total_energy,
            link_load_bytes=link_load,
            al_confined_flows=confined,
        )

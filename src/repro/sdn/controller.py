"""The SDN controller: owns every switch's flow table and installs paths.

One of the two NFVI managers of Fig. 6.  It turns a routed path into
per-switch flow rules, tears flows down, and exposes the counters the
network-update experiments read ("switches touched" is the update-cost
metric of the companion paper [14]).
"""

from __future__ import annotations

from typing import Sequence

from repro import undo
from repro.exceptions import RoutingError, UnknownEntityError
from repro.ids import FlowId
from repro.observability.runtime import Telemetry, current_telemetry
from repro.sdn.flow_table import FlowRule, FlowTable
from repro.topology.datacenter import DataCenterNetwork


class SdnController:
    """Central controller managing flow tables on ToRs and OPSs."""

    def __init__(
        self,
        dcn: DataCenterNetwork,
        *,
        telemetry: Telemetry | None = None,
    ) -> None:
        self._telemetry = (
            telemetry if telemetry is not None else current_telemetry()
        )
        self._dcn = dcn
        self._tables: dict[str, FlowTable] = {
            switch: FlowTable(switch)
            for switch in (*dcn.tors(), *dcn.optical_switches())
        }
        self._paths: dict[FlowId, list[str]] = {}
        # Per-flow list of (switch, match-key) rules actually installed;
        # revisited switches get suffixed match keys (segment-scoped rules).
        self._installed: dict[FlowId, list[tuple[str, str]]] = {}

    # ------------------------------------------------------------------
    # Path programming
    # ------------------------------------------------------------------
    def install_path(self, flow: FlowId, path: Sequence[str]) -> int:
        """Install forwarding rules for a flow along a node path.

        Only switches (ToRs, OPSs) receive rules; server endpoints do not.
        Returns the number of switches programmed.

        Raises:
            RoutingError: if the path is not a connected fabric path or the
                flow is already installed.
        """
        if flow in self._paths:
            raise RoutingError(f"flow {flow} already has an installed path")
        self._validate_path(path)
        installed: list[tuple[str, str]] = []
        # One inverse per flow: it undoes as much of the loop as ran.
        undo.push((self._uninstall, flow, installed))
        visits: dict[str, int] = {}
        touched: set[str] = set()
        for position, node in enumerate(path[:-1]):
            if node not in self._tables:
                continue
            # A service-chain path may cross the same switch several times
            # (out to a VNF host and back); each pass gets its own
            # segment-scoped rule, as an in-port match would in OpenFlow.
            visit = visits.get(node, 0)
            visits[node] = visit + 1
            match = flow if visit == 0 else f"{flow}@{visit}"
            self._tables[node].install(
                FlowRule(match=match, next_hop=path[position + 1])
            )
            installed.append((node, match))
            touched.add(node)
        self._paths[flow] = list(path)
        self._installed[flow] = installed
        if self._telemetry.enabled:
            self._telemetry.counter(
                "alvc_sdn_rules_installed_total",
                "flow rules installed across all switches",
            ).inc(len(installed))
            self._telemetry.counter(
                "alvc_sdn_paths_installed_total",
                "paths programmed into the fabric",
            ).inc()
        return len(touched)

    def reroute(self, flow: FlowId, new_path: Sequence[str]) -> int:
        """Replace a flow's path; returns switches touched (removed+added)."""
        old_path = self.path_of(flow)
        touched = set(self._switches_on(old_path))
        self.remove_flow(flow)
        self.install_path(flow, new_path)
        touched.update(self._switches_on(new_path))
        return len(touched)

    def remove_flow(self, flow: FlowId) -> int:
        """Tear down a flow's rules; returns switches touched."""
        path = self.path_of(flow)  # raises when unknown
        installed = self._installed[flow]
        rules: list[FlowRule] = []
        undo.push((self._reinstall, flow, path, installed, rules))
        touched: set[str] = set()
        for node, match in installed:
            rules.append(self._tables[node].remove(match))
            touched.add(node)
        del self._installed[flow]
        del self._paths[flow]
        if self._telemetry.enabled:
            self._telemetry.counter(
                "alvc_sdn_rules_removed_total",
                "flow rules removed across all switches",
            ).inc(len(rules))
        return len(touched)

    def _uninstall(self, flow: FlowId, installed: list) -> None:
        """Undo an :meth:`install_path`: drop the rules it installed,
        counters included, and its records of the flow."""
        for node, match in installed:
            table = self._tables[node]
            table.remove(match)
            table.installs -= 1
            table.removals -= 1
        self._paths.pop(flow, None)
        self._installed.pop(flow, None)

    def _reinstall(
        self, flow: FlowId, path: list, installed: list, rules: list
    ) -> None:
        """Undo a :meth:`remove_flow`: put back the rules it removed,
        counters included, and its records of the flow."""
        for (node, _), rule in zip(installed, rules):
            table = self._tables[node]
            table.install(rule)
            table.installs -= 1
            table.removals -= 1
        self._paths[flow] = path
        self._installed[flow] = installed

    def _validate_path(self, path: Sequence[str]) -> None:
        if len(path) < 2:
            raise RoutingError(f"path too short: {path!r}")
        dcn = self._dcn
        for node in path:
            if not dcn.has_node(node):
                raise RoutingError(f"path contains unknown node {node!r}")
        for a, b in zip(path, path[1:]):
            if not dcn.has_link(a, b):
                raise RoutingError(f"path hop {a}-{b} is not a fabric link")

    def _switches_on(self, path: Sequence[str]) -> list[str]:
        return [node for node in path if node in self._tables]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def path_of(self, flow: FlowId) -> list[str]:
        """The installed path of a flow."""
        try:
            return list(self._paths[flow])
        except KeyError:
            raise UnknownEntityError("installed flow", flow) from None

    def has_flow(self, flow: FlowId) -> bool:
        """True if the flow has an installed path."""
        return flow in self._paths

    def table_of(self, switch: str) -> FlowTable:
        """The flow table of one switch."""
        try:
            return self._tables[switch]
        except KeyError:
            raise UnknownEntityError("switch", switch) from None

    def installed_flows(self) -> list[FlowId]:
        """Ids of flows with installed paths, sorted."""
        return sorted(self._paths)

    def total_rules(self) -> int:
        """Rules currently installed across all switches."""
        return sum(len(table) for table in self._tables.values())

    def churn_counters(self) -> dict[str, int]:
        """Aggregate install/removal counters (control-plane churn)."""
        return {
            "installs": sum(t.installs for t in self._tables.values()),
            "removals": sum(t.removals for t in self._tables.values()),
        }

    def switches_with_rules(self) -> list[str]:
        """Switches having at least one rule, sorted."""
        return sorted(
            switch for switch, table in self._tables.items() if len(table) > 0
        )

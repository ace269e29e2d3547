"""Structural validation of physical fabrics.

``validate_topology`` checks the invariants the rest of the library relies
on; generators run it in tests, and users building custom fabrics through
:class:`~repro.topology.builder.TopologyBuilder` can call it before handing
a network to the orchestrator.
"""

from __future__ import annotations

import dataclasses

from repro.exceptions import TopologyError
from repro.ids import NodeKind
from repro.topology.datacenter import DataCenterNetwork
from repro.topology.elements import Domain


@dataclasses.dataclass(frozen=True, slots=True)
class ValidationReport:
    """Outcome of a topology validation pass."""

    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        """True when no problems were found."""
        return not self.problems

    def raise_if_invalid(self) -> None:
        """Raise :class:`TopologyError` summarizing all problems, if any."""
        if self.problems:
            raise TopologyError(
                "invalid topology: " + "; ".join(self.problems)
            )


def validate_topology(dcn: DataCenterNetwork) -> ValidationReport:
    """Check the structural invariants of an AL-VC fabric.

    Verified invariants:

    * every server attaches to at least one ToR;
    * every ToR has at least one server and at least one OPS uplink
      (a ToR is by definition the electronic/optical boundary of a rack);
    * every OPS attaches to at least one ToR or another OPS;
    * link domains are consistent with endpoint kinds (server links are
      electronic, links touching an OPS are optical);
    * the fabric is connected (one data center, paper Fig. 2).
    """
    problems: list[str] = []
    for server in dcn.servers():
        if not dcn.tors_of_server(server):
            problems.append(f"server {server} has no ToR attachment")
    for tor in dcn.tors():
        if not dcn.servers_under(tor):
            problems.append(f"ToR {tor} has no servers")
        if not dcn.ops_of_tor(tor):
            problems.append(f"ToR {tor} has no OPS uplink")
    for ops in dcn.optical_switches():
        if dcn.degree(ops) == 0:
            problems.append(f"OPS {ops} is isolated")

    for a, b, link in dcn.edges():
        kinds = {dcn.kind_of(a), dcn.kind_of(b)}
        if NodeKind.OPS in kinds and link.domain is not Domain.OPTICAL:
            problems.append(f"link {a}-{b} touches an OPS but is not optical")
        if kinds == {NodeKind.SERVER, NodeKind.TOR} and (
            link.domain is not Domain.ELECTRONIC
        ):
            problems.append(f"server link {a}-{b} must be electronic")

    components = len(dcn.connected_components())
    if components > 1:
        problems.append(f"fabric is disconnected ({components} components)")
    return ValidationReport(problems=tuple(problems))

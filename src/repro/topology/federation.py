"""Federating multiple data centers into one distributed fabric.

The paper describes a *distributed* virtual data center architecture:
"The physical network can consist of one or multiple DCNs" (Section
IV.B), with the virtualization layer spanning them.  ``federate`` merges
several :class:`DataCenterNetwork` instances into one, namespacing every
node id with its site name and joining the sites' optical cores with
inter-DC optical links — after which every layer above (clusters, ALs,
chains, slices) works across sites unchanged.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Sequence

from repro.exceptions import TopologyError
from repro.ids import NodeKind
from repro.topology.datacenter import DataCenterNetwork
from repro.topology.elements import Domain, LinkSpec


@dataclasses.dataclass(frozen=True, slots=True)
class InterDcLink:
    """One optical link joining two sites' core switches."""

    site_a: str
    ops_a: str
    site_b: str
    ops_b: str
    bandwidth_gbps: float = 100.0

    def __post_init__(self) -> None:
        if self.site_a == self.site_b:
            raise TopologyError(
                f"inter-DC link must join two sites, got {self.site_a!r} "
                f"twice"
            )
        if self.bandwidth_gbps <= 0:
            raise TopologyError("inter-DC bandwidth must be positive")


def site_node(site: str, node_id: str) -> str:
    """The federated id of a site-local node (``"tokyo/ops-1"``)."""
    return f"{site}/{node_id}"


def site_of(federated_id: str) -> str:
    """The site part of a federated node id.

    Raises:
        TopologyError: for ids without a site prefix.
    """
    site, separator, _ = federated_id.partition("/")
    if not separator:
        raise TopologyError(f"{federated_id!r} has no site prefix")
    return site


def federate(
    sites: Mapping[str, DataCenterNetwork],
    inter_dc_links: Sequence[InterDcLink],
    *,
    name: str = "federation",
) -> DataCenterNetwork:
    """Merge site fabrics into one distributed data center.

    Every node of every site reappears as ``"<site>/<node>"`` with its
    original spec; all intra-site links are copied, then each
    :class:`InterDcLink` adds an optical OPS↔OPS link between sites.

    Args:
        sites: site name → that site's fabric.  Site names must not
            contain ``"/"``.
        inter_dc_links: the optical joins; every site must end up
            connected to the rest (one distributed DCN, not islands).
        name: name of the merged fabric.

    Raises:
        TopologyError: on bad site names, unknown endpoints, non-OPS
            endpoints, or a federation left disconnected.
    """
    if not sites:
        raise TopologyError("federation needs at least one site")
    for site in sites:
        if "/" in site or not site:
            raise TopologyError(f"invalid site name {site!r}")

    merged = DataCenterNetwork(name)
    for site, dcn in sites.items():
        for node in dcn.nodes():
            kind = dcn.kind_of(node)
            spec = dcn.spec_of(node)
            renamed = site_node(site, node)
            if kind is NodeKind.SERVER:
                merged.add_server(
                    dataclasses.replace(spec, server_id=renamed)
                )
            elif kind is NodeKind.TOR:
                merged.add_tor(dataclasses.replace(spec, tor_id=renamed))
            else:
                merged.add_optical_switch(
                    dataclasses.replace(spec, ops_id=renamed)
                )
        for a, b, link in dcn.edges():
            merged.connect(site_node(site, a), site_node(site, b), link=link)

    for link in inter_dc_links:
        for site, ops in ((link.site_a, link.ops_a), (link.site_b, link.ops_b)):
            if site not in sites:
                raise TopologyError(f"unknown site {site!r} in inter-DC link")
            federated = site_node(site, ops)
            if not merged.has_node(federated):
                raise TopologyError(
                    f"unknown inter-DC endpoint {federated!r}"
                )
            if merged.kind_of(federated) is not NodeKind.OPS:
                raise TopologyError(
                    f"inter-DC links join optical switches; "
                    f"{federated!r} is a {merged.kind_of(federated).value}"
                )
        merged.connect(
            site_node(link.site_a, link.ops_a),
            site_node(link.site_b, link.ops_b),
            link=LinkSpec(
                domain=Domain.OPTICAL,
                bandwidth_gbps=link.bandwidth_gbps,
            ),
        )

    if len(sites) > 1 and len(merged.connected_components()) > 1:
        raise TopologyError(
            "federation is disconnected: add inter-DC links joining every "
            "site"
        )
    return merged

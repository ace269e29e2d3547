"""Virtual networks: VM-level topologies embedded on the physical fabric.

"Virtual nodes are interconnected through virtual links, forming a virtual
topology.  With node and link virtualization, multiple VN topologies can be
created and co-hosted on the same physical infrastructure" (Section I).
A :class:`VirtualNetwork` is a graph over VM ids whose links are embedded
onto physical paths by :meth:`VirtualNetwork.embed`.
"""

from __future__ import annotations

import dataclasses

from repro.exceptions import RoutingError, UnknownEntityError, ValidationError
from repro.ids import VmId
from repro.virtualization.machines import MachineInventory


@dataclasses.dataclass(frozen=True, slots=True)
class VirtualLink:
    """A virtual link between two VMs with a bandwidth requirement."""

    a: VmId
    b: VmId
    bandwidth_gbps: float = 1.0

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValidationError(f"virtual self-loop on {self.a!r}")
        if self.bandwidth_gbps <= 0:
            raise ValidationError(
                f"virtual link bandwidth must be positive, "
                f"got {self.bandwidth_gbps}"
            )

    @property
    def endpoints(self) -> frozenset:
        """Unordered endpoint pair."""
        return frozenset((self.a, self.b))


class VirtualNetwork:
    """A named virtual topology over VMs.

    The VN is purely logical until :meth:`embed` maps every virtual link to
    a shortest physical path between the hosts of its endpoint VMs.
    """

    def __init__(self, name: str) -> None:
        import networkx as nx

        self.name = name
        self._graph = nx.Graph(name=name)
        self._embedding: dict[frozenset, list[str]] = {}

    def add_vm(self, vm: VmId) -> None:
        """Add a virtual node (idempotent)."""
        self._graph.add_node(vm)

    def add_link(self, link: VirtualLink) -> None:
        """Add a virtual link; both endpoints are added implicitly."""
        self._graph.add_edge(link.a, link.b, link=link)

    def vms(self) -> list[VmId]:
        """Virtual nodes, sorted."""
        return sorted(self._graph.nodes)

    def links(self) -> list[VirtualLink]:
        """Virtual links, sorted by endpoints."""
        return sorted(
            (data["link"] for _, _, data in self._graph.edges(data=True)),
            key=lambda link: tuple(sorted((link.a, link.b))),
        )

    def degree_of(self, vm: VmId) -> int:
        """Number of virtual links at a VM."""
        if vm not in self._graph:
            raise UnknownEntityError("virtual node", vm)
        return self._graph.degree(vm)

    # ------------------------------------------------------------------
    # Embedding
    # ------------------------------------------------------------------
    def embed(
        self,
        inventory: MachineInventory,
        *,
        engine: str = "auto",
    ) -> dict[frozenset, list[str]]:
        """Embed every virtual link onto a shortest physical path.

        Every VM must already be placed on a server.  Returns and caches
        ``{frozenset({vm_a, vm_b}): [physical node path]}``; links between
        VMs on the same server embed to the single-node path of that
        server.

        Links sharing a source host are routed through one batched
        :func:`repro.sdn.routing.routes_from` fan-out per host (a VM
        with several neighbors costs one BFS, not one per link), via
        the selected routing engine instead of a raw ``networkx`` call
        — so unknown hosts and disconnected fabrics surface as
        :class:`~repro.exceptions.RoutingError`, never as leaked
        ``networkx`` exceptions.

        Args:
            inventory: VM placement and the physical fabric.
            engine: routing engine selector (see
                :mod:`repro.sdn.routing`).

        Raises:
            RoutingError: if the hosts of some link are disconnected
                (or unknown to the fabric).
        """
        from repro.sdn.routing import routes_from

        network = inventory.network
        # Group each link's far host under its near host so every
        # distinct source host needs exactly one BFS fan-out.
        ordered = self.links()
        by_source: dict[str, list[str]] = {}
        pairs: list[tuple[VirtualLink, str, str]] = []
        for link in ordered:
            host_a = inventory.host_of(link.a)
            host_b = inventory.host_of(link.b)
            pairs.append((link, host_a, host_b))
            if host_a != host_b:
                targets = by_source.setdefault(host_a, [])
                if host_b not in targets:
                    targets.append(host_b)
        routed: dict[str, dict[str, list[str]]] = {}
        for host_a, targets in by_source.items():
            try:
                routed[host_a] = routes_from(
                    network, host_a, targets, engine=engine
                )
            except RoutingError as exc:
                raise RoutingError(
                    f"virtual network {self.name!r} cannot embed from "
                    f"{host_a}: {exc}"
                ) from None
        embedding: dict[frozenset, list[str]] = {}
        for link, host_a, host_b in pairs:
            if host_a == host_b:
                embedding[link.endpoints] = [host_a]
                continue
            path = routed[host_a].get(host_b)
            if path is None:
                raise RoutingError(
                    f"no physical path between {host_a} and {host_b} "
                    f"for virtual link {link.a}-{link.b}"
                )
            embedding[link.endpoints] = list(path)
        self._embedding = embedding
        return dict(embedding)

    def path_of(self, a: VmId, b: VmId) -> list[str]:
        """The embedded physical path of the a-b virtual link."""
        key = frozenset((a, b))
        try:
            return list(self._embedding[key])
        except KeyError:
            raise UnknownEntityError("embedded virtual link", (a, b)) from None

    def physical_footprint(self) -> set[str]:
        """All physical nodes used by the current embedding."""
        footprint: set[str] = set()
        for path in self._embedding.values():
            footprint.update(path)
        return footprint

    def total_bandwidth_demand(self) -> float:
        """Sum of the bandwidth requirements of all virtual links."""
        return sum(link.bandwidth_gbps for link in self.links())

"""The physical data-center network graph.

:class:`DataCenterNetwork` is the single source of truth for the physical
fabric: which servers sit behind which ToR switches, and which ToRs connect
to which optical packet switches.  All higher layers (virtualization,
abstraction layers, NFV, simulation) hold only entity ids and query this
object for structure.

The fabric keeps its nodes and links in two plain dicts laid out as
``networkx.Graph`` lays out its own (see :class:`DataCenterNetwork`), so
building and querying it never imports networkx;
:attr:`DataCenterNetwork.graph` and
:meth:`DataCenterNetwork.optical_core` build a networkx view over those
dicts when an analysis asks for one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.exceptions import DuplicateEntityError, TopologyError, UnknownEntityError
from repro.ids import NodeKind, OpsId, ServerId, TorId
from repro.topology.elements import (
    Domain,
    LinkSpec,
    OpticalSwitchSpec,
    ServerSpec,
    TorSpec,
)

if TYPE_CHECKING:
    import networkx as nx

_KIND_ATTR = "kind"
_SPEC_ATTR = "spec"
_LINK_ATTR = "link"
_PARALLEL_ATTR = "parallel"

#: The specs of links connected without one.  Specs are frozen, so
#: every default link of a domain shares one instance.
_OPTICAL_LINK = LinkSpec(domain=Domain.OPTICAL)
_ELECTRONIC_LINK = LinkSpec(domain=Domain.ELECTRONIC)
#: The link data of a single default link, likewise shared by every
#: such link: link data is never written in place (a parallel member
#: replaces its pair's dict), so sharing one is safe.
_OPTICAL_DATA = {_LINK_ATTR: _OPTICAL_LINK, _PARALLEL_ATTR: 1}
_ELECTRONIC_DATA = {_LINK_ATTR: _ELECTRONIC_LINK, _PARALLEL_ATTR: 1}


class DataCenterNetwork:
    """A hybrid electronic/optical data-center fabric (paper Fig. 2).

    The topology is a three-level undirected graph:

    * **servers** attach to one or more ToR switches with electronic links
      (dual-homing is what makes the vertex-cover stage of AL construction
      non-trivial — a machine reachable through two ToRs lets the greedy
      algorithm skip one of them, exactly as in the paper's Fig. 4 where
      ToR 2 is skipped because its machines are already covered by ToR 1);
    * **ToR switches** attach to one or more OPSs with optical links (the
      ToR carries the E/O transceiver);
    * **OPSs** may interconnect among themselves with optical links.

    The graph lives in two dicts with ``networkx.Graph``'s layout and
    insertion order: ``_node`` maps each node to ``{"kind", "spec"}``
    and ``_adj`` maps each node to ``{neighbor: link data}``, the two
    directions of a link sharing one data dict.  Link data is
    read-only: every single default link of a domain shares one dict,
    and a parallel member gives its pair a new one.
    """

    def __init__(self, name: str = "dcn") -> None:
        self.name = name
        self._node: dict[str, dict] = {}
        self._adj: dict[str, dict[str, dict]] = {}
        #: Monotonic topology generation.  Bumped on every structural
        #: mutation (node/link addition, trunk aggregation); derived
        #: caches — the accessor memos below and the CSR snapshot of
        #: :class:`repro.sdn.path_engine.PathEngine` — key their
        #: validity off this counter instead of subscribing to events.
        self._generation = 0
        #: Memo tables for the hot accessors AL construction hammers
        #: (:meth:`_neighbors_of_kind`, :meth:`tor_weight`,
        #: :meth:`ops_weight`, the kind lists).  One dedicated dict per
        #: accessor, keyed by node id only — a composite tuple key would
        #: hash two enum members per probe, and ``enum.__hash__`` is a
        #: Python-level call that dominated the memoized hot path.
        #: Values are immutable (tuples / ints); list-returning accessors
        #: materialize a fresh list per call so callers can never corrupt
        #: the cache.  A node addition clears every table and a
        #: :meth:`connect` every table but the kind lists (which depend
        #: on nodes and specs only) — mutations are rare (build time)
        #: while reads are massive (per-candidate during covers), so
        #: coarse invalidation is the right trade; a build, which reads
        #: nothing, clears nothing.
        self._cache_enabled = True
        self._nbr_cache: dict = {}          # (node_id, kind) -> tuple
        self._srv_tors_cache: dict = {}     # server -> tuple of ToRs
        self._tor_servers_cache: dict = {}  # tor -> tuple of servers
        self._tor_ops_cache: dict = {}      # tor -> tuple of OPSs
        self._ops_tors_cache: dict = {}     # ops -> tuple of ToRs
        self._tor_weight_cache: dict = {}   # tor -> int
        self._ops_weight_cache: dict = {}   # ops -> int
        self._kind_list_cache: dict = {}    # NodeKind -> tuple of ids
        # "servers" -> {server: tors}; "bytes/s" -> {pair: bytes/s}
        self._attach_cache: dict = {}
        self._group_caches()

    def _group_caches(self) -> None:
        self._link_caches = (
            self._attach_cache,
            self._nbr_cache,
            self._srv_tors_cache,
            self._tor_servers_cache,
            self._tor_ops_cache,
            self._ops_tors_cache,
            self._tor_weight_cache,
            self._ops_weight_cache,
        )
        self._all_caches = (*self._link_caches, self._kind_list_cache)

    def __setstate__(self, state: dict) -> None:
        if "_graph" in state:
            # Pickled while the fabric lived in an ``nx.Graph``: adopt
            # its dicts, which have the layout this class keeps.
            state = dict(state)
            graph = state.pop("_graph")
            state["_node"] = graph._node
            state["_adj"] = graph._adj
        self.__dict__.update(state)
        self._group_caches()

    # ------------------------------------------------------------------
    # Accessor memoization
    # ------------------------------------------------------------------
    def set_caching(self, enabled: bool) -> bool:
        """Enable/disable accessor memoization; returns the previous state.

        Disabling also drops the memo table, restoring the pre-cache
        per-call graph rescans — benchmark baselines (experiment E21's
        ``serial-set`` arm) use this to measure the un-memoized control
        plane.
        """
        previous = self._cache_enabled
        self._cache_enabled = bool(enabled)
        self._invalidate_cache()
        return previous

    @property
    def caching_enabled(self) -> bool:
        """Whether accessor memoization is currently on."""
        return self._cache_enabled

    def _invalidate_cache(self, *, links_only: bool = False) -> None:
        self._generation += 1
        caches = self._link_caches if links_only else self._all_caches
        if any(caches):
            for cache in caches:
                cache.clear()

    @property
    def topology_generation(self) -> int:
        """Monotonic counter of structural mutations.

        ``add_server``/``add_tor``/``add_optical_switch`` and
        :meth:`connect` (including parallel-link trunk aggregation)
        each advance it; consumers holding derived structures (the
        routing engine's CSR arrays and AL bitmasks) compare against
        it and rebuild lazily instead of hooking mutations.
        """
        return self._generation

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_server(self, spec: ServerSpec) -> ServerId:
        """Add a physical server node; returns its id."""
        self._add_node(spec.server_id, NodeKind.SERVER, spec)
        return spec.server_id

    def add_tor(self, spec: TorSpec) -> TorId:
        """Add a Top-of-Rack switch node; returns its id."""
        self._add_node(spec.tor_id, NodeKind.TOR, spec)
        return spec.tor_id

    def add_optical_switch(self, spec: OpticalSwitchSpec) -> OpsId:
        """Add an optical packet switch (plain or optoelectronic)."""
        self._add_node(spec.ops_id, NodeKind.OPS, spec)
        return spec.ops_id

    # Mutations insert into ``_node`` and ``_adj`` in the order
    # ``nx.Graph.add_node``/``add_edge`` would, so the networkx view
    # :attr:`graph` builds over them iterates as a graph built through
    # networkx would.
    def _add_node(self, node_id: str, kind: NodeKind, spec: object) -> None:
        if node_id in self._node:
            raise DuplicateEntityError(kind.value, node_id)
        self._adj[node_id] = {}
        self._node[node_id] = {_KIND_ATTR: kind, _SPEC_ATTR: spec}
        self._invalidate_cache()

    def connect(self, a: str, b: str, link: LinkSpec | None = None) -> None:
        """Connect two existing nodes.

        The link domain is inferred when not given: server↔ToR links are
        electronic; any link with an OPS endpoint is optical (the E/O
        conversion lives at the ToR transceiver).  Connecting a server
        directly to an OPS is rejected — the paper's fabric always goes
        through a ToR.

        Connecting an already-connected pair adds a **parallel link**:
        the pair's :class:`LinkSpec` becomes a trunk aggregating the
        bandwidth of every member (it used to be silently overwritten,
        which collapsed parallel links to the last one's bandwidth).
        The member count is exposed via :meth:`parallel_links` and
        :meth:`trunks`; mixing domains on one pair is rejected.
        """
        nodes = self._node
        try:
            kind_a = nodes[a][_KIND_ATTR]
            kind_b = nodes[b][_KIND_ATTR]
        except KeyError:
            raise UnknownEntityError("node", b if a in nodes else a) from None
        if a == b:
            raise TopologyError(f"self-loop on {a!r} is not allowed")
        if kind_a is NodeKind.SERVER or kind_b is NodeKind.SERVER:
            if kind_a is kind_b:
                raise TopologyError(
                    f"server-to-server link {a!r}-{b!r} is not allowed"
                )
            if kind_a is NodeKind.OPS or kind_b is NodeKind.OPS:
                raise TopologyError(
                    f"server {a!r}-{b!r} must attach to the optical core "
                    f"via a ToR"
                )
        if link is None:
            data = (
                _OPTICAL_DATA
                if kind_a is NodeKind.OPS or kind_b is NodeKind.OPS
                else _ELECTRONIC_DATA
            )
            link = data[_LINK_ATTR]
        else:
            data = {_LINK_ATTR: link, _PARALLEL_ATTR: 1}
        adj = self._adj
        trunk = adj[a].get(b)
        if trunk is not None:
            existing: LinkSpec = trunk[_LINK_ATTR]
            if link.domain is not existing.domain:
                raise TopologyError(
                    f"parallel link {a!r}-{b!r} mixes domains: trunk is "
                    f"{existing.domain}, new member is {link.domain}"
                )
            # A new dict, never an in-place write: the old one may be
            # shared by every default link (see _OPTICAL_DATA).
            data = {
                _LINK_ATTR: LinkSpec(
                    domain=existing.domain,
                    bandwidth_gbps=(
                        existing.bandwidth_gbps + link.bandwidth_gbps
                    ),
                ),
                _PARALLEL_ATTR: trunk.get(_PARALLEL_ATTR, 1) + 1,
            }
        adj[a][b] = data
        adj[b][a] = data
        self._invalidate_cache(links_only=True)

    # ------------------------------------------------------------------
    # Node queries
    # ------------------------------------------------------------------
    def kind_of(self, node_id: str) -> NodeKind:
        """Return the :class:`NodeKind` of a node, or raise UnknownEntityError."""
        try:
            return self._node[node_id][_KIND_ATTR]
        except KeyError:
            raise UnknownEntityError("node", node_id) from None

    def spec_of(self, node_id: str):
        """Return the spec dataclass attached to a node."""
        try:
            return self._node[node_id][_SPEC_ATTR]
        except KeyError:
            raise UnknownEntityError("node", node_id) from None

    def link_of(self, a: str, b: str) -> LinkSpec:
        """Return the :class:`LinkSpec` of the edge between ``a`` and ``b``.

        For a pair connected more than once this is the aggregated trunk
        spec (bandwidth summed over the parallel members).
        """
        try:
            return self._adj[a][b][_LINK_ATTR]
        except KeyError:
            raise UnknownEntityError("link", (a, b)) from None

    def parallel_links(self, a: str, b: str) -> int:
        """Number of parallel physical links between two connected nodes."""
        try:
            data = self._adj[a][b]
        except KeyError:
            raise UnknownEntityError("link", (a, b)) from None
        return data.get(_PARALLEL_ATTR, 1)

    def has_node(self, node_id: str) -> bool:
        """True if the node exists in the fabric."""
        return node_id in self._node

    def has_link(self, a: str, b: str) -> bool:
        """True if nodes ``a`` and ``b`` are directly connected."""
        neighbors = self._adj.get(a)
        return neighbors is not None and b in neighbors

    def nodes(self) -> Iterable[str]:
        """Every node id, in the order the nodes were added."""
        return iter(self._node)

    def neighbors(self, node_id: str) -> Iterable[str]:
        """Nodes linked to ``node_id``, in the order the links were made."""
        try:
            return iter(self._adj[node_id])
        except KeyError:
            raise UnknownEntityError("node", node_id) from None

    def degree(self, node_id: str) -> int:
        """Number of nodes linked to ``node_id`` (a trunk counts once)."""
        try:
            return len(self._adj[node_id])
        except KeyError:
            raise UnknownEntityError("node", node_id) from None

    def _nodes_of_kind(self, kind: NodeKind) -> list[str]:
        return [
            node_id
            for node_id, data in self._node.items()
            if data[_KIND_ATTR] is kind
        ]

    def _kind_list(self, kind: NodeKind) -> tuple[str, ...]:
        if not self._cache_enabled:
            return tuple(sorted(self._nodes_of_kind(kind)))
        cached = self._kind_list_cache.get(kind)
        if cached is None:
            cached = tuple(sorted(self._nodes_of_kind(kind)))
            self._kind_list_cache[kind] = cached
        return cached

    def servers(self) -> list[ServerId]:
        """All server ids (sorted for determinism)."""
        return list(self._kind_list(NodeKind.SERVER))

    def tors(self) -> list[TorId]:
        """All ToR switch ids (sorted)."""
        return list(self._kind_list(NodeKind.TOR))

    def optical_switches(self) -> list[OpsId]:
        """All OPS ids, both plain and optoelectronic (sorted)."""
        return list(self._kind_list(NodeKind.OPS))

    def optoelectronic_routers(self) -> list[OpsId]:
        """Ids of OPSs with compute capacity (able to host VNFs)."""
        if self._cache_enabled:
            cached = self._kind_list_cache.get("oe_routers")
            if cached is not None:
                return list(cached)
        routers = tuple(
            ops
            for ops in self._kind_list(NodeKind.OPS)
            if self.spec_of(ops).is_optoelectronic
        )
        if self._cache_enabled:
            self._kind_list_cache["oe_routers"] = routers
        return list(routers)

    # ------------------------------------------------------------------
    # Adjacency queries used by AL construction
    # ------------------------------------------------------------------
    def _neighbors_of_kind(self, node_id: str, kind: NodeKind) -> list[str]:
        self.kind_of(node_id)
        nodes = self._node
        if not self._cache_enabled:
            return sorted(
                neighbor
                for neighbor in self._adj[node_id]
                if nodes[neighbor][_KIND_ATTR] is kind
            )
        key = (node_id, kind)
        cached = self._nbr_cache.get(key)
        if cached is None:
            cached = tuple(
                sorted(
                    neighbor
                    for neighbor in self._adj[node_id]
                    if nodes[neighbor][_KIND_ATTR] is kind
                )
            )
            self._nbr_cache[key] = cached
        return list(cached)

    def _checked_neighbors(
        self,
        cache: dict,
        node_id: str,
        expected: NodeKind,
        not_kind_message: str,
        neighbor_kind: NodeKind,
    ) -> list[str]:
        # Wrapper-level memo: a cache hit means this exact accessor
        # already validated the node's kind (kinds are immutable once a
        # node is added, and every topology mutation clears the cache),
        # so the hot path is one dict probe plus a tuple→list copy.
        if self._cache_enabled:
            cached = cache.get(node_id)
            if cached is not None:
                return list(cached)
        if self.kind_of(node_id) is not expected:
            raise TopologyError(not_kind_message)
        neighbors = self._neighbors_of_kind(node_id, neighbor_kind)
        if self._cache_enabled:
            cache[node_id] = tuple(neighbors)
        return neighbors

    def tors_of_server(self, server: ServerId) -> list[TorId]:
        """ToR switches a server attaches to (≥2 when dual-homed)."""
        return self._checked_neighbors(
            self._srv_tors_cache,
            server,
            NodeKind.SERVER,
            f"{server!r} is not a server",
            NodeKind.TOR,
        )

    def server_attachment_map(self) -> dict[str, tuple[TorId, ...]]:
        """Every server → the ToRs it attaches to, as one mapping.

        The batch companion to :meth:`tors_of_server`, for callers that
        need the whole fabric's attachments at once — AL construction
        re-derives the map once per cluster, so it is memoized like the
        per-node accessors (and invalidated on any topology mutation).
        The returned mapping is shared: treat it as read-only.
        """
        if self._cache_enabled:
            cached = self._attach_cache.get("servers")
            if cached is not None:
                return cached
        mapping = {
            server: tuple(self._neighbors_of_kind(server, NodeKind.TOR))
            for server in self._kind_list(NodeKind.SERVER)
        }
        if self._cache_enabled:
            self._attach_cache["servers"] = mapping
        return mapping

    def servers_under(self, tor: TorId) -> list[ServerId]:
        """Servers directly attached to a ToR (its *incoming* connections)."""
        return self._checked_neighbors(
            self._tor_servers_cache,
            tor,
            NodeKind.TOR,
            f"{tor!r} is not a ToR switch",
            NodeKind.SERVER,
        )

    def ops_of_tor(self, tor: TorId) -> list[OpsId]:
        """OPSs a ToR uplinks to (its *outgoing* connections)."""
        return self._checked_neighbors(
            self._tor_ops_cache,
            tor,
            NodeKind.TOR,
            f"{tor!r} is not a ToR switch",
            NodeKind.OPS,
        )

    def tors_of_ops(self, ops: OpsId) -> list[TorId]:
        """ToR switches attached to an OPS."""
        return self._checked_neighbors(
            self._ops_tors_cache,
            ops,
            NodeKind.OPS,
            f"{ops!r} is not an optical switch",
            NodeKind.TOR,
        )

    def tor_weight(self, tor: TorId) -> int:
        """The paper's maximum-weight score for a ToR.

        Section III.C selects "ToR 1 as it has four incoming connections
        and two outgoing": the weight of a ToR is its machine-side degree
        plus its OPS-side degree.
        """
        if self._cache_enabled:
            cached = self._tor_weight_cache.get(tor)
            if cached is not None:
                return cached
        weight = len(self.servers_under(tor)) + len(self.ops_of_tor(tor))
        if self._cache_enabled:
            self._tor_weight_cache[tor] = weight
        return weight

    def ops_weight(self, ops: OpsId) -> int:
        """Weight of an OPS: number of ToRs it connects (plus core degree)."""
        if self._cache_enabled:
            cached = self._ops_weight_cache.get(ops)
            if cached is not None:
                return cached
        weight = self.degree(ops)
        if self._cache_enabled:
            self._ops_weight_cache[ops] = weight
        return weight

    # ------------------------------------------------------------------
    # Whole-fabric views
    # ------------------------------------------------------------------
    @property
    def graph(self) -> nx.Graph:
        """A read-only ``networkx`` view over the fabric's own dicts.

        Built on each access (this imports networkx); it shares the
        fabric's node and adjacency dicts, so it iterates in the
        fabric's order and sees later mutations.
        """
        import networkx as nx

        graph = nx.Graph(name=self.name)
        graph._node = self._node
        graph._adj = self._adj
        return graph.copy(as_view=True)

    def optical_core(self) -> nx.Graph:
        """Subgraph induced by the optical switches (a ``networkx`` copy)."""
        return self.graph.subgraph(self.optical_switches()).copy()

    def connected_components(self) -> list[set[str]]:
        """The fabric's connected components, as sets of node ids.

        Listed in the order of each component's first-added node, as
        ``networkx.connected_components`` yields them.
        """
        adj = self._adj
        seen: set[str] = set()
        components = []
        for node in self._node:
            if node in seen:
                continue
            component = {node}
            frontier = [node]
            while frontier:
                reached = []
                for current in frontier:
                    for neighbor in adj[current]:
                        if neighbor not in component:
                            component.add(neighbor)
                            reached.append(neighbor)
                frontier = reached
            seen |= component
            components.append(component)
        return components

    def _link_data(self) -> Iterable[tuple[str, str, dict]]:
        # Each pair once, from its endpoint added first, in the order
        # ``nx.Graph.edges(data=True)`` walks the same dicts.
        done: set[str] = set()
        for a, neighbors in self._adj.items():
            for b, data in neighbors.items():
                if b not in done:
                    yield a, b, data
            done.add(a)

    def edges(self) -> Iterable[tuple[str, str, LinkSpec]]:
        """Iterate over ``(a, b, LinkSpec)`` triples.

        One triple per connected *pair*; the spec of a pair connected
        multiple times is the aggregated trunk (see :meth:`trunks` for
        the parallel-member count).
        """
        for a, b, data in self._link_data():
            yield a, b, data[_LINK_ATTR]

    def trunks(self) -> Iterable[tuple[str, str, LinkSpec, int]]:
        """Iterate over ``(a, b, trunk LinkSpec, parallel count)``.

        The spec's bandwidth already aggregates the trunk's members;
        the count lets capacity-overriding consumers (e.g. the event
        simulator's ``default_bandwidth_gbps``) scale per physical link.
        """
        for a, b, data in self._link_data():
            yield a, b, data[_LINK_ATTR], data.get(_PARALLEL_ATTR, 1)

    def link_bytes_per_second(self) -> dict[frozenset, float]:
        """Each connected pair's trunk bandwidth in bytes/s (a fresh dict).

        Keyed by the unordered pair, ``frozenset((a, b))``; the map is
        memoized per topology generation, so repeated simulator builds
        over one fabric skip the walk over every edge.
        """
        rates = (
            self._attach_cache.get("bytes/s")
            if self._cache_enabled
            else None
        )
        if rates is None:
            rates = {}
            for a, b, link, _ in self.trunks():
                key = frozenset((a, b))
                # gbps -> bits/s -> bytes/s.  Aggregate defensively should
                # a backend ever report a pair twice: parallel links must
                # add capacity, not overwrite it.
                rate = link.bandwidth_gbps * 1e9 / 8
                rates[key] = rates[key] + rate if key in rates else rate
            if self._cache_enabled:
                self._attach_cache["bytes/s"] = rates
        return dict(rates)

    def summary(self) -> dict[str, int]:
        """Census of the fabric, convenient for reports and tests."""
        optical_links = sum(
            1 for _, _, link in self.edges() if link.domain is Domain.OPTICAL
        )
        links = sum(map(len, self._adj.values())) // 2
        return {
            "servers": len(self.servers()),
            "tors": len(self.tors()),
            "optical_switches": len(self.optical_switches()),
            "optoelectronic_routers": len(self.optoelectronic_routers()),
            "links": links,
            "optical_links": optical_links,
            "electronic_links": links - optical_links,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        census = self.summary()
        return (
            f"DataCenterNetwork({self.name!r}, servers={census['servers']}, "
            f"tors={census['tors']}, ops={census['optical_switches']})"
        )

"""Path computation over the fabric and within abstraction layers.

``shortest_path_in_al`` restricts routing to a cluster's own switches —
the isolation property of AL-VC slices — while ``chain_path`` concatenates
per-segment shortest paths so a flow visits its chain's VNF hosts in order
(the "packet processing order" of Section IV.A).

Every routing function accepts an ``engine`` selector:

* ``"nx"`` — the original ``networkx`` implementation (per-query
  subgraph views, generic dict BFS);
* ``"csr"`` — the :class:`repro.sdn.path_engine.PathEngine` CSR kernel
  (interned int ids, flat adjacency arrays, per-AL bitmasks);
* ``"auto"`` (default) — CSR when the fabric's accessor caching is
  enabled (:attr:`DataCenterNetwork.caching_enabled`), otherwise the
  ``networkx`` reference path.

Both engines produce **bit-identical paths and errors** — the CSR
kernels replicate the exact traversal order of the ``networkx``
routines they replace, so engine choice never changes an experiment's
output.  There is no process-wide default: callers pass ``engine=``
themselves (``"auto"`` when they pass nothing), and the orchestrator
and the event simulator pass their :attr:`EngineConfig.routing
<repro.config.EngineConfig.routing>`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from repro.config import ROUTING_ENGINES
from repro.exceptions import RoutingError, ValidationError
from repro.ids import NodeKind
from repro.sdn.path_engine import PathEngineNoPath, engine_for
from repro.topology.datacenter import DataCenterNetwork

if TYPE_CHECKING:
    import networkx as nx


def _resolve_engine(dcn: DataCenterNetwork, engine: str) -> str:
    """Collapse ``engine`` to ``"csr"`` or ``"nx"``."""
    if engine not in ROUTING_ENGINES:
        raise ValidationError(
            f"unknown routing engine {engine!r}; expected one of "
            f"{ROUTING_ENGINES}"
        )
    if engine == "auto":
        return "csr" if dcn.caching_enabled else "nx"
    return engine


def simple_path(
    dcn: DataCenterNetwork,
    source: str,
    target: str,
    *,
    engine: str = "auto",
) -> list[str]:
    """Unrestricted shortest path between two fabric nodes."""
    if not dcn.has_node(source):
        raise RoutingError(f"Source {source} is not in G")
    if not dcn.has_node(target):
        raise RoutingError(f"Target {target} is not in G")
    if _resolve_engine(dcn, engine) == "csr":
        try:
            return engine_for(dcn).route(source, target)
        except PathEngineNoPath:
            raise RoutingError(f"no path from {source} to {target}") from None
    import networkx as nx

    try:
        return nx.shortest_path(dcn.graph, source, target)
    except nx.NodeNotFound as exc:  # pragma: no cover - validated above
        raise RoutingError(str(exc)) from None
    except nx.NetworkXNoPath:
        raise RoutingError(f"no path from {source} to {target}") from None


def _check_al_endpoints(
    dcn: DataCenterNetwork,
    source: str,
    target: str,
    allowed_ops: frozenset,
) -> None:
    """Shared endpoint validation for AL-restricted queries.

    Both engines (and every AL-restricted entry point, including
    :func:`k_shortest_paths`) raise identical errors: unknown nodes
    first, then AL membership — an OPS endpoint outside the layer is an
    AL violation, never a misleading "unknown endpoint".
    """
    if not dcn.has_node(source) or not dcn.has_node(target):
        raise RoutingError(f"unknown endpoint in ({source}, {target})")
    for node in (source, target):
        if dcn.kind_of(node) is NodeKind.OPS and node not in allowed_ops:
            raise RoutingError(
                f"endpoint outside the abstraction layer: {source} -> {target}"
            )


def _al_subgraph(dcn: DataCenterNetwork, allowed_ops: frozenset):
    """The ``networkx`` engine's per-query restricted view."""
    graph = dcn.graph
    return graph.subgraph(
        node
        for node in graph
        if dcn.kind_of(node) is not NodeKind.OPS or node in allowed_ops
    )


def shortest_path_in_al(
    dcn: DataCenterNetwork,
    source: str,
    target: str,
    al_switches: Iterable[str],
    *,
    engine: str = "auto",
) -> list[str]:
    """Shortest path whose optical hops all belong to one abstraction layer.

    Servers and ToRs are always allowed (they are cluster members'
    attachment points); OPSs outside ``al_switches`` are forbidden — an
    AL-VC cluster's traffic must stay inside its own optical slice.

    Raises:
        RoutingError: when the AL does not connect the endpoints.
    """
    allowed_ops = frozenset(al_switches)
    _check_al_endpoints(dcn, source, target, allowed_ops)
    if _resolve_engine(dcn, engine) == "csr":
        try:
            return engine_for(dcn).route(source, target, allowed_ops)
        except PathEngineNoPath:
            raise RoutingError(
                f"abstraction layer {sorted(allowed_ops)} does not connect "
                f"{source} to {target}"
            ) from None
    import networkx as nx

    restricted = _al_subgraph(dcn, allowed_ops)
    try:
        return nx.shortest_path(restricted, source, target)
    except nx.NetworkXNoPath:
        raise RoutingError(
            f"abstraction layer {sorted(allowed_ops)} does not connect "
            f"{source} to {target}"
        ) from None


def chain_path(
    dcn: DataCenterNetwork,
    waypoints: Sequence[str],
    al_switches: Iterable[str] | None = None,
    *,
    engine: str = "auto",
) -> list[str]:
    """Path visiting ``waypoints`` in order (source, VNF hosts…, target).

    Consecutive duplicate waypoints (two VNFs on the same host) are
    traversed without extra hops.  When ``al_switches`` is given, every
    segment is routed inside that abstraction layer.

    Returns:
        The concatenated node path, including source and target.
    """
    if len(waypoints) < 2:
        raise RoutingError(
            f"chain path needs at least source and target, got {waypoints!r}"
        )
    full_path: list[str] = [waypoints[0]]
    for source, target in zip(waypoints, waypoints[1:]):
        if source == target:
            continue
        if al_switches is None:
            segment = simple_path(dcn, source, target, engine=engine)
        else:
            segment = shortest_path_in_al(
                dcn, source, target, al_switches, engine=engine
            )
        full_path.extend(segment[1:])
    return full_path


def k_shortest_paths(
    dcn: DataCenterNetwork,
    source: str,
    target: str,
    k: int = 3,
    al_switches: Iterable[str] | None = None,
    *,
    engine: str = "auto",
) -> list[list[str]]:
    """Up to ``k`` shortest simple paths, optionally AL-restricted.

    Paths come in non-decreasing length order; fewer than ``k`` are
    returned when the graph has fewer simple paths.

    Raises:
        RoutingError: when an endpoint is unknown, an OPS endpoint lies
            outside ``al_switches`` (same error as
            :func:`shortest_path_in_al` — it used to surface as a
            misleading "unknown endpoint"), or no path exists at all.
    """
    if k <= 0:
        raise RoutingError(f"k must be positive, got {k}")
    allowed_ops = frozenset(al_switches) if al_switches is not None else None
    if allowed_ops is not None:
        _check_al_endpoints(dcn, source, target, allowed_ops)
    elif not dcn.has_node(source) or not dcn.has_node(target):
        raise RoutingError(f"unknown endpoint in ({source}, {target})")
    if _resolve_engine(dcn, engine) == "csr":
        try:
            return engine_for(dcn).k_shortest(source, target, k, allowed_ops)
        except PathEngineNoPath:
            raise RoutingError(f"no path from {source} to {target}") from None
    import networkx as nx

    if allowed_ops is not None:
        graph = _al_subgraph(dcn, allowed_ops)
    else:
        graph = dcn.graph
    paths: list[list[str]] = []
    try:
        for path in nx.shortest_simple_paths(graph, source, target):
            paths.append(list(path))
            if len(paths) >= k:
                break
    except nx.NetworkXNoPath:
        raise RoutingError(f"no path from {source} to {target}") from None
    return paths


def routes_from(
    dcn: DataCenterNetwork,
    source: str,
    targets: Iterable[str],
    al_switches: Iterable[str] | None = None,
    *,
    engine: str = "auto",
) -> dict[str, list[str]]:
    """Batched fan-out: shortest paths from one source to many targets.

    One level-order BFS serves every target (chain waypoint segments
    and virtual-link embedding fan out from shared endpoints), instead
    of one bidirectional query per pair.  Unreachable targets are
    **omitted** from the result — callers decide whether absence is an
    error.

    Note: level-order BFS may tie-break differently than the pairwise
    bidirectional search, so a batched path can legitimately differ
    from :func:`simple_path` on equal-length alternatives.  Both
    engines produce identical batched results.

    Raises:
        RoutingError: for unknown endpoints, or (with ``al_switches``)
            an OPS endpoint outside the layer.
    """
    allowed_ops = frozenset(al_switches) if al_switches is not None else None
    target_list = list(targets)
    if not target_list:
        if not dcn.has_node(source):
            raise RoutingError(f"unknown endpoint in ({source}, {source})")
        return {}
    for node in target_list:
        if allowed_ops is not None:
            _check_al_endpoints(dcn, source, node, allowed_ops)
        elif not dcn.has_node(source) or not dcn.has_node(node):
            raise RoutingError(f"unknown endpoint in ({source}, {node})")
    if _resolve_engine(dcn, engine) == "csr":
        return engine_for(dcn).routes_from(source, target_list, allowed_ops)
    import networkx as nx

    if allowed_ops is not None:
        graph = _al_subgraph(dcn, allowed_ops)
    else:
        graph = dcn.graph
    tree = nx.single_source_shortest_path(graph, source)
    return {
        node: list(tree[node]) for node in target_list if node in tree
    }


def shortest_surviving_path(
    dcn: DataCenterNetwork,
    source: str,
    target: str,
    failed_nodes: Iterable[str] = (),
    cut_links: Iterable[Iterable[str]] = (),
    *,
    engine: str = "auto",
) -> list[str]:
    """Shortest path avoiding failed nodes and cut links.

    The post-fault rerouting primitive: what remains of the fabric
    after a chaos schedule's casualties still has to carry the flow.
    Under the ``networkx`` engine this is a ``restricted_view``; under
    CSR it is a byte-mask minus the failure set plus a cut-edge check —
    no view construction.

    Raises:
        RoutingError: unknown endpoints, an endpoint in
            ``failed_nodes``, or no surviving path.
    """
    failed = frozenset(failed_nodes)
    cuts = frozenset(frozenset(link) for link in cut_links)
    if not dcn.has_node(source) or not dcn.has_node(target):
        raise RoutingError(f"unknown endpoint in ({source}, {target})")
    if source in failed or target in failed:
        down = source if source in failed else target
        raise RoutingError(f"endpoint failed: {down}")
    if _resolve_engine(dcn, engine) == "csr":
        try:
            return engine_for(dcn).route_avoiding(source, target, failed, cuts)
        except PathEngineNoPath:
            raise RoutingError(
                f"no surviving path from {source} to {target}"
            ) from None
    import networkx as nx

    view = nx.restricted_view(
        dcn.graph,
        tuple(failed),
        tuple(tuple(sorted(link)) for link in cuts),
    )
    try:
        return nx.shortest_path(view, source, target)
    except nx.NetworkXNoPath:
        raise RoutingError(
            f"no surviving path from {source} to {target}"
        ) from None


def path_length_statistics(
    graph: nx.Graph, sample_pairs: Sequence[tuple[str, str]]
) -> dict[str, float]:
    """Hop-count statistics over a sample of node pairs (experiment E2)."""
    import networkx as nx

    lengths = []
    for source, target in sample_pairs:
        try:
            lengths.append(nx.shortest_path_length(graph, source, target))
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            continue
    if not lengths:
        return {"pairs": 0, "mean": 0.0, "min": 0.0, "max": 0.0}
    return {
        "pairs": len(lengths),
        "mean": sum(lengths) / len(lengths),
        "min": float(min(lengths)),
        "max": float(max(lengths)),
    }

"""Batched admission pipeline for the event-driven simulator.

The flow schedule is fully known at ``run()`` time (the workload
generator pre-draws whole scenarios), so per-arrival routing work can
be hoisted out of the event loop: group pending flows by unique
``(src_host, dst_host, AL)`` endpoint pairs, resolve each group with
one :func:`repro.sdn.routing.routes_from` single-BFS fan-out per
source, and intern the resolved paths plus their link-index arrays so
admitting a flow becomes an indexed bulk append into the
:class:`~repro.sim.vector.FlowTable`.

**Tree-canonical routes.**  A single-source shortest-path tree is
independent of which targets are queried, so ``routes_from(s, [t])[t]
== routes_from(s, T)[t]`` for any target set ``T`` containing ``t`` —
but the *pairwise* bidirectional search may legitimately break
equal-length ties differently than the tree (documented since the CSR
engine landed).  The planner therefore resolves through the
tree-canonical helper, :func:`resolve_tree_path`, or the fan-out
underneath it, once per unique source: an interned route equals a cold
per-pair resolution, whichever targets were grouped with it.

**One plan per run, kept across faults.**  The simulator reads the plan
only while no node is down and no link is cut.  Arrivals inside a
failure window take the shortest surviving path instead: after each
fault the simulator resolves the arrivals up to the next fault in one
uncached batch (:meth:`InternedRoute.from_path` builds their routes) and
keeps them in its own per-arrival route list, never in the plan.  When
the plan is read again, every down link has been restored.  Faults never
mutate the fabric (they edit capacities and avoidance masks), and a
degrade changes a trunk's capacity, not hop-count routes.  So every
interned route equals a fresh :func:`resolve_tree_path` whenever it is
read, and dropping entries at a fault would only rebuild the same paths:
the simulator never invalidates.  No caller in ``src/`` runs
:meth:`AdmissionPlan.invalidate_crossing` (mirroring
:meth:`repro.sdn.route_cache.RouteCache.invalidate_crossing`); it stays
because ``benchmarks/e2e/trace.py``'s ``LAYERS`` names it and
``tests/test_bench_trace_layers.py`` requires every name there to
resolve.

**One route rule.**  :func:`flow_route_key` is the data plane's routing
policy: both :class:`~repro.sim.event_simulator.EventDrivenFlowSimulator`
and :class:`~repro.sim.simulator.FlowSimulator` key their flows with it
and read the paths from a plan, so they route every flow identically.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import RoutingError, UnknownEntityError
from repro.observability.runtime import current_telemetry
from repro.sdn.routing import routes_from
from repro.sim.fairshare import LinkId, links_on_path

__all__ = [
    "AdmissionPlan",
    "InternedRoute",
    "NO_PLAN_ROUTE",
    "flow_route_key",
    "plan_admission",
    "resolve_tree_path",
]

#: Sentinel interned for pairs the fabric cannot connect (mirrors the
#: route cache's negative entries: the miss is remembered, not retried).
NO_PLAN_ROUTE = object()


def flow_route_key(inventory, clusters, flow) -> tuple | None:
    """The flow's ``(src_host, dst_host, al_signature)`` routing key.

    Intra-service flows are confined to their cluster's abstraction
    layer; other flows, flows of a service with no cluster and every
    flow when ``clusters`` is ``None`` route flat (``al_signature`` is
    ``None``).  ``None`` for co-located endpoints, which never route.
    """
    source = inventory.host_of(flow.source)
    destination = inventory.host_of(flow.destination)
    if source == destination:
        return None
    al = None
    if clusters is not None and flow.intra_service:
        service = inventory.get(flow.source).service
        try:
            al = frozenset(clusters.cluster_of_service(service).al_switches)
        except UnknownEntityError:
            pass  # a service with no cluster routes flat
    return source, destination, al


def resolve_tree_path(
    dcn,
    source: str,
    destination: str,
    al: Iterable[str] | None,
    *,
    engine: str = "auto",
) -> list[str]:
    """Tree-canonical shortest path — the simulator's route primitive.

    Resolves over the single-source BFS tree rooted at ``source``
    (restricted to the abstraction layer when ``al`` is given), so a
    single-pair resolution and the planner's fan-out pick the *same*
    path among equal-length alternatives.

    Raises:
        RoutingError: when the endpoints are unknown, an endpoint
            violates the AL, or no connecting path exists.
    """
    resolved = routes_from(dcn, source, [destination], al, engine=engine)
    path = resolved.get(destination)
    if path is None:
        if al is not None:
            raise RoutingError(
                f"abstraction layer {sorted(al)} does not connect "
                f"{source} to {destination}"
            )
        raise RoutingError(f"no path from {source} to {destination}")
    return path


class InternedRoute:
    """One resolved ``(src_host, dst_host, AL)`` pair, admission-ready.

    Carries every per-arrival artifact the event loop would otherwise
    rebuild: the node path, the ``LinkId`` tuple and the engine-space
    link-index array.
    """

    __slots__ = ("path", "links", "indices", "cid")

    def __init__(
        self, path: Sequence[str], links: tuple, indices: np.ndarray
    ) -> None:
        self.path = list(path)
        self.links = links
        self.indices = indices
        #: Route-class id cache, assigned by the run's batched engine
        #: on first admission (one engine per plan per run).
        self.cid: int | None = None

    @classmethod
    def from_path(
        cls, path: Sequence[str], link_index: dict
    ) -> "InternedRoute":
        """The route over node path ``path``, its link indices taken
        from ``link_index`` (``LinkId`` -> engine array position)."""
        links = links_on_path(path)
        indices = np.array(
            [link_index[link] for link in links], dtype=np.int32
        )
        return cls(path, links, indices)

    def crosses(self, targets: frozenset) -> bool:
        """Whether this route traverses any link in ``targets``
        (``RouteCache.invalidate_crossing`` semantics)."""
        return any(
            frozenset((a, b)) in targets
            for a, b in zip(self.path, self.path[1:])
        )


class AdmissionPlan:
    """Interned route table for one simulation run.

    Maps ``(src_host, dst_host, al_signature)`` to an
    :class:`InternedRoute` (or :data:`NO_PLAN_ROUTE`), resolving lazily
    by source fan-out on first miss and in bulk at construction via
    :func:`plan_admission`.
    """

    __slots__ = (
        "_dcn",
        "_engine",
        "_link_index",
        "_routes",
        "_pairs_counter",
        "_invalidated_counter",
    )

    def __init__(
        self,
        dcn,
        link_index: dict,
        *,
        engine: str = "auto",
        telemetry=None,
    ) -> None:
        self._dcn = dcn
        self._engine = engine
        #: LinkId -> engine array position (the fair-share engine's).
        self._link_index = link_index
        self._routes: dict[tuple, object] = {}
        sink = telemetry if telemetry is not None else current_telemetry()
        self._pairs_counter = sink.counter(
            "alvc_admission_pairs_resolved_total",
            "unique endpoint pairs resolved by the admission planner",
        )
        self._invalidated_counter = sink.counter(
            "alvc_admission_invalidated_pairs_total",
            "interned routes dropped by invalidate_crossing",
        )

    def __len__(self) -> int:
        return len(self._routes)

    def __contains__(self, key: tuple) -> bool:
        return key in self._routes

    # ------------------------------------------------------------------
    def resolve_source(
        self,
        source: str,
        destinations: Iterable[str],
        al: frozenset | None,
    ) -> None:
        """Intern routes for every ``(source, dst, al)`` pair at once.

        One single-BFS fan-out per call; unreachable destinations are
        interned as :data:`NO_PLAN_ROUTE`.  AL-restricted resolution
        falls back to the flat fabric per destination when the layer
        does not connect the pair (AL first, then flat, as the
        simulator routes).
        """
        targets = [
            dst
            for dst in dict.fromkeys(destinations)
            if (source, dst, al) not in self._routes
        ]
        if not targets:
            return
        if al is None:
            resolved = routes_from(
                self._dcn, source, targets, None, engine=self._engine
            )
        else:
            try:
                resolved = routes_from(
                    self._dcn, source, targets, al, engine=self._engine
                )
            except RoutingError:
                # An endpoint violates the layer: the group fan-out
                # aborts wholesale, so retry each pair individually
                # (AL first, then flat) and let only the violating
                # pairs fall through.
                resolved = {}
                for dst in targets:
                    try:
                        single = routes_from(
                            self._dcn, source, [dst], al,
                            engine=self._engine,
                        )
                    except RoutingError:
                        continue
                    if dst in single:
                        resolved[dst] = single[dst]
        flat_retry = []
        for dst in targets:
            path = resolved.get(dst)
            if path is None:
                if al is not None:
                    flat_retry.append(dst)
                else:
                    self._routes[(source, dst, al)] = NO_PLAN_ROUTE
                continue
            self._routes[(source, dst, al)] = InternedRoute.from_path(
                path, self._link_index
            )
        if flat_retry:
            fallback = routes_from(
                self._dcn, source, flat_retry, None, engine=self._engine
            )
            for dst in flat_retry:
                path = fallback.get(dst)
                self._routes[(source, dst, al)] = (
                    NO_PLAN_ROUTE
                    if path is None
                    else InternedRoute.from_path(path, self._link_index)
                )
        self._pairs_counter.inc(len(targets))

    def lookup(
        self, source: str, destination: str, al: frozenset | None
    ):
        """The interned route for one pair (lazily re-resolving).

        Returns:
            An :class:`InternedRoute`, or :data:`NO_PLAN_ROUTE` when the
            fabric cannot connect the pair.
        """
        key = (source, destination, al)
        route = self._routes.get(key)
        if route is None:
            self.resolve_source(source, (destination,), al)
            route = self._routes[key]
        return route

    # ------------------------------------------------------------------
    def invalidate_crossing(self, links: Iterable[frozenset]) -> int:
        """Drop interned routes crossing any of ``links``.

        Same semantics as
        :meth:`repro.sdn.route_cache.RouteCache.invalidate_crossing`:
        negative entries survive (a faulted link cannot create a path),
        and dropped pairs lazily re-resolve on next use.

        Returns:
            The number of interned routes dropped.
        """
        targets = {frozenset(link) for link in links}
        stale = [
            key
            for key, route in self._routes.items()
            if route is not NO_PLAN_ROUTE and route.crosses(targets)
        ]
        for key in stale:
            del self._routes[key]
        if stale:
            self._invalidated_counter.inc(len(stale))
        return len(stale)


def plan_admission(
    dcn,
    pairs: Iterable[tuple],
    link_index: dict,
    *,
    engine: str = "auto",
    telemetry=None,
) -> AdmissionPlan:
    """Bulk-resolve unique ``(src, dst, al)`` pairs into a plan.

    Groups ``pairs`` by ``(source, al)`` so each group costs one
    single-BFS fan-out (two for AL groups with flat fallbacks).
    """
    plan = AdmissionPlan(
        dcn, link_index, engine=engine, telemetry=telemetry
    )
    grouped: dict[tuple, list] = {}
    for source, destination, al in pairs:
        grouped.setdefault((source, al), []).append(destination)
    for (source, al), destinations in grouped.items():
        plan.resolve_source(source, destinations, al)
    return plan

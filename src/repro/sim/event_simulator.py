"""Event-driven flow simulation with max-min fair bandwidth sharing.

Where :class:`~repro.sim.simulator.FlowSimulator` charges each flow
analytically, this simulator plays flows out *in virtual time*: flows
arrive, share link bandwidth max-min fairly with every concurrent flow,
and complete when their bytes drain.  It reports flow completion times
(FCT) and time-weighted link utilization — the delay/bandwidth behaviour
Section III.B aspires to ("minimum energy consumption and larger
bandwidth without delay").

Routing follows the same policy as the analytic simulator: intra-service
flows ride their cluster's abstraction layer; everything else takes flat
shortest paths.

There is one event loop, the struct-of-arrays data plane of
:mod:`repro.sim.vector`:

* rates come from :class:`~repro.sim.vector.BatchedFairShareEngine`,
  which aggregates flows into route classes and re-levels only the link
  components an event touched;
* one engine call per state-changing event,
  :meth:`~repro.sim.vector.BatchedFairShareEngine.settle`, re-levels,
  adopts the new rates and returns the next completion; it runs in the
  compiled kernel of :mod:`repro.sim.ckernel` (``alvc_settle``) or in
  its bitwise-equal numpy mirror;
* flow progress (and per-link busy time) is materialized lazily at
  rate-change boundaries instead of being charged to every active flow
  on every event (``alvc_materialize`` charges a finishing or rerouted
  flow);
* routes are resolved in bulk before the first event
  (:mod:`repro.sim.admission`) and their route classes interned in
  first-use order, and arrivals sharing a timestamp are admitted as one
  batch with a single recompute.  Load-aware runs pick each arrival's
  path per event from an LRU
  :class:`~repro.sdn.route_cache.RouteCache` of candidate paths;
* with the compiled kernel, the events between external ones — plan
  arrival batches and completions — run inside it (``alvc_run``), and
  Python takes back only faults, the window edge, batches the loop
  cannot admit and full buffers (``alvc_sim_loop_handoffs_total``
  counts the hand-backs by reason).  The per-event loop stays as the
  mirror, bit for bit.

Its reports are pinned by frozen report checksums and by the
engine-independent fairness certificate
:func:`~repro.sim.fairshare.check_max_min_fair`.  Runs may be windowed
with ``run(..., until=...)``: the simulation stops at that virtual time,
charges progress for in-flight flows up to the window edge and reports
their count in ``EventSimulationReport.in_flight`` — how the
million-flow soak bounds its completion events.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Mapping, Sequence

import numpy as np

from repro.config import EngineConfig
from repro.core.cluster import ClusterManager
from repro.exceptions import (
    RoutingError,
    SimulationError,
    UnknownEntityError,
    ValidationError,
)
from repro.ids import FlowId
from repro.observability.runtime import Telemetry, current_telemetry
from repro.sdn.route_cache import (
    DEFAULT_ROUTE_CACHE_SIZE,
    NO_ROUTE,
    RouteCache,
)
from repro.sdn.path_engine import engine_for
from repro.sdn.routing import (
    ROUTING_ENGINES,
    RouteCandidates,
    k_shortest_paths,
    least_loaded_path,
    pick_least_loaded,
    shortest_surviving_path,
)
from repro.sim.admission import NO_PLAN_ROUTE, InternedRoute, plan_admission
from repro.sim.ckernel import RunState
from repro.sim.fairshare import ROUNDS_BUCKETS, LinkId, links_on_path
from repro.sim.faults import (
    LINK_DOWN,
    LINK_UP,
    NODE_DOWN,
    NODE_UP,
    FaultEvent,
    normalize_failures,
)
from repro.sim.flows import Flow
from repro.sim.vector import BatchedFairShareEngine, FlowTable, LinkBusyView
from repro.virtualization.machines import MachineInventory

#: Whether runs with an admission plan hand the events between
#: external ones to the compiled loop (``alvc_run``) when the kernel
#: runs.  The per-event loop is the mirror; the parity suite pins it.
_COMPILED_LOOP = True
#: Entries of the compiled loop's completion and rounds buffers: a full
#: buffer hands back to Python, which drains it and re-enters.
_LOOP_BUFFER = 4096
#: The flow table's initial slots and compaction slack.
_TABLE_SLOTS = 64
_COMPACT_SLACK = 256
#: ``alvc_sim_loop_handoffs_total`` reasons; a stall counts as ``end``.
HANDOFF_REASONS = (
    "fault", "until", "room", "compaction", "uncovered", "buffer", "end",
)


def _id_ranks(flow_ids: Sequence) -> np.ndarray:
    """Each flow id's rank in sorted order (flow ids are distinct), the
    compiled loop's completion tie-break."""
    ranks = np.empty(len(flow_ids), dtype=np.int64)
    order = sorted(range(len(flow_ids)), key=flow_ids.__getitem__)
    ranks[order] = np.arange(len(flow_ids), dtype=np.int64)
    return ranks


def _loop_class(route) -> int:
    """An arrival's route class for the compiled loop: ``-1`` for
    co-located endpoints, ``-2`` for an arrival the plan has no route
    for."""
    if route is None:
        return -1
    if route is NO_PLAN_ROUTE:
        return -2
    return route.cid


@dataclasses.dataclass(frozen=True, slots=True)
class CompletedFlow:
    """One finished transfer."""

    flow_id: FlowId
    size_bytes: float
    arrival_time: float
    completion_time: float
    hops: int

    @property
    def duration(self) -> float:
        """Flow completion time (FCT)."""
        return self.completion_time - self.arrival_time


@dataclasses.dataclass(frozen=True)
class EventSimulationReport:
    """Outcome of one event-driven run.

    ``link_busy_byte_seconds`` is a mapping — a lazy
    :class:`~repro.sim.vector.LinkBusyView` over the simulator's busy
    array, which compares equal to a plain dict with the same contents.  ``in_flight`` counts flows still
    active when a windowed run (``run(..., until=...)``) hit its window
    edge; it is ``0`` for runs that drained naturally.
    """

    completed: tuple[CompletedFlow, ...]
    makespan: float
    link_busy_byte_seconds: Mapping[LinkId, float]
    dropped: tuple[FlowId, ...] = ()
    reroutes: int = 0
    failed_nodes: tuple[str, ...] = ()
    events: int = 0
    in_flight: int = 0

    @property
    def flows(self) -> int:
        """Number of completed flows."""
        return len(self.completed)

    def fct_statistics(self) -> dict[str, float]:
        """Mean / median / p99 / max flow completion time."""
        if not self.completed:
            return {"mean": 0.0, "median": 0.0, "p99": 0.0, "max": 0.0}
        durations = sorted(record.duration for record in self.completed)
        count = len(durations)

        def percentile(fraction: float) -> float:
            index = min(count - 1, max(0, math.ceil(fraction * count) - 1))
            return durations[index]

        return {
            "mean": sum(durations) / count,
            "median": percentile(0.5),
            "p99": percentile(0.99),
            "max": durations[-1],
        }

    def mean_link_utilization(
        self, capacities: dict[LinkId, float]
    ) -> float:
        """Time-averaged utilization over links that carried traffic.

        Args:
            capacities: link → capacity in the same byte/second unit the
                simulation ran with; must cover every link that carried
                traffic.  Zero-capacity links that carried nothing count
                as utilization 0 (they used to be silently skipped,
                which biased the mean upward).

        Raises:
            SimulationError: when a busy link has no capacity entry, a
                capacity is negative, or a zero-capacity link somehow
                carried traffic.
        """
        if not self.link_busy_byte_seconds or self.makespan <= 0:
            return 0.0
        busy = self.link_busy_byte_seconds
        if isinstance(busy, LinkBusyView):
            # Array path (memory guard for million-flow runs): one
            # vectorized pass over the per-link busy array instead of a
            # python loop over a materialized dict.
            return busy.mean_utilization(capacities, self.makespan)
        utilizations = []
        for link, byte_seconds in self.link_busy_byte_seconds.items():
            if link not in capacities:
                raise SimulationError(
                    f"busy link {sorted(link)} has no capacity entry"
                )
            capacity = capacities[link]
            if capacity < 0:
                raise SimulationError(
                    f"link {sorted(link)} has negative capacity {capacity}"
                )
            if capacity == 0:
                if byte_seconds > 0:
                    raise SimulationError(
                        f"zero-capacity link {sorted(link)} carried "
                        f"{byte_seconds} byte-seconds"
                    )
                utilizations.append(0.0)
            else:
                utilizations.append(
                    byte_seconds / (capacity * self.makespan)
                )
        return sum(utilizations) / len(utilizations) if utilizations else 0.0


class EventDrivenFlowSimulator:
    """Plays a flow workload out in virtual time with fair sharing."""

    def __init__(
        self,
        inventory: MachineInventory,
        clusters: ClusterManager | None = None,
        *,
        default_bandwidth_gbps: float | None = None,
        load_aware: bool = False,
        k_paths: int = 3,
        telemetry: Telemetry | None = None,
        engines: "EngineConfig | dict | None" = None,
        routing_engine: str | None = None,
        route_cache_size: int = DEFAULT_ROUTE_CACHE_SIZE,
    ) -> None:
        """Create a simulator over a populated inventory.

        Args:
            inventory: the VM ledger.
            clusters: cluster manager for AL-confined routing (flat
                routing when omitted).
            default_bandwidth_gbps: override every physical link's
                capacity (a trunk of ``n`` parallel links gets ``n``
                times this); defaults to each trunk's own aggregated
                ``bandwidth_gbps``.
            load_aware: route each arrival over the least-loaded of the
                ``k_paths`` shortest paths (load = concurrent flows per
                link) instead of always the shortest.
            k_paths: candidate pool size for load-aware routing.
            telemetry: metrics/tracing sink (ambient default when
                omitted); records event throughput, queue depths,
                fair-share rounds and route-cache traffic.
            engines: typed :class:`~repro.config.EngineConfig` (or an
                equivalent dict / ``None``); ``routing`` picks the path
                backend unless ``routing_engine`` overrides it.
            routing_engine: path-computation backend —
                ``"auto"``/``"csr"``/``"nx"``, see
                :mod:`repro.sdn.routing` (both produce bit-identical
                paths; this knob exists for parity tests and
                benchmarks).  Defaults to ``engines.routing``.
            route_cache_size: LRU entries for the load-aware candidate
                cache; ``0`` disables the cache entirely.

        Raises:
            ValidationError: on an unknown routing engine, a negative
                cache size, or a non-positive bandwidth override.
        """
        engine_config = EngineConfig.coerce(engines)
        if routing_engine is None:
            routing_engine = engine_config.routing
        if routing_engine not in ROUTING_ENGINES:
            raise ValidationError(
                f"unknown routing engine {routing_engine!r} "
                f"(expected one of {', '.join(ROUTING_ENGINES)})"
            )
        if route_cache_size < 0:
            raise ValidationError(
                f"route_cache_size must be >= 0, got {route_cache_size}"
            )
        if default_bandwidth_gbps is not None and default_bandwidth_gbps <= 0:
            raise ValidationError(
                "default_bandwidth_gbps must be positive, "
                f"got {default_bandwidth_gbps}"
            )
        self._telemetry = (
            telemetry if telemetry is not None else current_telemetry()
        )
        self._inventory = inventory
        self._clusters = clusters
        self._load_aware = load_aware
        self._k_paths = k_paths
        self._routing_engine = routing_engine
        # Bytes per second per link; the fabric memoizes its own rates.
        if default_bandwidth_gbps is None:
            self._capacities: dict[LinkId, float] = (
                inventory.network.link_bytes_per_second()
            )
        else:
            self._capacities = {}
            for a, b, _, parallel in inventory.network.trunks():
                key = frozenset((a, b))
                capacity = default_bandwidth_gbps * parallel * 1e9 / 8
                if key in self._capacities:
                    self._capacities[key] += capacity
                else:
                    self._capacities[key] = capacity
        self._route_cache: RouteCache | None = (
            RouteCache(route_cache_size, telemetry=self._telemetry)
            if route_cache_size > 0
            else None
        )

    @property
    def capacities(self) -> dict[LinkId, float]:
        """Per-link capacity in bytes/second (a copy)."""
        return dict(self._capacities)

    @property
    def engine(self) -> str:
        """The data plane every run uses: ``"vector"`` (run manifests
        record it)."""
        return "vector"

    @property
    def admission(self) -> str:
        """The admission pipeline every run uses: ``"batched"`` (run
        manifests record it)."""
        return "batched"

    @property
    def route_cache(self) -> RouteCache | None:
        """The LRU route cache (``None`` when disabled)."""
        return self._route_cache

    def invalidate_routes(self) -> int:
        """Drop every cached route.

        Call after mutating the fabric or reconstructing an abstraction
        layer in place.  (AL *replacements* need no invalidation — the
        AL switch set is part of the cache key.)

        Returns:
            The number of entries dropped (0 when the cache is off).
        """
        if self._route_cache is None:
            return 0
        return self._route_cache.invalidate()

    # ------------------------------------------------------------------
    def _route_key(self, flow: Flow) -> tuple | None:
        """The flow's ``(src_host, dst_host, al_signature)`` routing key.

        Intra-service flows are confined to their cluster's abstraction
        layer (flat when the service has no cluster); ``None`` for
        co-located endpoints, which never route.
        """
        source = self._inventory.host_of(flow.source)
        destination = self._inventory.host_of(flow.destination)
        if source == destination:
            return None
        al = None
        if self._clusters is not None and flow.intra_service:
            service = self._inventory.get(flow.source).service
            try:
                al = self._clusters.cluster_of_service(service).al_switches
            except UnknownEntityError:
                al = None
        return (
            source,
            destination,
            None if al is None else frozenset(al),
        )

    def _route_least_loaded(
        self, flow: Flow, link_flows: dict[LinkId, int]
    ) -> list[str]:
        """Load-aware path: the least-loaded of the ``k_paths`` shortest
        candidates, inside the flow's AL when one connects the pair and
        over the flat fabric otherwise."""
        key = self._route_key(flow)
        if key is None:
            return [self._inventory.host_of(flow.source)]
        source, destination, al = key
        if al is not None:
            try:
                return self._pick_path(source, destination, al, link_flows)
            except RoutingError:
                pass
        return self._pick_path(source, destination, None, link_flows)

    def _pick_path(
        self,
        source: str,
        destination: str,
        al,
        link_flows: dict[LinkId, int],
    ) -> list[str]:
        cache = self._route_cache
        if cache is None:
            return least_loaded_path(
                self._inventory.network,
                source,
                destination,
                link_flows,
                k=self._k_paths,
                al_switches=al,
                engine=self._routing_engine,
            )
        # Load-aware cache key: the value is the load-independent
        # candidate pool, re-scored against live loads on every hit.
        key = (source, destination, al, True)
        cached = cache.get(key)
        if cached is NO_ROUTE:
            raise RoutingError(
                f"no cached route from {source} to {destination}"
                + ("" if al is None else " inside the abstraction layer")
            )
        if cached is None:
            try:
                cached = RouteCandidates(
                    k_shortest_paths(
                        self._inventory.network,
                        source,
                        destination,
                        k=self._k_paths,
                        al_switches=al,
                        engine=self._routing_engine,
                    )
                )
            except RoutingError:
                cache.put(key, NO_ROUTE)
                raise
            cache.put(key, cached)
        return list(pick_least_loaded(cached, link_flows))

    def _route_avoiding(
        self, flow: Flow, failed_nodes: set, cut_links: set
    ) -> list[str] | None:
        """Shortest surviving path for a flow, or None when partitioned.

        Failure-aware routing is policy-free (plain shortest path over
        the surviving fabric): with switches gone, staying inside the AL
        or balancing load is secondary to reconnecting at all.  It is
        deliberately uncached at this layer — the surviving fabric
        changes with every failure event (the CSR engine keys its
        avoidance masks by failure set and drops them on
        :meth:`~repro.sdn.path_engine.PathEngine.note_fault`).
        """
        source = self._inventory.host_of(flow.source)
        destination = self._inventory.host_of(flow.destination)
        if source in failed_nodes or destination in failed_nodes:
            return None
        if source == destination:
            return [source]
        try:
            return list(
                shortest_surviving_path(
                    self._inventory.network,
                    source,
                    destination,
                    failed_nodes,
                    cut_links,
                    engine=self._routing_engine,
                )
            )
        except RoutingError:
            return None

    def _validated_failures(self, failures) -> list:
        """Normalize and validate a failure schedule.

        Raises:
            SimulationError: on a negative fault time, an unknown node,
                or an unknown link.
        """
        records = normalize_failures(failures)
        network = self._inventory.network
        graph = network.graph
        for record in records:
            if record.time < 0:
                raise SimulationError(
                    f"failure time must be >= 0, got {record.time}"
                )
            if record.action in (NODE_DOWN, NODE_UP):
                if not network.has_node(record.payload):
                    raise SimulationError(
                        f"unknown failure node {record.payload!r}"
                    )
            else:
                a, b = sorted(record.payload)
                if not graph.has_edge(a, b):
                    raise SimulationError(
                        f"unknown failure link {a!r}-{b!r}"
                    )
        return records

    def run(
        self,
        flows: Sequence[Flow],
        failures: Sequence["FaultEvent | tuple[float, str]"] = (),
        *,
        until: float | None = None,
    ) -> EventSimulationReport:
        """Simulate the workload to completion (or a virtual-time window).

        Flows must carry distinct ids; arrival times may be in any order
        (they are sorted internally).

        Args:
            flows: the workload.
            failures: optional fault schedule.  Entries are either
                legacy ``(time, node_id)`` crash tuples or
                :class:`~repro.sim.faults.FaultEvent` records (node
                crash/repair, link cut/repair, trunk degrade).  Crashed
                nodes and cut links leave the fabric: active flows
                crossing them are rerouted over the surviving fabric
                when a path remains (counted in ``reroutes``) and
                dropped otherwise (listed in ``dropped``); later
                arrivals route around the failure.  Repairs restore the
                stored pre-failure capacity; degrades shrink a trunk by
                ``severity`` while it keeps carrying flows (their rates
                adapt at the event).  ``failed_nodes`` in the report
                lists nodes still down when the run ends.
            until: optional virtual-time window edge (keyword-only).
                Events strictly beyond it are not processed: in-flight
                flows are charged up to ``until`` and counted in the
                report's ``in_flight`` (arrivals beyond the window are
                simply not admitted), and ``makespan`` is capped at
                ``until``.
        """
        if until is not None and until < 0:
            raise ValidationError(f"until must be >= 0, got {until}")
        telemetry = self._telemetry
        with telemetry.span(
            "event_simulation", flows=len(flows)
        ) as span:
            report = self._run(flows, failures, until)
        if telemetry.enabled:
            span.set(makespan=report.makespan, events=report.events)
            telemetry.counter(
                "alvc_sim_flows_completed_total",
                "flows completed by the event-driven simulator",
            ).inc(report.flows)
            telemetry.counter(
                "alvc_sim_flows_dropped_total",
                "flows dropped (partitioned by failures)",
            ).inc(len(report.dropped))
        return report

    # ------------------------------------------------------------------
    def _run(
        self,
        flows: Sequence[Flow],
        failures: Sequence["FaultEvent | tuple[float, str]"],
        until: float | None,
    ) -> EventSimulationReport:
        """The event loop.

        * Flow state lives in a :class:`~repro.sim.vector.FlowTable` and
          rates come from the class-aggregated, component-local
          :class:`~repro.sim.vector.BatchedFairShareEngine`.  Ascending
          slot order is activation order, so every pass over the table
          (materialization, busy charging) runs in activation order.
        * Every state-changing event ends in one ``engine.settle(now)``:
          re-level, then charge progress (and per-link busy time) only
          for flows whose rate changed, adopt the rates and find the
          minimum eta.  Progress is linear between rate changes, so
          charging at the boundaries is exact.
        * The next completion is the step's minimum eta; ties are broken
          by the smallest flow id (the compiled loop compares
          precomputed per-slot ranks of the ids).
        * Admission leaves the event loop: unique
          ``(src_host, dst_host, AL)`` pairs are bulk-resolved into an
          :class:`~repro.sim.admission.AdmissionPlan` before the first
          event and their classes interned in one batch, and each group
          of arrivals sharing one timestamp becomes one indexed append
          with a single trailing recompute.
          Arrivals inside an active failure window (a node down or a
          link cut) take the uncached surviving-path fallback instead.
          Load-aware runs pick each arrival's path per event (the pick
          depends on instantaneous link loads) over a pre-warmed
          candidate cache.
        * Fault events leave the plan and the candidate cache alone.
          Both are read only while no node is down and no link is cut,
          when every down link has been restored.  Faults never mutate
          the fabric (they edit capacities and avoidance masks), and a
          degrade changes capacity, not hop-count routes, so each
          interned route and candidate pool equals a fresh resolution
          whenever it is read.
        * With the compiled kernel and a plan, every event that needs no
          Python runs inside ``alvc_run`` (see :mod:`repro.sim.ckernel`
          for its hand-back rules); this loop takes the handed-back
          event, and afterwards records the loop's admissions and
          completions in bulk.
        """
        telemetry = self._telemetry
        events_counter = telemetry.counter(
            "alvc_sim_events_total",
            "discrete events processed (arrivals, completions, failures)",
        )
        depth_gauge = telemetry.gauge(
            "alvc_sim_active_flows", "concurrent in-flight flows (queue depth)"
        )
        peak_gauge = telemetry.gauge(
            "alvc_sim_active_flows_peak", "peak concurrent in-flight flows"
        )
        peak_flows_gauge = telemetry.gauge(
            "alvc_sim_peak_flows",
            "peak concurrent in-flight flows in the last run",
        )
        bulk_counter = telemetry.counter(
            "alvc_admission_bulk_flows_total",
            "flows admitted through pre-resolved interned routes",
        )
        fallback_counter = telemetry.counter(
            "alvc_admission_fallback_flows_total",
            "batched-mode arrivals routed per event "
            "(failure windows and load-aware picking)",
        )
        peak_depth = 0
        pending = sorted(flows, key=lambda flow: (flow.arrival_time, flow.flow_id))
        ids = [flow.flow_id for flow in pending]
        if len(set(ids)) != len(ids):
            raise SimulationError("duplicate flow ids in workload")
        failure_queue = self._validated_failures(failures)
        ranks = _id_ranks(ids)

        # Per-run capacity view (the fault-bookkeeping mirror of the
        # engine's arrays): failures remove links here without
        # poisoning the simulator for subsequent runs.
        capacities = dict(self._capacities)
        engine = BatchedFairShareEngine(
            capacities,
            table=FlowTable(_TABLE_SLOTS, compact_slack=_COMPACT_SLACK),
            telemetry=telemetry,
        )
        table = engine.table

        completed: list[CompletedFlow] = []
        dropped: list[FlowId] = []
        reroutes = 0
        events = 0
        in_flight = 0
        failed_nodes: set[str] = set()
        cut_links: set[LinkId] = set()
        # Capacity each down link had when it left the map, so repairs
        # restore exactly the pre-failure (possibly degraded) value.
        down_links: dict[LinkId, float] = {}
        # Concurrent flows per link: only the load-aware picker reads it.
        load_aware = self._load_aware
        link_flows: dict[LinkId, int] = {}
        now = 0.0
        arrival_index = 0
        failure_index = 0
        infinity = math.inf
        # ``(eta, first slot, slots tied)`` of the next completion, as
        # the last engine step left it; only a step changes any eta.
        upcoming = (infinity, -1, 0)

        # Routing keys, once per unique (source VM, destination VM,
        # intra-service) triple.
        route_keys: dict[tuple, tuple | None] = {}

        def route_key(flow: Flow) -> tuple | None:
            triple = (flow.source, flow.destination, flow.intra_service)
            if triple not in route_keys:
                route_keys[triple] = self._route_key(flow)
            return route_keys[triple]

        # Resolve every unique endpoint pair before the first event (one
        # BFS fan-out per source) and intern the routes' classes in
        # first-use order, so admitting an arrival is an indexed append.
        plan = None
        #: Per arrival: its plan route, NO_PLAN_ROUTE, or None for
        #: co-located endpoints.
        routes: list = []
        if not load_aware:
            plan_keys = [route_key(flow) for flow in pending]
            plan = plan_admission(
                self._inventory.network,
                (key for key in plan_keys if key is not None),
                engine.link_index,
                engine=self._routing_engine,
                telemetry=telemetry,
            )
            routes_by_key: dict = {None: None}
            for key in plan_keys:
                if key not in routes_by_key:
                    routes_by_key[key] = plan.lookup(*key)
                routes.append(routes_by_key[key])
            engine.intern_routes(
                [
                    route
                    for route in routes_by_key.values()
                    if isinstance(route, InternedRoute)
                ]
            )
        elif self._route_cache is not None:
            # Load-aware picks depend on instantaneous link loads, so
            # routes cannot be pinned up front — but the candidate sets
            # can: warm the cache once per unique pair so the event
            # loop only ever pays the pick.
            seen: set = set()
            for flow in pending:
                key = route_key(flow)
                if key is None or key in seen:
                    continue
                seen.add(key)
                try:
                    self._route_least_loaded(flow, link_flows)
                except RoutingError:
                    pass

        # Same-timestamp batch edges come from one searchsorted over
        # the pre-extracted arrival-time array instead of a per-flow
        # attribute walk.
        arrival_times = np.array(
            [flow.arrival_time for flow in pending], dtype=np.float64
        )

        def count_loads(links, delta: int) -> None:
            for link in links:
                count = link_flows.get(link, 0) + delta
                if count:
                    link_flows[link] = count
                else:
                    del link_flows[link]

        def complete_now(flow: Flow, hops: int) -> None:
            completed.append(
                CompletedFlow(
                    flow_id=flow.flow_id,
                    size_bytes=flow.size_bytes,
                    arrival_time=flow.arrival_time,
                    completion_time=now,
                    hops=hops,
                )
            )

        def displace(victims: list[FlowId]) -> None:
            """Reroute (or drop) flows whose path just became unusable."""
            nonlocal reroutes
            for flow_id in victims:
                slot = table.slot_of[flow_id]
                engine.materialize((slot,), now)
                flow, _, links = table.meta[slot]
                remaining_bytes = float(table.remaining[slot])
                rank = int(engine.tie_rank[slot])
                if load_aware:
                    count_loads(links, -1)
                engine.remove_flow(flow_id)
                new_path = self._route_avoiding(flow, failed_nodes, cut_links)
                if new_path is None:
                    dropped.append(flow_id)
                    continue
                reroutes += 1
                new_links = links_on_path(new_path)
                slot = engine.add_flow(flow_id, new_links)
                table.meta[slot] = (flow, new_path, new_links)
                table.remaining[slot] = remaining_bytes
                table.last_update[slot] = now
                engine.tie_rank[slot] = rank
                if load_aware:
                    count_loads(new_links, 1)

        # The compiled loop (``alvc_run``) takes every event that needs
        # no Python: plan arrivals and completions between external
        # events.  It hands back at a fault, the window edge, a batch it
        # cannot admit (a failure window, an uncovered route, a pending
        # compaction, a full table) or a full buffer, and at the end.
        loop = None
        compiled = _COMPILED_LOOP and engine.kernel_active
        if compiled and plan is not None and pending:
            classes = np.array(
                [_loop_class(route) for route in routes], dtype=np.int64
            )
            sizes = np.array(
                [flow.size_bytes for flow in pending], dtype=np.float64
            )
            done = np.zeros(_LOOP_BUFFER, dtype=np.int64)
            done_time = np.zeros(_LOOP_BUFFER)
            rounds = np.zeros(_LOOP_BUFFER, dtype=np.int64)
            loop = RunState(
                arrival_time=arrival_times.ctypes.data,
                arrival_class=classes.ctypes.data,
                arrival_size=sizes.ctypes.data,
                arrival_rank=ranks.ctypes.data,
                done=done.ctypes.data,
                done_time=done_time.ctypes.data,
                rounds=rounds.ctypes.data,
                n_arrivals=len(pending),
                until=infinity if until is None else until,
                done_room=_LOOP_BUFFER,
                rounds_room=_LOOP_BUFFER,
            )
            rounds_histogram = telemetry.histogram(
                "alvc_fairshare_vector_rounds",
                "water-filling rounds per vectorized fair-share recompute",
                ROUNDS_BUCKETS,
            )
            handoffs = {
                reason: telemetry.counter(
                    "alvc_sim_loop_handoffs_total",
                    "compiled event loop hand-backs to the per-event loop",
                    reason=reason,
                )
                for reason in HANDOFF_REASONS
            }

        def run_compiled() -> tuple[str, int]:
            """Run the compiled loop until it hands back, then do the
            flow-table bookkeeping and the records of what it ran.
            Returns the hand-back reason and the events it processed."""
            nonlocal arrival_index, now, upcoming, events, peak_depth
            loop.arrival = arrival_index
            loop.failures_left = failure_index < len(failure_queue)
            if loop.failures_left:
                loop.next_failure = failure_queue[failure_index].time
            loop.window = bool(failed_nodes or cut_links)
            loop.now = now
            loop.next_eta, loop.next_slot, loop.ties = upcoming
            loop.peak = peak_depth
            first = table.size
            reason = engine.run_events(loop)
            handoffs["end" if reason == "stall" else reason].inc()
            # The admitted arrivals took the slots from ``first`` up.
            end = loop.arrival
            if end > arrival_index:
                admitted, payloads = [], []
                for index in range(arrival_index, end):
                    route = routes[index]
                    if route is not None:
                        flow = pending[index]
                        admitted.append(flow.flow_id)
                        payloads.append((flow, route.path, route.links))
                table.slot_of.update(
                    zip(admitted, range(first, first + len(admitted)))
                )
                table.flow_ids.extend(admitted)
                table.meta.extend(payloads)
                bulk_counter.inc(len(admitted))
                arrival_index = end
            count = loop.n_done
            if count:
                meta, slot_of = table.meta, table.slot_of
                for code, at in zip(
                    done[:count].tolist(), done_time[:count].tolist()
                ):
                    if code >= 0:
                        flow, path, _ = meta[code]
                        meta[code] = None
                        del slot_of[flow.flow_id]
                        hops = len(path) - 1
                    else:
                        flow = pending[-1 - code]
                        hops = 0
                    completed.append(
                        CompletedFlow(
                            flow.flow_id,
                            flow.size_bytes,
                            flow.arrival_time,
                            at,
                            hops,
                        )
                    )
            if loop.n_rounds and telemetry.enabled:
                observe = rounds_histogram.observe
                for value in rounds[: loop.n_rounds].tolist():
                    observe(float(value))
            ran = loop.events
            if ran:
                events += ran
                events_counter.inc(ran)
                depth_gauge.set(table.active_count)
                now = loop.now
                upcoming = (loop.next_eta, loop.next_slot, loop.ties)
                peak_depth = loop.peak
            return reason, ran

        while (
            arrival_index < len(pending)
            or table.active_count
            or failure_index < len(failure_queue)
        ):
            if loop is not None and engine.can_run_events():
                reason, ran = run_compiled()
                if reason == "end" or (reason == "buffer" and ran):
                    continue
                # Otherwise the next event is the per-event loop's.
            next_arrival = (
                pending[arrival_index].arrival_time
                if arrival_index < len(pending)
                else infinity
            )
            next_failure = (
                failure_queue[failure_index].time
                if failure_index < len(failure_queue)
                else infinity
            )
            # Dead slots hold eta == inf, so the step's minimum only ever
            # lands on a live flow.
            next_completion = upcoming[0]
            event_time = min(next_arrival, next_completion, next_failure)
            if until is not None and event_time > until:
                # Window edge: charge everyone up to it and stop.
                now = until
                engine.materialize(table.active_slots().tolist(), now)
                in_flight = table.active_count
                break
            if math.isinf(event_time):
                raise SimulationError(
                    "simulation stalled: active flows with zero rate"
                )
            now = event_time

            if next_failure <= next_arrival and next_failure <= next_completion:
                events += 1
                events_counter.inc()
                record = failure_queue[failure_index]
                failure_index += 1
                # Availability changed without a topology mutation:
                # bump the path engine's mask generation so cached
                # post-fault avoidance masks cannot go stale.
                engine_for(self._inventory.network).note_fault()
                action = record.action
                if action == NODE_DOWN:
                    failed = record.payload
                    if failed in failed_nodes:
                        continue
                    failed_nodes.add(failed)
                    # Active flows over the node reroute or drop.
                    displace(
                        [
                            flow_id
                            for flow_id, slot in sorted(table.slot_of.items())
                            if failed in table.meta[slot][1]
                        ]
                    )
                    # Links touching the node leave the capacity map
                    # (after the reroutes, so the engine never drops a
                    # loaded link).
                    for link in list(capacities):
                        if failed in link:
                            down_links[link] = capacities.pop(link)
                            engine.remove_link(link)
                    upcoming = engine.settle(now)
                elif action == NODE_UP:
                    repaired = record.payload
                    if repaired not in failed_nodes:
                        continue
                    failed_nodes.discard(repaired)
                    # Links regain their stored capacity once both
                    # endpoints are alive, unless individually cut.
                    for link in list(down_links):
                        if (
                            repaired in link
                            and not (link & failed_nodes)
                            and link not in cut_links
                        ):
                            capacity = down_links.pop(link)
                            capacities[link] = capacity
                            engine.set_capacity(link, capacity)
                    upcoming = engine.settle(now)
                elif action == LINK_DOWN:
                    link = record.payload
                    if link in cut_links:
                        continue
                    cut_links.add(link)
                    if link not in capacities:
                        # Already gone (an endpoint is down); the cut is
                        # remembered so a node repair cannot revive it.
                        continue
                    displace(
                        [
                            flow_id
                            for flow_id, slot in sorted(table.slot_of.items())
                            if link in table.meta[slot][2]
                        ]
                    )
                    down_links[link] = capacities.pop(link)
                    engine.remove_link(link)
                    upcoming = engine.settle(now)
                elif action == LINK_UP:
                    link = record.payload
                    if link not in cut_links:
                        continue
                    cut_links.discard(link)
                    if link in down_links and not (link & failed_nodes):
                        capacity = down_links.pop(link)
                        capacities[link] = capacity
                        engine.set_capacity(link, capacity)
                        upcoming = engine.settle(now)
                else:  # LINK_DEGRADE
                    link = record.payload
                    if link in capacities:
                        new_capacity = capacities[link] * (
                            1.0 - record.severity
                        )
                        capacities[link] = new_capacity
                        engine.set_capacity(link, new_capacity)
                        upcoming = engine.settle(now)
                    elif link in down_links:
                        # Degrading a link that is currently down only
                        # shrinks the capacity a later repair restores.
                        down_links[link] *= 1.0 - record.severity
            elif next_arrival <= next_completion and arrival_index < len(pending):
                # Admit every arrival sharing this timestamp, then
                # recompute once: intermediate recomputes at the same
                # instant materialize no progress and their rates are
                # never observable.
                admitted = False
                batch: list = []
                batch_end = int(
                    np.searchsorted(arrival_times, now, side="right")
                )
                while arrival_index < batch_end:
                    flow = pending[arrival_index]
                    index = arrival_index
                    arrival_index += 1
                    events += 1
                    events_counter.inc()
                    if failed_nodes or cut_links:
                        path = self._route_avoiding(
                            flow, failed_nodes, cut_links
                        )
                        if path is None:
                            dropped.append(flow.flow_id)
                            continue
                        fallback_counter.inc()
                    elif plan is not None:
                        # The pair was resolved (or negatively interned)
                        # before the first event.
                        route = routes[index]
                        if route is None:
                            # Co-located endpoints: completes
                            # immediately, like the zero-hop path below.
                            complete_now(flow, 0)
                            continue
                        if route is NO_PLAN_ROUTE:
                            key = plan_keys[index]
                            raise RoutingError(
                                f"no path from {key[0]} to {key[1]}"
                            )
                        batch.append(index)
                        admitted = True
                        continue
                    else:
                        fallback_counter.inc()
                        path = self._route_least_loaded(flow, link_flows)
                    links = links_on_path(path)
                    if not links:
                        # Co-located endpoints: completes immediately and
                        # leaves every other allocation untouched.
                        complete_now(flow, 0)
                        continue
                    slot = engine.add_flow(flow.flow_id, links)
                    table.meta[slot] = (flow, path, links)
                    table.remaining[slot] = flow.size_bytes
                    table.last_update[slot] = now
                    engine.tie_rank[slot] = ranks[index]
                    if load_aware:
                        count_loads(links, 1)
                    admitted = True
                if batch:
                    # One indexed append for the whole timestamp group;
                    # consecutive slots keep activation order equal to
                    # admission order.
                    slots = engine.add_interned(
                        [ids[index] for index in batch],
                        [routes[index] for index in batch],
                        [pending[index].size_bytes for index in batch],
                        now,
                    )
                    engine.tie_rank[slots] = ranks[batch]
                    for slot, index in zip(slots.tolist(), batch):
                        route = routes[index]
                        table.meta[slot] = (
                            pending[index], route.path, route.links
                        )
                    bulk_counter.inc(len(batch))
                if admitted:
                    upcoming = engine.settle(now)
            else:
                events += 1
                events_counter.inc()
                _, slot, ties = upcoming
                if ties > 1:
                    # Break eta ties on the smallest flow id, not the
                    # earliest slot.
                    finishers = np.flatnonzero(
                        table.eta[: table.size] == next_completion
                    )
                    slot = min(
                        finishers.tolist(),
                        key=table.flow_ids.__getitem__,
                    )
                finisher = table.flow_ids[slot]
                engine.materialize((slot,), now)
                flow, path, links = table.meta[slot]
                if load_aware:
                    count_loads(links, -1)
                engine.remove_flow(finisher)
                complete_now(flow, len(path) - 1)
                upcoming = engine.settle(now)
            depth = table.active_count
            depth_gauge.set(depth)
            if depth > peak_depth:
                peak_depth = depth

        peak_gauge.set(peak_depth)
        peak_flows_gauge.set(peak_depth)
        return EventSimulationReport(
            completed=tuple(
                sorted(completed, key=lambda record: record.flow_id)
            ),
            makespan=now,
            link_busy_byte_seconds=LinkBusyView(
                engine.link_ids(), engine.busy
            ),
            dropped=tuple(sorted(dropped)),
            reroutes=reroutes,
            failed_nodes=tuple(sorted(failed_nodes)),
            events=events,
            in_flight=in_flight,
        )

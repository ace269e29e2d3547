"""Event-driven flow simulation with max-min fair bandwidth sharing.

Where :class:`~repro.sim.simulator.FlowSimulator` charges each flow
analytically, this simulator plays flows out *in virtual time*: flows
arrive, share link bandwidth max-min fairly with every concurrent flow,
and complete when their bytes drain.  It reports flow completion times
(FCT) and time-weighted link utilization — the delay/bandwidth behaviour
Section III.B aspires to ("minimum energy consumption and larger
bandwidth without delay").

Routing is the analytic simulator's, route for route: both key each
flow with :func:`~repro.sim.admission.flow_route_key` (intra-service
flows ride their cluster's abstraction layer; everything else takes flat
shortest paths) and read its path from an
:class:`~repro.sim.admission.AdmissionPlan`, which resolves the path
canonical over a breadth-first tree from the source
(:func:`~repro.sim.admission.resolve_tree_path`), falling back to the
flat fabric when the layer does not connect the pair.  Inside a failure
window, arrivals and rerouted flows take the shortest surviving path
over the whole fabric.

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
  batch with a single recompute;
* with the compiled kernel, the events between external ones — arrival
  batches, inside failure windows too, and completions — run inside it
  (``alvc_run``), and Python takes back only faults, the window edge,
  batches the loop cannot admit (an arrival with no surviving path, too
  few free slots) and full buffers (``alvc_sim_loop_handoffs_total``
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
    ValidationError,
)
from repro.ids import FlowId
from repro.observability.runtime import Telemetry, current_telemetry
from repro.sdn.path_engine import engine_for
from repro.sdn.routing import shortest_surviving_path
from repro.sim.admission import (
    NO_PLAN_ROUTE,
    InternedRoute,
    flow_route_key,
    plan_admission,
)
from repro.sim.ckernel import RunState
from repro.sim.fairshare import ROUNDS_BUCKETS, LinkId
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

#: Whether runs hand the events between external ones to the compiled
#: loop (``alvc_run``) when the kernel runs.  The per-event loop is the
#: mirror; the parity suite pins it.
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


#: An arrival's route when a failure window leaves its endpoints no
#: surviving path: the arrival is dropped.
_PARTITIONED = object()


def _loop_class(route) -> int:
    """An arrival's route class for the compiled loop: ``-1`` for
    co-located endpoints, ``-2`` for an arrival with no route (none in
    the plan, or no surviving path)."""
    if route is None:
        return -1
    if isinstance(route, InternedRoute):
        return route.cid
    return -2


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
        telemetry: Telemetry | None = None,
        engines: "EngineConfig | dict | None" = None,
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
            telemetry: metrics/tracing sink (ambient default when
                omitted); records event throughput, queue depths and
                fair-share rounds.
            engines: typed :class:`~repro.config.EngineConfig` (or an
                equivalent dict / ``None``); ``routing`` picks the path
                backend — ``"auto"``/``"csr"``/``"nx"``, see
                :mod:`repro.sdn.routing` (bit-identical paths).

        Raises:
            ValidationError: on an unknown routing engine or a
                non-positive bandwidth override.
        """
        routing = EngineConfig.coerce(engines).routing
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
        self._routing = routing
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

    # ------------------------------------------------------------------
    def _route_avoiding(
        self, flow: Flow, failed_nodes: set, cut_links: set
    ) -> list[str] | None:
        """Shortest surviving path for a flow, or None when partitioned.

        Failure-aware routing is policy-free (plain shortest path over
        the surviving fabric): with switches gone, staying inside the AL
        is secondary to reconnecting at all.  It is
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
                    engine=self._routing,
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
                if not network.has_link(a, b):
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
          Inside an active failure window (a node down or a link cut)
          arrivals take the shortest surviving path instead: after each
          fault (a no-op duplicate too), the arrivals up to the next
          fault are routed in one batch, their classes interned in one
          call and written over the plan's in the per-arrival route
          list, so every loop admits them like plan arrivals.  One with
          no surviving path is dropped.
        * A fault's reroutes are one batch: the flows crossing the lost
          links (found through the engine's link -> class transpose)
          are charged and removed one by one in flow-id order, and the
          rerouted ones re-admitted in one ``add_interned`` call.
        * Fault events leave the plan alone.  It is read only while no
          node is down and no link is cut, when every down link has
          been restored.  Faults never mutate the fabric (they edit
          capacities and avoidance masks), and a degrade changes
          capacity, not hop-count routes, so each interned route equals
          a fresh resolution whenever it is read.
        * With the compiled kernel, every event that needs no
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
            "arrivals admitted over a surviving path inside failure "
            "windows",
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
                route_keys[triple] = flow_route_key(
                    self._inventory, self._clusters, flow
                )
            return route_keys[triple]

        # Resolve every unique endpoint pair before the first event (one
        # BFS fan-out per source) and intern the routes' classes in
        # first-use order, so admitting an arrival is an indexed append.
        plan_keys = [route_key(flow) for flow in pending]
        plan = plan_admission(
            self._inventory.network,
            (key for key in plan_keys if key is not None),
            engine.link_index,
            engine=self._routing,
            telemetry=telemetry,
        )
        #: Per arrival: its plan route, NO_PLAN_ROUTE, or None for
        #: co-located endpoints.  Inside a failure window the arrivals
        #: up to the next fault carry their surviving-path route (or
        #: None, or _PARTITIONED) instead, and ``window_arrivals``
        #: holds their indices.
        routes: list = []
        window_arrivals: set[int] = set()
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

        # Same-timestamp batch edges come from one searchsorted over
        # the pre-extracted arrival-time array instead of a per-flow
        # attribute walk.
        arrival_times = np.array(
            [flow.arrival_time for flow in pending], dtype=np.float64
        )

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

        def surviving_route(flow: Flow):
            """The flow's route over the surviving fabric: an
            :class:`InternedRoute`, None for co-located endpoints or
            _PARTITIONED when no path survives."""
            path = self._route_avoiding(flow, failed_nodes, cut_links)
            if path is None:
                return _PARTITIONED
            if len(path) == 1:
                return None
            return InternedRoute.from_path(path, engine.link_index)

        def displace(links) -> None:
            """Reroute (or drop) the flows crossing ``links``, which just
            became unusable.  The victims leave one by one in flow-id
            order, then the rerouted ones are re-admitted in one batch
            with their remaining bytes, in the same order."""
            nonlocal reroutes
            slots = engine.slots_crossing(links).tolist()
            flow_ids = [table.flow_ids[slot] for slot in slots]
            victims = sorted(zip(flow_ids, slots))
            moved, moved_routes, left, moved_ranks = [], [], [], []
            for flow_id, slot in victims:
                engine.materialize((slot,), now)
                flow = table.meta[slot][0]
                remaining_bytes = float(table.remaining[slot])
                rank = int(engine.tie_rank[slot])
                engine.remove_flow(flow_id)
                route = surviving_route(flow)
                if route is _PARTITIONED:
                    dropped.append(flow_id)
                    continue
                moved.append(flow)
                moved_routes.append(route)
                left.append(remaining_bytes)
                moved_ranks.append(rank)
            if not moved:
                return
            reroutes += len(moved)
            slots = engine.add_interned(
                [flow.flow_id for flow in moved], moved_routes, left, now
            )
            engine.tie_rank[slots] = moved_ranks
            for slot, flow, route in zip(slots.tolist(), moved, moved_routes):
                table.meta[slot] = (flow, route.path, route.links)

        def cover_window() -> None:
            """Resolve, in one batch, the routes of the pending arrivals
            the failure state the last fault left applies to: those
            before the next fault (and not past ``until``).  Their
            classes are interned in one call and written over the
            plan's, so the compiled loop admits them like plan
            arrivals; one with no surviving path hands back
            ``uncovered`` and is dropped."""
            if not (failed_nodes or cut_links):
                return
            stop = len(pending)
            if failure_index < len(failure_queue):
                stop = int(
                    np.searchsorted(
                        arrival_times,
                        failure_queue[failure_index].time,
                        side="left",
                    )
                )
            if until is not None:
                stop = min(
                    stop,
                    int(np.searchsorted(arrival_times, until, side="right")),
                )
            window = range(arrival_index, stop)
            covered = [surviving_route(pending[index]) for index in window]
            engine.intern_routes(
                [
                    route
                    for route in covered
                    if isinstance(route, InternedRoute)
                ]
            )
            window_arrivals.update(window)
            for index, route in zip(window, covered):
                routes[index] = route
                if loop is not None:
                    classes[index] = _loop_class(route)

        # The compiled loop (``alvc_run``) takes every event that needs
        # no Python: arrivals with a route and completions between
        # external events.  It hands back at a fault, the window edge, a
        # batch it cannot admit (an arrival with no route, a pending
        # compaction, too few free slots) or a full buffer, and at the
        # end.
        loop = None
        compiled = _COMPILED_LOOP and engine.kernel_active
        if compiled and pending:
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
                planned = fallback = 0
                for index in range(arrival_index, end):
                    route = routes[index]
                    if index in window_arrivals:
                        fallback += 1
                    elif route is not None:
                        planned += 1
                    if route is not None:
                        flow = pending[index]
                        admitted.append(flow.flow_id)
                        payloads.append((flow, route.path, route.links))
                table.slot_of.update(
                    zip(admitted, range(first, first + len(admitted)))
                )
                table.flow_ids.extend(admitted)
                table.meta.extend(payloads)
                bulk_counter.inc(planned)
                fallback_counter.inc(fallback)
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

        # Faults whose failure window cover_window() has resolved.
        faults_covered = 0
        while (
            arrival_index < len(pending)
            or table.active_count
            or failure_index < len(failure_queue)
        ):
            if faults_covered < failure_index:
                # The last event was a fault (a no-op duplicate too):
                # resolve the arrivals its failure state applies to.
                cover_window()
                faults_covered = failure_index
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
                    touching = [link for link in capacities if failed in link]
                    displace(touching)
                    # Links touching the node leave the capacity map
                    # (after the reroutes, so the engine never drops a
                    # loaded link).
                    for link in touching:
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
                    displace((link,))
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
                    # The pair was resolved (or negatively interned)
                    # before the first event, or at the last fault.
                    route = routes[index]
                    if route is _PARTITIONED:
                        dropped.append(flow.flow_id)
                        continue
                    if index in window_arrivals:
                        fallback_counter.inc()
                    if route is None:
                        # Co-located endpoints: completes immediately and
                        # leaves every other allocation untouched.
                        complete_now(flow, 0)
                        continue
                    if route is NO_PLAN_ROUTE:
                        key = plan_keys[index]
                        raise RoutingError(
                            f"no path from {key[0]} to {key[1]}"
                        )
                    batch.append(index)
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
                    bulk_counter.inc(
                        sum(
                            1 for index in batch
                            if index not in window_arrivals
                        )
                    )
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
                flow, path, _ = table.meta[slot]
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

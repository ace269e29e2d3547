"""Struct-of-arrays data plane: batched max-min fair sharing.

The textbook water-filling
(:func:`~repro.sim.fairshare.max_min_fair_rates`) touches one python
object per flow-link incidence on every round, which caps a per-object
simulator at a few thousand concurrent flows.  This module moves all
per-flow state into numpy arrays and water-fills per route class and
per link component:

* :class:`FlowTable` — the struct-of-arrays flow ledger.  Rates,
  remaining demand, projected completion times and last-materialization
  stamps are ``float64`` arrays indexed by *slot*.  A slot's links are
  not copied into the table: the engine reads them through the slot's
  route class, whose pool it interned once.
  Slots are append-only, so ascending slot order *is* activation order
  — the invariant every bit-parity argument below leans on — and the
  table compacts itself when completed flows dominate.
* :class:`BatchedFairShareEngine` — the data plane's one fair-share
  engine: flows aggregated into route classes, a recompute that
  water-fills only the link components an event touched, **bit for
  bit** the rates of :func:`~repro.sim.fairshare.max_min_fair_rates`
  (which the seeded parity suite asserts on randomized instances), and
  the simulator's event step (:meth:`~BatchedFairShareEngine.settle`:
  adopt the new rates, charge progress and link busy time, find the
  next completion).  Both run compiled or in a numpy mirror.  Routes
  are loop-free: one that crosses a link twice is refused with
  :class:`~repro.exceptions.RepeatedLinkError`.
* :class:`LinkBusyView` — a lazy mapping over the engine's per-link
  busy accumulator array, so a million-flow report never materializes a
  per-link python dict just to compute utilization.

Telemetry: each recompute observes its round count in the
``alvc_fairshare_vector_rounds`` histogram (the vectorized sibling of
``alvc_fairshare_rounds``).
"""

from __future__ import annotations

import ctypes
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.exceptions import RepeatedLinkError, SimulationError
from repro.sim.fairshare import ROUNDS_BUCKETS, LinkId

__all__ = [
    "BatchedFairShareEngine",
    "FlowTable",
    "LinkBusyView",
]

_EMPTY_I64 = np.empty(0, dtype=np.int64)
#: :meth:`BatchedFairShareEngine.settle`'s answer when no flow is due.
_NO_COMPLETION = (np.inf, -1, 0)


class FlowTable:
    """Struct-of-arrays ledger of active (and recently dead) flows.

    Every per-flow scalar the event loop touches is a ``float64`` array
    indexed by slot; a slot's links are its route class's, which the
    engine that admitted it keeps.  Slots are handed out append-only —
    ascending slot order is exactly flow-activation order — and
    reclaimed in bulk by :meth:`compact` (which preserves relative
    order) once dead slots outnumber live ones.
    """

    __slots__ = (
        "remaining",
        "rate",
        "eta",
        "last_update",
        "alive",
        "size",
        "active_count",
        "slot_of",
        "flow_ids",
        "meta",
        "on_compact",
        "on_grow",
        "_compact_slack",
        "_compact_pending",
    )

    def __init__(self, capacity: int = 64, *, compact_slack: int = 256) -> None:
        n = max(16, int(capacity))
        self.remaining = np.zeros(n)
        self.rate = np.zeros(n)
        self.eta = np.full(n, np.inf)
        self.last_update = np.zeros(n)
        self.alive = np.zeros(n, dtype=bool)
        #: High-water slot count: slots ``[0, size)`` are allocated.
        self.size = 0
        self.active_count = 0
        #: flow id -> live slot.
        self.slot_of: dict[Hashable, int] = {}
        #: Per-slot flow id (stale for dead slots until compaction).
        self.flow_ids: list = []
        #: Per-slot caller payload (the simulator stores flow metadata).
        self.meta: list = []
        #: Called with the old live-slot array after every compaction,
        #: so owners of parallel per-slot arrays (the batched engine's
        #: class map) can renumber alongside the table.
        self.on_compact = None
        #: Called after the per-slot arrays are reallocated, so owners
        #: of pointers into them (the compiled event step) can rebind.
        self.on_grow = None
        self._compact_slack = max(1, int(compact_slack))
        # Tombstones only appear in release(), so the compaction
        # predicate is evaluated there (once per death) and reserve()
        # checks a single pre-computed flag instead of re-deriving
        # ``size - active_count > max(slack, active_count)`` per call.
        self._compact_pending = False

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.active_count

    def __contains__(self, flow: Hashable) -> bool:
        return flow in self.slot_of

    def active_slots(self) -> np.ndarray:
        """Live slots in ascending (= activation) order."""
        return np.flatnonzero(self.alive[: self.size])

    # ------------------------------------------------------------------
    def reserve(self, flows: Sequence[Hashable]) -> int:
        """Make room for ``flows`` and return the first slot they will
        take.

        Checks the ids before anything changes, then runs a pending
        compaction and grows the slot arrays.  Hands out no slot: the
        caller writes the slots ``[first, first + len(flows))`` (every
        per-slot array, ``alive`` included), then calls :meth:`commit`.

        Raises:
            SimulationError: when any flow already holds a slot or
                appears twice in ``flows``.
        """
        slot_of = self.slot_of
        seen = set()
        for flow in flows:
            if flow in slot_of or flow in seen:
                raise SimulationError(f"flow {flow!r} is already active")
            seen.add(flow)
        if self._compact_pending:
            self.compact()
        while self.size + len(flows) > self.remaining.shape[0]:
            self._grow_slots()
        return self.size

    def commit(self, flows: Sequence[Hashable]) -> None:
        """Hand out the slots :meth:`reserve` made room for: ``flows``
        take the next ``len(flows)`` slots in order."""
        first = self.size
        count = len(flows)
        self.size = first + count
        self.active_count += count
        slot_of = self.slot_of
        for offset, flow in enumerate(flows):
            slot_of[flow] = first + offset
        self.flow_ids.extend(flows)
        self.meta.extend([None] * count)

    def release(self, flow: Hashable) -> int:
        """Forget ``flow``'s id and payload and count it dead; returns
        the slot it held.  Its per-slot arrays are the caller's to
        clear (:meth:`remove` does).

        Raises:
            SimulationError: when the flow holds no slot.
        """
        try:
            slot = self.slot_of.pop(flow)
        except KeyError:
            raise SimulationError(f"flow {flow!r} is not active") from None
        self.meta[slot] = None
        self.active_count -= 1
        # Deaths are the only way the tombstone count grows, so this is
        # the only place the compaction predicate can flip to true (an
        # add leaves ``size - active_count`` unchanged and only weakens
        # the ``max(slack, live)`` bound) — the next reserve compacts.
        if self.size - self.active_count > max(
            self._compact_slack, self.active_count
        ):
            self._compact_pending = True
        return slot

    def remove(self, flow: Hashable) -> int:
        """Release a flow's slot (kept inert until compaction).

        Raises:
            SimulationError: when the flow holds no slot.
        """
        slot = self.release(flow)
        self.alive[slot] = False
        self.eta[slot] = np.inf
        self.rate[slot] = 0.0
        return slot

    # ------------------------------------------------------------------
    def compact(self) -> None:
        """Drop dead slots, renumbering live ones in relative order."""
        live = self.active_slots()
        n = live.shape[0]
        self.remaining[:n] = self.remaining[live]
        self.rate[:n] = self.rate[live]
        self.eta[:n] = self.eta[live]
        self.eta[n : self.size] = np.inf
        self.last_update[:n] = self.last_update[live]
        self.alive[: self.size] = False
        self.alive[:n] = True
        self.flow_ids = [self.flow_ids[slot] for slot in live.tolist()]
        self.meta = [self.meta[slot] for slot in live.tolist()]
        self.slot_of = {
            flow: slot for slot, flow in enumerate(self.flow_ids)
        }
        self.size = n
        self._compact_pending = False
        if self.on_compact is not None:
            self.on_compact(live)

    def _grow_slots(self) -> None:
        n = self.remaining.shape[0] * 2
        for name in ("remaining", "rate", "last_update"):
            grown = np.zeros(n)
            grown[: self.size] = getattr(self, name)[: self.size]
            setattr(self, name, grown)
        eta = np.full(n, np.inf)
        eta[: self.size] = self.eta[: self.size]
        self.eta = eta
        alive = np.zeros(n, dtype=bool)
        alive[: self.size] = self.alive[: self.size]
        self.alive = alive
        if self.on_grow is not None:
            self.on_grow()


class LinkBusyView(Mapping):
    """Read-only ``link -> busy byte-seconds`` view over a numpy array.

    Exposes the simulator's per-link busy accumulator without building a
    python dict per run (the memory guard for million-flow soaks: the
    array is one ``float64`` per *link*, never per flow).  Only links
    that carried traffic are visible, matching the dict the report
    historically exposed.  Compares equal to an equivalent plain dict
    and pickles as one, so a report sent across processes carries a
    plain dict.
    """

    __slots__ = ("_link_ids", "_busy", "_nonzero")

    def __init__(self, link_ids: tuple, busy: np.ndarray) -> None:
        self._link_ids = link_ids
        self._busy = busy
        self._nonzero = None

    def _carried(self) -> np.ndarray:
        if self._nonzero is None:
            self._nonzero = np.flatnonzero(self._busy > 0.0)
        return self._nonzero

    def __getitem__(self, link: LinkId) -> float:
        try:
            index = self._link_ids.index(link)
        except ValueError:
            raise KeyError(link) from None
        value = self._busy[index]
        if not value > 0.0:
            raise KeyError(link)
        return float(value)

    def __iter__(self) -> Iterator[LinkId]:
        for index in self._carried().tolist():
            yield self._link_ids[index]

    def __len__(self) -> int:
        return int(self._carried().shape[0])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (LinkBusyView, Mapping, dict)):
            if len(self) != len(other):
                return False
            try:
                return all(other[link] == value for link, value in self.items())
            except KeyError:
                return False
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # mutable mapping semantics

    def __repr__(self) -> str:
        return f"LinkBusyView({dict(self)!r})"

    def __reduce__(self):
        return (dict, (dict(self.items()),))

    def to_dict(self) -> dict[LinkId, float]:
        """Materialize as a plain dict (small: one entry per busy link)."""
        return dict(self.items())

    def mean_utilization(
        self, capacities: Mapping[LinkId, float], makespan: float
    ) -> float:
        """Array-path twin of ``EventSimulationReport.mean_link_utilization``.

        Validation (missing entries, negative capacities, zero-capacity
        links that carried traffic) matches the dict path exactly.
        """
        carried = self._carried()
        if carried.shape[0] == 0 or makespan <= 0:
            return 0.0
        caps = np.empty(carried.shape[0])
        for position, index in enumerate(carried.tolist()):
            link = self._link_ids[index]
            try:
                capacity = capacities[link]
            except KeyError:
                raise SimulationError(
                    f"busy link {sorted(link)} has no capacity entry"
                ) from None
            if capacity < 0:
                raise SimulationError(
                    f"link {sorted(link)} has negative capacity {capacity}"
                )
            if capacity == 0:
                raise SimulationError(
                    f"zero-capacity link {sorted(link)} carried "
                    f"{self._busy[index]} byte-seconds"
                )
            caps[position] = capacity
        utilization = self._busy[carried] / (caps * makespan)
        return float(utilization.sum() / utilization.shape[0])


class BatchedFairShareEngine:
    """Route-class-aggregated, component-local max-min water-filling
    over a :class:`FlowTable` — the data plane's fair-share engine.

    Flows and link capacities change incrementally (:meth:`add_flow`,
    :meth:`add_interned`, :meth:`remove_flow`, :meth:`remove_link`,
    :meth:`set_capacity`).  :meth:`recompute` returns a ``float64``
    array indexed by table slot (``0.0`` for dead slots, ``inf`` for
    live flows with no links); :meth:`rates_by_flow` offers the
    dict-shaped spelling for parity tests.  Links are registered up
    front from the capacity map (insertion order fixes their array
    indices); links removed by faults stay indexed but inactive so
    repairs restore them in place.

    Routes are loop-free: a route that crosses some link twice is
    refused with :class:`~repro.exceptions.RepeatedLinkError` before
    anything is reserved, interned or counted (every route the simulator
    installs is a simple path).  The check runs once per new route
    class, not once per flow.

    Flows admitted from interned routes repeat a small set of paths, so
    the engine interns each distinct link-index pool as a *route class*
    (the only copy of a route's links: a slot reaches them through its
    class, for the busy charge and the link counts alike) and keeps
    every water-filling structure as incremental per-class state:

    * **Multiplicities.**  Live flows per class, updated on add and
      remove (no per-recompute ``bincount`` over the active slots).
    * **Transpose.**  A persistent link -> classes map in full link
      space, stored as gapped per-link segments so interning appends in
      place: each :meth:`intern_pools` call places its new ``(link,
      class)`` pairs with one stable sort by link, and a segment that
      must grow moves once to the buffer's end with its room doubled
      until they fit (nothing is ever rebuilt).  It also answers which
      live slots cross a link (:meth:`slots_crossing`: a fault's
      victims).
    * **Components.**  A quick-find union-find over link indices
      (a label array), unioned when new classes are interned.  Classes
      are never forgotten, so components only merge and never need a
      split.  Each component's links are kept in lexicographic rank
      order in one layout array, with per-root bounds arrays, re-laid
      out once per interning call that merges (:meth:`intern_pools`
      takes a whole run's routes at once).
    * **Dirty marks.**  Adding or removing a flow, ``set_capacity`` and
      ``remove_link`` mark the component of the link they touch.

    :meth:`recompute` water-fills only the dirty components; every
    clean class keeps its rate, and per-slot rates are one gather
    through the per-slot class map.  A full recompute is the case where
    every component is dirty — there is one code path.

    **Bit parity.**  Within a component a round is the reference's
    round restricted to it: the same ``remaining / load`` ratio per
    loaded link (``load`` counts the unfrozen flows), the bottleneck is
    the *first* link in lexicographic rank order at the minimum ratio —
    the reference's ``(ratio, sorted(link))`` key — and every flow of a
    member class subtracts the share once per link of its route.
    Regrouping a bottleneck's flows by class only permutes subtractions
    of one same share, so each link sees exactly the reference's IEEE
    subtractions; and because every subtraction in a round removes that
    same share, deferring the zero clamp to once per round is
    bit-identical to the reference's clamp after every subtraction
    (once a value goes negative, further subtractions keep it negative
    and both paths clamp to ``+0.0``).  Across components nothing is
    shared: components share no links, so the global loop's picks
    inside a component are exactly the component loop's picks (a global
    minimum landing in a component is that component's first-in-rank
    minimum), and other components' rounds and clamps never touch its
    links.  A clean component's rates are therefore what a global
    recompute would assign again.

    The round loop, the event step (:meth:`settle`,
    :meth:`materialize`) and the admission and removal bookkeeping
    (:meth:`add_interned`, :meth:`add_flow`, :meth:`remove_flow`) run in
    compiled kernels when a C compiler is available, as does the
    simulator's whole event loop between external events
    (:meth:`run_events`)
    (:mod:`repro.sim.ckernel` — same IEEE operations in the same order)
    and in numpy mirrors otherwise; both are asserted bitwise-equal in
    the suite.  Both admission methods take one path: the batch's class
    ids, then the same :class:`FlowTable` bookkeeping (id checks,
    compaction, growth, the id map) around one write of the reserved
    slots, by the kernel or by its numpy mirror.  The kernels read the
    arrays through ``ctypes`` structs of pointers, rebound only when an
    array is reallocated (table, class-array, class-map or link
    growth).  The compiled step visits only the slots that can have
    changed: it needs the engine to mark removed slots in its touched
    bitmap, to size its per-slot lists and block summaries with the
    table, and to ask for a full pass when those are stale (see
    :mod:`repro.sim.ckernel`).

    Telemetry: ``alvc_fairshare_vector_rounds`` observes the rounds
    summed over the re-leveled components only;
    ``alvc_fairshare_components`` gauges the link components that carry
    route classes and ``alvc_fairshare_component_merges_total`` counts
    merges of two such components (both move only when a class is
    interned, so the null sink costs nothing per event);
    ``alvc_fairshare_settle_full_total{reason}`` counts the steps that
    had to visit every slot — ``first``, ``compacted`` or ``grown``
    (table or class arrays reallocated) — on either path.
    """

    __slots__ = (
        "_table",
        "_index",
        "_link_ids",
        "_cap",
        "_link_alive",
        "_count",
        "_rank",
        "_rounds_histogram",
        "_class_index",
        "_n_classes",
        "_class_of",
        "_m",
        "_frozen",
        "_class_rate",
        "_cstart",
        "_clen",
        "_cflat",
        "_flat_len",
        "_anchor",
        "_t_classes",
        "_t_start",
        "_t_len",
        "_t_cap",
        "_t_used",
        "_label",
        "_layout",
        "_seg_start",
        "_seg_end",
        "_listed_at",
        "_dirty_roots",
        "_n_components",
        "_dirty",
        "_epoch",
        "_remaining",
        "_load",
        "_work",
        "_busy",
        "_kernels",
        "_state",
        "_state_address",
        "_step",
        "_step_address",
        "_dirty_links",
        "_next",
        "_head",
        "_changed",
        "_listed",
        "_touched",
        "_block_eta",
        "_block_slot",
        "_block_ties",
        "_full",
        "_tie_rank",
        "_admit_cids",
        "_admit_sizes",
        "_admit_addresses",
        "_components_gauge",
        "_merges_counter",
        "_full_counters",
    )

    def __init__(
        self,
        capacities: Mapping[LinkId, float],
        *,
        table: FlowTable | None = None,
        telemetry=None,
    ) -> None:
        """Create an engine over a capacity map (validated up front).

        ``table`` must hold no live flow: a flow the engine did not
        admit has no route class, so it would get no rate.

        Raises:
            SimulationError: on a non-positive capacity, or a ``table``
                that already holds live flows.
        """
        self._link_ids: list[LinkId] = list(capacities)
        self._cap = np.fromiter(
            capacities.values(), dtype=np.float64, count=len(self._link_ids)
        )
        non_positive = np.flatnonzero(self._cap <= 0)
        if non_positive.shape[0]:
            link = self._link_ids[int(non_positive[0])]
            raise SimulationError(
                f"link {sorted(link)} has non-positive capacity "
                f"{capacities[link]}"
            )
        if table is None:
            table = FlowTable()
        elif table.active_count:
            raise SimulationError(
                f"the flow table already holds {table.active_count} live "
                "flows; the engine must admit every flow it rates"
            )
        from repro.observability.runtime import current_telemetry
        from repro.sim.ckernel import RelevelState, StepState, kernels

        sink = telemetry if telemetry is not None else current_telemetry()
        self._table = table
        self._index: dict[LinkId, int] = dict(
            zip(self._link_ids, range(len(self._link_ids)))
        )
        self._link_alive = np.ones(len(self._link_ids), dtype=bool)
        # Active-flow counts per link, kept as float64 so water-filling
        # can divide without a conversion pass (integers stay exact).
        self._count = np.zeros(len(self._link_ids))
        self._rank: np.ndarray | None = None
        self._rounds_histogram = sink.histogram(
            "alvc_fairshare_vector_rounds",
            "water-filling rounds per vectorized fair-share recompute",
            ROUNDS_BUCKETS,
        )
        self._components_gauge = sink.gauge(
            "alvc_fairshare_components",
            "link components carrying route classes in the batched engine",
        )
        self._merges_counter = sink.counter(
            "alvc_fairshare_component_merges_total",
            "merges of two class-carrying link components",
        )
        self._full_counters = {
            reason: sink.counter(
                "alvc_fairshare_settle_full_total",
                "event steps that visited every slot of the flow table",
                reason=reason,
            )
            for reason in ("first", "compacted", "grown")
        }
        #: pool bytes -> class id (the interning table).
        self._class_index: dict[bytes, int] = {}
        self._n_classes = 0
        #: Per-slot class id (-1 = dead), sized with the table by the
        #: growth hook and renumbered alongside it by the compaction
        #: hook.
        self._class_of = np.full(
            self._table.remaining.shape[0], -1, dtype=np.int64
        )
        #: Per-slot rank of the flow id, sized and renumbered like the
        #: class map: the owner writes it, and the compiled event loop
        #: breaks completion ties on it.
        self._tie_rank = np.zeros(self._class_of.shape[0], dtype=np.int64)
        self._size_step_slots()
        # Per-class arrays, grown by doubling.  ``_class_rate`` always
        # keeps at least one unused trailing entry fixed at 0.0, so the
        # per-slot gather maps ``-1`` (dead slots) to a zero rate.
        self._m = np.zeros(16, dtype=np.int64)
        self._frozen = np.zeros(16, dtype=np.int64)
        self._class_rate = np.zeros(16)
        self._cstart = np.zeros(16, dtype=np.int64)
        self._clen = np.zeros(16, dtype=np.int64)
        self._cflat = np.zeros(64, dtype=np.int64)
        self._flat_len = 0
        # The event step's per-class bookkeeping (see ``alvc_settle``):
        # each class's slot list head, and the deduplicated list of
        # classes whose rate moved since the last settle.
        self._head = np.full(16, -1, dtype=np.int64)
        self._changed = np.zeros(16, dtype=np.int64)
        self._listed = np.zeros(16, dtype=np.uint8)
        #: Why the next settle must visit every slot (``None``: it
        #: visits only what changed).
        self._full: str | None = "first"
        #: Per-class first link (-1 for zero-hop classes): the link a
        #: flow event marks dirty.
        self._anchor: list[int] = []
        self._t_classes = np.zeros(64, dtype=np.int64)
        self._t_used = 0
        self._t_start = _EMPTY_I64
        self._t_len = _EMPTY_I64
        self._t_cap = _EMPTY_I64
        #: Link -> root link of its component (quick-find).
        self._label = _EMPTY_I64
        #: Links of every class-carrying component, contiguous per
        #: component and in rank order within one; a carrying
        #: component's root maps to its ``[start, end)`` there through
        #: ``_seg_start``/``_seg_end`` (``-1`` for every other link).
        #: Links no class crosses are singleton components outside it.
        self._layout = _EMPTY_I64
        self._seg_start = _EMPTY_I64
        self._seg_end = _EMPTY_I64
        #: The kernel's dirty-root list and its per-root listing stamps.
        self._listed_at = _EMPTY_I64
        self._dirty_roots = _EMPTY_I64
        self._n_components = 0
        #: Links whose component needs re-leveling.
        self._dirty: set[int] = set()
        self._epoch = 0
        self._remaining = np.zeros(0)
        self._load = np.zeros(0)
        self._work = _EMPTY_I64
        #: Busy byte-seconds per link, charged by the event step.
        self._busy = np.zeros(0)
        self._kernels = kernels()
        compiled = self._kernels is not None
        self._state = RelevelState() if compiled else None
        self._state_address = None
        self._step = StepState() if compiled else None
        self._step_address = None
        #: The kernel's per-call dirty links (a ctypes buffer: filling
        #: it costs far less than marshalling a numpy array).
        self._dirty_links = None
        #: ``alvc_admit``'s per-call class ids and sizes (ctypes
        #: buffers, with their addresses).
        self._admit_cids = ()
        self._admit_sizes = ()
        self._admit_addresses = None
        self._sync_links()
        self._table.on_compact = self._renumber_classes
        self._table.on_grow = self._on_table_grow

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def table(self) -> FlowTable:
        """The struct-of-arrays flow ledger this engine allocates over."""
        return self._table

    @property
    def n_links(self) -> int:
        """Number of registered link indices (including inactive ones)."""
        return len(self._link_ids)

    @property
    def active_flows(self) -> int:
        """Number of flows currently tracked."""
        return self._table.active_count

    @property
    def loaded_links(self) -> int:
        """Number of links with at least one active flow."""
        return int(np.count_nonzero(self._count))

    def link_ids(self) -> tuple:
        """Registered links in index order."""
        return tuple(self._link_ids)

    @property
    def link_index(self) -> dict:
        """``LinkId`` -> array position (the live mapping, not a copy;
        the admission planner interns routes against it)."""
        return self._index

    def link_counts(self) -> dict[LinkId, int]:
        """Per-link active-flow counts (loaded links only, a copy)."""
        return {
            self._link_ids[index]: int(self._count[index])
            for index in np.flatnonzero(self._count > 0.0).tolist()
        }

    def capacities(self) -> dict[LinkId, float]:
        """The engine's live capacity map (a copy)."""
        return {
            self._link_ids[index]: float(self._cap[index])
            for index in np.flatnonzero(self._link_alive).tolist()
        }

    @property
    def kernel_active(self) -> bool:
        """Whether recomputes and event steps run compiled."""
        return self._kernels is not None

    @property
    def busy(self) -> np.ndarray:
        """Busy byte-seconds per link index, as charged by
        :meth:`settle` and :meth:`materialize` (the live array)."""
        return self._busy

    @property
    def n_classes(self) -> int:
        """Number of distinct route classes interned so far."""
        return self._n_classes

    @property
    def n_components(self) -> int:
        """Number of link components that carry route classes."""
        return self._n_components

    @property
    def tie_rank(self) -> np.ndarray:
        """Per-slot rank of the flow id (the live array: the owner
        writes it for the slots it admits, and :meth:`run_events` breaks
        eta ties on it)."""
        return self._tie_rank

    def can_run_events(self) -> bool:
        """Whether :meth:`run_events` may take over: the kernel runs, the
        next step needs no full pass and no dirty component waits."""
        return (
            self._kernels is not None
            and self._full is None
            and not self._dirty
        )

    def run_events(self, loop) -> str:
        """Run the compiled event loop (``alvc_run``) until it hands
        back; returns why (one of
        :data:`~repro.sim.ckernel.RUN_REASONS`).

        ``loop`` is a :class:`~repro.sim.ckernel.RunState` whose
        arrivals, event boundaries, next completion and buffers the
        caller set; the table's counters go in and come back here.  The
        caller owns the id map and payloads: the loop admitted arrivals
        into the slots from the old ``table.size`` up, in arrival order,
        and released the slots its ``done`` buffer lists.  Call only
        when :meth:`can_run_events` holds.

        Raises:
            SimulationError: on a water-filling invariant violation.
        """
        from repro.sim.ckernel import RUN_REASONS

        table = self._table
        loop.size = table.size
        loop.active = table.active_count
        loop.slot_room = table.remaining.shape[0]
        loop.compact_slack = table._compact_slack
        loop.compact_pending = table._compact_pending
        if self._step_address is None:
            self._bind_step()
        address = self._state_address
        if address is None:
            address = self._bind_kernel()
        code = self._kernels.run(address, ctypes.addressof(loop))
        if code < 0:
            raise _invariant_violation()
        table.size = loop.size
        table.active_count = loop.active
        table._compact_pending = bool(loop.compact_pending)
        return RUN_REASONS[code]

    def slots_crossing(self, links: Iterable[LinkId]) -> np.ndarray:
        """Live slots whose route crosses any of ``links``, ascending.

        Reads the link -> class transpose: the slots are those of the
        live classes listed under the links, not a scan of every slot's
        route.
        """
        segments = []
        for link in links:
            position = self._index.get(link)
            if position is not None and self._t_len[position]:
                start = self._t_start[position]
                segments.append(
                    self._t_classes[start : start + self._t_len[position]]
                )
        if not segments:
            return _EMPTY_I64
        classes = np.concatenate(segments)
        # Entry ``_n_classes`` stays False: dead slots hold class -1.
        crossing = np.zeros(self._n_classes + 1, dtype=bool)
        crossing[classes[self._m[classes] > 0]] = True
        return np.flatnonzero(crossing[self._class_of[: self._table.size]])

    def intern_routes(self, routes: Sequence) -> list[int]:
        """Each :class:`~repro.sim.admission.InternedRoute`'s class id,
        interned on first use (new routes in one :meth:`intern_pools`
        call) and cached on the route.

        Raises:
            RepeatedLinkError: when a new route repeats a link (nothing
                is interned then).
        """
        fresh = [route for route in routes if route.cid is None]
        if fresh:
            cids = self.intern_pools([route.indices for route in fresh])
            for route, cid in zip(fresh, cids):
                route.cid = cid
        return [route.cid for route in routes]

    def intern_pools(self, pools: Sequence[np.ndarray]) -> list[int]:
        """Intern link-index pools in order, returning their class ids.

        The call's new classes are written as one batch: their pools
        go into ``_cflat`` in one concatenation, their bounds and
        anchors as arrays, and their transpose entries in one stable
        sort by link (:meth:`_t_extend`).  Their components merge in
        one pass with one layout for the whole call, so interning a
        run's routes up front costs one relayout instead of one per
        merge.

        Raises:
            RepeatedLinkError: when a pool not interned yet repeats a
                link (nothing is interned then).
        """
        index = self._class_index
        keys = [pool.tobytes() for pool in pools]
        for key, pool in zip(keys, pools):
            if key not in index:
                links = pool.tolist()
                if len(set(links)) < len(links):
                    raise _repeated_link(links, self._link_ids)
        first = self._n_classes
        fresh = []
        cids = []
        for key, pool in zip(keys, pools):
            cid = index.get(key)
            if cid is None:
                cid = index[key] = first + len(fresh)
                fresh.append(pool)
            cids.append(cid)
        if fresh:
            self._register(fresh)
            self._union([pool.tolist() for pool in fresh if pool.shape[0]])
        return cids

    def _register(self, pools: list[np.ndarray]) -> None:
        """Register new classes, numbered from ``_n_classes`` in
        ``pools`` order: their pools, bounds, anchors and transpose
        entries.  Their links' components are the caller's to merge."""
        first = self._n_classes
        count = len(pools)
        needed = first + count + 1
        if needed > self._m.shape[0]:
            self._grow_classes(needed)
        lens = np.fromiter(
            (pool.shape[0] for pool in pools), dtype=np.int64, count=count
        )
        flat = np.concatenate(pools).astype(np.int64)
        total = flat.shape[0]
        start = self._flat_len
        if start + total > self._cflat.shape[0]:
            self._cflat = _grown(self._cflat, start + total)
            self._state_address = None
            self._step_address = None
        self._cflat[start : start + total] = flat
        cids = np.arange(first, first + count, dtype=np.int64)
        ends = np.cumsum(lens)
        self._cstart[first : first + count] = start + ends - lens
        self._clen[first : first + count] = lens
        self._flat_len = start + total
        self._n_classes = first + count
        hops = lens > 0
        self._class_rate[cids[~hops]] = np.inf
        anchors = np.full(count, -1, dtype=np.int64)
        anchors[hops] = flat[(ends - lens)[hops]]
        self._anchor.extend(anchors.tolist())
        if total:
            self._t_extend(flat, np.repeat(cids, lens))

    def _t_extend(self, links: np.ndarray, cids: np.ndarray) -> None:
        """Append the ``(link, class)`` pairs to the transpose, ascending
        class ids per link (``cids`` ascends and exceeds every class
        already listed).  A link whose segment must grow moves once, to
        the buffer's end, with its room doubled until the new entries
        fit."""
        order = np.argsort(links, kind="stable")
        links, cids = links[order], cids[order]
        touched, first, counts = np.unique(
            links, return_index=True, return_counts=True
        )
        lengths = self._t_len[touched]
        grown = lengths + counts > self._t_cap[touched]
        if grown.any():
            moved = touched[grown]
            need = (lengths + counts)[grown]
            room = np.maximum(self._t_cap[moved], 4)
            short = room < need
            while short.any():
                room[short] *= 2
                short = room < need
            end = self._t_used
            extra = int(room.sum())
            if end + extra > self._t_classes.shape[0]:
                self._t_classes = _grown(self._t_classes, end + extra)
                self._state_address = None
            starts = end + np.cumsum(room) - room
            kept = lengths[grown]
            total = int(kept.sum())
            if total:
                offsets = np.arange(total) - np.repeat(
                    np.cumsum(kept) - kept, kept
                )
                self._t_classes[np.repeat(starts, kept) + offsets] = (
                    self._t_classes[
                        np.repeat(self._t_start[moved], kept) + offsets
                    ]
                )
            self._t_start[moved] = starts
            self._t_cap[moved] = room
            self._t_used = end + extra
        # Entry i of a link's run goes after the link's old entries.
        position = np.arange(links.shape[0]) - np.repeat(first, counts)
        self._t_classes[
            np.repeat(self._t_start[touched] + lengths, counts) + position
        ] = cids
        self._t_len[touched] = lengths + counts

    def _union(self, groups: list[list[int]]) -> None:
        """Merge, group by group, the components of each group's links
        into one class-carrying component (quick-find, smaller
        components relabeled into the largest), keeping the component
        count and merge counter current; one relayout follows."""
        label, seg_start = self._label, self._seg_start
        # Roots this call touched -> [their links, carries a class]
        # (the layout still describes every untouched root).
        touched: dict[int, list] = {}
        merges = 0
        changed = False
        for links in groups:
            roots = set(label[links].tolist())
            parts = {}
            for root in roots:
                part = touched.get(root)
                if part is None:
                    part = touched[root] = [
                        self._links_of(root), bool(seg_start[root] >= 0)
                    ]
                parts[root] = part
            carrying = sum(1 for part in parts.values() if part[1])
            if len(roots) == 1 and carrying:
                continue
            keeper = max(roots, key=lambda root: (len(parts[root][0]), -root))
            kept = parts[keeper]
            for root, (component, _) in parts.items():
                if root != keeper:
                    del touched[root]
                    label[component] = keeper
                    kept[0].extend(component)
            kept[1] = True
            self._n_components += 1 - carrying
            merges += max(carrying - 1, 0)
            changed = True
        if not changed:
            return
        # Roots merged away keep their mark, but no link points at them.
        carrying_roots = seg_start >= 0
        carrying_roots[[root for root, part in touched.items() if part[1]]] = 1
        self._relayout(carrying_roots)
        self._components_gauge.set(self._n_components)
        if merges:
            self._merges_counter.inc(merges)

    def _links_of(self, root: int) -> list[int]:
        start = self._seg_start[root]
        if start < 0:
            return [root]
        return self._layout[start : self._seg_end[root]].tolist()

    def _rank_order(self) -> np.ndarray:
        """Link indices in lexicographic ``sorted(link)`` order — the
        reference's tie-break order, cached until a link is added."""
        if self._rank is None or self._rank.shape[0] != len(self._link_ids):
            # Sort keys are built here, not per link up front: a run
            # that never water-fills (faults only, no flows) skips them.
            link_ids = self._link_ids
            self._rank = np.array(
                sorted(
                    range(len(link_ids)),
                    key=lambda index: tuple(sorted(link_ids[index])),
                ),
                dtype=np.int64,
            )
        return self._rank

    def _relayout(self, carrying: np.ndarray) -> None:
        """Lay the class-carrying components (``carrying`` marks their
        roots) out contiguously, in rank order within a component (a
        stable sort of the rank order by root)."""
        rank = self._rank_order()
        labels = self._label[rank]
        keep = carrying[labels]
        rank, labels = rank[keep], labels[keep]
        order = np.argsort(labels, kind="stable")
        self._layout = rank[order]
        self._state_address = None
        labels = labels[order]
        starts = np.flatnonzero(
            np.concatenate(([True], labels[1:] != labels[:-1]))
        )
        roots = labels[starts]
        self._seg_start.fill(-1)
        self._seg_end.fill(-1)
        self._seg_start[roots] = starts
        self._seg_end[roots] = np.append(starts[1:], labels.shape[0])

    def _sync_links(self) -> None:
        """Size the per-link arrays to the link registry; new links
        start as singleton components (their rank among the others does
        not reorder any laid-out component)."""
        n_links = len(self._link_ids)
        known = len(self._label)
        if known == n_links:
            return
        extra = n_links - known
        self._label = np.concatenate(
            (self._label, np.arange(known, n_links, dtype=np.int64))
        )
        unlaid = np.full(extra, -1, dtype=np.int64)
        self._seg_start = np.concatenate((self._seg_start, unlaid))
        self._seg_end = np.concatenate((self._seg_end, unlaid))
        self._listed_at = np.append(self._listed_at, np.zeros(extra, np.int64))
        self._dirty_roots = np.zeros(n_links, dtype=np.int64)
        self._t_start = np.append(self._t_start, np.zeros(extra, np.int64))
        self._t_len = np.append(self._t_len, np.zeros(extra, np.int64))
        self._t_cap = np.append(self._t_cap, np.zeros(extra, np.int64))
        self._remaining = np.zeros(n_links)
        self._load = np.zeros(n_links)
        self._work = np.zeros(n_links, dtype=np.int64)
        busy = np.zeros(n_links)
        busy[:known] = self._busy
        self._busy = busy
        if self._state is not None:
            self._dirty_links = (ctypes.c_int64 * n_links)()
        self._state_address = None
        self._step_address = None

    def _grow_classes(self, needed: int) -> None:
        for name in (
            "_m", "_frozen", "_class_rate", "_cstart", "_clen", "_changed",
            "_listed",
        ):
            setattr(self, name, _grown(getattr(self, name), needed))
        self._head = _grown(self._head, needed, fill=-1)
        self._state_address = None
        self._step_address = None
        self._require_full("grown")

    def _size_step_slots(self) -> None:
        """(Re)allocate the event step's per-slot and per-block arrays
        for the current class map; their contents are rebuilt by the
        next settle's full pass."""
        n = self._class_of.shape[0]
        blocks = n // 64 + 1
        self._next = np.full(n, -1, dtype=np.int64)
        self._touched = np.zeros(blocks, dtype=np.uint64)
        self._block_eta = np.full(blocks, np.inf)
        self._block_slot = np.full(blocks, -1, dtype=np.int64)
        self._block_ties = np.zeros(blocks, dtype=np.int64)

    def _bind_kernel(self) -> int:
        """Point the kernel state at the current arrays."""
        state = self._state
        for field, array in (
            ("cap", self._cap),
            ("count", self._count),
            ("remaining", self._remaining),
            ("load", self._load),
            ("work", self._work),
            ("m", self._m),
            ("frozen", self._frozen),
            ("class_rate", self._class_rate),
            ("cstart", self._cstart),
            ("clen", self._clen),
            ("cflat", self._cflat),
            ("t_classes", self._t_classes),
            ("t_start", self._t_start),
            ("t_len", self._t_len),
            ("layout", self._layout),
            ("label", self._label),
            ("seg_start", self._seg_start),
            ("seg_end", self._seg_end),
            ("listed_at", self._listed_at),
            ("dirty", self._dirty_roots),
        ):
            setattr(state, field, array.ctypes.data)
        state.step = ctypes.addressof(self._step)
        self._state_address = ctypes.addressof(state)
        return self._state_address

    def _bind_step(self) -> int:
        """Point the event step's state at the current arrays."""
        step, table = self._step, self._table
        for field, array in (
            ("remaining", table.remaining),
            ("rate", table.rate),
            ("eta", table.eta),
            ("last_update", table.last_update),
            ("alive", table.alive),
            ("busy", self._busy),
            ("class_of", self._class_of),
            ("class_rate", self._class_rate),
            ("next_in_class", self._next),
            ("class_head", self._head),
            ("changed", self._changed),
            ("listed", self._listed),
            ("touched", self._touched),
            ("block_eta", self._block_eta),
            ("block_slot", self._block_slot),
            ("block_ties", self._block_ties),
            ("tie_rank", self._tie_rank),
            ("count", self._count),
            ("m", self._m),
            ("cstart", self._cstart),
            ("clen", self._clen),
            ("cflat", self._cflat),
            ("link_alive", self._link_alive),
        ):
            setattr(step, field, array.ctypes.data)
        self._step_address = ctypes.addressof(step)
        return self._step_address

    def _on_table_grow(self) -> None:
        """The table reallocated its slot arrays: rebind the event step,
        and size the per-slot arrays to the table."""
        self._step_address = None
        n = self._table.remaining.shape[0]
        if n > self._class_of.shape[0]:
            self._class_of = _grown(self._class_of, n, fill=-1)
            self._tie_rank = _grown(self._tie_rank, n)
            self._size_step_slots()
            self._require_full("grown")

    def _require_full(self, reason: str) -> None:
        """Make the next settle visit every slot (the first reason
        since the last settle is the one counted)."""
        if self._full is None:
            self._full = reason

    def _mark(self, cid: int) -> None:
        anchor = self._anchor[cid]
        if anchor >= 0:
            self._dirty.add(anchor)

    def _renumber_classes(self, live: np.ndarray) -> None:
        n = live.shape[0]
        self._class_of[:n] = self._class_of[live]
        self._class_of[n:] = -1
        self._tie_rank[:n] = self._tie_rank[live]
        # Slot numbers moved: the full pass sets every bit it needs.
        self._touched[:] = 0
        self._require_full("compacted")

    # ------------------------------------------------------------------
    # Incremental updates
    # ------------------------------------------------------------------
    def add_flow(self, flow: Hashable, links: Iterable[LinkId]) -> int:
        """Track a new flow over ``links``; returns its table slot.  The
        one-flow spelling of :meth:`add_interned`: the flow starts with
        no bytes left, stamped 0.

        Raises:
            SimulationError: when the flow is already tracked or uses a
                link without a capacity entry.
            RepeatedLinkError: when its route crosses a link twice
                (nothing is reserved, interned or counted then).
        """
        pool = np.asarray(self._link_indices(flow, links), dtype=np.int32)
        cid = self.intern_pools((pool,))[0]
        return int(self._admit((flow,), (cid,), (0.0,), 0.0)[0])

    def _link_indices(
        self, flow: Hashable, links: Iterable[LinkId]
    ) -> list[int]:
        """The indices of ``links``, for a flow not yet tracked.

        Raises:
            SimulationError: when the flow is already tracked or a link
                has no capacity entry or was removed.
        """
        if flow in self._table.slot_of:
            raise SimulationError(f"flow {flow!r} is already active")
        index = self._index
        alive = self._link_alive
        indices = []
        for link in links:
            position = index.get(link)
            if position is None or not alive[position]:
                raise _unknown_link(flow, link)
            indices.append(position)
        return indices

    def add_interned(
        self,
        flows: Sequence,
        routes: Sequence,
        sizes: Sequence[float],
        now: float,
    ) -> np.ndarray:
        """Bulk-admit flows over pre-interned routes.

        ``routes[i]`` is flow ``i``'s
        :class:`~repro.sim.admission.InternedRoute`; its class id is
        interned once and cached on the route, and the flow's slot
        reads its links through that class (no per-link python loop).
        Flow ``i`` starts with ``sizes[i]`` bytes left, stamped ``now``.
        Returns the allocated slots in ``flows`` order.

        Raises:
            SimulationError: when a flow is already active or appears
                twice in ``flows``, or a route crosses a link the engine
                does not know or has removed (nothing is admitted then).
            RepeatedLinkError: when a route crosses a link twice
                (nothing is reserved, interned or counted then).
        """
        if not flows:
            return _EMPTY_I64
        return self._admit(flows, self.intern_routes(routes), sizes, now)

    def _admit(
        self,
        flows: Sequence,
        cids: Sequence[int],
        sizes: Sequence[float],
        now: float,
    ) -> np.ndarray:
        """Admit ``flows`` over the classes ``cids``: reserve their
        slots, write them (one ``alvc_admit`` call, or its mirror) and
        commit them.  Returns the slots, consecutive and in ``flows``
        order.

        Raises:
            SimulationError: when a flow is already active or appears
                twice in ``flows``, or a class crosses a removed link
                (nothing is committed then).
        """
        table = self._table
        n = len(flows)
        first = table.reserve(flows)
        if self._kernels is None:
            flat, _ = self._class_links(cids)
            if not self._link_alive[flat].all():
                raise self._dead_route(flows, cids)
            end = first + n
            table.remaining[first:end] = sizes
            table.rate[first:end] = 0.0
            table.eta[first:end] = np.inf
            table.last_update[first:end] = now
            table.alive[first:end] = True
            np.add.at(self._count, flat, 1.0)
            self._class_of[first:end] = cids
            np.add.at(self._m, cids, 1)
        else:
            if n > len(self._admit_cids):
                self._grow_admit(n)
            self._admit_cids[:n] = cids
            self._admit_sizes[:n] = sizes
            address = self._step_address
            if address is None:
                address = self._bind_step()
            if self._kernels.admit(
                address,
                self._admit_addresses[0],
                self._admit_addresses[1],
                n,
                first,
                now,
            ) < 0:
                raise self._dead_route(flows, cids)
        table.commit(flows)
        for cid in set(cids):
            self._mark(cid)
        return np.arange(first, first + n, dtype=np.int64)

    def _grow_admit(self, n: int) -> None:
        room = max(16, 2 * n)
        self._admit_cids = (ctypes.c_int64 * room)()
        self._admit_sizes = (ctypes.c_double * room)()
        self._admit_addresses = (
            ctypes.addressof(self._admit_cids),
            ctypes.addressof(self._admit_sizes),
        )

    def _class_links(self, cids) -> tuple[np.ndarray, np.ndarray]:
        """The link pools of the classes ``cids``, concatenated in
        ``cids`` order (path order within a class), and their lengths."""
        lens = self._clen[cids]
        ends = np.cumsum(lens)
        total = int(ends[-1]) if ends.shape[0] else 0
        starts = self._cstart[cids] - (ends - lens)
        return self._cflat[np.repeat(starts, lens) + np.arange(total)], lens

    def _dead_route(
        self, flows: Sequence, cids: Sequence[int]
    ) -> SimulationError:
        """The error for the first flow whose class crosses a removed
        link."""
        for flow, cid in zip(flows, cids):
            links, _ = self._class_links([cid])
            dead = np.flatnonzero(~self._link_alive[links])
            if dead.shape[0]:
                return _unknown_link(flow, self._link_ids[int(links[dead[0]])])
        raise AssertionError("every route is alive")

    def remove_flow(self, flow: Hashable) -> int:
        """Stop tracking a flow; returns the slot it held.

        Raises:
            SimulationError: when the flow is not tracked.
        """
        table = self._table
        if self._kernels is None:
            slot = table.remove(flow)
            cid = int(self._class_of[slot])
            links, _ = self._class_links([cid])
            np.subtract.at(self._count, links, 1.0)
            # The next step visits the slot (see ``alvc_settle``).
            self._touched[slot >> 6] |= np.uint64(1 << (slot & 63))
            self._class_of[slot] = -1
            self._m[cid] -= 1
        else:
            slot = table.release(flow)
            address = self._step_address
            if address is None:
                address = self._bind_step()
            cid = self._kernels.release(address, slot)
        self._mark(cid)
        return slot

    def remove_link(self, link: LinkId) -> None:
        """Deactivate a link (e.g. after a node failure).

        The index is retained so a later repair restores it in place.

        Raises:
            SimulationError: when active flows still cross the link.
        """
        position = self._index.get(link)
        if position is None:
            return
        crossing = int(self._count[position])
        if crossing:
            raise SimulationError(
                f"cannot remove link {sorted(link)}: "
                f"{crossing} active flows still cross it"
            )
        self._link_alive[position] = False
        self._dirty.add(position)

    def set_capacity(self, link: LinkId, capacity: float) -> None:
        """Set (or restore) a link's capacity — the revocation hook.

        Unknown links are appended to the registry, and every per-link
        array grows with it.

        Raises:
            SimulationError: on a non-positive capacity.
        """
        if capacity <= 0:
            raise SimulationError(
                f"link {sorted(link)} capacity must be positive, "
                f"got {capacity}"
            )
        position = self._index.get(link)
        if position is None:
            position = len(self._link_ids)
            self._link_ids.append(link)
            self._index[link] = position
            self._cap = np.append(self._cap, capacity)
            self._link_alive = np.append(self._link_alive, True)
            self._count = np.append(self._count, 0.0)
            self._rank = None
            self._sync_links()
        else:
            self._cap[position] = capacity
            self._link_alive[position] = True
        self._dirty.add(position)

    # ------------------------------------------------------------------
    # Water-filling and the event step
    # ------------------------------------------------------------------
    def recompute(self) -> np.ndarray:
        """Max-min fair rate per table slot — bit-identical to
        :func:`repro.sim.fairshare.max_min_fair_rates` on the same flows
        and capacities (see the class docstring)."""
        rounds = self._relevel() if self._dirty else 0
        self._rounds_histogram.observe(float(rounds))
        return self._class_rate[self._class_of[: self._table.size]]

    def rates_by_flow(self) -> dict[Hashable, float]:
        """Recompute and return ``flow id -> rate`` (parity spelling)."""
        rates = self.recompute()
        return {
            flow: float(rates[slot])
            for flow, slot in self._table.slot_of.items()
        }

    def settle(self, now: float) -> tuple[float, int, int]:
        """One event step: recompute, adopt the new rates and find the
        next completion.

        Every live slot whose rate changed is charged its progress and
        link busy time at the old rate since its last rate change, then
        adopts the new rate and gets a fresh eta, in ascending slot
        (= activation) order.  Returns ``(eta, slot, ties)``: the
        earliest eta in the table, the first slot reaching it and how
        many slots tie at it, or ``(inf, -1, 0)`` when no flow is due to
        complete.  The compiled ``alvc_settle`` visits only the slots
        added or removed since the last step and those of the classes
        whose rate moved; :meth:`_settle_numpy` scans the whole table,
        and the two are bitwise-equal.
        """
        rounds = self._relevel() if self._dirty else 0
        self._rounds_histogram.observe(float(rounds))
        return self._adopt(now)

    def _adopt(self, now: float) -> tuple[float, int, int]:
        """:meth:`settle` after the recompute: adopt the class rates.

        Rates, etas or class rates written behind the engine's back
        must be declared with :meth:`_require_full` first.
        """
        size = self._table.size
        if size == 0:
            return _NO_COMPLETION
        full = self._full
        self._full = None
        if full is not None:
            self._full_counters[full].inc()
        if self._kernels is None:
            return self._settle_numpy(now)
        address = self._step_address
        if address is None:
            address = self._bind_step()
        step = self._step
        if full is not None:
            step.n_classes = self._n_classes
        self._kernels.settle(address, size, now, full is not None)
        return step.next_eta, step.next_slot, step.ties

    def materialize(self, slots: Sequence[int], now: float) -> None:
        """Charge ``slots`` (ascending ints) their progress and link busy
        time since their last rate change, and stamp them ``now``.

        Raises:
            SimulationError: on a slot outside the table.
        """
        size = self._table.size
        for slot in slots:
            if not 0 <= slot < size:
                raise SimulationError(f"slot {slot} is outside the table")
        if self._kernels is None:
            self._materialize_numpy(np.asarray(slots, dtype=np.int64), now)
            return
        address = self._step_address
        if address is None:
            address = self._bind_step()
        charge = self._kernels.materialize
        for slot in slots:
            charge(address, slot, now)

    def _settle_numpy(self, now: float) -> tuple[float, int, int]:
        """Numpy mirror of ``alvc_settle``, bitwise-equal to it."""
        table = self._table
        size = table.size
        rates = self._class_rate[self._class_of[:size]]
        changed = table.alive[:size] & (rates != table.rate[:size])
        selected = np.flatnonzero(changed)
        if selected.shape[0]:
            self._materialize_numpy(selected, now)
            new_rates = rates[selected]
            table.rate[selected] = new_rates
            remaining = table.remaining[selected]
            eta = np.full(selected.shape[0], np.inf)
            positive = (new_rates > 0.0) & np.isfinite(new_rates)
            eta[positive] = now + remaining[positive] / new_rates[positive]
            # Mirrors remaining / inf == 0.0: completes "now".
            eta[np.isinf(new_rates)] = now
            table.eta[selected] = eta
        eta = table.eta[:size]
        slot = int(np.argmin(eta))
        best = float(eta[slot])
        if best == np.inf:
            return _NO_COMPLETION
        return best, slot, int(np.count_nonzero(eta == best))

    def _materialize_numpy(self, slots: np.ndarray, now: float) -> None:
        """Numpy mirror of ``alvc_materialize`` over ascending ``slots``
        (one ``np.add.at`` replays the kernel's per-slot busy adds)."""
        table = self._table
        elapsed = now - table.last_update[slots]
        rate = table.rate[slots]
        moving = (elapsed > 0.0) & (rate > 0.0) & (rate < np.inf)
        movers = slots[moving]
        if movers.shape[0]:
            moved = table.rate[movers] * (now - table.last_update[movers])
            remaining = table.remaining[movers]
            moved = np.minimum(moved, remaining)
            table.remaining[movers] = remaining - moved
            carrying = moved > 0.0
            carriers = movers[carrying]
            if carriers.shape[0]:
                flat, lens = self._class_links(self._class_of[carriers])
                np.add.at(self._busy, flat, np.repeat(moved[carrying], lens))
        table.last_update[slots] = now

    def _relevel(self) -> int:
        """Water-fill the components of the dirty links; returns rounds
        executed."""
        dirty = self._dirty
        if self._kernels is None:
            links = np.fromiter(dirty, np.int64, len(dirty))
            dirty.clear()
            roots = np.unique(self._label[links])
            starts = self._seg_start[roots]
            carrying = starts >= 0
            if not carrying.any():
                return 0
            self._epoch += 1
            return self._waterfill_numpy(
                zip(
                    starts[carrying].tolist(),
                    self._seg_end[roots[carrying]].tolist(),
                )
            )
        n = len(dirty)
        self._dirty_links[:n] = list(dirty)
        dirty.clear()
        if self._step_address is None:
            # The kernel lists the classes it moves in the step state.
            self._bind_step()
        address = self._state_address
        if address is None:
            address = self._bind_kernel()
        rounds = self._kernels.relevel(
            address, ctypes.addressof(self._dirty_links), n
        )
        if rounds < 0:
            raise _invariant_violation()
        return rounds

    def _waterfill_numpy(self, components: Iterable[tuple[int, int]]) -> int:
        """Numpy mirror of the compiled kernel, bitwise-equal to it.

        Same components (``[first, last)`` layout segments), same
        full-link-space scratch arrays, same epoch-stamped freezing; a
        member class's incidences are its pool repeated per flow, so
        the ``np.subtract.at`` calls replay the kernel's sequential
        equal-share subtractions.
        """
        cap, count = self._cap, self._count
        remaining, load = self._remaining, self._load
        m, frozen, class_rate = self._m, self._frozen, self._class_rate
        t_classes = self._t_classes
        t_start, t_len = self._t_start, self._t_len
        epoch = self._epoch
        rounds = 0
        for first, last in components:
            component = self._layout[first:last]
            work = component[count[component] > 0.0]
            remaining[work] = cap[work]
            load[work] = count[work]
            while work.shape[0]:
                rounds += 1
                ratio = remaining[work] / load[work]
                pick = int(np.argmin(ratio))
                share = ratio[pick]
                bottleneck = int(work[pick])
                start = t_start[bottleneck]
                segment = t_classes[start : start + t_len[bottleneck]]
                live = (m[segment] > 0) & (frozen[segment] != epoch)
                members = segment[live]
                if members.shape[0] == 0:
                    raise _invariant_violation()
                class_rate[members] = share
                frozen[members] = epoch
                flat, counts = self._class_links(members)
                per_link = np.repeat(m[members], counts)
                np.subtract.at(remaining, np.repeat(flat, per_link), share)
                np.subtract.at(load, flat, per_link.astype(np.float64))
                work = work[load[work] > 0.0]
                remaining[work] = np.maximum(remaining[work], 0.0)
        return rounds


#: The tracer of ``benchmarks/e2e/trace.py`` is this name's only reader:
#: its ``sim.vector`` layer still names it.  ROADMAP item 3's tracer
#: update deletes it.
VectorFairShareEngine = BatchedFairShareEngine


def _unknown_link(flow: Hashable, link: LinkId) -> SimulationError:
    return SimulationError(f"flow {flow!r} uses unknown link {sorted(link)}")


def _repeated_link(links: list[int], link_ids: list) -> RepeatedLinkError:
    """The error for the first link index that ``links`` repeats."""
    seen: set[int] = set()
    for link in links:
        if link in seen:
            break
        seen.add(link)
    return RepeatedLinkError(
        f"route crosses link {sorted(link_ids[link])} more than once"
    )


def _invariant_violation() -> SimulationError:
    return SimulationError(
        "water-filling invariant violated: loaded bottleneck without "
        "unfrozen members"
    )


def _grown(array: np.ndarray, needed: int, fill: int = 0) -> np.ndarray:
    """A ``fill``-padded copy of ``array`` with room for ``needed``
    items."""
    n = max(array.shape[0], 1)
    while n < needed:
        n *= 2
    grown = np.full(n, fill, dtype=array.dtype)
    grown[: array.shape[0]] = array
    return grown

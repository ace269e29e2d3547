"""Max-min fair bandwidth allocation over shared links.

The event-driven simulator needs, at every arrival/completion event, the
rate of each active flow when link capacities are shared max-min fairly —
the standard flow-level model of TCP-like sharing.  The classic
water-filling algorithm: repeatedly find the most contended link, freeze
its flows at the link's equal share, remove the frozen capacity, repeat.

Two implementations live here:

* :func:`max_min_fair_rates` — the from-scratch reference.  Every call
  rebuilds the per-link ``load`` dict from the full flow set on *every*
  water-filling round, which is what makes per-event recomputation
  quadratic-ish in the number of concurrent flows.
* :class:`FairShareEngine` — the incremental engine the simulator's hot
  path uses.  Per-link flow counts and memberships are maintained as
  flows arrive and complete, so a recompute touches each flow-link
  incidence once and each loaded link once per round.  It produces
  **bit-for-bit** the same rates as the reference (same subtraction
  order, same tie-breaking), which the parity tests assert on
  randomized instances.

:func:`check_max_min_fair` is the engine-independent oracle: it
certifies an allocation against the definition of max-min fairness
without water-filling, so it also catches a bug all engines share.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, Mapping, Sequence

from repro.exceptions import SimulationError

LinkId = frozenset  # unordered node pair

#: Histogram buckets for water-filling rounds per recompute.
ROUNDS_BUCKETS: tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
)


def link_of(a: str, b: str) -> LinkId:
    """Canonical link key for an undirected hop."""
    return frozenset((a, b))


def links_on_path(path: Sequence[str]) -> list[LinkId]:
    """The links a node path traverses (empty for single-node paths)."""
    return [link_of(a, b) for a, b in zip(path, path[1:])]


def max_min_fair_rates(
    flow_links: Mapping[Hashable, Sequence[LinkId]],
    capacities: Mapping[LinkId, float],
) -> dict[Hashable, float]:
    """Max-min fair rate for every flow.

    Args:
        flow_links: flow id → links its path uses.  Flows with no links
            (co-located endpoints) get infinite rate, reported as
            ``float("inf")``.
        capacities: link → capacity (any consistent unit; rates come out
            in the same unit).

    Returns:
        flow id → allocated rate.

    Raises:
        SimulationError: when a flow uses a link without a capacity
            entry, or a capacity is non-positive.
    """
    for link, capacity in capacities.items():
        if capacity <= 0:
            raise SimulationError(
                f"link {sorted(link)} has non-positive capacity {capacity}"
            )

    rates: dict[Hashable, float] = {}
    unfrozen: dict[Hashable, list[LinkId]] = {}
    for flow, links in flow_links.items():
        if not links:
            rates[flow] = float("inf")
            continue
        for link in links:
            if link not in capacities:
                raise SimulationError(
                    f"flow {flow!r} uses unknown link {sorted(link)}"
                )
        unfrozen[flow] = list(links)

    remaining = dict(capacities)
    while unfrozen:
        # Count unfrozen flows per link.
        load: dict[LinkId, int] = {}
        for links in unfrozen.values():
            for link in links:
                load[link] = load.get(link, 0) + 1
        # The bottleneck link offers the smallest equal share.
        bottleneck = min(
            (link for link in load),
            key=lambda link: (remaining[link] / load[link], sorted(link)),
        )
        share = remaining[bottleneck] / load[bottleneck]
        # Freeze every flow crossing the bottleneck at that share.
        frozen = [
            flow
            for flow, links in unfrozen.items()
            if bottleneck in links
        ]
        for flow in frozen:
            rates[flow] = share
            for link in unfrozen[flow]:
                remaining[link] = max(remaining[link] - share, 0.0)
            del unfrozen[flow]
    return rates


#: Rounding allowance of :func:`check_max_min_fair`, relative to each
#: link's capacity.  Fixed, so no caller can loosen the certificate.
_CERT_REL_TOL = 1e-9


def check_max_min_fair(
    rates: Mapping[Hashable, float],
    flow_links: Mapping[Hashable, Sequence[LinkId]],
    capacities: Mapping[LinkId, float],
) -> None:
    """Certify that ``rates`` is the max-min fair allocation.

    Checks the textbook definition (Bertsekas & Gallager, *Data
    Networks* §6.5) directly, with no water-filling of its own, so it
    catches a bug that every engine shares:

    * feasibility — no link carries more than its capacity (a flow
      crossing a link twice uses it twice);
    * bottlenecks — every finite-rate flow crosses a saturated link on
      which no flow has a higher rate.

    Flows without links must have infinite rate and flows with links a
    finite one.  Comparisons allow :data:`_CERT_REL_TOL` times the
    link's capacity for floating-point rounding.

    Raises:
        SimulationError: naming the first flow or link that violates
            the definition.
    """
    if set(rates) != set(flow_links):
        raise SimulationError("rates and flow_links name different flows")
    used: dict[LinkId, float] = {}
    top: dict[LinkId, float] = {}
    for flow, links in flow_links.items():
        rate = rates[flow]
        if not links:
            if rate != math.inf:
                raise SimulationError(
                    f"flow {flow!r} has no links but rate {rate!r}"
                )
            continue
        if not 0.0 <= rate < math.inf:
            raise SimulationError(f"flow {flow!r} has rate {rate!r}")
        for link in links:
            if link not in capacities:
                raise SimulationError(
                    f"flow {flow!r} uses unknown link {sorted(link)}"
                )
            used[link] = used.get(link, 0.0) + rate
            top[link] = max(top.get(link, 0.0), rate)
    for link, load in used.items():
        if load > capacities[link] * (1.0 + _CERT_REL_TOL):
            raise SimulationError(
                f"link {sorted(link)} carries {load!r} over capacity "
                f"{capacities[link]!r}"
            )
    for flow, links in flow_links.items():
        rate = rates[flow]
        if not links:
            continue
        if not any(
            used[link] >= capacities[link] * (1.0 - _CERT_REL_TOL)
            and rate >= top[link] - capacities[link] * _CERT_REL_TOL
            for link in links
        ):
            raise SimulationError(
                f"flow {flow!r} at rate {rate!r} has no bottleneck: no "
                "saturated link on its path where it has the highest rate"
            )


class FairShareEngine:
    """Incremental max-min water-filling over a fixed set of links.

    The engine is fed arrivals (:meth:`add_flow`) and completions
    (:meth:`remove_flow`) and keeps three structures up to date
    incrementally:

    * ``link counts`` — number of active flows crossing each link;
    * ``link members`` — the active flows on each link, in activation
      order (an insertion-ordered dict used as an ordered set);
    * ``flow links`` — each active flow's path links.

    :meth:`recompute` then water-fills starting from the maintained
    counts instead of rebuilding a ``load`` dict from the full flow set
    on every round, and freezes bottlenecked flows by direct membership
    lookup instead of scanning every unfrozen flow.  The arithmetic
    (subtraction order, tie-breaking on ``sorted(link)``, clamping at
    zero) replicates :func:`max_min_fair_rates` exactly, so the two
    implementations agree bit-for-bit.

    Telemetry: each recompute observes the number of water-filling
    rounds in the ``alvc_fairshare_rounds`` histogram (no-op when
    telemetry is disabled).
    """

    __slots__ = (
        "_capacities",
        "_flow_links",
        "_counts",
        "_members",
        "_sort_keys",
        "_rounds_histogram",
    )

    def __init__(
        self,
        capacities: Mapping[LinkId, float],
        *,
        telemetry=None,
    ) -> None:
        """Create an engine over a capacity map (validated up front).

        Args:
            capacities: link → capacity; every capacity must be positive
                (checked once here instead of on every recompute).
            telemetry: metrics sink; ambient default when omitted.

        Raises:
            SimulationError: on a non-positive capacity.
        """
        for link, capacity in capacities.items():
            if capacity <= 0:
                raise SimulationError(
                    f"link {sorted(link)} has non-positive capacity {capacity}"
                )
        from repro.observability.runtime import current_telemetry

        sink = telemetry if telemetry is not None else current_telemetry()
        self._capacities: dict[LinkId, float] = dict(capacities)
        self._flow_links: dict[Hashable, tuple[LinkId, ...]] = {}
        self._counts: dict[LinkId, int] = {}
        self._members: dict[LinkId, dict[Hashable, None]] = {}
        self._sort_keys: dict[LinkId, tuple] = {}
        self._rounds_histogram = sink.histogram(
            "alvc_fairshare_rounds",
            "water-filling rounds per fair-share recompute",
            ROUNDS_BUCKETS,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def active_flows(self) -> int:
        """Number of flows currently tracked."""
        return len(self._flow_links)

    @property
    def loaded_links(self) -> int:
        """Number of links with at least one active flow."""
        return len(self._counts)

    def link_counts(self) -> dict[LinkId, int]:
        """Per-link active-flow counts (a copy)."""
        return dict(self._counts)

    def capacities(self) -> dict[LinkId, float]:
        """The engine's capacity map (a copy)."""
        return dict(self._capacities)

    # ------------------------------------------------------------------
    # Incremental updates
    # ------------------------------------------------------------------
    def add_flow(self, flow: Hashable, links: Iterable[LinkId]) -> None:
        """Track a new flow over ``links`` (empty for co-located pairs).

        Raises:
            SimulationError: when the flow is already tracked or uses a
                link without a capacity entry.
        """
        if flow in self._flow_links:
            raise SimulationError(f"flow {flow!r} is already active")
        path = tuple(links)
        capacities = self._capacities
        for link in path:
            if link not in capacities:
                raise SimulationError(
                    f"flow {flow!r} uses unknown link {sorted(link)}"
                )
        self._flow_links[flow] = path
        counts = self._counts
        members = self._members
        sort_keys = self._sort_keys
        for link in path:
            count = counts.get(link)
            if count is None:
                counts[link] = 1
                members[link] = {flow: None}
                if link not in sort_keys:
                    sort_keys[link] = tuple(sorted(link))
            else:
                counts[link] = count + 1
                members[link][flow] = None

    def remove_flow(self, flow: Hashable) -> None:
        """Stop tracking a flow (arrived earlier via :meth:`add_flow`).

        Raises:
            SimulationError: when the flow is not tracked.
        """
        try:
            path = self._flow_links.pop(flow)
        except KeyError:
            raise SimulationError(f"flow {flow!r} is not active") from None
        counts = self._counts
        members = self._members
        for link in path:
            count = counts[link] - 1
            if count:
                counts[link] = count
                del members[link][flow]
            else:
                del counts[link]
                del members[link]

    def remove_link(self, link: LinkId) -> None:
        """Drop a link from the capacity map (e.g. after a node failure).

        Flows crossing the link must be removed (or rerouted) first.

        Raises:
            SimulationError: when active flows still cross the link.
        """
        if link in self._counts:
            raise SimulationError(
                f"cannot remove link {sorted(link)}: "
                f"{self._counts[link]} active flows still cross it"
            )
        self._capacities.pop(link, None)

    def set_capacity(self, link: LinkId, capacity: float) -> None:
        """Set (or restore) a link's capacity — the revocation hook.

        Used by fault events: a *degrade* shrinks a trunk that lost a
        parallel member while flows keep crossing it (their rates adapt
        on the next :meth:`recompute`); a *repair* re-adds a link that
        :meth:`remove_link` dropped earlier.

        Raises:
            SimulationError: on a non-positive capacity.
        """
        if capacity <= 0:
            raise SimulationError(
                f"link {sorted(link)} capacity must be positive, "
                f"got {capacity}"
            )
        self._capacities[link] = capacity

    # ------------------------------------------------------------------
    # Water-filling
    # ------------------------------------------------------------------
    def recompute(self) -> dict[Hashable, float]:
        """Max-min fair rate for every tracked flow.

        Bit-for-bit identical to calling :func:`max_min_fair_rates` with
        the current flow→links mapping and capacity map.
        """
        rates: dict[Hashable, float] = {}
        flow_links = self._flow_links
        infinity = float("inf")
        for flow, path in flow_links.items():
            if not path:
                rates[flow] = infinity
        counts = self._counts
        if not counts:
            self._rounds_histogram.observe(0.0)
            return rates
        # Seed the round state from the maintained counts: one dict copy
        # instead of one full rebuild per round.
        load = dict(counts)
        capacities = self._capacities
        remaining = {link: capacities[link] for link in load}
        sort_keys = self._sort_keys
        members = self._members
        rounds = 0
        while load:
            rounds += 1
            # Single-pass bottleneck selection.  Equivalent to
            # ``min(load, key=lambda l: (remaining[l]/load[l],
            # sort_keys[l]))`` but without building a tuple per link:
            # strict-ratio wins take the branch, exact ties fall back to
            # the sort-key comparison — the same lexicographic order the
            # tuple comparison would use.
            bottleneck = None
            share = infinity
            for link, count in load.items():
                ratio = remaining[link] / count
                if bottleneck is None or ratio < share:
                    share = ratio
                    bottleneck = link
                elif ratio == share and (
                    sort_keys[link] < sort_keys[bottleneck]
                ):
                    bottleneck = link
            # Freeze the bottleneck's unfrozen members directly — the
            # member dict preserves activation order, which matches the
            # reference's iteration over the unfrozen-flow dict.
            for flow in members[bottleneck]:
                if flow in rates:
                    continue
                rates[flow] = share
                for link in flow_links[flow]:
                    value = remaining[link] - share
                    # ``value if value >= 0.0`` mirrors the reference's
                    # ``max(value, 0.0)`` exactly (including -0.0).
                    remaining[link] = value if value >= 0.0 else 0.0
                    count = load[link] - 1
                    if count:
                        load[link] = count
                    else:
                        del load[link]
        self._rounds_histogram.observe(float(rounds))
        return rates

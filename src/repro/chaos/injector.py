"""Deterministic, seedable fault scheduling against a fabric.

:class:`FaultInjector` builds :class:`~repro.sim.faults.FaultEvent`
schedules two ways:

* **manual** — ``crash_node`` / ``cut_link`` / ``degrade_link`` /
  ``flap_link`` / ``rack_outage`` append precisely-timed events (the
  rack outage is the correlated-failure primitive: the ToR and every
  server under it crash at the same instant);
* **random** — :meth:`schedule` draws a Poisson stream of faults from a
  seeded RNG.  The RNG is re-seeded *per call* from the injector's seed,
  so the same injector arguments always produce the identical schedule —
  the determinism the replay acceptance test leans on.

The injector never mutates the fabric; it only emits events.  Validity
is structural (targets exist in the network, severities in range) —
whether a crash hits an already-dead node at play-out time is the
simulator's business (it treats duplicates as no-ops).

Telemetry: every scheduled event increments
``alvc_faults_injected_total`` labeled by fault kind.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from repro.exceptions import ValidationError
from repro.ids import NodeKind
from repro.sim.faults import FaultEvent, FaultKind
from repro.topology.datacenter import DataCenterNetwork

_CRASH_OF: dict[NodeKind, FaultKind] = {
    NodeKind.OPS: FaultKind.OPS_CRASH,
    NodeKind.TOR: FaultKind.TOR_CRASH,
    NodeKind.SERVER: FaultKind.SERVER_CRASH,
}

#: Fault kinds :meth:`FaultInjector.schedule` draws from by default.
DEFAULT_RANDOM_KINDS: tuple[FaultKind, ...] = (
    FaultKind.OPS_CRASH,
    FaultKind.TOR_CRASH,
    FaultKind.SERVER_CRASH,
    FaultKind.LINK_CUT,
    FaultKind.LINK_DEGRADE,
)


class FaultInjector:
    """Builds deterministic fault schedules against one fabric."""

    def __init__(
        self,
        network: DataCenterNetwork,
        *,
        seed: int = 0,
        telemetry=None,
    ) -> None:
        """Create an injector.

        Args:
            network: the fabric faults target (validation only — never
                mutated).
            seed: drives every random draw; two injectors with the same
                seed and the same calls emit identical schedules.
            telemetry: metrics sink (ambient default when omitted).
        """
        from repro.observability.runtime import current_telemetry

        self._network = network
        self._seed = seed
        self._telemetry = (
            telemetry if telemetry is not None else current_telemetry()
        )
        self._events: list[FaultEvent] = []

    # ------------------------------------------------------------------
    @property
    def seed(self) -> int:
        """The injector's seed."""
        return self._seed

    def events(self) -> list[FaultEvent]:
        """The schedule so far, sorted deterministically."""
        return sorted(
            self._events,
            key=lambda event: (
                event.time,
                event.kind.value,
                str(event.target),
                event.severity,
            ),
        )

    def clear(self) -> None:
        """Drop every scheduled event."""
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)

    # ------------------------------------------------------------------
    # Manual scheduling
    # ------------------------------------------------------------------
    def _add(self, event: FaultEvent) -> FaultEvent:
        self._events.append(event)
        self._telemetry.counter(
            "alvc_faults_injected_total",
            "fault events scheduled by the chaos injector",
            kind=event.kind.value,
        ).inc()
        return event

    def crash_node(self, time: float, node: str) -> FaultEvent:
        """Crash a node at ``time`` (kind inferred from its role).

        Raises:
            ValidationError: for an unknown node.
        """
        kind = _CRASH_OF[self._kind_of(node)]
        return self._add(FaultEvent(time=time, kind=kind, target=node))

    def repair_node(self, time: float, node: str) -> FaultEvent:
        """Schedule a node repair at ``time``."""
        self._kind_of(node)  # existence check
        return self._add(
            FaultEvent(time=time, kind=FaultKind.NODE_REPAIR, target=node)
        )

    def cut_link(self, time: float, a: str, b: str) -> FaultEvent:
        """Cut the whole trunk between ``a`` and ``b`` at ``time``."""
        self._check_link(a, b)
        return self._add(
            FaultEvent(time=time, kind=FaultKind.LINK_CUT, target=(a, b))
        )

    def repair_link(self, time: float, a: str, b: str) -> FaultEvent:
        """Repair a previously cut trunk at ``time``."""
        self._check_link(a, b)
        return self._add(
            FaultEvent(time=time, kind=FaultKind.LINK_REPAIR, target=(a, b))
        )

    def degrade_link(
        self, time: float, a: str, b: str, severity: float
    ) -> FaultEvent:
        """Kill a trunk member: capacity drops by ``severity`` ∈ (0, 1)."""
        self._check_link(a, b)
        return self._add(
            FaultEvent(
                time=time,
                kind=FaultKind.LINK_DEGRADE,
                target=(a, b),
                severity=severity,
            )
        )

    def flap_link(
        self,
        start: float,
        a: str,
        b: str,
        *,
        period: float,
        cycles: int,
    ) -> list[FaultEvent]:
        """A flapping trunk: ``cycles`` cut/repair pairs, one per period.

        The cut fires at the start of each period and the repair halfway
        through it — the classic bouncing-interface pattern.

        Raises:
            ValidationError: on a non-positive period or cycle count.
        """
        if period <= 0:
            raise ValidationError(f"flap period must be positive, got {period}")
        if cycles <= 0:
            raise ValidationError(f"flap cycles must be positive, got {cycles}")
        emitted = []
        for cycle in range(cycles):
            base = start + cycle * period
            emitted.append(self.cut_link(base, a, b))
            emitted.append(self.repair_link(base + period / 2, a, b))
        return emitted

    def rack_outage(
        self,
        time: float,
        tor: str,
        *,
        repair_after: float | None = None,
    ) -> list[FaultEvent]:
        """Correlated rack failure: the ToR and all its servers crash.

        Args:
            time: outage instant.
            tor: the rack's ToR.
            repair_after: when given, every crashed node is repaired
                this many virtual seconds later.

        Raises:
            ValidationError: when ``tor`` is not a ToR, or
                ``repair_after`` is non-positive.
        """
        if self._kind_of(tor) is not NodeKind.TOR:
            raise ValidationError(f"{tor} is not a ToR switch")
        if repair_after is not None and repair_after <= 0:
            raise ValidationError(
                f"repair_after must be positive, got {repair_after}"
            )
        nodes = [tor, *self._network.servers_under(tor)]
        emitted = [self.crash_node(time, node) for node in nodes]
        if repair_after is not None:
            emitted.extend(
                self.repair_node(time + repair_after, node)
                for node in nodes
            )
        return emitted

    # ------------------------------------------------------------------
    # Random scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        *,
        duration: float,
        rate: float,
        kinds: Sequence[FaultKind] | None = None,
        repair_after: float | None = None,
        severity_range: tuple[float, float] = (0.25, 0.75),
        protected: Iterable[str] = (),
    ) -> list[FaultEvent]:
        """Draw a Poisson fault stream over ``[0, duration)``.

        Fault times are exponential inter-arrivals at ``rate`` events
        per unit time; each event's kind is drawn uniformly from
        ``kinds`` and its target uniformly from the candidates still
        *up* at that instant (the injector tracks which nodes/links its
        own schedule has taken down, so random schedules never crash a
        corpse — and with ``repair_after`` set, targets return to the
        candidate pool once repaired).

        Args:
            duration: schedule horizon (virtual seconds, > 0).
            rate: mean faults per unit time (> 0).
            kinds: fault kinds to draw from (crashes, cuts and degrades
                by default — repairs are derived, not drawn).
            repair_after: when given, every crash/cut is followed by the
                matching repair this much later (possibly beyond the
                horizon).
            severity_range: uniform range for link-degrade severities,
                within (0, 1).
            protected: node ids never targeted (links touching them are
                still eligible).

        Returns:
            The newly scheduled events (also appended to the injector's
            cumulative schedule), in draw order.

        Raises:
            ValidationError: on bad arguments.
        """
        if duration <= 0:
            raise ValidationError(f"duration must be positive, got {duration}")
        if rate <= 0:
            raise ValidationError(f"rate must be positive, got {rate}")
        chosen = tuple(kinds) if kinds is not None else DEFAULT_RANDOM_KINDS
        if not chosen:
            raise ValidationError("kinds must not be empty")
        for kind in chosen:
            if kind in (FaultKind.NODE_REPAIR, FaultKind.LINK_REPAIR):
                raise ValidationError(
                    f"{kind.value} cannot be drawn randomly; use "
                    f"repair_after to derive repairs"
                )
        low, high = severity_range
        if not (0.0 < low <= high < 1.0):
            raise ValidationError(
                f"severity_range must satisfy 0 < low <= high < 1, "
                f"got {severity_range}"
            )
        if repair_after is not None and repair_after <= 0:
            raise ValidationError(
                f"repair_after must be positive, got {repair_after}"
            )
        shielded = set(protected)
        rng = random.Random(
            f"{self._seed}:{duration!r}:{rate!r}:schedule"
        )
        all_links = sorted(
            tuple(sorted((a, b))) for a, b, _ in self._network.edges()
        )
        node_pool = {
            kind: sorted(set(nodes) - shielded)
            for kind, nodes in (
                (FaultKind.OPS_CRASH, self._network.optical_switches()),
                (FaultKind.TOR_CRASH, self._network.tors()),
                (FaultKind.SERVER_CRASH, self._network.servers()),
            )
        }
        down_nodes: dict[str, float] = {}  # node -> repair time (inf = never)
        down_links: dict[tuple[str, str], float] = {}
        emitted: list[FaultEvent] = []
        now = 0.0
        infinity = float("inf")
        while True:
            now += rng.expovariate(rate)
            if now >= duration:
                break
            # Repairs that have fired re-open their targets.
            for node, back in list(down_nodes.items()):
                if back <= now:
                    del down_nodes[node]
            for link, back in list(down_links.items()):
                if back <= now:
                    del down_links[link]
            kind = chosen[rng.randrange(len(chosen))]
            if kind in _NODE_CRASH_KINDS:
                candidates = [
                    node
                    for node in node_pool[kind]
                    if node not in down_nodes
                ]
                if not candidates:
                    continue
                node = candidates[rng.randrange(len(candidates))]
                emitted.append(self.crash_node(now, node))
                if repair_after is not None:
                    emitted.append(
                        self.repair_node(now + repair_after, node)
                    )
                    down_nodes[node] = now + repair_after
                else:
                    down_nodes[node] = infinity
            else:
                candidates = [
                    link
                    for link in all_links
                    if link not in down_links
                    and link[0] not in down_nodes
                    and link[1] not in down_nodes
                ]
                if not candidates:
                    continue
                a, b = candidates[rng.randrange(len(candidates))]
                if kind is FaultKind.LINK_DEGRADE:
                    severity = rng.uniform(low, high)
                    emitted.append(self.degrade_link(now, a, b, severity))
                else:
                    emitted.append(self.cut_link(now, a, b))
                    if repair_after is not None:
                        emitted.append(
                            self.repair_link(now + repair_after, a, b)
                        )
                        down_links[(a, b)] = now + repair_after
                    else:
                        down_links[(a, b)] = infinity
        return emitted

    # ------------------------------------------------------------------
    def _kind_of(self, node: str) -> NodeKind:
        try:
            return self._network.kind_of(node)
        except Exception:
            raise ValidationError(f"unknown node {node!r}") from None

    def _check_link(self, a: str, b: str) -> None:
        if not self._network.has_link(a, b):
            raise ValidationError(f"unknown link {a!r}-{b!r}")


_NODE_CRASH_KINDS = frozenset(
    {FaultKind.OPS_CRASH, FaultKind.TOR_CRASH, FaultKind.SERVER_CRASH}
)

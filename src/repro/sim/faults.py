"""Fault events the event-driven simulator understands natively.

The chaos subsystem (:mod:`repro.chaos`) schedules failures against a
:class:`~repro.topology.datacenter.DataCenterNetwork`; the simulator
plays them out as first-class events alongside arrivals and completions.
The model lives here (in the sim layer) so the simulator never imports
the chaos package — :mod:`repro.chaos` re-exports these names.

Supported fault actions:

* **node crash** (:attr:`FaultKind.OPS_CRASH` / :attr:`FaultKind.TOR_CRASH`
  / :attr:`FaultKind.SERVER_CRASH`) — the node and every link touching it
  leave the fabric; active flows crossing it reroute or drop;
* **node repair** (:attr:`FaultKind.NODE_REPAIR`) — the node returns and
  its links regain their pre-failure capacity (unless individually cut);
* **link cut** (:attr:`FaultKind.LINK_CUT`) / **link repair**
  (:attr:`FaultKind.LINK_REPAIR`) — one trunk leaves / rejoins the
  capacity map;
* **link degrade** (:attr:`FaultKind.LINK_DEGRADE`) — a trunk member
  dies but the trunk survives: capacity shrinks by ``severity`` while
  connectivity is preserved (capacity revocation in the fair-share
  engine; hop-count routes, and so cached routes, are unchanged).

The legacy ``(time, node_id)`` tuples accepted by
:meth:`~repro.sim.event_simulator.EventDrivenFlowSimulator.run` keep
working; :func:`normalize_failures` maps both forms onto one internal
record stream with a deterministic total order.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Iterable, Sequence

from repro.exceptions import ValidationError

#: Internal action names the simulator's event loop switches on.
NODE_DOWN = "node_down"
NODE_UP = "node_up"
LINK_DOWN = "link_down"
LINK_UP = "link_up"
LINK_DEGRADE = "link_degrade"


class FaultKind(enum.Enum):
    """Kinds of faults the chaos layer can inject."""

    OPS_CRASH = "ops_crash"
    TOR_CRASH = "tor_crash"
    SERVER_CRASH = "server_crash"
    NODE_REPAIR = "node_repair"
    LINK_CUT = "link_cut"
    LINK_REPAIR = "link_repair"
    LINK_DEGRADE = "link_degrade"


#: Kinds whose target is a single node id.
NODE_KINDS = frozenset(
    {
        FaultKind.OPS_CRASH,
        FaultKind.TOR_CRASH,
        FaultKind.SERVER_CRASH,
        FaultKind.NODE_REPAIR,
    }
)

#: Kinds whose target is an ``(a, b)`` link endpoint pair.
LINK_KINDS = frozenset(
    {FaultKind.LINK_CUT, FaultKind.LINK_REPAIR, FaultKind.LINK_DEGRADE}
)

_ACTION_OF: dict[FaultKind, str] = {
    FaultKind.OPS_CRASH: NODE_DOWN,
    FaultKind.TOR_CRASH: NODE_DOWN,
    FaultKind.SERVER_CRASH: NODE_DOWN,
    FaultKind.NODE_REPAIR: NODE_UP,
    FaultKind.LINK_CUT: LINK_DOWN,
    FaultKind.LINK_REPAIR: LINK_UP,
    FaultKind.LINK_DEGRADE: LINK_DEGRADE,
}


@dataclasses.dataclass(frozen=True, slots=True)
class FaultEvent:
    """One scheduled fault against the fabric.

    Attributes:
        time: virtual time the fault fires (>= 0).
        kind: what happens (see :class:`FaultKind`).
        target: a node id for node kinds, an ``(a, b)`` endpoint pair
            for link kinds.
        severity: for :attr:`FaultKind.LINK_DEGRADE`, the fraction of
            trunk capacity lost, in the open interval (0, 1); ``1.0``
            (the default) for every other kind.
    """

    time: float
    kind: FaultKind
    target: str | tuple[str, str]
    severity: float = 1.0

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValidationError(
                f"fault time must be >= 0, got {self.time}"
            )
        if self.kind in NODE_KINDS:
            if not isinstance(self.target, str):
                raise ValidationError(
                    f"{self.kind.value} target must be a node id, "
                    f"got {self.target!r}"
                )
        else:
            if (
                not isinstance(self.target, tuple)
                or len(self.target) != 2
                or self.target[0] == self.target[1]
            ):
                raise ValidationError(
                    f"{self.kind.value} target must be an (a, b) pair of "
                    f"distinct endpoints, got {self.target!r}"
                )
            # Canonicalize the undirected pair so schedule equality and
            # ordering never depend on how the caller spelled it.
            a, b = self.target
            if b < a:
                object.__setattr__(self, "target", (b, a))
        if self.kind is FaultKind.LINK_DEGRADE:
            if not 0.0 < self.severity < 1.0:
                raise ValidationError(
                    "link_degrade severity must be in (0, 1), got "
                    f"{self.severity}"
                )
        elif self.severity != 1.0:
            raise ValidationError(
                f"severity applies only to link_degrade faults, "
                f"got {self.severity} for {self.kind.value}"
            )

    @property
    def is_node_event(self) -> bool:
        """True when the target is a single node."""
        return self.kind in NODE_KINDS

    @property
    def link(self) -> frozenset:
        """The canonical :data:`~repro.sim.fairshare.LinkId` of a link
        fault's target.

        Raises:
            ValidationError: for node-targeted kinds.
        """
        if self.is_node_event:
            raise ValidationError(
                f"{self.kind.value} fault has no link target"
            )
        return frozenset(self.target)


@dataclasses.dataclass(frozen=True, slots=True)
class _FaultRecord:
    """Normalized internal form: one action at one instant."""

    time: float
    action: str
    payload: object  # node id (str) or LinkId (frozenset)
    severity: float
    sort_key: tuple

    def __lt__(self, other: "_FaultRecord") -> bool:
        return self.sort_key < other.sort_key


def _record(event: FaultEvent) -> _FaultRecord:
    action = _ACTION_OF[event.kind]
    if event.is_node_event:
        payload: object = event.target
        label = event.target
    else:
        payload = event.link
        label = "|".join(sorted(event.target))
    return _FaultRecord(
        time=event.time,
        action=action,
        payload=payload,
        severity=event.severity,
        sort_key=(event.time, label, action, event.severity),
    )


def normalize_failures(
    failures: Sequence["FaultEvent | tuple[float, str]"],
) -> list[_FaultRecord]:
    """Turn a mixed failure schedule into sorted internal records.

    Accepts :class:`FaultEvent` instances and the legacy ``(time,
    node_id)`` crash tuples interchangeably.  Records are sorted by
    ``(time, target, action, severity)`` — the same ``(time, node)``
    order the legacy tuple path always used — so replays are
    deterministic regardless of input order.

    Raises:
        ValidationError: on an entry that is neither form.
    """
    records: list[_FaultRecord] = []
    for item in failures:
        if isinstance(item, FaultEvent):
            records.append(_record(item))
            continue
        try:
            when, node = item
        except (TypeError, ValueError):
            raise ValidationError(
                f"failure entry must be a FaultEvent or (time, node) "
                f"tuple, got {item!r}"
            ) from None
        if not isinstance(node, str):
            raise ValidationError(
                f"failure node must be a node id, got {node!r}"
            )
        records.append(
            _FaultRecord(
                time=float(when),
                action=NODE_DOWN,
                payload=node,
                severity=1.0,
                sort_key=(float(when), node, NODE_DOWN, 1.0),
            )
        )
    return sorted(records)

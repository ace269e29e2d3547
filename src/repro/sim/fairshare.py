"""Max-min fair bandwidth allocation over shared links.

The event-driven simulator needs, at every arrival/completion event, the
rate of each active flow when link capacities are shared max-min fairly —
the standard flow-level model of TCP-like sharing.  The classic
water-filling algorithm: repeatedly find the most contended link, freeze
its flows at the link's equal share, remove the frozen capacity, repeat.

The simulator's engines live in :mod:`repro.sim.vector`; this module
keeps the shared link vocabulary and two test-side references:

* :func:`max_min_fair_rates` — the textbook from-scratch water-filling.
  Every call rebuilds the per-link ``load`` dict from the full flow set
  on every round; the vector engines reproduce its rates bit for bit
  (same subtraction order, same tie-breaking), which the parity tests
  assert on randomized instances.
* :func:`check_max_min_fair` — the engine-independent oracle: it
  certifies an allocation against the definition of max-min fairness
  without water-filling, so it also catches a bug all engines share.
"""

from __future__ import annotations

import math
from typing import Hashable, Mapping, Sequence

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

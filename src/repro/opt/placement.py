"""Joint VNF placement + O/E/O allocation as a MILP.

Following the joint-placement formulations of arXiv 1702.01154 (binary
host-assignment variables with per-resource capacity rows, the Pyomo
shape of SNIPPETS.md snippets 2-3) specialized to the paper's O/E/O
model:

* ``y[p, h]`` — binary, 1 iff chain position ``p`` runs on
  optoelectronic router ``h``;
* ``e[p]`` — electronic indicator (fixed to 1 for optical-incapable
  functions, else ``1 - sum_h y[p, h]``);
* ``t[p]`` — O/E/O excursion indicator under merge semantics
  (``t[p] >= e[p] - e[p-1]`` with a virtual optical predecessor, the
  same recurrence :func:`repro.optical.conversion.count_excursions`
  counts);
* capacity rows per router per resource dimension, an optional
  wavelength row bounding how many VNFs one router terminates, and
  anti-affinity rows ``y[a, h] + y[b, h] <= 1`` from the chain's
  declared pairs (arXiv 1705.10554).

The objective lexicographically minimizes ``(conversions,
optical_count)`` — exactly the key of the subset search that
``PlacementAlgorithm.EXACT`` runs on small chains — by weighting
conversions at ``len(chain) + 1``.
Results come back as the same :class:`~repro.core.placement.ChainPlacement`
objects the greedy solver emits, with hosts re-derived through the
deterministic exact packer so exact and greedy placements stay
digest-compatible.
"""

from __future__ import annotations

import math
from typing import Mapping

from repro.core.chaining import NetworkFunctionChain
from repro.core.placement import (
    ChainPlacement,
    PlacedVnf,
    _exact_pack,
)
from repro.exceptions import PlacementError
from repro.ids import OpsId
from repro.opt.bnb import solve_milp
from repro.opt.certificate import OptCertificate
from repro.opt.model import MilpModel
from repro.optical.conversion import count_excursions
from repro.topology.elements import Domain, ResourceVector

#: Default branch-and-bound node budget for one placement solve.
DEFAULT_MAX_NODES = 20000


def exact_chain_placement(
    chain: NetworkFunctionChain,
    free_capacity: Mapping[OpsId, ResourceVector],
    *,
    merge_consecutive: bool = False,
    wavelengths_per_router: int | None = None,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> ChainPlacement:
    """Certified-optimal placement of one chain (see module docstring)."""
    placement, _ = exact_chain_placement_with_certificate(
        chain,
        free_capacity,
        merge_consecutive=merge_consecutive,
        wavelengths_per_router=wavelengths_per_router,
        max_nodes=max_nodes,
    )
    return placement


def exact_chain_placement_with_certificate(
    chain: NetworkFunctionChain,
    free_capacity: Mapping[OpsId, ResourceVector],
    *,
    merge_consecutive: bool = False,
    wavelengths_per_router: int | None = None,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> tuple[ChainPlacement, OptCertificate]:
    """Exact placement plus its branch-and-bound certificate.

    The certificate is stated in *conversions*: ``objective`` is the
    returned placement's conversion count and ``lower_bound`` a proven
    bound no placement can beat — the yardstick e24 plots the greedy
    conversions against.
    """
    optical, certificate = exact_optical_assignment(
        chain,
        free_capacity,
        merge_consecutive=merge_consecutive,
        wavelengths_per_router=wavelengths_per_router,
        max_nodes=max_nodes,
    )
    assignments = tuple(
        PlacedVnf(
            position=position,
            function=function,
            domain=(
                Domain.OPTICAL
                if position in optical
                else Domain.ELECTRONIC
            ),
            host=optical.get(position),
        )
        for position, function in enumerate(chain)
    )
    placement = ChainPlacement(
        chain=chain,
        assignments=assignments,
        merge_consecutive=merge_consecutive,
    )
    return placement, certificate


def exact_optical_assignment(
    chain: NetworkFunctionChain,
    free_capacity: Mapping[OpsId, ResourceVector],
    *,
    merge_consecutive: bool = False,
    wavelengths_per_router: int | None = None,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> tuple[dict[int, OpsId], OptCertificate]:
    """Optimal position -> router assignment plus certificate.

    When the node budget runs out before branch-and-bound holds any
    incumbent, the assignment is empty (all-electronic, always
    feasible) and the certificate is not proven optimal.
    """
    hosts = sorted(free_capacity)
    movable = [
        position
        for position, function in enumerate(chain)
        if function.optical_capable
    ]
    conflicts = chain.anti_affinity_conflicts()
    weight = len(chain) + 1  # conversions dominate the optical count

    model = MilpModel()
    y: dict[tuple[int, OpsId], int] = {}
    for position in movable:
        for host in hosts:
            y[(position, host)] = model.add_binary(
                ("y", position, host), cost=1.0
            )
    # Per-visit semantics: every electronic position is a conversion, so
    # the weight rides on e[p] directly; merge semantics weight the t[p]
    # excursion indicators instead.
    electronic_cost = 0.0 if merge_consecutive else float(weight)
    electronic: dict[int, int] = {}
    for position, function in enumerate(chain):
        if function.optical_capable and hosts:
            electronic[position] = model.add_var(
                ("e", position), low=0.0, high=1.0, cost=electronic_cost
            )
            row = {y[(position, host)]: 1.0 for host in hosts}
            row[electronic[position]] = 1.0
            model.add_eq(row, 1.0)
        else:
            # Optical-incapable (or no routers at all): always electronic.
            electronic[position] = model.add_var(
                ("e", position), low=1.0, high=1.0, cost=electronic_cost
            )

    if merge_consecutive:
        for position in range(len(chain)):
            t_index = model.add_var(
                ("t", position), low=0.0, high=1.0, cost=float(weight)
            )
            row = {t_index: 1.0, electronic[position]: -1.0}
            if position > 0:
                row[electronic[position - 1]] = 1.0
            model.add_ge(row, 0.0)

    for host in hosts:
        capacity = free_capacity[host]
        for dimension, limit in (
            ("cpu_cores", capacity.cpu_cores),
            ("memory_gb", capacity.memory_gb),
            ("storage_gb", capacity.storage_gb),
        ):
            row = {
                y[(position, host)]: getattr(
                    chain.functions[position].demand, dimension
                )
                for position in movable
            }
            if row:
                model.add_le(row, limit)
        if wavelengths_per_router is not None and movable:
            model.add_le(
                {y[(position, host)]: 1.0 for position in movable},
                float(wavelengths_per_router),
            )

    for first, second in chain.anti_affinity:
        if first in movable and second in movable:
            for host in hosts:
                model.add_le(
                    {y[(first, host)]: 1.0, y[(second, host)]: 1.0}, 1.0
                )

    outcome = solve_milp(model, max_nodes=max_nodes)
    if outcome.status in ("infeasible", "unbounded"):
        # All-electronic is always feasible, so no model can land here.
        raise PlacementError(
            f"exact placement failed with status {outcome.status!r} "
            f"after {outcome.nodes} nodes"
        )
    # ``no_solution`` (the node budget ran out before any incumbent)
    # carries no values: nothing is selected, so the chain runs
    # all-electronic, uncertified, against the tree's outstanding bound.

    selected = sorted(
        position
        for position in movable
        for host in hosts
        if outcome.values.get(("y", position, host), 0.0) > 0.5
    )
    optical = _canonical_hosts(
        chain,
        selected,
        free_capacity,
        conflicts,
        outcome.values,
        hosts,
        wavelengths_per_router,
    )

    conversions = count_excursions(
        [
            Domain.OPTICAL if position in optical else Domain.ELECTRONIC
            for position in range(len(chain))
        ],
        merge_consecutive=merge_consecutive,
    )
    lower = _conversion_bound(outcome.bound, weight, len(chain))
    if outcome.proven_optimal:
        lower = float(conversions)
    certificate = OptCertificate(
        objective=float(conversions),
        lower_bound=lower,
        nodes=outcome.nodes,
        proven_optimal=outcome.proven_optimal,
        gap=float(conversions) - lower,
    )
    return optical, certificate


def _canonical_hosts(
    chain: NetworkFunctionChain,
    selected: list[int],
    free_capacity: Mapping[OpsId, ResourceVector],
    conflicts: Mapping[int, frozenset],
    values: Mapping,
    hosts: list[OpsId],
    wavelengths_per_router: int | None,
) -> dict[int, OpsId]:
    """Deterministic hosts for the chosen optical position set.

    Without a wavelength cap the deterministic exact packer re-derives
    hosts exactly the way ``EXACT``'s subset search does,
    keeping exact and greedy results digest-compatible; with a cap the
    packer doesn't know about wavelengths, so the MILP's own (equally
    deterministic) assignment is used.
    """
    if wavelengths_per_router is None:
        packing = _exact_pack(
            [
                (position, chain.functions[position].demand)
                for position in selected
            ],
            dict(free_capacity),
            conflicts=conflicts,
        )
        if packing is not None:
            return packing
    return {
        position: host
        for position in selected
        for host in hosts
        if values.get(("y", position, host), 0.0) > 0.5
    }


def _conversion_bound(raw_bound: float, weight: int, length: int) -> float:
    """Certified conversions lower bound from the composite objective.

    The composite is ``weight * conversions + optical_count`` with
    ``optical_count <= length < weight``, so any placement satisfies
    ``conversions >= (raw_bound - length) / weight``; integrality lets
    us round up.
    """
    if not math.isfinite(raw_bound):
        return 0.0
    loose = (raw_bound - length) / weight
    return float(max(0, math.ceil(loose - 1e-6)))

"""AL construction as weighted set cover, solved exactly.

The greedy kernels in :mod:`repro.core.algorithms` pick candidates by
weight until the universe is covered; the exact path instead solves the
set-cover MILP — minimize the number of selected candidates, breaking
ties toward the *heaviest* selection so the answer agrees with the
greedy preference order whenever both are optimal.  Results come back
as the same :class:`~repro.core.algorithms.CoverResult` objects the
greedy kernels emit, so ``state_digest`` parity tooling and the cover
trace renderers apply unchanged.

Error contracts mirror the greedy entry points exactly: infeasible
instances raise :class:`~repro.exceptions.CoverInfeasibleError` (after
the same feasibility-before-weights precedence), and missing weights
raise :class:`~repro.exceptions.ValidationError`.
"""

from __future__ import annotations

import math
from typing import Hashable, Mapping

from repro.core.algorithms import (
    CoverResult,
    CoverStep,
    _check_feasible,
    _degenerate_cover,
    _require_weights,
    greedy_marginal_cover,
    natural_sort_key,
)
from repro.exceptions import CoverInfeasibleError
from repro.opt.bnb import solve_milp
from repro.opt.certificate import OptCertificate
from repro.opt.model import MilpModel

#: Default branch-and-bound node budget for one cover stage.
DEFAULT_MAX_NODES = 20000


def exact_weighted_cover(
    universe,
    candidates: Mapping[Hashable, frozenset],
    weights: Mapping[Hashable, float] | None = None,
    *,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> CoverResult:
    """Exact minimum-cardinality weighted cover (see module docstring)."""
    result, _ = exact_weighted_cover_with_certificate(
        universe, candidates, weights, max_nodes=max_nodes
    )
    return result


def exact_weighted_cover_with_certificate(
    universe,
    candidates: Mapping[Hashable, frozenset],
    weights: Mapping[Hashable, float] | None = None,
    *,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> tuple[CoverResult, OptCertificate]:
    """Exact cover plus the branch-and-bound optimality certificate.

    The certificate's ``lower_bound`` is a proven bound on the *number
    of candidates* any cover needs — the yardstick e24 plots greedy
    selections against.

    Args:
        universe: elements that must be covered.
        candidates: candidate id -> members.
        weights: candidate id -> preference weight; when provided every
            candidate must have one (same contract as the greedy
            kernels).  Weights only break ties between equally-small
            covers.
        max_nodes: branch-and-bound node budget.  Running out of it
            never raises: the best cover found so far (or the greedy
            cover of :func:`~repro.core.algorithms.greedy_marginal_cover`
            when none was found) comes back with
            ``proven_optimal=False`` and the certified lower bound.
    """
    target = frozenset(universe)
    degenerate = _degenerate_cover(target, candidates)
    if degenerate is not None:
        return degenerate, OptCertificate.closed(0.0, nodes=0)
    _check_feasible(target, candidates)
    if weights is not None:
        _require_weights(candidates, weights)

    names = sorted(candidates, key=natural_sort_key)
    model = MilpModel()
    columns = {
        name: model.add_binary(
            name, cost=_candidate_cost(name, weights, len(names))
        )
        for name in names
    }
    for element in sorted(target, key=natural_sort_key):
        row = {
            columns[name]: 1.0
            for name in names
            if element in candidates[name]
        }
        model.add_ge(row, 1.0)

    outcome = solve_milp(model, max_nodes=max_nodes)
    if outcome.status == "infeasible":
        # _check_feasible proved a cover exists, so no model lands here.
        raise CoverInfeasibleError(target)
    if outcome.status == "no_solution":
        # The node budget ran out before any incumbent: fall back to the
        # greedy cover — feasible and uncertified, against the tree's
        # outstanding bound.
        selected = greedy_marginal_cover(target, candidates).selected
    else:
        selected = tuple(
            name for name in names if outcome.values.get(name, 0.0) > 0.5
        )

    steps = []
    uncovered = set(target)
    for name in selected:
        gain = frozenset(candidates[name] & uncovered)
        steps.append(
            CoverStep(
                candidate=name,
                weight=(
                    float(weights[name])
                    if weights is not None
                    else float(len(candidates[name]))
                ),
                newly_covered=gain,
                selected=True,
            )
        )
        uncovered -= gain
    result = CoverResult(
        selected=selected, steps=tuple(steps), universe=target
    )
    if outcome.proven_optimal:
        # The weight tilt stays strictly below one selection's cost, so
        # a proven tilted optimum is a proven minimum-cardinality cover.
        lower_bound = float(len(selected))
    else:
        lower_bound = _cardinality_bound(outcome.bound, len(names))
    certificate = OptCertificate(
        objective=float(len(selected)),
        lower_bound=lower_bound,
        nodes=outcome.nodes,
        proven_optimal=outcome.proven_optimal,
        gap=float(len(selected)) - lower_bound,
    )
    return result, certificate


def _candidate_cost(
    name: Hashable,
    weights: Mapping[Hashable, float] | None,
    count: int,
) -> float:
    """Cost 1 per selection, minus a sub-unit weight preference.

    The preference sum over *all* candidates stays strictly below 1, so
    cardinality always dominates: the MILP first minimizes how many
    candidates it picks, then maximizes their total weight.
    """
    if weights is None:
        return 1.0
    weight = float(weights[name])
    largest = max(
        (abs(float(value)) for value in weights.values()), default=0.0
    )
    if largest == 0.0:
        return 1.0
    return 1.0 - (weight / largest) * (0.5 / max(count, 1))


def _cardinality_bound(raw_bound: float, count: int) -> float:
    """Recover a valid cardinality lower bound from the tilted objective.

    Every candidate's tilted cost lies in ``[1 - s, 1 + s]`` with
    ``s = 0.5/count``, so a cover of size ``k`` has tilted objective at
    most ``k * (1 + s)`` — hence ``k >= raw_bound / (1 + s)`` for every
    cover, and rounding up (cardinality is integral) keeps the bound
    certified.
    """
    if not math.isfinite(raw_bound) or count == 0:
        return max(0.0, raw_bound)
    slack = 0.5 / count
    loose = raw_bound / (1.0 + slack)
    return float(max(0, math.ceil(loose - 1e-6)))

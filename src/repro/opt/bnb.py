"""Best-first branch-and-bound with LP bounding.

The pure-python engine explores a best-first tree over the integer
variables of a :class:`~repro.opt.model.MilpModel`: each node is a set
of bound overrides, bounded by its simplex LP relaxation, branched on
the most fractional integer variable.  Deterministic by construction —
heap ties break on node insertion order, so identical models always
return identical solutions.  It is the only engine: the package needs
no solver binary.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
from typing import Hashable

from repro.opt import lp as _lp
from repro.opt.model import MilpModel

#: Result statuses reported by :func:`solve_milp`.
OPTIMAL = "optimal"
FEASIBLE = "feasible"  # node budget hit with an incumbent in hand
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
NO_SOLUTION = "no_solution"  # node budget hit before any incumbent

#: Integrality tolerance on the LP relaxations.
_INT_TOL = 1e-6


@dataclasses.dataclass(frozen=True, slots=True)
class MilpResult:
    """Outcome of a MILP solve.

    ``values`` maps variable *names* to values; ``bound`` is the proven
    lower bound (equals ``objective`` when ``proven_optimal``); ``gap``
    is ``objective - bound``.
    """

    status: str
    objective: float
    values: dict[Hashable, float]
    bound: float
    nodes: int
    gap: float

    @property
    def proven_optimal(self) -> bool:
        return self.status == OPTIMAL


def solve_milp(model: MilpModel, *, max_nodes: int = 20000) -> MilpResult:
    """Solve a MILP to proven optimality (or a certified bound).

    Args:
        model: the program (minimize form).
        max_nodes: branch-and-bound node budget; when exhausted the best
            incumbent is returned with ``status="feasible"`` and the
            tightest outstanding bound.
    """
    integer_indices = model.integer_indices
    root = _lp.solve_lp(model)
    if root.status == _lp.INFEASIBLE:
        return MilpResult(
            status=INFEASIBLE,
            objective=math.inf,
            values={},
            bound=math.inf,
            nodes=1,
            gap=0.0,
        )
    if root.status == _lp.UNBOUNDED:
        return MilpResult(
            status=UNBOUNDED,
            objective=-math.inf,
            values={},
            bound=-math.inf,
            nodes=1,
            gap=0.0,
        )

    incumbent: dict[int, float] | None = None
    incumbent_objective = math.inf
    # Heap of (bound, tiebreak, bound-overrides, relaxation).
    counter = 0
    heap: list = [(root.objective, counter, {}, root)]
    nodes = 1

    while heap and nodes < max_nodes:
        bound, _, overrides, relaxation = heapq.heappop(heap)
        if bound >= incumbent_objective - _INT_TOL:
            continue  # pruned by the incumbent
        branch_var = _most_fractional(relaxation, integer_indices)
        if branch_var is None:
            # Integral relaxation: a new incumbent.
            if relaxation.objective < incumbent_objective - _INT_TOL:
                incumbent = dict(relaxation.values)
                incumbent_objective = relaxation.objective
            continue
        value = relaxation.values[branch_var]
        low, high = _effective_bounds(model, overrides, branch_var)
        for child_low, child_high in (
            (low, math.floor(value)),
            (math.ceil(value), high),
        ):
            if child_low > child_high:
                continue
            child_overrides = dict(overrides)
            child_overrides[branch_var] = (
                float(child_low),
                float(child_high),
            )
            child = _lp.solve_lp(model, child_overrides)
            nodes += 1
            if not child.is_optimal:
                continue
            if child.objective >= incumbent_objective - _INT_TOL:
                continue
            counter += 1
            heapq.heappush(
                heap, (child.objective, counter, child_overrides, child)
            )

    # Nodes whose bound cannot beat the incumbent are as good as closed.
    open_bounds = [
        entry[0]
        for entry in heap
        if entry[0] < incumbent_objective - _INT_TOL
    ]
    outstanding = min(open_bounds, default=math.inf)
    if incumbent is None:
        if not heap:
            # Exhausted the tree without an integral point.
            return MilpResult(
                status=INFEASIBLE,
                objective=math.inf,
                values={},
                bound=math.inf,
                nodes=nodes,
                gap=0.0,
            )
        return MilpResult(
            status=NO_SOLUTION,
            objective=math.inf,
            values={},
            bound=outstanding,
            nodes=nodes,
            gap=math.inf,
        )

    rounded = _snap_integers(incumbent, integer_indices)
    if not open_bounds:
        bound = incumbent_objective
        status = OPTIMAL
    else:
        bound = min(outstanding, incumbent_objective)
        status = FEASIBLE
    return MilpResult(
        status=status,
        objective=incumbent_objective,
        values=model.named_values(rounded),
        bound=bound,
        nodes=nodes,
        gap=max(0.0, incumbent_objective - bound),
    )


def _most_fractional(
    relaxation: _lp.LpSolution,
    integer_indices: tuple[int, ...],
) -> int | None:
    best_index: int | None = None
    best_score = _INT_TOL
    for index in integer_indices:
        value = relaxation.values.get(index, 0.0)
        fraction = abs(value - round(value))
        if fraction > best_score:
            best_score = fraction
            best_index = index
    return best_index


def _effective_bounds(
    model: MilpModel, overrides: dict, index: int
) -> tuple[float, float]:
    if index in overrides:
        return overrides[index]
    var = model.variables[index]
    return var.low, var.high


def _snap_integers(
    values: dict[int, float], integer_indices: tuple[int, ...]
) -> dict[int, float]:
    snapped = dict(values)
    for index in integer_indices:
        snapped[index] = float(round(snapped.get(index, 0.0)))
    return snapped

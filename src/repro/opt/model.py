"""A minimal MILP container shared by the LP and branch-and-bound layers.

The shape mirrors the Pyomo models in SNIPPETS.md snippets 2-3 (binary
placement variables, linear capacity rows, a minimize objective) without
the Pyomo dependency: a model is variables with bounds/integrality/cost
plus linear constraint rows, always minimizing.  Maximization callers
negate their costs.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Hashable, Mapping

from repro.exceptions import ValidationError

#: Constraint senses accepted by :meth:`MilpModel.add_constraint`.
SENSES = ("<=", ">=", "==")


@dataclasses.dataclass(frozen=True, slots=True)
class Variable:
    """One decision variable: bounds, integrality, objective cost."""

    name: Hashable
    index: int
    low: float
    high: float  # math.inf when unbounded above
    integer: bool
    cost: float


@dataclasses.dataclass(frozen=True, slots=True)
class Constraint:
    """One linear row ``sum(coeff * var) sense rhs``."""

    coeffs: tuple[tuple[int, float], ...]
    sense: str
    rhs: float


class MilpModel:
    """A mixed-integer linear program in minimize form.

    Variables are referenced by the integer index ``add_var`` returns;
    constraint coefficient mappings are ``{index: coefficient}``.
    """

    def __init__(self) -> None:
        self._variables: list[Variable] = []
        self._by_name: dict[Hashable, int] = {}
        self._constraints: list[Constraint] = []

    # -- variables -----------------------------------------------------
    def add_var(
        self,
        name: Hashable,
        *,
        low: float = 0.0,
        high: float | None = None,
        integer: bool = False,
        cost: float = 0.0,
    ) -> int:
        """Add a variable and return its column index."""
        if name in self._by_name:
            raise ValidationError(f"duplicate variable name {name!r}")
        upper = math.inf if high is None else float(high)
        if upper < low:
            raise ValidationError(
                f"variable {name!r} has empty domain [{low}, {upper}]"
            )
        index = len(self._variables)
        self._variables.append(
            Variable(
                name=name,
                index=index,
                low=float(low),
                high=upper,
                integer=bool(integer),
                cost=float(cost),
            )
        )
        self._by_name[name] = index
        return index

    def add_binary(self, name: Hashable, *, cost: float = 0.0) -> int:
        """Add a 0/1 integer variable."""
        return self.add_var(name, low=0.0, high=1.0, integer=True, cost=cost)

    def index_of(self, name: Hashable) -> int:
        """Column index of a named variable."""
        try:
            return self._by_name[name]
        except KeyError:
            raise ValidationError(f"unknown variable {name!r}") from None

    @property
    def variables(self) -> tuple[Variable, ...]:
        return tuple(self._variables)

    @property
    def integer_indices(self) -> tuple[int, ...]:
        return tuple(v.index for v in self._variables if v.integer)

    # -- constraints ---------------------------------------------------
    def add_constraint(
        self, coeffs: Mapping[int, float], sense: str, rhs: float
    ) -> None:
        """Add a row ``sum(coeffs[j] * x_j) sense rhs``."""
        if sense not in SENSES:
            raise ValidationError(
                f"unknown constraint sense {sense!r} "
                f"(expected one of {', '.join(SENSES)})"
            )
        for index in coeffs:
            if not 0 <= index < len(self._variables):
                raise ValidationError(
                    f"constraint references unknown variable index {index}"
                )
        self._constraints.append(
            Constraint(
                coeffs=tuple(sorted(coeffs.items())),
                sense=sense,
                rhs=float(rhs),
            )
        )

    def add_le(self, coeffs: Mapping[int, float], rhs: float) -> None:
        self.add_constraint(coeffs, "<=", rhs)

    def add_ge(self, coeffs: Mapping[int, float], rhs: float) -> None:
        self.add_constraint(coeffs, ">=", rhs)

    def add_eq(self, coeffs: Mapping[int, float], rhs: float) -> None:
        self.add_constraint(coeffs, "==", rhs)

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        return tuple(self._constraints)

    def named_values(self, values: Mapping[int, float]) -> dict:
        """Map variable names to their values in a solution point."""
        return {
            v.name: values.get(v.index, 0.0) for v in self._variables
        }

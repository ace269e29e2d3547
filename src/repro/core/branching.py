"""Branching network function chains (complex processing orders).

Section IV.A defines an NFC by "packet processing order (simple or
complex)" and a "network forwarding graph".  A *simple* order is the
linear :class:`~repro.core.chaining.NetworkFunctionChain`; this module
adds the *complex* case: a common prefix followed by alternative
branches (e.g. a load balancer steering fractions of the traffic through
different function sequences).

Placement composes the linear solver: the common prefix is placed first
(all traffic pays its conversions), then each branch against the
remaining capacity — branches carrying more traffic are placed first so
the scarce optoelectronic capacity goes where it saves the most.
"""

from __future__ import annotations

import dataclasses
import math
from typing import TYPE_CHECKING, Mapping

from repro.core.chaining import NetworkFunctionChain
from repro.core.placement import (
    ChainPlacement,
    PlacementAlgorithm,
    PlacementSolver,
)
from repro.exceptions import ChainValidationError
from repro.ids import OpsId
from repro.nfv.functions import NetworkFunctionType
from repro.optical.conversion import ConversionModel
from repro.topology.elements import Domain, ResourceVector

if TYPE_CHECKING:
    import networkx as nx


@dataclasses.dataclass(frozen=True)
class Branch:
    """One alternative continuation of a branching chain."""

    name: str
    functions: tuple[NetworkFunctionType, ...]
    traffic_fraction: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ChainValidationError("branch name must be non-empty")
        if not self.functions:
            raise ChainValidationError(
                f"branch {self.name!r} must contain at least one function"
            )
        if not 0 < self.traffic_fraction <= 1:
            raise ChainValidationError(
                f"branch {self.name!r} traffic fraction must be in (0, 1], "
                f"got {self.traffic_fraction}"
            )


@dataclasses.dataclass(frozen=True)
class BranchingChain:
    """A chain with a shared prefix and alternative branches.

    Attributes:
        chain_id: unique id.
        common: functions every packet visits first (may be empty when
            the chain branches immediately).
        branches: the alternatives; their traffic fractions must sum
            to 1.
    """

    chain_id: str
    common: tuple[NetworkFunctionType, ...]
    branches: tuple[Branch, ...]

    def __post_init__(self) -> None:
        if not self.branches:
            raise ChainValidationError(
                f"branching chain {self.chain_id} needs at least one branch"
            )
        names = [branch.name for branch in self.branches]
        if len(set(names)) != len(names):
            raise ChainValidationError(
                f"branching chain {self.chain_id} has duplicate branch names"
            )
        total = sum(branch.traffic_fraction for branch in self.branches)
        if not math.isclose(total, 1.0, rel_tol=1e-9, abs_tol=1e-9):
            raise ChainValidationError(
                f"branch traffic fractions must sum to 1, got {total}"
            )

    def linear_path(self, branch_name: str) -> NetworkFunctionChain:
        """The end-to-end linear chain a packet on one branch traverses."""
        branch = self._branch(branch_name)
        return NetworkFunctionChain(
            chain_id=f"{self.chain_id}/{branch_name}",
            functions=(*self.common, *branch.functions),
        )

    def _branch(self, branch_name: str) -> Branch:
        for branch in self.branches:
            if branch.name == branch_name:
                return branch
        raise ChainValidationError(
            f"{self.chain_id} has no branch {branch_name!r}"
        )

    def forwarding_graph(self) -> nx.DiGraph:
        """The network forwarding graph: prefix, split node, branches."""
        import networkx as nx

        graph = nx.DiGraph(name=self.chain_id)
        previous: object = "ingress"
        graph.add_node(previous)
        for index, function in enumerate(self.common):
            node = ("common", index, function.name)
            graph.add_edge(previous, node)
            previous = node
        split = "split"
        graph.add_edge(previous, split)
        for branch in self.branches:
            branch_previous: object = split
            for index, function in enumerate(branch.functions):
                node = (branch.name, index, function.name)
                graph.add_edge(branch_previous, node)
                branch_previous = node
            graph.add_edge(branch_previous, "egress")
        return graph

    def total_demand(self) -> ResourceVector:
        """Aggregate resource requirement of every function instance."""
        return ResourceVector.total(
            function.demand
            for function in (
                *self.common,
                *(f for branch in self.branches for f in branch.functions),
            )
        )


@dataclasses.dataclass(frozen=True)
class BranchingPlacement:
    """Placement of a branching chain: prefix plus per-branch placements."""

    chain: BranchingChain
    common_placement: ChainPlacement | None
    branch_placements: Mapping[str, ChainPlacement]

    def expected_conversions(self) -> float:
        """Traffic-weighted O/E/O conversions per flow.

        Every flow pays the prefix's conversions, plus its branch's,
        weighted by the branch traffic fraction.
        """
        common = (
            self.common_placement.conversions
            if self.common_placement is not None
            else 0
        )
        return common + sum(
            branch.traffic_fraction
            * self.branch_placements[branch.name].conversions
            for branch in self.chain.branches
        )

    def expected_cost(
        self, model: ConversionModel, flow_bytes: float
    ) -> float:
        """Traffic-weighted conversion cost of one flow."""
        gigabytes = flow_bytes / 1e9
        return model.cost_per_gb * gigabytes * self.expected_conversions()

    def optical_count(self) -> int:
        """Total VNF instances placed in the optical domain."""
        count = (
            self.common_placement.optical_count
            if self.common_placement is not None
            else 0
        )
        return count + sum(
            placement.optical_count
            for placement in self.branch_placements.values()
        )


class BranchingPlacementSolver:
    """Places a branching chain over a capacity snapshot."""

    def __init__(
        self,
        free_capacity: Mapping[OpsId, ResourceVector],
        *,
        merge_consecutive: bool = False,
        seed: int = 0,
    ) -> None:
        self._free = dict(free_capacity)
        self._merge = merge_consecutive
        self._seed = seed

    def solve(
        self,
        chain: BranchingChain,
        algorithm: PlacementAlgorithm = PlacementAlgorithm.GREEDY,
    ) -> BranchingPlacement:
        """Place the prefix, then branches in descending traffic order."""
        free = dict(self._free)
        common_placement = None
        if chain.common:
            common_chain = NetworkFunctionChain(
                chain_id=f"{chain.chain_id}/common",
                functions=chain.common,
            )
            common_placement = PlacementSolver(
                free, merge_consecutive=self._merge, seed=self._seed
            ).solve(common_chain, algorithm)
            _charge(free, common_placement)

        branch_placements: dict[str, ChainPlacement] = {}
        ordered = sorted(
            chain.branches,
            key=lambda branch: (-branch.traffic_fraction, branch.name),
        )
        for branch in ordered:
            branch_chain = NetworkFunctionChain(
                chain_id=f"{chain.chain_id}/{branch.name}",
                functions=branch.functions,
            )
            placement = PlacementSolver(
                free, merge_consecutive=self._merge, seed=self._seed
            ).solve(branch_chain, algorithm)
            _charge(free, placement)
            branch_placements[branch.name] = placement
        return BranchingPlacement(
            chain=chain,
            common_placement=common_placement,
            branch_placements=branch_placements,
        )


def _charge(
    free: dict[OpsId, ResourceVector], placement: ChainPlacement
) -> None:
    """Subtract a placement's optical reservations from the snapshot."""
    for placed in placement.assignments:
        if placed.domain is Domain.OPTICAL:
            free[placed.host] = free[placed.host] - placed.function.demand

"""VNF placement to save O/E/O conversions (paper Section IV.D, Fig. 8).

"In order to avoid flow traversing back and forth, we propose to move VNFs
to the optical domain … by moving one more VNF in the optical domain, we
can save another O/E/O conversion."  The constraint is the optoelectronic
routers' limited capacity: "VNFs only with low resource demands need to be
implemented in this domain."

The solver decides, for each position of a chain, whether its VNF goes to
the optical domain (hosted on a specific optoelectronic router of the
cluster's AL) or stays electronic.  Four algorithms:

* ``ALL_ELECTRONIC`` — the no-optimization baseline (every VNF electronic);
* ``RANDOM`` — positions tried in random order, first-fit into the pool;
* ``GREEDY`` — repeatedly move the VNF whose move saves the most
  conversions (ties: smallest demand), until nothing helps or fits;
* ``EXACT`` — the optimum, minimizing ``(conversions, optical_count)``
  under the chain's anti-affinity pairs.  Up to 14 movable positions
  it is an exhaustive subset search with exact bin-packing feasibility
  (optimal by exhaustion); beyond that it is the :mod:`repro.opt` MILP
  (branch-and-bound over the joint placement + O/E/O allocation
  formulation), which places all-electronic, uncertified, if its node
  budget runs out before it finds an incumbent.

``solve`` runs the algorithm it is given (``GREEDY`` by default); which
one a provision uses when the caller names none is decided by the
orchestrator from :attr:`repro.config.EngineConfig.solver`.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
import random
from typing import Mapping, Sequence

from repro.core.chaining import NetworkFunctionChain
from repro.exceptions import PlacementError
from repro.ids import OpsId
from repro.observability.runtime import Telemetry, current_telemetry
from repro.nfv.functions import NetworkFunctionType
from repro.optical.conversion import ConversionModel, count_excursions
from repro.topology.elements import Domain, ResourceVector

#: ``EXACT`` enumerates subsets up to this many movable positions and
#: hands larger chains to the MILP.
_EXACT_SEARCH_POSITIONS = 14


class HostPolicy(enum.Enum):
    """Which fitting optoelectronic router hosts an optical VNF."""

    FIRST_FIT = "first_fit"
    BEST_FIT = "best_fit"
    WORST_FIT = "worst_fit"


def _neg_key(ops: OpsId):
    """Invert lexicographic order for max() tie-breaking (lowest id wins)."""
    return tuple(-ord(char) for char in str(ops))


class PlacementAlgorithm(enum.Enum):
    """Available chain-placement algorithms."""

    ALL_ELECTRONIC = "all_electronic"
    RANDOM = "random"
    GREEDY = "greedy"
    EXACT = "exact"


@dataclasses.dataclass(frozen=True, slots=True)
class PlacedVnf:
    """Domain decision for one chain position.

    ``host`` is the optoelectronic router id for optical placements and
    None for electronic ones (the NFV manager picks a concrete server at
    deployment time).
    """

    position: int
    function: NetworkFunctionType
    domain: Domain
    host: OpsId | None

    def __post_init__(self) -> None:
        if self.domain is Domain.OPTICAL and self.host is None:
            raise PlacementError(
                f"optical placement at position {self.position} needs a host"
            )
        if self.domain is Domain.ELECTRONIC and self.host is not None:
            raise PlacementError(
                f"electronic placement at position {self.position} must not "
                f"name an optical host"
            )


@dataclasses.dataclass(frozen=True)
class ChainPlacement:
    """A complete placement of one chain, with conversion accounting."""

    chain: NetworkFunctionChain
    assignments: tuple[PlacedVnf, ...]
    merge_consecutive: bool = False

    def __post_init__(self) -> None:
        if len(self.assignments) != len(self.chain):
            raise PlacementError(
                f"placement covers {len(self.assignments)} of "
                f"{len(self.chain)} positions"
            )

    def domains(self) -> list[Domain]:
        """Hosting domain per position, in chain order."""
        return [placed.domain for placed in self.assignments]

    @property
    def conversions(self) -> int:
        """O/E/O conversions one flow pays under this placement."""
        return count_excursions(
            self.domains(), merge_consecutive=self.merge_consecutive
        )

    @property
    def optical_count(self) -> int:
        """Number of VNFs hosted in the optical domain."""
        return sum(
            1 for placed in self.assignments if placed.domain is Domain.OPTICAL
        )

    def conversions_saved(self) -> int:
        """Conversions saved relative to the all-electronic placement."""
        baseline = count_excursions(
            [Domain.ELECTRONIC] * len(self.chain),
            merge_consecutive=self.merge_consecutive,
        )
        return baseline - self.conversions

    def conversion_cost(
        self, model: ConversionModel, flow_bytes: float
    ) -> float:
        """Abstract O/E/O cost of one flow under this placement."""
        return model.conversion_cost(flow_bytes, self.conversions)

    def conversion_energy_joules(
        self, model: ConversionModel, flow_bytes: float
    ) -> float:
        """O/E/O energy of one flow under this placement."""
        return model.conversion_energy_joules(flow_bytes, self.conversions)

    @property
    def optical_host_count(self) -> int:
        """Distinct optoelectronic routers this placement uses."""
        return len(
            {
                placed.host
                for placed in self.assignments
                if placed.domain is Domain.OPTICAL
            }
        )

    def optical_hosts(self) -> dict[int, OpsId]:
        """Position → router id for the optical placements."""
        return {
            placed.position: placed.host
            for placed in self.assignments
            if placed.domain is Domain.OPTICAL
        }


class PlacementSolver:
    """Decides chain placements against a snapshot of router capacities.

    The solver never mutates the live pool; the orchestrator commits the
    returned plan through the NFV manager.
    """

    def __init__(
        self,
        free_capacity: Mapping[OpsId, ResourceVector],
        *,
        merge_consecutive: bool = False,
        host_policy: HostPolicy = None,
        seed: int = 0,
        telemetry: Telemetry | None = None,
    ) -> None:
        """Create a solver over a capacity snapshot.

        Args:
            free_capacity: optoelectronic router id -> free capacity.
            merge_consecutive: O/E/O counting semantics (see
                :mod:`repro.optical.conversion`).
            host_policy: which fitting router hosts each VNF —
                ``FIRST_FIT`` (default; consolidates a chain onto few
                routers), ``BEST_FIT`` (tightest fit, preserves large
                holes), or ``WORST_FIT`` (most free capacity, spreads
                load across the AL's routers).
            seed: RNG seed for the RANDOM algorithm.
            telemetry: metrics sink (ambient default when omitted);
                records per-solve conversions, conversions saved, and
                improve-pass iterations.
        """
        self._free = dict(free_capacity)
        self._merge = merge_consecutive
        self._host_policy = host_policy or HostPolicy.FIRST_FIT
        self._seed = seed
        self._rng: random.Random | None = None
        self._telemetry = (
            telemetry if telemetry is not None else current_telemetry()
        )

    def _pick_host(
        self,
        free: Mapping[OpsId, ResourceVector],
        demand: ResourceVector,
        forbidden,
    ) -> OpsId | None:
        """Pick the policy's host among routers fitting the demand.

        ``forbidden`` holds router ids this position must avoid (the
        hosts of anti-affinity partners already placed optically).
        """
        fitting = [
            ops
            for ops in sorted(free)
            if ops not in forbidden and demand.fits_within(free[ops])
        ]
        if not fitting:
            return None
        if self._host_policy is HostPolicy.FIRST_FIT:
            return fitting[0]
        if self._host_policy is HostPolicy.BEST_FIT:
            return min(fitting, key=lambda ops: (free[ops].cpu_cores, ops))
        if self._host_policy is HostPolicy.WORST_FIT:
            return max(
                fitting, key=lambda ops: (free[ops].cpu_cores, _neg_key(ops))
            )
        raise PlacementError(f"unknown host policy {self._host_policy!r}")

    # ------------------------------------------------------------------
    def solve(
        self,
        chain: NetworkFunctionChain,
        algorithm: PlacementAlgorithm = PlacementAlgorithm.GREEDY,
    ) -> ChainPlacement:
        """Place a chain with the requested algorithm."""
        if algorithm is PlacementAlgorithm.ALL_ELECTRONIC:
            optical: dict[int, OpsId] = {}
        elif algorithm is PlacementAlgorithm.RANDOM:
            optical = self._solve_random(chain)
        elif algorithm is PlacementAlgorithm.GREEDY:
            optical = self._solve_greedy(chain)
        elif algorithm is PlacementAlgorithm.EXACT:
            optical = self._solve_exact(chain)
        else:
            raise PlacementError(f"unknown algorithm {algorithm!r}")
        placement = self._materialize(chain, optical)
        telemetry = self._telemetry
        if telemetry.enabled:
            algo = algorithm.value
            telemetry.counter(
                "alvc_placements_solved_total",
                "chain placements computed",
                algorithm=algo,
            ).inc()
            telemetry.counter(
                "alvc_placement_conversions_total",
                "O/E/O conversions per flow across solved placements",
                algorithm=algo,
            ).inc(placement.conversions)
            telemetry.counter(
                "alvc_placement_conversions_saved_total",
                "O/E/O conversions saved vs all-electronic",
                algorithm=algo,
            ).inc(placement.conversions_saved())
            telemetry.histogram(
                "alvc_placement_optical_vnfs",
                "VNFs per placement hosted in the optical domain",
                buckets=(0, 1, 2, 4, 8, 16, 32),
            ).observe(placement.optical_count)
        return placement

    def improve(self, placement: ChainPlacement) -> ChainPlacement:
        """Move further VNFs of an existing placement into the optical
        domain (the paper's Fig. 8 step: "by moving one more VNF in the
        optical domain, we can save another O/E/O conversion").

        Existing optical assignments are kept; the solver's capacity
        snapshot must describe the *remaining* free capacity (i.e. it must
        already exclude whatever the current placement consumes).

        Two convergence guarantees hold so repeated ``improve()`` calls
        on one solver reach a fixed point instead of cycling or
        overcommitting:

        * every committed move must *strictly* reduce the placement's
          conversion count (tie-objective swaps are rejected);
        * capacity consumed by committed moves is deducted from the
          solver's own snapshot, so a second call sees the remaining
          free capacity rather than re-spending it.
        """
        chain = placement.chain
        free = dict(self._free)
        optical = dict(placement.optical_hosts())
        conflicts = chain.anti_affinity_conflicts()
        movable = [
            position
            for position, function in enumerate(chain)
            if function.optical_capable and position not in optical
        ]
        if self._merge:
            # Move whole remaining electronic runs, cheapest first.
            while True:
                runs = self._movable_runs(chain, optical, set(movable))
                committed = False
                incumbent = count_excursions(
                    _domains_of(len(chain), optical),
                    merge_consecutive=True,
                )
                for run in sorted(
                    runs,
                    key=lambda positions: (
                        sum(chain.functions[p].demand.cpu_cores for p in positions),
                        positions,
                    ),
                ):
                    candidate = dict(optical)
                    candidate.update((pos, None) for pos in run)
                    moved = count_excursions(
                        _domains_of(len(chain), candidate),
                        merge_consecutive=True,
                    )
                    if moved >= incumbent:
                        continue  # strict improvement only — no tie swaps
                    packing = _exact_pack(
                        [(pos, chain.functions[pos].demand) for pos in run],
                        dict(free),
                        conflicts=conflicts,
                        placed=optical,
                    )
                    if packing is None:
                        continue
                    for position, host in packing.items():
                        free[host] = free[host] - chain.functions[position].demand
                        optical[position] = host
                    committed = True
                    break
                if not committed:
                    break
        else:
            # Per-visit semantics: each move strictly removes one
            # conversion, so strict improvement holds per position.
            for position in sorted(
                movable,
                key=lambda pos: (chain.functions[pos].demand.cpu_cores, pos),
            ):
                demand = chain.functions[position].demand
                host = self._pick_host(
                    free, demand, _forbidden_hosts(conflicts, optical, position)
                )
                if host is not None:
                    free[host] = free[host] - demand
                    optical[position] = host
        # Commit consumed capacity so a repeated improve() on this
        # solver converges instead of double-spending the snapshot.
        self._free = free
        if self._telemetry.enabled:
            moved = len(optical) - len(placement.optical_hosts())
            self._telemetry.counter(
                "alvc_placement_improve_iterations_total",
                "VNFs moved optical by improve() passes",
            ).inc(moved)
            self._telemetry.counter(
                "alvc_placement_improve_passes_total",
                "improve() invocations",
            ).inc()
        return self._materialize(chain, optical)

    def _materialize(
        self, chain: NetworkFunctionChain, optical: Mapping[int, OpsId]
    ) -> ChainPlacement:
        assignments = []
        for position, function in enumerate(chain):
            host = optical.get(position)
            assignments.append(
                PlacedVnf(
                    position=position,
                    function=function,
                    domain=Domain.OPTICAL if host is not None else Domain.ELECTRONIC,
                    host=host,
                )
            )
        return ChainPlacement(
            chain=chain,
            assignments=tuple(assignments),
            merge_consecutive=self._merge,
        )

    # ------------------------------------------------------------------
    def _movable_positions(self, chain: NetworkFunctionChain) -> list[int]:
        return [
            position
            for position, function in enumerate(chain)
            if function.optical_capable
        ]

    def _solve_random(self, chain: NetworkFunctionChain) -> dict[int, OpsId]:
        positions = self._movable_positions(chain)
        if self._rng is None:
            self._rng = random.Random(self._seed)
        self._rng.shuffle(positions)
        free = dict(self._free)
        optical: dict[int, OpsId] = {}
        conflicts = chain.anti_affinity_conflicts()
        for position in positions:
            demand = chain.functions[position].demand
            host = self._pick_host(
                free, demand, _forbidden_hosts(conflicts, optical, position)
            )
            if host is not None:
                free[host] = free[host] - demand
                optical[position] = host
        return optical

    def _solve_greedy(self, chain: NetworkFunctionChain) -> dict[int, OpsId]:
        if not self._merge:
            return self._greedy_per_visit(chain)
        return self._greedy_runs(chain)

    def _greedy_per_visit(self, chain: NetworkFunctionChain) -> dict[int, OpsId]:
        """Per-visit semantics: every optical move saves one conversion, so
        pack as many VNFs as possible, cheapest (CPU) first."""
        free = dict(self._free)
        optical: dict[int, OpsId] = {}
        conflicts = chain.anti_affinity_conflicts()
        order = sorted(
            self._movable_positions(chain),
            key=lambda pos: (chain.functions[pos].demand.cpu_cores, pos),
        )
        for position in order:
            demand = chain.functions[position].demand
            host = self._pick_host(
                free, demand, _forbidden_hosts(conflicts, optical, position)
            )
            if host is not None:
                free[host] = free[host] - demand
                optical[position] = host
        return optical

    def _greedy_runs(self, chain: NetworkFunctionChain) -> dict[int, OpsId]:
        """Excursion semantics: a conversion disappears only when an entire
        electronic run moves to the optical domain.

        Runs containing an optical-incapable function can never be
        eliminated (the immovable member pins the excursion), so only
        fully-movable runs are candidates.  Each round moves the feasible
        run with the smallest total CPU demand — saving exactly one
        conversion — until no run fits the remaining capacity.
        """
        free = dict(self._free)
        optical: dict[int, OpsId] = {}
        conflicts = chain.anti_affinity_conflicts()
        movable = set(self._movable_positions(chain))
        while True:
            runs = self._movable_runs(chain, optical, movable)
            committed = False
            for run in sorted(
                runs,
                key=lambda positions: (
                    sum(chain.functions[p].demand.cpu_cores for p in positions),
                    positions,
                ),
            ):
                packing = _exact_pack(
                    [(pos, chain.functions[pos].demand) for pos in run],
                    dict(free),
                    conflicts=conflicts,
                    placed=optical,
                )
                if packing is None:
                    continue
                for position, host in packing.items():
                    free[host] = free[host] - chain.functions[position].demand
                    optical[position] = host
                committed = True
                break
            if not committed:
                return optical

    @staticmethod
    def _movable_runs(
        chain: NetworkFunctionChain,
        optical: Mapping[int, OpsId],
        movable: set,
    ) -> list[tuple[int, ...]]:
        """Maximal electronic runs consisting solely of movable positions."""
        runs: list[tuple[int, ...]] = []
        current: list[int] = []
        clean = True
        for position in range(len(chain)):
            if position in optical:
                if current and clean:
                    runs.append(tuple(current))
                current, clean = [], True
                continue
            current.append(position)
            if position not in movable:
                clean = False
        if current and clean:
            runs.append(tuple(current))
        return runs

    def _solve_exact(self, chain: NetworkFunctionChain) -> dict[int, OpsId]:
        """The optimum: subset search on small chains, MILP beyond."""
        positions = self._movable_positions(chain)
        if len(positions) > _EXACT_SEARCH_POSITIONS:
            # Imported lazily: repro.opt builds on this module's types.
            from repro.opt.placement import exact_optical_assignment

            optical, _ = exact_optical_assignment(
                chain, self._free, merge_consecutive=self._merge
            )
            return optical
        conflicts = chain.anti_affinity_conflicts()
        best_key: tuple[int, int] | None = None
        best_packing: dict[int, OpsId] = {}
        for size in range(len(positions), -1, -1):
            for subset in itertools.combinations(positions, size):
                domains = [
                    Domain.OPTICAL if pos in subset else Domain.ELECTRONIC
                    for pos in range(len(chain))
                ]
                conversions = count_excursions(
                    domains, merge_consecutive=self._merge
                )
                key = (conversions, len(subset))
                if best_key is not None and key >= best_key:
                    continue
                packing = _exact_pack(
                    [(pos, chain.functions[pos].demand) for pos in subset],
                    dict(self._free),
                    conflicts=conflicts,
                )
                if packing is None:
                    continue
                best_key = key
                best_packing = packing
        # The empty subset always packs, so some subset always wins.
        return best_packing


def _forbidden_hosts(
    conflicts: Mapping[int, frozenset],
    optical: Mapping[int, OpsId],
    position: int,
) -> frozenset:
    """Hosts ``position`` must avoid: those of placed anti-affinity partners."""
    partners = conflicts.get(position)
    if not partners:
        return frozenset()
    return frozenset(
        optical[other] for other in partners if other in optical
    )


def _domains_of(length: int, optical: Mapping[int, object]) -> list[Domain]:
    """Domain per position given the optically-placed position set."""
    return [
        Domain.OPTICAL if position in optical else Domain.ELECTRONIC
        for position in range(length)
    ]


def _exact_pack(
    items: Sequence[tuple[int, ResourceVector]],
    free: dict[OpsId, ResourceVector],
    *,
    conflicts: Mapping[int, frozenset] | None = None,
    placed: Mapping[int, OpsId] | None = None,
) -> dict[int, OpsId] | None:
    """Exact bin-packing by backtracking; None when infeasible.

    Items are packed largest-CPU-first to prune early; bins are the
    routers' free capacities.  ``conflicts`` (position -> positions it
    must not share a router with) and ``placed`` (positions already
    committed elsewhere) enforce the chain's anti-affinity pairs.
    """
    ordered = sorted(items, key=lambda item: -item[1].cpu_cores)
    hosts = sorted(free)
    assignment: dict[int, OpsId] = {}
    conflicts = conflicts or {}
    placed = placed or {}
    # The symmetric-bin skip assumes equal-capacity bins are
    # interchangeable, which anti-affinity breaks (identity matters once
    # a partner occupies one of them) — disable it in that case.
    prune_symmetric = not conflicts

    def backtrack(index: int) -> bool:
        if index == len(ordered):
            return True
        position, demand = ordered[index]
        banned: set[OpsId] = set()
        for partner in conflicts.get(position, ()):
            host = assignment.get(partner)
            if host is None:
                host = placed.get(partner)
            if host is not None:
                banned.add(host)
        tried: set[tuple[float, float, float]] = set()
        for ops in hosts:
            if ops in banned:
                continue
            capacity = free[ops]
            signature = (
                capacity.cpu_cores,
                capacity.memory_gb,
                capacity.storage_gb,
            )
            if prune_symmetric:
                if signature in tried:
                    continue  # symmetric bin states: skip duplicates
                tried.add(signature)
            if demand.fits_within(capacity):
                free[ops] = capacity - demand
                assignment[position] = ops
                if backtrack(index + 1):
                    return True
                free[ops] = capacity
                del assignment[position]
        return False

    if backtrack(0):
        return assignment
    return None

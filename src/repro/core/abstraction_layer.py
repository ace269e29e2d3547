"""Abstraction-layer construction (paper Section III.C, Fig. 4).

An abstraction layer (AL) is "the set of switches … used to manage the
cluster.  It selects the minimum set of switches that connect all the
nodes."  Construction is a two-stage cover:

1. **ToR stage** — over the bipartite machine↔ToR graph, select ToRs until
   every cluster machine is covered, visiting ToRs in descending weight
   (machine-side degree + OPS-side degree, the "four incoming … and two
   outgoing" of Fig. 4);
2. **OPS stage** — over the bipartite ToR↔OPS graph restricted to the
   selected ToRs, select OPSs "against the selected ToRs" the same way; the
   selected OPSs *are* the AL.

Strategies other than the paper's greedy (random [15], marginal-gain
greedy, exact optimum) exist for the comparison experiments E4/E9.  The
exact optimum is the certified cover MILP of :mod:`repro.opt.cover`, the
same engine ``engine="exact"`` selects for every strategy.
"""

from __future__ import annotations

import dataclasses
import enum
import random
from typing import Iterable, Mapping

from repro import undo
from repro.core.algorithms import (
    CoverResult,
    greedy_marginal_cover,
    greedy_max_weight_cover,
    random_cover,
)
from repro.exceptions import CoverInfeasibleError, TopologyError, ValidationError
from repro.ids import ClusterId, OpsId, TorId
from repro.observability.runtime import Telemetry, current_telemetry
from repro.topology.datacenter import DataCenterNetwork


class AlConstructionStrategy(enum.Enum):
    """Available AL construction algorithms."""

    VERTEX_COVER_GREEDY = "vertex_cover_greedy"  # the paper's algorithm
    IN_DEGREE_GREEDY = "in_degree_greedy"        # weight ablation: machines only
    MARGINAL_GREEDY = "marginal_greedy"          # classic set-cover greedy
    RANDOM = "random"                            # prior work [15]
    EXACT = "exact"                              # certified minimum (cover MILP)


@dataclasses.dataclass(frozen=True, slots=True)
class AbstractionLayer:
    """A constructed abstraction layer with its full decision trace."""

    cluster: ClusterId
    tor_ids: frozenset
    ops_ids: frozenset
    tor_trace: CoverResult
    ops_trace: CoverResult
    strategy: AlConstructionStrategy

    @property
    def size(self) -> int:
        """Number of optical switches in the AL (the minimized quantity)."""
        return len(self.ops_ids)

    def connects(self, machine_tors: Iterable[TorId]) -> bool:
        """True if a machine attached to ``machine_tors`` can reach the AL
        through one of the AL's selected ToRs."""
        return bool(set(machine_tors) & self.tor_ids)


class AlConstructor:
    """Builds abstraction layers over a physical fabric.

    One constructor may build ALs for many clusters; the caller passes the
    set of still-unassigned OPSs to honour the paper's disjointness rule
    ("one OPS cannot be part of two ALs at the same time") — the
    :class:`~repro.core.cluster.ClusterManager` does this bookkeeping.
    """

    def __init__(
        self,
        dcn: DataCenterNetwork,
        strategy: AlConstructionStrategy = AlConstructionStrategy.VERTEX_COVER_GREEDY,
        seed: int = 0,
        telemetry: Telemetry | None = None,
        kernel: str = "auto",
        engine: str = "greedy",
    ) -> None:
        from repro.config import COVER_KERNELS, SOLVER_ENGINES

        if kernel not in COVER_KERNELS:
            raise ValidationError(
                f"unknown cover kernel {kernel!r} "
                f"(expected one of {', '.join(COVER_KERNELS)})"
            )
        if engine not in SOLVER_ENGINES:
            raise ValidationError(
                f"unknown solver engine {engine!r} "
                f"(expected one of {', '.join(SOLVER_ENGINES)})"
            )
        self._dcn = dcn
        self._strategy = strategy
        self._kernel = kernel
        self._engine = engine
        self._rng = random.Random(seed)
        self._telemetry = (
            telemetry if telemetry is not None else current_telemetry()
        )
        # The strategy label is fixed for this constructor's lifetime, so
        # the labeled instruments are resolved once here rather than per
        # construction (the registry lookup — label sorting plus dict
        # hashing — dominated the enabled-mode hot path).
        self._instruments = None
        if self._telemetry.enabled:
            label = strategy.value
            self._instruments = (
                self._telemetry.counter(
                    "alvc_al_constructions_total",
                    "abstraction layers constructed",
                    strategy=label,
                ),
                self._telemetry.counter(
                    "alvc_cover_candidates_scanned_total",
                    "covering candidates visited (ToR + OPS stages)",
                    strategy=label,
                ),
                self._telemetry.counter(
                    "alvc_cover_skips_total",
                    "candidates visited but skipped (already covered)",
                    strategy=label,
                ),
                self._telemetry.histogram(
                    "alvc_al_size",
                    "OPS count per constructed abstraction layer",
                    buckets=(1, 2, 4, 8, 16, 32, 64),
                    strategy=label,
                ),
            )

    @property
    def strategy(self) -> AlConstructionStrategy:
        """The algorithm this constructor runs."""
        return self._strategy

    @property
    def kernel(self) -> str:
        """The cover kernel of the marginal-greedy stages (see
        :class:`~repro.config.EngineConfig`)."""
        return self._kernel

    @property
    def engine(self) -> str:
        """The solver engine ("greedy" | "exact" | "auto") stages run on."""
        return self._engine

    # ------------------------------------------------------------------
    def construct(
        self,
        cluster: ClusterId,
        machine_attachments: Mapping[str, Iterable[TorId]],
        available_ops: Iterable[OpsId] | None = None,
    ) -> AbstractionLayer:
        """Construct the AL for one cluster.

        Args:
            cluster: id of the cluster being covered.
            machine_attachments: machine id → ToRs it attaches to (for VMs,
                the host server's ToRs).
            available_ops: OPSs not yet assigned to another AL; defaults to
                every OPS in the fabric.

        Raises:
            CoverInfeasibleError: when the machines cannot all be covered,
                or the remaining OPSs cannot connect the selected ToRs
                (OPS exhaustion under the disjointness rule).
            TopologyError: when the cluster has no machines.
        """
        if not machine_attachments:
            raise TopologyError(f"cluster {cluster} has no machines to cover")
        ops_pool = (
            set(available_ops)
            if available_ops is not None
            else set(self._dcn.optical_switches())
        )

        telemetry = self._telemetry
        with telemetry.span("al_construction", cluster=str(cluster)) as span:
            try:
                tor_result = self._tor_stage(machine_attachments, ops_pool)
                selected_tors = frozenset(tor_result.selected)
                ops_result = self._ops_stage(selected_tors, ops_pool)
            except CoverInfeasibleError:
                telemetry.counter(
                    "alvc_cover_infeasible_total",
                    "AL constructions aborted by CoverInfeasibleError",
                ).inc()
                raise
            layer = AbstractionLayer(
                cluster=cluster,
                tor_ids=selected_tors,
                ops_ids=frozenset(ops_result.selected),
                tor_trace=tor_result,
                ops_trace=ops_result,
                strategy=self._strategy,
            )
            if self._instruments is not None:
                self._record_construction(span, layer)
            return layer

    def _record_construction(self, span, layer: AbstractionLayer) -> None:
        """Publish per-construction covering counters (enabled path only)."""
        steps = (*layer.tor_trace.steps, *layer.ops_trace.steps)
        skips = sum(1 for step in steps if not step.selected)
        constructions, scanned, skipped, size = self._instruments
        constructions.inc()
        scanned.inc(len(steps))
        skipped.inc(skips)
        size.observe(layer.size)
        span.set(
            candidates_scanned=len(steps),
            skips=skips,
            cover_size=layer.size,
        )

    def construct_for_servers(
        self,
        cluster: ClusterId,
        servers: Iterable[str],
        available_ops: Iterable[OpsId] | None = None,
    ) -> AbstractionLayer:
        """Convenience wrapper covering physical servers directly."""
        dcn = self._dcn
        if dcn.caching_enabled:
            # One dict probe per server off the memoized batch map —
            # re-deriving per-server adjacency dominated warm repeat
            # constructions before this.
            attachment_map = dcn.server_attachment_map()
            try:
                attachments = {
                    server: attachment_map[server] for server in servers
                }
            except KeyError:
                # Unknown or non-server id: fall through to the checked
                # per-node accessor so the usual error surfaces.
                attachments = {
                    server: dcn.tors_of_server(server) for server in servers
                }
        else:
            attachments = {
                server: dcn.tors_of_server(server) for server in servers
            }
        return self.construct(cluster, attachments, available_ops)

    # ------------------------------------------------------------------
    def _tor_stage(
        self,
        machine_attachments: Mapping[str, Iterable[TorId]],
        ops_pool: set,
    ) -> CoverResult:
        universe = frozenset(machine_attachments)
        candidates: dict[TorId, set] = {}
        for machine, tors in machine_attachments.items():
            for tor in tors:
                candidates.setdefault(tor, set()).add(machine)
        frozen = {tor: frozenset(members) for tor, members in candidates.items()}
        # Weight = cluster machines under the ToR (incoming) + uplinks into
        # the available OPS pool (outgoing), per the Fig. 4 walk-through.
        # The IN_DEGREE ablation (DESIGN.md §6) drops the outgoing term.
        if self._strategy is AlConstructionStrategy.IN_DEGREE_GREEDY:
            weights = {tor: len(frozen[tor]) for tor in frozen}
        else:
            weights = {
                tor: len(frozen[tor])
                + len(set(self._dcn.ops_of_tor(tor)) & ops_pool)
                for tor in frozen
            }
        return self._run_cover(universe, frozen, weights)

    def _ops_stage(self, selected_tors: frozenset, ops_pool: set) -> CoverResult:
        candidates: dict[OpsId, frozenset] = {}
        for ops in sorted(ops_pool):
            covered = frozenset(set(self._dcn.tors_of_ops(ops)) & selected_tors)
            if covered:
                candidates[ops] = covered
        if not candidates and selected_tors:
            raise CoverInfeasibleError(selected_tors)
        # Weight = number of *selected* ToRs the OPS connects ("the OPSs
        # against the selected ToRs").
        weights = {ops: len(covered) for ops, covered in candidates.items()}
        return self._run_cover(selected_tors, candidates, weights)

    def _run_cover(self, universe, candidates, weights) -> CoverResult:
        if self._use_exact(universe, candidates):
            # Imported lazily: repro.opt builds on this module's siblings.
            from repro.opt.cover import exact_weighted_cover

            return exact_weighted_cover(universe, candidates, weights)
        if self._strategy in (
            AlConstructionStrategy.VERTEX_COVER_GREEDY,
            AlConstructionStrategy.IN_DEGREE_GREEDY,
        ):
            return greedy_max_weight_cover(universe, candidates, weights)
        if self._strategy is AlConstructionStrategy.MARGINAL_GREEDY:
            return greedy_marginal_cover(
                universe, candidates, kernel=self._kernel
            )
        if self._strategy is AlConstructionStrategy.RANDOM:
            undo.save_random(self._rng)
            return random_cover(universe, candidates, self._rng)
        raise TopologyError(f"unknown strategy {self._strategy!r}")

    #: ``engine="auto"`` switches a cover stage to the exact MILP only
    #: below these instance sizes (branch-and-bound stays interactive).
    _AUTO_EXACT_CANDIDATES = 20
    _AUTO_EXACT_UNIVERSE = 64

    def _use_exact(self, universe, candidates) -> bool:
        """Whether this stage runs the certified exact cover.

        The EXACT strategy and ``engine="exact"`` always do (the engine
        selector trumps the heuristic strategy); ``engine="auto"`` does
        on instances small enough for branch-and-bound and defers to the
        configured strategy beyond.
        """
        if (
            self._engine == "exact"
            or self._strategy is AlConstructionStrategy.EXACT
        ):
            return True
        if self._engine == "auto":
            return (
                len(candidates) <= self._AUTO_EXACT_CANDIDATES
                and len(frozenset(universe)) <= self._AUTO_EXACT_UNIVERSE
            )
        return False

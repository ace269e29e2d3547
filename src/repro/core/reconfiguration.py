"""Incremental abstraction-layer maintenance under churn and failures.

The paper's headline operational claim is *low network update cost* (via
its companion work [14]): when a cluster changes, only its own AL should
be touched.  This module takes the claim further — instead of rebuilding
the AL from scratch after every change, it *repairs* it:

* ``add_vm`` — if the new VM's host already reaches a selected ToR, the
  AL is unchanged (zero switches touched); otherwise the cheapest
  ToR/OPS extension is grafted on;
* ``remove_vm`` — selected ToRs/OPSs that no longer serve any machine
  are pruned;
* ``handle_ops_failure`` — a failed optical switch is replaced by the
  minimum set of unassigned OPSs restoring ToR coverage.

Every operation returns a :class:`ReconfigurationResult` with the new
layer and the exact switches touched, so experiments can compare
incremental repair against full reconstruction (bench E13).
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Mapping

from repro.core.abstraction_layer import (
    AbstractionLayer,
    AlConstructionStrategy,
)
from repro.core.algorithms import CoverResult, greedy_max_weight_cover
from repro.exceptions import CoverInfeasibleError, TopologyError
from repro.ids import OpsId, TorId
from repro.topology.datacenter import DataCenterNetwork


@dataclasses.dataclass(frozen=True)
class ReconfigurationResult:
    """Outcome of one incremental AL operation."""

    layer: AbstractionLayer
    touched_switches: frozenset
    rebuilt: bool = False

    @property
    def cost(self) -> int:
        """Switches whose state changed (the update-cost metric)."""
        return len(self.touched_switches)


class AlReconfigurator:
    """Repairs an abstraction layer in place of full reconstruction.

    The reconfigurator tracks which machines the layer serves (machine →
    ToR attachments) so it can decide pruning and extension locally.
    """

    def __init__(
        self,
        dcn: DataCenterNetwork,
        layer: AbstractionLayer,
        machine_attachments: Mapping[str, Iterable[TorId]],
        *,
        failed_ops: Iterable[OpsId] = (),
        kernel: str = "auto",
        recorder=None,
    ) -> None:
        from repro.service.journal import NULL_RECORDER

        self._dcn = dcn
        self._layer = layer
        self._kernel = kernel
        # Annotation hook: repairs running inside a journaled command
        # leave nested=True audit rows in the state journal (never
        # replayed — the parent command reproduces them).
        self._recorder = recorder if recorder is not None else NULL_RECORDER
        self._attachments = {
            machine: list(tors)
            for machine, tors in machine_attachments.items()
        }
        # OPSs that died on our watch (pre-seeded with ``failed_ops``
        # for reconfigurators built mid-incident).  They must never
        # re-enter any candidate pool — callers routinely pass pools
        # derived from cluster bookkeeping (e.g.
        # ``ClusterManager.free_ops``) that has no notion of dead
        # hardware.
        self._failed: set[OpsId] = set(failed_ops)

    @property
    def layer(self) -> AbstractionLayer:
        """The current (possibly repaired) abstraction layer."""
        return self._layer

    @property
    def failed_ops(self) -> frozenset:
        """OPSs recorded as failed (excluded from every candidate pool)."""
        return frozenset(self._failed)

    def mark_ops_repaired(self, ops: OpsId) -> None:
        """Forget a failure: ``ops`` becomes selectable again.

        Raises:
            TopologyError: if the switch was never recorded as failed.
        """
        if ops not in self._failed:
            raise TopologyError(f"{ops} is not recorded as failed")
        self._failed.discard(ops)

    @property
    def machines(self) -> list[str]:
        """Machines the layer currently serves, sorted."""
        return sorted(self._attachments)

    # ------------------------------------------------------------------
    # VM churn
    # ------------------------------------------------------------------
    def add_vm(
        self,
        machine: str,
        tors: Iterable[TorId],
        available_ops: Iterable[OpsId],
    ) -> ReconfigurationResult:
        """Extend the AL to cover one new machine.

        Args:
            machine: the new machine's id.
            tors: ToRs the machine attaches to.
            available_ops: OPSs not owned by any other AL (disjointness).

        Raises:
            TopologyError: if the machine is already served.
            CoverInfeasibleError: if no ToR/OPS extension can cover it.
        """
        if machine in self._attachments:
            raise TopologyError(f"{machine} is already in the cluster")
        tor_list = list(tors)
        if not tor_list:
            raise CoverInfeasibleError(frozenset({machine}))
        if set(tor_list) & self._layer.tor_ids:
            # Already reachable: zero-cost update — the low-update-cost
            # property in its purest form.
            self._attachments[machine] = tor_list
            return ReconfigurationResult(
                layer=self._layer, touched_switches=frozenset()
            )
        result = self._extend_to(tor_list, available_ops)
        self._attachments[machine] = tor_list
        self._annotate("add_vm", result)
        return result

    def _extend_to(
        self, tor_candidates: list[TorId], available_ops: Iterable[OpsId]
    ) -> ReconfigurationResult:
        ops_pool = (
            set(available_ops) | set(self._layer.ops_ids)
        ) - self._failed
        best: tuple[int, TorId, OpsId | None] | None = None
        for tor in sorted(tor_candidates):
            uplinks = set(self._dcn.ops_of_tor(tor))
            reachable_existing = sorted(uplinks & self._layer.ops_ids)
            if reachable_existing:
                candidate = (1, tor, None)  # only the ToR joins
            else:
                fresh = sorted(uplinks & ops_pool)
                if not fresh:
                    continue
                candidate = (2, tor, fresh[0])  # ToR + one new OPS
            if best is None or candidate < best:
                best = candidate
        if best is None:
            raise CoverInfeasibleError(frozenset(tor_candidates))
        _, tor, new_ops = best
        new_tors = self._layer.tor_ids | {tor}
        new_switches = self._layer.ops_ids | (
            {new_ops} if new_ops is not None else frozenset()
        )
        touched = {tor} | ({new_ops} if new_ops is not None else set())
        self._layer = dataclasses.replace(
            self._layer, tor_ids=new_tors, ops_ids=frozenset(new_switches)
        )
        return ReconfigurationResult(
            layer=self._layer, touched_switches=frozenset(touched)
        )

    def remove_vm(self, machine: str) -> ReconfigurationResult:
        """Remove a machine, pruning ToRs/OPSs it alone justified."""
        if machine not in self._attachments:
            raise TopologyError(f"{machine} is not in the cluster")
        del self._attachments[machine]
        needed_tors: set = set()
        for tors in self._attachments.values():
            # A machine is served through any one of its ToRs in the
            # layer; all of them stay candidates for the pruned cover.
            serving = set(tors) & self._layer.tor_ids
            needed_tors |= serving
        pruned_tors = frozenset(
            tor for tor in self._layer.tor_ids if tor in needed_tors
        )
        # Keep only OPSs still covering some remaining ToR; every ToR must
        # keep at least one OPS.
        kept_ops = set()
        for tor in pruned_tors:
            uplinks = set(self._dcn.ops_of_tor(tor)) & self._layer.ops_ids
            kept_ops |= uplinks
        touched = (self._layer.tor_ids - pruned_tors) | (
            self._layer.ops_ids - kept_ops
        )
        self._layer = dataclasses.replace(
            self._layer, tor_ids=pruned_tors, ops_ids=frozenset(kept_ops)
        )
        result = ReconfigurationResult(
            layer=self._layer, touched_switches=frozenset(touched)
        )
        self._annotate("remove_vm", result)
        return result

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def handle_ops_failure(
        self, failed: OpsId, available_ops: Iterable[OpsId]
    ) -> ReconfigurationResult:
        """Replace a failed OPS, restoring coverage of the cluster.

        First tries the cheap repair: keep the selected ToRs and re-solve
        only the OPS stage over the surviving plus available switches
        with the paper's max-weight greedy.  If the failed switch was the
        last uplink of a selected ToR, the repair falls back to a full
        two-stage reconstruction — dual-homed machines may still be
        coverable through other ToRs.

        Failures are *sticky*: every OPS that ever failed is excluded
        from candidate pools on this and all later calls (including the
        rebuild fallback and :meth:`add_vm` extensions), regardless of
        what the caller's ``available_ops`` contains.  Use
        :meth:`mark_ops_repaired` once the hardware returns.

        Raises:
            TopologyError: if the switch is not in this AL.
            CoverInfeasibleError: if coverage cannot be restored at all.
        """
        if failed not in self._layer.ops_ids:
            raise TopologyError(f"{failed} is not part of this AL")
        # Record the death *before* building the pool: earlier failures
        # stay excluded too, even when the caller's ``available_ops``
        # (typically cluster bookkeeping that knows nothing about dead
        # hardware) still lists them.
        self._failed.add(failed)
        survivors = set(self._layer.ops_ids) - self._failed
        pool = (set(available_ops) | survivors) - self._failed
        try:
            new_ops = self._resolve_ops_stage(self._layer.tor_ids, pool)
        except CoverInfeasibleError:
            result = self._rebuild_after_failure(failed, pool)
            self._annotate("ops_failure", result)
            return result
        touched = ({failed} | new_ops | survivors) - (survivors & new_ops)
        self._layer = dataclasses.replace(self._layer, ops_ids=new_ops)
        result = ReconfigurationResult(
            layer=self._layer, touched_switches=frozenset(touched)
        )
        self._annotate("ops_failure", result)
        return result

    def _annotate(self, action: str, result: ReconfigurationResult) -> None:
        self._recorder.annotate(
            "al_reconfig",
            action=action,
            cost=result.cost,
            rebuilt=result.rebuilt,
            cluster=str(result.layer.cluster),
        )

    def _resolve_ops_stage(
        self, tors: frozenset, pool: set
    ) -> frozenset:
        candidates: dict[OpsId, frozenset] = {}
        for ops in sorted(pool):
            covered = frozenset(set(self._dcn.tors_of_ops(ops)) & tors)
            if covered:
                candidates[ops] = covered
        weights = {ops: len(covered) for ops, covered in candidates.items()}
        result: CoverResult = greedy_max_weight_cover(
            tors, candidates, weights
        )
        return frozenset(result.selected)

    def _rebuild_after_failure(
        self, failed: OpsId, pool: set
    ) -> ReconfigurationResult:
        from repro.core.abstraction_layer import AlConstructor

        constructor = AlConstructor(self._dcn, kernel=self._kernel)
        old = self._layer
        new_layer = constructor.construct(
            old.cluster, self._attachments, available_ops=pool
        )
        touched = (
            {failed}
            | (old.tor_ids ^ new_layer.tor_ids)
            | (old.ops_ids ^ new_layer.ops_ids)
        )
        self._layer = new_layer
        return ReconfigurationResult(
            layer=self._layer,
            touched_switches=frozenset(touched),
            rebuilt=True,
        )

    # ------------------------------------------------------------------
    def verify(self) -> None:
        """Assert the layer still covers every tracked machine.

        Also flags any OPS recorded as failed that is (still) selected —
        a dead switch covers nothing.

        Raises:
            CoverInfeasibleError: listing the uncovered machines (and
                any dead-but-selected switches).
        """
        live_ops = self._layer.ops_ids - frozenset(self._failed)
        uncovered = {
            machine
            for machine, tors in self._attachments.items()
            if not (set(tors) & self._layer.tor_ids)
        }
        uncovered |= self._layer.ops_ids - live_ops
        for tor in self._layer.tor_ids:
            if not (set(self._dcn.ops_of_tor(tor)) & live_ops):
                uncovered.add(tor)
        if uncovered:
            raise CoverInfeasibleError(frozenset(uncovered))


def full_rebuild_cost(
    dcn: DataCenterNetwork,
    old_layer: AbstractionLayer,
    machine_attachments: Mapping[str, Iterable[TorId]],
    available_ops: Iterable[OpsId],
    strategy: AlConstructionStrategy = AlConstructionStrategy.VERTEX_COVER_GREEDY,
) -> ReconfigurationResult:
    """Reconstruct the AL from scratch and report the switches touched.

    The comparison baseline for incremental repair: touched = symmetric
    difference between old and new ToR/OPS sets (state must change on
    everything entering or leaving the layer).
    """
    from repro.core.abstraction_layer import AlConstructor

    constructor = AlConstructor(dcn, strategy=strategy)
    pool = set(available_ops) | set(old_layer.ops_ids)
    new_layer = constructor.construct(
        old_layer.cluster, machine_attachments, available_ops=pool
    )
    touched = (
        (old_layer.tor_ids ^ new_layer.tor_ids)
        | (old_layer.ops_ids ^ new_layer.ops_ids)
    )
    return ReconfigurationResult(
        layer=new_layer,
        touched_switches=frozenset(touched),
        rebuilt=True,
    )

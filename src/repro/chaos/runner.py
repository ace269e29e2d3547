"""Plays a fault schedule through the control plane and the data plane.

:class:`ChaosRunner` is the drive train of a chaos experiment:

1. **Control-plane pass** — fault events are walked in deterministic
   time order.  Each OPS crash first records the blast radius
   :func:`~repro.analysis.failure_domains.blast_radius_of` *predicts*,
   then hands the failure to
   :meth:`~repro.core.orchestrator.NetworkOrchestrator.handle_ops_failure`
   (AL repair under the :class:`~repro.chaos.recovery.RecoveryPolicy`,
   VNF evacuation, SDN re-pathing) and records what was *observed*.
   Node repairs of previously-failed OPSs return them to the pools.
2. **Data-plane pass** — the same schedule is replayed through the
   event-driven simulator as first-class fault events (reroutes, drops,
   capacity revocation in the fair-share engine).  Each run resolves
   its routes afresh, so ALs the first pass repaired in place need no
   invalidation.

Both passes are deterministic given the schedule and seeds, so the
resulting :class:`~repro.chaos.report.ChaosReport` is replayable
bit-for-bit — the acceptance test for the whole subsystem.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.failure_domains import blast_radius_of
from repro.chaos.report import BlastRadiusObservation, ChaosReport
from repro.core.orchestrator import NetworkOrchestrator, OpsFailureRecovery
from repro.exceptions import ValidationError
from repro.sim.event_simulator import EventDrivenFlowSimulator
from repro.sim.faults import FaultEvent, FaultKind
from repro.sim.flows import Flow

_CRASH_OF_KIND = {
    "ops": FaultKind.OPS_CRASH,
    "tor": FaultKind.TOR_CRASH,
    "server": FaultKind.SERVER_CRASH,
}


class ChaosRunner:
    """Runs fault schedules against one orchestrator (+ simulator)."""

    def __init__(
        self,
        orchestrator: NetworkOrchestrator,
        *,
        simulator: EventDrivenFlowSimulator | None = None,
        policy=None,
    ) -> None:
        """Create a runner.

        Args:
            orchestrator: the control plane under test.
            simulator: data-plane simulator; when omitted, one is built
                over the orchestrator's inventory and cluster manager
                on the orchestrator's :class:`~repro.config.EngineConfig`
                (pass your own to pick a different engine or link
                bandwidth).
            policy: :class:`~repro.chaos.recovery.RecoveryPolicy` for
                AL repair retries (single attempt when omitted).
        """
        self._orchestrator = orchestrator
        clusters = orchestrator.cluster_manager
        self._simulator = (
            simulator
            if simulator is not None
            else EventDrivenFlowSimulator(
                clusters.inventory,
                clusters,
                engines=orchestrator.engines,
                telemetry=orchestrator.telemetry,
            )
        )
        self._policy = policy

    @property
    def simulator(self) -> EventDrivenFlowSimulator:
        """The data-plane simulator the runner replays faults through."""
        return self._simulator

    # ------------------------------------------------------------------
    def run(
        self,
        faults: Sequence["FaultEvent | tuple[float, str]"],
        flows: Sequence[Flow] = (),
        *,
        seed: int | None = None,
    ) -> ChaosReport:
        """Play a schedule through both planes and report.

        Args:
            faults: :class:`FaultEvent` records and/or legacy ``(time,
                node)`` crash tuples.
            flows: the data-plane workload replayed under the same
                schedule (empty for control-plane-only runs).
            seed: recorded in the report for provenance (the schedule
                itself is already fixed).

        Returns:
            The run's :class:`~repro.chaos.report.ChaosReport`.

        Raises:
            ValidationError: on a malformed schedule entry.
            SimulationError: on schedule targets unknown to the fabric.
        """
        orchestrator = self._orchestrator
        network = orchestrator.cluster_manager.inventory.network
        ordered = self._as_events(faults, network)

        clusters = orchestrator.cluster_manager
        recoveries: list[OpsFailureRecovery] = []
        observations: list[BlastRadiusObservation] = []
        for event in ordered:
            if event.kind is FaultKind.OPS_CRASH:
                ops = event.target
                if ops in orchestrator.failed_ops:
                    continue  # already down; play-out treats it as a no-op
                predicted = blast_radius_of(clusters, ops)
                recovery = orchestrator.handle_ops_failure(
                    ops, policy=self._policy
                )
                recoveries.append(recovery)
                observations.append(
                    BlastRadiusObservation(
                        ops=ops,
                        predicted_clusters=predicted.alvc_clusters_affected,
                        observed_clusters=(
                            0 if recovery.cluster is None else 1
                        ),
                        predicted_cluster=predicted.affected_cluster,
                    )
                )
            elif (
                event.kind is FaultKind.NODE_REPAIR
                and event.target in orchestrator.failed_ops
            ):
                orchestrator.mark_ops_repaired(event.target)

        simulation = None
        if flows or ordered:
            simulation = self._simulator.run(list(flows), failures=ordered)

        return ChaosReport(
            seed=seed,
            faults=tuple(ordered),
            recoveries=tuple(recoveries),
            blast_radii=tuple(observations),
            degraded_chains=tuple(orchestrator.degraded_chains()),
            simulation=simulation,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _as_events(
        faults: Sequence["FaultEvent | tuple[float, str]"], network
    ) -> list[FaultEvent]:
        events: list[FaultEvent] = []
        for item in faults:
            if isinstance(item, FaultEvent):
                events.append(item)
                continue
            try:
                when, node = item
            except (TypeError, ValueError):
                raise ValidationError(
                    f"fault entry must be a FaultEvent or (time, node) "
                    f"tuple, got {item!r}"
                ) from None
            try:
                role = network.kind_of(node).value
            except Exception:
                raise ValidationError(
                    f"unknown fault node {node!r}"
                ) from None
            events.append(
                FaultEvent(
                    time=float(when),
                    kind=_CRASH_OF_KIND[role],
                    target=node,
                )
            )
        return sorted(
            events,
            key=lambda event: (
                event.time,
                str(event.target),
                event.kind.value,
                event.severity,
            ),
        )


def run_chaos(
    orchestrator: NetworkOrchestrator,
    faults: Sequence["FaultEvent | tuple[float, str]"],
    flows: Sequence[Flow] = (),
    *,
    policy=None,
    simulator: EventDrivenFlowSimulator | None = None,
    seed: int | None = None,
) -> ChaosReport:
    """One-shot convenience over :class:`ChaosRunner`."""
    runner = ChaosRunner(
        orchestrator, simulator=simulator, policy=policy
    )
    return runner.run(faults, flows, seed=seed)

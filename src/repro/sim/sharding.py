"""AL-sharded parallel event simulation.

Abstraction layers are capacity-disjoint by construction: an
AL-confined route only touches its endpoint servers, their ToRs and the
cluster's own AL optical switches, so two clusters with disjoint server
sets and disjoint AL switch sets can never share a link.  That makes
the event simulation *decomposable*: partition an intra-service
workload by the cluster that owns each flow, simulate every shard
independently over the same fabric (each shard sees the full failure
schedule), and merge the per-shard reports — the merged report is
bit-identical to simulating the whole workload in one process, because
no recompute in one shard can observe a flow from another.

Shards fan out across processes through the existing
:class:`~repro.parallel.SweepRunner` plumbing, inheriting its
deterministic submission-order merge: ``workers=4`` output is
bit-identical to ``workers=1`` (the shard-determinism suite pins this).

Two guard rails keep the decomposition honest:

* :func:`plan_shards` refuses workloads it cannot prove disjoint
  up front — inter-service flows, flows of services without a cluster,
  clusters sharing a server or an AL switch (as co-locating placement
  strategies may produce).
* the merge refuses reports whose busy-link sets overlap — the
  post-hoc detector for routes that escaped their AL (the flat-routing
  fallback, or failure reroutes over the surviving fabric; see the
  sharding caveats in ``docs/api_guide.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.cluster import ClusterManager
from repro.exceptions import SimulationError, UnknownEntityError
from repro.observability.runtime import Telemetry, current_telemetry
from repro.parallel import SweepRunner
from repro.sim.event_simulator import (
    EventDrivenFlowSimulator,
    EventSimulationReport,
)
from repro.sim.faults import FaultEvent, normalize_failures
from repro.sim.flows import Flow
from repro.virtualization.machines import MachineInventory

__all__ = ["ShardPlan", "plan_shards", "simulate_sharded"]


@dataclass(frozen=True, slots=True)
class ShardPlan:
    """One cluster's slice of the workload, with its isolation footprint."""

    cluster_id: str
    flows: tuple[Flow, ...]
    servers: frozenset
    al_switches: frozenset


def plan_shards(
    inventory: MachineInventory,
    clusters: ClusterManager,
    flows: Sequence[Flow],
) -> list[ShardPlan]:
    """Partition a workload by owning cluster, proving shard disjointness.

    Every flow must be intra-service with both endpoints in a clustered
    service; shard server sets and AL switch sets must be pairwise
    disjoint.

    Returns:
        One :class:`ShardPlan` per cluster, ordered by cluster id (the
        deterministic submission order of the fan-out).

    Raises:
        SimulationError: on a flow that cannot be assigned to exactly
            one AL shard, or on clusters whose footprints overlap.
    """
    by_cluster: dict[str, list[Flow]] = {}
    cluster_of: dict[str, object] = {}
    for flow in flows:
        if not flow.intra_service:
            raise SimulationError(
                f"flow {flow.flow_id!r} is inter-service and cannot be "
                "assigned to an AL shard"
            )
        source_service = inventory.get(flow.source).service
        destination_service = inventory.get(flow.destination).service
        if source_service != destination_service:
            raise SimulationError(
                f"flow {flow.flow_id!r} spans services "
                f"{source_service!r} and {destination_service!r} and "
                "cannot be assigned to an AL shard"
            )
        try:
            cluster = clusters.cluster_of_service(source_service)
        except UnknownEntityError:
            raise SimulationError(
                f"flow {flow.flow_id!r}: service {source_service!r} has "
                "no cluster (AL) to shard by"
            ) from None
        key = str(cluster.cluster_id)
        cluster_of[key] = cluster
        by_cluster.setdefault(key, []).append(flow)

    plans: list[ShardPlan] = []
    for key in sorted(by_cluster):
        cluster = cluster_of[key]
        shard_flows = by_cluster[key]
        servers = set()
        for flow in shard_flows:
            servers.add(inventory.host_of(flow.source))
            servers.add(inventory.host_of(flow.destination))
        plans.append(
            ShardPlan(
                cluster_id=key,
                flows=tuple(shard_flows),
                servers=frozenset(servers),
                al_switches=frozenset(cluster.al_switches),
            )
        )

    for index, plan in enumerate(plans):
        for other in plans[index + 1 :]:
            shared_servers = plan.servers & other.servers
            if shared_servers:
                raise SimulationError(
                    f"clusters {plan.cluster_id} and {other.cluster_id} "
                    f"share servers {sorted(shared_servers)}: shards "
                    "would contend for server uplinks"
                )
            shared_switches = plan.al_switches & other.al_switches
            if shared_switches:
                raise SimulationError(
                    f"clusters {plan.cluster_id} and {other.cluster_id} "
                    f"share AL switches {sorted(shared_switches)}: "
                    "shards would contend for AL capacity"
                )
    return plans


def _shard_trial(task: tuple) -> EventSimulationReport:
    """Simulate one shard (top-level so the spawn fan-out can pickle it)."""
    inventory, clusters, shard_flows, failures, options, until = task
    simulator = EventDrivenFlowSimulator(inventory, clusters, **options)
    return simulator.run(shard_flows, failures, until=until)


def _processed_failure_events(
    failures: Sequence["FaultEvent | tuple[float, str]"],
    until: float | None,
) -> int:
    """Failure events each shard processes (window-clipped)."""
    records = normalize_failures(failures)
    if until is None:
        return len(records)
    return sum(1 for record in records if record.time <= until)


def simulate_sharded(
    inventory: MachineInventory,
    clusters: ClusterManager,
    flows: Sequence[Flow],
    failures: Sequence["FaultEvent | tuple[float, str]"] = (),
    *,
    until: float | None = None,
    workers: int = 1,
    runner: SweepRunner | None = None,
    telemetry: Telemetry | None = None,
    **simulator_options,
) -> EventSimulationReport:
    """Simulate an intra-service workload sharded by abstraction layer.

    Args:
        inventory / clusters: the (shared) fabric every shard runs over.
        flows: the workload; must partition cleanly by AL (see
            :func:`plan_shards`).
        failures: fault schedule, replayed by *every* shard (faults hit
            the shared fabric; each shard reacts for its own flows).
            Failure events are counted once in the merged report.
        until: optional virtual-time window, forwarded to each shard.
        workers: process count for the shard fan-out (``1`` runs the
            shards sequentially in-process; any count produces
            bit-identical merged reports).
        runner: bring-your-own :class:`~repro.parallel.SweepRunner`
            (``workers`` is ignored then).
        telemetry: rollup sink; ambient default when omitted.
        **simulator_options: forwarded to
            :class:`~repro.sim.event_simulator.EventDrivenFlowSimulator`.

    Returns:
        The merged :class:`EventSimulationReport` — completions sorted
        by flow id across shards, per-link busy time as a plain dict,
        ``makespan`` the max over shards, counters summed (failure
        events de-duplicated).

    Raises:
        SimulationError: when the workload cannot be sharded, or when
            shard reports turn out to overlap on a link (a route
            escaped its AL — e.g. a failure reroute over the surviving
            fabric).
    """
    sink = telemetry if telemetry is not None else current_telemetry()
    if not flows:
        # Nothing to shard: play the (possibly empty) failure schedule
        # through a single simulator so the report shape matches.
        simulator = EventDrivenFlowSimulator(
            inventory, clusters, telemetry=sink, **simulator_options
        )
        return simulator.run((), failures, until=until)
    plans = plan_shards(inventory, clusters, flows)
    if runner is None:
        runner = SweepRunner(workers=workers, telemetry=sink)
    tasks = [
        (inventory, clusters, plan.flows, tuple(failures), simulator_options, until)
        for plan in plans
    ]
    reports = runner.map(_shard_trial, tasks)

    busy: dict = {}
    completed = []
    dropped = []
    failed_nodes: set[str] = set()
    reroutes = 0
    events = 0
    in_flight = 0
    makespan = 0.0
    for plan, report in zip(plans, reports):
        for link, value in report.link_busy_byte_seconds.items():
            if link in busy:
                raise SimulationError(
                    f"shard {plan.cluster_id} re-used link {sorted(link)} "
                    "already charged by an earlier shard: a route escaped "
                    "its abstraction layer, so the sharded run is not "
                    "equivalent to a global one"
                )
            busy[link] = float(value)
        completed.extend(report.completed)
        dropped.extend(report.dropped)
        failed_nodes.update(report.failed_nodes)
        reroutes += report.reroutes
        events += report.events
        in_flight += report.in_flight
        if report.makespan > makespan:
            makespan = report.makespan
    # Every shard replays the same schedule; the global run would have
    # processed each failure event exactly once.
    events -= (len(plans) - 1) * _processed_failure_events(failures, until)
    return EventSimulationReport(
        completed=tuple(sorted(completed, key=lambda record: record.flow_id)),
        makespan=makespan,
        link_busy_byte_seconds=busy,
        dropped=tuple(sorted(dropped)),
        reroutes=reroutes,
        failed_nodes=tuple(sorted(failed_nodes)),
        events=events,
        in_flight=in_flight,
    )

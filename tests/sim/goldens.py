"""Frozen report checksums for the event-driven flow simulator.

Every simulator parity scenario the suite used to compare engines on —
the randomized workloads, OPS crashes and ``FaultEvent`` schedules, the
admission-mode comparisons, the dual-path link-fault schedule and the
derandomized chaos examples — is defined here once as
a *case*: a function that builds a fresh testbed, runs the simulator and
returns its report.  :func:`report_crc` folds a report into one CRC32,
and ``golden_reports.json`` stores the CRC of every case, recorded
when the simulator still carried four event loops (dict-based
incremental and from-scratch water-filling, the vector loop with
per-event and with batched admission) and all of them agreed on every
case bit for bit.  The one remaining data plane must keep reproducing
each of them, and :func:`assert_golden` also certifies the rates every
event step of the run adopts against the max-min definition and the
textbook water-filling (on the per-event loop, whose steps it can
observe), then matches the CRC of the compiled event loop's run.

Regenerate (only for an intended change of simulation semantics)::

    PYTHONPATH=src python -m tests.sim.goldens
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import random
import sys
import zlib
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core.cluster import ClusterManager
from repro.sim import ckernel, event_simulator
from repro.sim.event_simulator import EventDrivenFlowSimulator
from repro.sim.fairshare import check_max_min_fair, max_min_fair_rates
from repro.sim.faults import FaultEvent, FaultKind
from repro.sim.flows import Flow
from repro.sim.traffic import TrafficConfig, TrafficGenerator
from repro.sim.vector import BatchedFairShareEngine
from repro.topology.datacenter import DataCenterNetwork
from repro.topology.elements import (
    Domain,
    LinkSpec,
    OpticalSwitchSpec,
    ServerSpec,
    TorSpec,
)
from repro.topology.generators import build_alvc_fabric
from repro.virtualization.machines import MachineInventory
from repro.virtualization.services import ServiceCatalog
from repro.virtualization.vm_placement import (
    PlacementStrategy,
    VmPlacementEngine,
)

FIXTURE = Path(__file__).with_name("golden_reports.json")


def report_crc(report) -> int:
    """CRC32 over a report's observable outcome.

    Folds, in order: every completed flow (id, arrival and completion
    time as ``float.hex``, hops), every dropped flow id, the reroute
    count, ``makespan.hex()`` and every busy link's byte-seconds
    (sorted by link, ``float.hex``).  One ulp of drift anywhere in the
    fair-share rate trace moves some completion time and the CRC.
    """
    crc = 0
    for record in report.completed:
        blob = (
            f"{record.flow_id}|{record.arrival_time.hex()}|"
            f"{record.completion_time.hex()}|{record.hops}"
        )
        crc = zlib.crc32(blob.encode("utf-8"), crc)
    for flow in report.dropped:
        crc = zlib.crc32(f"dropped|{flow}".encode("utf-8"), crc)
    crc = zlib.crc32(f"reroutes|{report.reroutes}".encode("utf-8"), crc)
    crc = zlib.crc32(
        f"makespan|{report.makespan.hex()}".encode("utf-8"), crc
    )
    busy = report.link_busy_byte_seconds
    for link in sorted(busy, key=lambda pair: tuple(sorted(pair))):
        blob = ",".join(sorted(link)) + "|" + float(busy[link]).hex()
        crc = zlib.crc32(blob.encode("utf-8"), crc)
    return crc


# ----------------------------------------------------------------------
# Testbeds
# ----------------------------------------------------------------------
def clustered_testbed():
    """The suite's ``populated_inventory`` fabric (8x8 servers, 8 OPSs,
    six VMs each of web, map-reduce and sns) with one AL cluster per
    service."""
    fabric = build_alvc_fabric(
        n_racks=8,
        servers_per_rack=8,
        n_ops=8,
        dual_homing_fraction=0.25,
        seed=11,
    )
    inventory = MachineInventory(fabric)
    catalog = ServiceCatalog.standard()
    engine = VmPlacementEngine(
        inventory, strategy=PlacementStrategy.SERVICE_AFFINITY, seed=3
    )
    for service in ("web", "map-reduce", "sns"):
        for _ in range(6):
            engine.place(inventory.create_vm(catalog.get(service)))
    clusters = ClusterManager(inventory)
    for service in inventory.services_present():
        clusters.create_cluster(service)
    return inventory, clusters


def _traffic(inventory, seed: int, count: int, **config) -> list[Flow]:
    return TrafficGenerator(
        inventory, TrafficConfig(**config), seed=seed
    ).flows(count)


def fault_schedule(rng: random.Random, network) -> list[FaultEvent]:
    """A randomized FaultEvent schedule with capacity cuts mid-run:
    one to three degrades, usually a cut with its repair, sometimes an
    OPS crash with its repair."""
    edges = sorted((a, b) for a, b, _ in network.edges())
    ops = network.optical_switches()
    schedule = []
    for _ in range(rng.randint(1, 3)):
        a, b = rng.choice(edges)
        schedule.append(
            FaultEvent(
                time=round(rng.uniform(0.1, 1.5), 3),
                kind=FaultKind.LINK_DEGRADE,
                target=(a, b),
                severity=rng.choice([0.25, 0.5, 0.75]),
            )
        )
    if rng.random() < 0.7:
        a, b = rng.choice(edges)
        cut_at = round(rng.uniform(0.1, 1.0), 3)
        schedule.append(
            FaultEvent(time=cut_at, kind=FaultKind.LINK_CUT, target=(a, b))
        )
        schedule.append(
            FaultEvent(
                time=cut_at + 0.5, kind=FaultKind.LINK_REPAIR, target=(a, b)
            )
        )
    if rng.random() < 0.5 and ops:
        victim = rng.choice(ops)
        crash_at = round(rng.uniform(0.1, 0.8), 3)
        schedule.append(
            FaultEvent(time=crash_at, kind=FaultKind.OPS_CRASH, target=victim)
        )
        schedule.append(
            FaultEvent(
                time=crash_at + 0.6, kind=FaultKind.NODE_REPAIR, target=victim
            )
        )
    return schedule


def _admission_faults(rng: random.Random, network) -> list[FaultEvent]:
    """Cut/repair, a degrade and an OPS crash/repair early in the run."""
    edges = sorted((a, b) for a, b, _ in network.edges())
    a, b = rng.choice(edges)
    cut_at = round(rng.uniform(0.05, 0.3), 3)
    failures = [
        FaultEvent(time=cut_at, kind=FaultKind.LINK_CUT, target=(a, b)),
        FaultEvent(
            time=cut_at + 0.2, kind=FaultKind.LINK_REPAIR, target=(a, b)
        ),
        FaultEvent(
            time=round(rng.uniform(0.4, 0.6), 3),
            kind=FaultKind.LINK_DEGRADE,
            target=rng.choice(edges),
            severity=0.5,
        ),
    ]
    ops = network.optical_switches()
    if ops:
        crash_at = round(rng.uniform(0.1, 0.4), 3)
        victim = rng.choice(ops)
        failures += [
            FaultEvent(time=crash_at, kind=FaultKind.OPS_CRASH, target=victim),
            FaultEvent(
                time=crash_at + 0.25,
                kind=FaultKind.NODE_REPAIR,
                target=victim,
            ),
        ]
    return failures


def _dual_path_flows():
    """Two disjoint OPS paths between two racks, four web VMs and six
    staggered flows across them (10 Gbps everywhere)."""
    dcn = DataCenterNetwork("dual")
    dcn.add_server(ServerSpec(server_id="srv-0"))
    dcn.add_server(ServerSpec(server_id="srv-1"))
    dcn.add_tor(TorSpec(tor_id="tor-0"))
    dcn.add_tor(TorSpec(tor_id="tor-1", rack=1))
    for ops in ("ops-0", "ops-1"):
        dcn.add_optical_switch(OpticalSwitchSpec(ops_id=ops))
    dcn.connect("srv-0", "tor-0")
    dcn.connect("srv-1", "tor-1")
    for ops in ("ops-0", "ops-1"):
        for tor in ("tor-0", "tor-1"):
            dcn.connect(
                tor, ops, LinkSpec(domain=Domain.OPTICAL, bandwidth_gbps=10.0)
            )
    inventory = MachineInventory(dcn)
    web = ServiceCatalog.standard().get("web")
    vms = [inventory.create_vm(web) for _ in range(4)]
    for index, vm in enumerate(vms):
        inventory.place(vm, f"srv-{index % 2}")
    rate = 1.25e9
    flows = [
        Flow(
            flow_id=f"flow-{index}",
            source=vms[index % 2].vm_id,
            destination=vms[2 + (index + 1) % 2].vm_id,
            size_bytes=rate * (0.5 + 0.25 * index),
            arrival_time=0.3 * index,
        )
        for index in range(6)
    ]
    return inventory, flows


_LINK_FAULTS = [
    FaultEvent(
        time=0.8,
        kind=FaultKind.LINK_DEGRADE,
        target=("tor-0", "ops-0"),
        severity=0.3,
    ),
    FaultEvent(time=1.5, kind=FaultKind.LINK_CUT, target=("tor-0", "ops-0")),
    FaultEvent(time=2.5, kind=FaultKind.OPS_CRASH, target="ops-1"),
    FaultEvent(time=4.0, kind=FaultKind.NODE_REPAIR, target="ops-1"),
    FaultEvent(
        time=5.0, kind=FaultKind.LINK_REPAIR, target=("tor-0", "ops-0")
    ),
]


# ----------------------------------------------------------------------
# Cases: case id -> run() -> report
# ----------------------------------------------------------------------
def _workload(seed, count, config, *, until=None):
    def run():
        inventory, clusters = clustered_testbed()
        flows = _traffic(inventory, seed, count, **config)
        simulator = EventDrivenFlowSimulator(inventory, clusters)
        return simulator.run(flows, until=until)

    return run


def _ops_crashes(seed):
    def run():
        inventory, clusters = clustered_testbed()
        flows = _traffic(inventory, seed, 80, arrival_rate=40.0)
        victims = inventory.network.optical_switches()[:2]
        failures = [(0.05, victims[0]), (0.4, victims[1])]
        simulator = EventDrivenFlowSimulator(inventory, clusters)
        return simulator.run(flows, failures=failures)

    return run


def _fault_schedule_case(seed):
    def run():
        inventory, clusters = clustered_testbed()
        rng = random.Random(seed)
        flows = _traffic(inventory, seed, 30, arrival_rate=40.0, sigma=0.8)
        failures = fault_schedule(rng, inventory.network)
        simulator = EventDrivenFlowSimulator(inventory, clusters)
        return simulator.run(flows, failures=failures)

    return run


def _admission_faults_case(seed):
    def run():
        inventory, clusters = clustered_testbed()
        rng = random.Random(seed)
        flows = _traffic(inventory, seed, 30, arrival_rate=50.0, sigma=0.8)
        failures = _admission_faults(rng, inventory.network)
        simulator = EventDrivenFlowSimulator(inventory, clusters)
        return simulator.run(flows, failures=failures)

    return run


def _link_faults():
    inventory, flows = _dual_path_flows()
    return EventDrivenFlowSimulator(
        inventory, default_bandwidth_gbps=10.0
    ).run(flows, failures=_LINK_FAULTS)


def _chaos_case(example: dict):
    def run():
        from repro.chaos import FaultInjector
        from tests.chaos.testbed import build_inventory

        inventory, services = build_inventory(seed=example["fabric_seed"])
        clusters = ClusterManager(inventory)
        for service in services:
            clusters.create_cluster(service)
        injector = FaultInjector(inventory.network, seed=example["chaos_seed"])
        injector.schedule(
            duration=example["duration"],
            rate=example["rate"],
            repair_after=example["repair_after"],
        )
        flows = TrafficGenerator(
            inventory, seed=example["chaos_seed"]
        ).flows(8)
        return EventDrivenFlowSimulator(inventory, clusters).run(
            flows, failures=injector.events()
        )

    return run


def build_cases(chaos_examples) -> dict[str, Callable]:
    """Every golden case id mapped to its runner."""
    cases: dict[str, Callable] = {}
    for seed in range(101, 107):
        cases[f"workload/{seed}"] = _workload(
            seed, 150, dict(arrival_rate=60.0, sigma=0.8)
        )
    cases["ops_crashes/41"] = _ops_crashes(41)
    cases["route_cache/51"] = _workload(51, 120, dict(arrival_rate=60.0))
    for seed in (61, 62):
        cases[f"workload/{seed}"] = _workload(
            seed, 80, dict(arrival_rate=40.0)
        )
    for seed in range(1000, 1060):
        cases[f"fault_schedule/{seed}"] = _fault_schedule_case(seed)
    for seed in range(2000, 2010):
        cases[f"fault_schedule/{seed}"] = _fault_schedule_case(seed)
    batched = dict(arrival_rate=50.0, sigma=0.8)
    for seed in (0, 1, 2):
        cases[f"admission/{seed}"] = _workload(seed, 25, batched)
    for seed in (3, 4):
        cases[f"admission_faults/{seed}"] = _admission_faults_case(seed)
    cases["admission_window/21"] = _workload(21, 40, batched, until=0.25)
    cases["link_faults/dual_path"] = _link_faults
    for index, example in enumerate(chaos_examples):
        cases[f"chaos/{index:02d}"] = _chaos_case(example)
    return cases


@contextlib.contextmanager
def certified_recomputes():
    """Check every data-plane step inside the block.

    After each :meth:`~repro.sim.vector.BatchedFairShareEngine.settle`
    the rates the flow table adopted must pass
    :func:`~repro.sim.fairshare.check_max_min_fair` and equal
    :func:`~repro.sim.fairshare.max_min_fair_rates`, bit for bit, on
    the live flows' routes as the simulator stored them (each slot's
    ``LinkId`` tuple in ``table.meta``) and the engine's capacities;
    the step's next completion must be the table's minimum eta, with
    its first slot and tie count.
    The block pins the per-event loop: the compiled loop's steps never
    return to Python.
    """
    original = BatchedFairShareEngine.settle

    def settle(engine, now):
        upcoming = original(engine, now)
        table = engine.table
        flow_links, got = {}, {}
        for slot in table.active_slots().tolist():
            # The ``LinkId`` tuple the simulator stored with the flow,
            # not the engine's class pool: the certificate checks the
            # engine's rates against the routes it was handed.
            flow = table.flow_ids[slot]
            flow_links[flow] = list(table.meta[slot][2])
            got[flow] = float(table.rate[slot])
        capacities = engine.capacities()
        check_max_min_fair(got, flow_links, capacities)
        assert got == max_min_fair_rates(flow_links, capacities)
        eta = table.eta[: table.size]
        best = float(eta.min()) if eta.shape[0] else math.inf
        if best < math.inf:
            tied = np.flatnonzero(eta == best)
            assert upcoming == (best, int(tied[0]), tied.shape[0])
        else:
            assert upcoming == (math.inf, -1, 0)
        return upcoming

    BatchedFairShareEngine.settle = settle
    compiled = event_simulator._COMPILED_LOOP
    event_simulator._COMPILED_LOOP = False
    try:
        yield
    finally:
        BatchedFairShareEngine.settle = original
        event_simulator._COMPILED_LOOP = compiled


@functools.cache
def golden_fixture() -> tuple[dict[str, Callable], dict[str, int], list]:
    """``(cases, golden CRC per case, chaos examples)`` from the
    committed fixture (read once, on first use)."""
    fixture = json.loads(FIXTURE.read_text())
    examples = fixture["chaos_examples"]
    return build_cases(examples), fixture["crc"], examples


def assert_golden(case: str) -> None:
    """Run ``case`` with certified event steps and match its golden CRC;
    with the kernel, run it again on the compiled event loop and match
    the CRC too."""
    cases, crcs, _ = golden_fixture()
    with certified_recomputes():
        report = cases[case]()
    assert report_crc(report) == crcs[case], case
    if ckernel.kernels() is not None:
        assert report_crc(cases[case]()) == crcs[case], case


def main() -> int:
    cases, _, examples = golden_fixture()
    crcs = {case: report_crc(run()) for case, run in cases.items()}
    FIXTURE.write_text(
        json.dumps({"chaos_examples": examples, "crc": crcs}, indent=1)
        + "\n"
    )
    print(f"wrote {len(crcs)} golden CRCs to {FIXTURE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

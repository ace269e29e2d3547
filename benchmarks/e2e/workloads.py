"""The four end-to-end workloads, run one repetition per child process.

Run as a script by ``run.py``::

    python3 benchmarks/e2e/workloads.py '{"workload": "flows-al", ...}'

The child imports everything and builds the C water-filling kernel
before any clock starts, runs one repetition, checks its outputs and
prints one JSON result line.  Each workload drives the program through
its public entry points only: :class:`~repro.stack.AlvcStack`,
:func:`~repro.service.restore.restore_stack` and
:class:`~repro.sim.event_simulator.EventDrivenFlowSimulator` (plus the
fabric, inventory and cluster builders the data-plane testbed needs).

The fabric seed is fixed (:data:`FABRIC_SEED`): the system under test is
the same in every run.  The repetition seed only draws the inputs: the
chain stream, the tenant scenario, the flows and the fault schedule.
"""

from __future__ import annotations

import collections
import hashlib
import json
import random
import resource
import sys
import time
import zlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402  (after the path insert)

from repro.core.cluster import ClusterManager  # noqa: E402
from repro.exceptions import ALVCError  # noqa: E402
from repro.observability.runtime import resolve  # noqa: E402
from repro.service.restore import restore_stack  # noqa: E402
from repro.service.snapshot import state_view, write_snapshot  # noqa: E402
from repro.sim.ckernel import kernel_available  # noqa: E402
from repro.sim.event_simulator import EventDrivenFlowSimulator  # noqa: E402
from repro.sim.faults import FaultEvent, FaultKind  # noqa: E402
from repro.sim.traffic import TrafficConfig, TrafficGenerator  # noqa: E402
from repro.stack import AlvcStack  # noqa: E402
from repro.topology.generators import build_alvc_fabric  # noqa: E402
from repro.virtualization.machines import MachineInventory  # noqa: E402
from repro.virtualization.services import (  # noqa: E402
    STANDARD_SERVICES,
    ServiceCatalog,
)
from repro.workload import (  # noqa: E402
    AdmissionPolicy,
    ScenarioConfig,
    generate_scenario,
)

import trace  # noqa: E402  (benchmarks/e2e/trace.py, the script's dir)

FABRIC_SEED = 0

#: E23's chain shapes: optical-capable and carrier-VM functions mixed.
CHAIN_MIX = (("firewall", "nat"), ("dpi",), ("proxy", "ids"), ("nat",))

SERVICES = tuple(service.name for service in STANDARD_SERVICES)

#: A cut link is repaired this long after the cut (virtual seconds).
REPAIR_AFTER = 0.010

#: Nominal :func:`calibrate` time: ``ref_throughput`` is the throughput
#: the host would give if the calibration loop took exactly this long.
REF_CALIBRATION_S = 0.004


def _clock() -> float:
    return time.perf_counter()


def calibrate(samples: int = 5) -> float:
    """Median wall time of a fixed pure-Python integer loop (seconds).

    It allocates no containers, so neither the program's heap nor the
    garbage collector can change it: only the host's CPU speed does.
    """
    times = []
    for _ in range(samples):
        began = _clock()
        total = 0
        for value in range(50_000):
            total += value * value
        times.append(_clock() - began)
    return sorted(times)[samples // 2]


def view_digest(stack) -> str:
    """SHA-256 of the stack's state view without its telemetry counters.

    With telemetry off this is the state ``state_digest`` hashes.  With
    it on, ``state_digest`` also hashes the counters, which differ from
    an untraced run and, for ``alvc_faults_injected_total``, between a
    live stack and its replay; this digest compares all of them.
    """
    view = state_view(stack)
    del view["metrics"]
    canonical = json.dumps(view, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ----------------------------------------------------------------------
# chain-stream
# ----------------------------------------------------------------------
def chain_stream(params: dict, seed: int, work: Path, tracer,
                 telemetry: str, restore: bool) -> dict:
    """Closed loop, one client: provision/teardown commands.

    With ``restore`` the stack is then rebuilt from its journal, and from
    a snapshot written at the head; both must equal the live stack.
    """
    journal = work / "chain-stream.alvc"
    snapshot = work / "chain-stream.snap"
    for path in (journal, snapshot):
        path.unlink(missing_ok=True)
    # E23's stream: chain shapes and services both round-robin (the seed
    # picks where each cycle starts), so every service carries the same
    # shape mix and no cluster runs out of capacity.
    rng = random.Random(seed)
    shape_offset = rng.randrange(len(CHAIN_MIX))
    service_offset = rng.randrange(len(SERVICES))

    with tracer.phase("setup"):
        began = _clock()
        stack = AlvcStack.build(
            n_racks=params["n_racks"], servers_per_rack=8,
            n_ops=params["n_ops"], vms_per_service=4, seed=FABRIC_SEED,
            exclusive_chains=False, journal=journal, sync="off",
            telemetry=telemetry,
        )
        for service in SERVICES:
            stack.cluster(service)
        setup_s = _clock() - began

    live: collections.deque = collections.deque()
    latencies: list[float] = []
    failed = 0
    provisions = 0
    calibration = calibrate()
    with tracer.phase("run"):
        began = _clock()
        for _ in range(params["commands"]):
            if len(live) >= params["live"]:
                stack.teardown(live.popleft())
                continue
            shape = CHAIN_MIX[(shape_offset + provisions) % len(CHAIN_MIX)]
            service = SERVICES[(service_offset + provisions) % len(SERVICES)]
            provisions += 1
            started = _clock()
            try:
                chain = stack.provision(shape, service=service)
            except ALVCError:
                failed += 1
                continue
            latencies.append((_clock() - started) * 1e3)
            live.append(chain.chain_id)
        run_s = _clock() - began
    calibration = (calibration + calibrate()) / 2

    digest = view_digest(stack)
    stack.journal.close()
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "calibration_s": calibration,
        "units": params["commands"],
        "attempted": params["commands"],
        "failed": failed,
        "parity": {},
        "values": {"view_digest": digest},
        "provision_ms": latencies,
        "counts": {},
        "telemetry": stack.telemetry,
    }
    if restore:
        with tracer.phase("replay"):
            began = _clock()
            replayed = restore_stack(journal)
            result["replay_s"] = _clock() - began
        write_snapshot(replayed.stack, snapshot,
                       journal_seq=replayed.journal_seq)
        with tracer.phase("snapshot_restore"):
            began = _clock()
            restored = restore_stack(journal, snapshot)
            result["snapshot_restore_s"] = _clock() - began
        result["parity"] = {
            "replay_digest": view_digest(replayed.stack) == digest,
            "snapshot_digest": view_digest(restored.stack) == digest,
            "snapshot_used": restored.source == "snapshot",
        }
    return result


# ----------------------------------------------------------------------
# tenant-month
# ----------------------------------------------------------------------
def tenant_month(params: dict, seed: int, work: Path, tracer,
                 telemetry: str, restore: bool) -> dict:
    """E25's fleet arm: tenant churn, scaling, OPS chaos, storms, defrag.

    With ``restore`` the stack is then rebuilt from its journal, which
    must equal the live stack.
    """
    journal = work / "tenant-month.alvc"
    journal.unlink(missing_ok=True)
    scenario = generate_scenario(
        ScenarioConfig(
            days=params["days"], epochs_per_day=24, arrival_rate=1.0,
            mean_lifetime_epochs=18.0, slots=12, slot_cpu=1.0,
            slot_memory_gb=2.0, slot_storage_gb=10.0, demand_base=0.2,
            demand_amplitude=1.2,
        ),
        seed=seed,
    )
    policy = AdmissionPolicy(defrag_threshold=0.5, defrag_period=12)

    with tracer.phase("setup"):
        began = _clock()
        stack = AlvcStack.build(
            n_racks=params["n_racks"], servers_per_rack=8,
            n_ops=params["n_ops"], vms_per_service=4, seed=FABRIC_SEED,
            exclusive_chains=False, journal=journal, sync="off",
            telemetry=telemetry,
        )
        setup_s = _clock() - began
    calibration = calibrate()
    with tracer.phase("run"):
        began = _clock()
        report = stack.run_workload(
            scenario, admission=policy, chaos_rate=0.03, storm_period=12,
            storm_size=4,
        )
        run_s = _clock() - began
    calibration = (calibration + calibrate()) / 2

    digest = view_digest(stack)
    stack.journal.close()
    # Refused for want of a free slot is an admission decision; any other
    # rejection is a provisioning attempt that failed.
    failed = sum(
        count for reason, count in report.rejections if reason != "no-slot"
    )
    scaling = report.scale_ups + report.scale_downs + report.scale_blocked
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "calibration_s": calibration,
        "units": report.epochs,
        "attempted": report.tenants_arrived,
        "failed": failed,
        "parity": {},
        "values": {
            "view_digest": digest,
            "decisions_checksum": report.decisions_checksum,
        },
        "counts": {
            "workload.admission.reject_ratio": (
                report.tenants_rejected / max(report.tenants_arrived, 1)
            ),
            "workload.admission.reembeddings": report.reembeddings,
            "workload.scaling.blocked_ratio": (
                report.scale_blocked / max(scaling, 1)
            ),
        },
        "telemetry": stack.telemetry,
    }
    if restore:
        with tracer.phase("replay"):
            began = _clock()
            replayed = restore_stack(journal)
            result["replay_s"] = _clock() - began
        result["parity"] = {
            "replay_digest": view_digest(replayed.stack) == digest,
        }
    return result


# ----------------------------------------------------------------------
# flows-al and flows-mixed-faults
# ----------------------------------------------------------------------
def flows_testbed(seed: int, telemetry):
    """E26's testbed: 1024 servers, each standard service on 2 racks.

    One VM per server, 16 per service; racks restricted to ToRs with an
    OPS uplink so every exclusive per-service AL is coverable.  Returns
    the inventory, the cluster manager and the racks in use.
    """
    dcn = build_alvc_fabric(n_racks=128, servers_per_rack=8, n_ops=48,
                            seed=seed)
    inventory = MachineInventory(dcn)
    catalog = ServiceCatalog.standard()
    tors = sorted(
        (tor for tor in dcn.tors() if dcn.ops_of_tor(tor)),
        key=lambda tor: (len(tor), tor),
    )
    claimed: set = set()
    for index, service in enumerate(SERVICES):
        racks = tors[2 * index: 2 * index + 2]
        # Dual-homed servers hang under two ToRs: claim each once.
        servers = [
            server
            for tor in racks
            for server in sorted(dcn.servers_under(tor))
            if server not in claimed
        ]
        claimed.update(servers)
        for slot in range(16):
            vm = inventory.create_vm(catalog.get(service))
            inventory.place(vm, servers[slot % len(servers)])
    clusters = ClusterManager(inventory, telemetry=telemetry)
    for service in SERVICES:
        clusters.create_cluster(service)
    return inventory, clusters, tors[: 2 * len(SERVICES)]


def draw_faults(dcn, racks, count: int, horizon: float, seed: int) -> list:
    """``count`` ToR-OPS link faults on the service racks in [0, horizon).

    Two of every three are a cut repaired :data:`REPAIR_AFTER` later, the
    third a degrade to half capacity.  Fault times sit on a grid twice the
    repair delay apart, so no two cuts overlap, and only ToRs with two
    distinct OPS uplinks are cut: no flow is ever partitioned.
    """
    rng = random.Random(seed)
    links = sorted(
        (tor, ops)
        for tor in racks
        if len(set(dcn.ops_of_tor(tor))) >= 2
        for ops in dcn.ops_of_tor(tor)
    )
    step = 2 * REPAIR_AFTER
    slots = sorted(rng.sample(range(int(horizon / step)), count))
    faults = []
    for index, slot in enumerate(slots):
        at = slot * step
        link = rng.choice(links)
        if index % 3 == 2:
            faults.append(FaultEvent(at, FaultKind.LINK_DEGRADE, link, 0.5))
        else:
            faults.append(FaultEvent(at, FaultKind.LINK_CUT, link))
            faults.append(
                FaultEvent(at + REPAIR_AFTER, FaultKind.LINK_REPAIR, link)
            )
    return faults


def rate_trace_crc(report) -> int:
    """CRC32 over every completion and busy link, floats as hex.

    The same fingerprint E26 commits: one ulp of rate drift anywhere
    changes a completion time and the checksum.
    """
    crc = 0
    for record in report.completed:
        blob = (
            f"{record.flow_id}|{record.arrival_time.hex()}|"
            f"{record.completion_time.hex()}|{record.hops}"
        )
        crc = zlib.crc32(blob.encode("utf-8"), crc)
    busy = report.link_busy_byte_seconds
    for link in sorted(busy, key=lambda pair: tuple(sorted(pair))):
        blob = ",".join(sorted(link)) + "|" + float(busy[link]).hex()
        crc = zlib.crc32(blob.encode("utf-8"), crc)
    return crc


def flows(params: dict, seed: int, work: Path, tracer,
          telemetry: str, restore: bool) -> dict:
    """Open arrivals through the vector data plane (batched admission).

    ``restore`` is unused: the data plane keeps no journal.
    """
    sink = resolve(telemetry)
    with tracer.phase("setup"):
        began = _clock()
        inventory, clusters, racks = flows_testbed(FABRIC_SEED, sink)
        simulator = EventDrivenFlowSimulator(
            inventory, clusters, engines={"sim_engine": "vector"},
            telemetry=sink,
        )
        setup_s = _clock() - began
    workload = TrafficGenerator(
        inventory,
        TrafficConfig(
            arrival_rate=params["rate"], sigma=0.8,
            intra_service_probability=params["intra"],
        ),
        seed=seed,
    ).flows(params["flows"])
    faults = (
        draw_faults(inventory.network, racks, params["faults"],
                    params["horizon"], seed)
        if params["faults"] else []
    )
    calibration = calibrate()
    with tracer.phase("run"):
        began = _clock()
        report = simulator.run(workload, faults)
        run_s = _clock() - began
    calibration = (calibration + calibrate()) / 2
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "calibration_s": calibration,
        "units": report.events,
        "attempted": len(workload),
        "failed": len(report.dropped),
        "parity": {
            "all_flows_finished": (
                report.flows + len(report.dropped) == len(workload)
                and report.in_flight == 0
            ),
        },
        "values": {"rate_trace_crc": rate_trace_crc(report)},
        "resolved": {
            "simulator.engine": simulator.engine,
            "simulator.admission": simulator.admission,
        },
        "counts": {
            "sim.event_simulator.reroutes": report.reroutes,
            "sim.events": report.events,
        },
        "telemetry": sink,
    }


WORKLOADS = {
    "chain-stream": chain_stream,
    "tenant-month": tenant_month,
    "flows-al": flows,
    "flows-mixed-faults": flows,
}


# ----------------------------------------------------------------------
# Traced-run counters from the program's own telemetry
# ----------------------------------------------------------------------
def telemetry_counts(telemetry, tracer, result: dict) -> dict:
    """Per-layer ratios from the telemetry counters and the span counts."""
    metrics = telemetry.registry.snapshot()

    def total(name: str) -> float:
        family = metrics.get(name, {"series": []})
        return sum(entry.get("value", 0.0) for entry in family["series"])

    def histogram(name: str) -> tuple[float, float]:
        family = metrics.get(name, {"series": []})
        return (
            sum(entry["count"] for entry in family["series"]),
            sum(entry["sum"] for entry in family["series"]),
        )

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    recomputes, rounds = histogram("alvc_fairshare_vector_rounds")
    al_count, al_ops = histogram("alvc_al_size")
    bulk = total("alvc_admission_bulk_flows_total")
    fallback = total("alvc_admission_fallback_flows_total")
    hits = total("alvc_route_cache_hits_total")
    misses = total("alvc_route_cache_misses_total")
    events = result["counts"].get("sim.events", 0)
    defrags = tracer.callable_calls.get("AdmissionController.defrag", 0)
    return {
        "service.journal.bytes_per_record": ratio(
            total("alvc_journal_bytes_total"),
            total("alvc_journal_records_total"),
        ),
        "sim.vector.recomputes_per_event": ratio(recomputes, events),
        "sim.vector.rounds_per_recompute": ratio(rounds, recomputes),
        "sim.admission.bulk_ratio": ratio(bulk, bulk + fallback),
        "sim.admission.pairs_resolved": total(
            "alvc_admission_pairs_resolved_total"
        ),
        "sim.admission.pairs_invalidated": total(
            "alvc_admission_invalidated_pairs_total"
        ),
        "sdn.route_cache.hit_ratio": ratio(hits, hits + misses),
        "core.placement.oeo_per_chain": ratio(
            total("alvc_placement_conversions_total"),
            total("alvc_placements_solved_total"),
        ),
        "core.abstraction_layer.ops_per_al": ratio(al_ops, al_count),
        "workload.admission.defrag_yield": ratio(
            result["counts"].get("workload.admission.reembeddings", 0),
            defrags,
        ),
    }


def main(spec: dict) -> dict:
    """Run one repetition described by ``spec`` and return its result."""
    work = Path(spec["work"])
    params = spec["params"]
    kernel = kernel_available()  # compiled (or found) before any clock
    tracer = trace.NullTracer()
    if spec["trace"]:
        tracer = trace.Tracer(spec["rep"])
        tracer.install()
    # The traced repetition also turns the program's telemetry on, only
    # to export its counters; each stack gets its own sink.
    result = WORKLOADS[spec["workload"]](
        params, spec["seed"], work, tracer,
        "json" if spec["trace"] else "off", spec["rep"] == 0,
    )
    telemetry = result.pop("telemetry")
    result["throughput_per_s"] = result["units"] / result["run_s"]
    result["ref_throughput"] = (
        result["throughput_per_s"] * result["calibration_s"]
        / REF_CALIBRATION_S
    )
    result["work_s"] = (
        result["setup_s"] + result["run_s"] + result.get("replay_s", 0.0)
        + result.get("snapshot_restore_s", 0.0)
    )
    result["kernel_available"] = kernel
    if spec["trace"]:
        result["layers"] = tracer.layer_metrics()
        result["counts"].update(telemetry_counts(telemetry, tracer, result))
        result["root_s"] = tracer.root_ns / 1e9
        tracer.write(work / f"trace-{spec['workload']}.json",
                     spec["workload"])
    result["numpy"] = numpy.__version__
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))

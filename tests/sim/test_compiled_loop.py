"""The compiled event loop (``alvc_run``) against the per-event loop.

Between external events the simulator runs its event loop inside the C
kernel and hands back to Python for a fault, the window edge, an arrival
batch it cannot admit, a full output buffer or the end of the run.
Arrivals inside a failure window are routed once per fault, in one
batch, and admitted in the kernel like plan arrivals; only one with no
surviving path hands back.  Every report must be bit-identical to the
per-event loop's and to the numpy mirrors' (``ALVC_NO_CKERNEL``),
whichever hand-backs a run takes; eta ties must finish the smallest flow
id first; and the telemetry totals must not depend on which loop ran.
The module also holds the simple-path property the engine relies on:
every route the simulator installs repeats no link, and a route that
does is refused with :class:`~repro.exceptions.RepeatedLinkError` on
every loop.
"""

import contextlib
import dataclasses
import importlib.util
import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import RepeatedLinkError
from repro.observability.runtime import Telemetry, use_telemetry
from repro.sim import ckernel, event_simulator
from repro.sim.admission import InternedRoute, resolve_tree_path
from repro.sim.event_simulator import (
    HANDOFF_REASONS,
    EventDrivenFlowSimulator,
)
from repro.sim.fairshare import ROUNDS_BUCKETS, links_on_path
from repro.sim.faults import FaultEvent, FaultKind
from repro.sim.flows import Flow
from repro.sim.vector import BatchedFairShareEngine
from repro.topology.datacenter import DataCenterNetwork
from repro.topology.elements import (
    Domain,
    LinkSpec,
    OpticalSwitchSpec,
    ServerSpec,
    TorSpec,
)
from repro.virtualization.machines import MachineInventory
from repro.virtualization.services import ServiceCatalog
from tests.sim.goldens import (
    _traffic,
    clustered_testbed,
    fault_schedule,
    golden_fixture,
    report_crc,
)

needs_kernel = pytest.mark.skipif(
    ckernel.kernels() is None, reason="no compiled kernel in this environment"
)

E2E = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"


@contextlib.contextmanager
def _per_event_loop():
    """Pin the per-event loop (the compiled kernel still runs its
    steps)."""
    saved = event_simulator._COMPILED_LOOP
    event_simulator._COMPILED_LOOP = False
    try:
        yield
    finally:
        event_simulator._COMPILED_LOOP = saved


@contextlib.contextmanager
def _mirror():
    """Pin the numpy and Python mirrors (``ALVC_NO_CKERNEL``)."""
    saved = ckernel._kernel
    ckernel._kernel = None
    try:
        yield
    finally:
        ckernel._kernel = saved


def _assert_same_report(got, want) -> None:
    """Every report field, bit for bit, and the report CRC."""
    assert got.completed == want.completed
    assert [record.completion_time.hex() for record in got.completed] == [
        record.completion_time.hex() for record in want.completed
    ]
    assert got.makespan.hex() == want.makespan.hex()
    assert dict(got.link_busy_byte_seconds) == dict(
        want.link_busy_byte_seconds
    )
    assert got.dropped == want.dropped
    assert got.reroutes == want.reroutes
    assert got.failed_nodes == want.failed_nodes
    assert got.events == want.events
    assert got.in_flight == want.in_flight
    assert report_crc(got) == report_crc(want)


def _handoffs(telemetry) -> dict:
    return {
        reason: telemetry.counter(
            "alvc_sim_loop_handoffs_total", "", reason=reason
        ).value
        for reason in HANDOFF_REASONS
    }


# ----------------------------------------------------------------------
# Randomized parity across forced hand-backs
# ----------------------------------------------------------------------
def _colocated_flows(inventory, rng, arrivals) -> list[Flow]:
    """Flows between VMs sharing a host, some at existing arrival
    times (mixed into a batch) and some alone."""
    by_host: dict = {}
    for vm in inventory.placed_vms():
        by_host.setdefault(inventory.host_of(vm.vm_id), []).append(vm.vm_id)
    pairs = [vms[:2] for vms in by_host.values() if len(vms) >= 2]
    flows = []
    for index in range(rng.randint(2, 6)):
        source, destination = rng.choice(pairs)
        at = rng.choice(arrivals) if rng.random() < 0.6 else rng.random()
        flows.append(
            Flow(f"co-{index}", source, destination, 1e6, arrival_time=at)
        )
    return flows


def _with_cyclic_route(monkeypatch) -> None:
    """Make the plan route one pair over a walk that crosses its first
    link three times."""
    original = event_simulator.plan_admission

    def plan_with_cycle(network, keys, link_index, **kwargs):
        keys = list(keys)
        plan = original(network, keys, link_index, **kwargs)
        key = keys[len(keys) // 2]
        path = plan.lookup(*key).path
        walk = [path[0], path[1], path[0], *path[1:]]
        links = links_on_path(walk)
        indices = np.array([link_index[link] for link in links], np.int32)
        plan._routes[key] = InternedRoute(walk, links, indices)
        return plan

    monkeypatch.setattr(event_simulator, "plan_admission", plan_with_cycle)


def _parity_run(seed: int, monkeypatch, telemetry=None):
    """``(compiled, per-event, mirror)`` reports of one randomized run
    with a tiny output buffer and a tiny, often compacting table."""
    rng = random.Random(seed)
    monkeypatch.setattr(
        event_simulator, "_LOOP_BUFFER", rng.choice([1, 2, 3, 7])
    )
    monkeypatch.setattr(event_simulator, "_TABLE_SLOTS", 16)
    monkeypatch.setattr(
        event_simulator, "_COMPACT_SLACK", rng.choice([1, 2, 4])
    )
    inventory, clusters = clustered_testbed()
    flows = _traffic(
        inventory,
        seed,
        rng.randint(40, 90),
        arrival_rate=rng.choice([60.0, 200.0]),
        sigma=0.8,
    )
    # Same-timestamp batches: snap the arrivals to a coarse grid.  A
    # second wave after the first has drained makes the table compact.
    grid = rng.choice([0.005, 0.02])
    wave = rng.choice([0.0, 5.0])
    flows = [
        dataclasses.replace(
            flow,
            arrival_time=round(flow.arrival_time / grid) * grid
            + (wave if index % 2 else 0.0),
        )
        for index, flow in enumerate(flows)
    ]
    flows += _colocated_flows(
        inventory, rng, [flow.arrival_time for flow in flows]
    )
    failures = (
        fault_schedule(rng, inventory.network) if rng.random() < 0.8 else []
    )
    until = rng.choice([None, None, 0.3, 1.0])

    def run(sink=None):
        simulator = EventDrivenFlowSimulator(
            inventory, clusters, telemetry=sink
        )
        return simulator.run(flows, failures, until=until)

    compiled = run(telemetry)
    with _per_event_loop():
        per_event = run()
    with _mirror():
        mirror = run()
    return compiled, per_event, mirror


@needs_kernel
def test_reports_match_across_forced_hand_backs(monkeypatch):
    telemetry = Telemetry.enabled_instance()
    for seed in range(60):
        with monkeypatch.context() as patch:
            compiled, per_event, mirror = _parity_run(seed, patch, telemetry)
        _assert_same_report(compiled, per_event)
        _assert_same_report(compiled, mirror)
    # Every hand-back kind happened somewhere in the sweep.
    handoffs = _handoffs(telemetry)
    assert all(handoffs[reason] > 0 for reason in HANDOFF_REASONS), handoffs
    full = {
        reason: telemetry.counter(
            "alvc_fairshare_settle_full_total", "", reason=reason
        ).value
        for reason in ("compacted", "grown")
    }
    # Growth and compaction both landed between compiled chunks.
    assert all(value > 0 for value in full.values()), full


LOOPS = {
    "compiled": contextlib.nullcontext,
    "per-event": _per_event_loop,
    "mirror": _mirror,
}


@pytest.mark.parametrize(
    "loop",
    [
        pytest.param("compiled", marks=needs_kernel),
        pytest.param("per-event", marks=needs_kernel),
        "mirror",
    ],
)
def test_repeated_link_route_is_rejected_on_every_loop(monkeypatch, loop):
    _with_cyclic_route(monkeypatch)
    inventory, clusters = clustered_testbed()
    flows = _traffic(inventory, 5, 40, arrival_rate=100.0)
    simulator = EventDrivenFlowSimulator(inventory, clusters)
    with LOOPS[loop](), pytest.raises(
        RepeatedLinkError, match="more than once"
    ):
        simulator.run(flows)


def test_mirror_without_kernel_runs_the_per_event_loop():
    telemetry = Telemetry.enabled_instance()
    with _mirror():
        inventory, clusters = clustered_testbed()
        flows = _traffic(inventory, 3, 40, arrival_rate=100.0)
        EventDrivenFlowSimulator(
            inventory, clusters, telemetry=telemetry
        ).run(flows)
    assert sum(_handoffs(telemetry).values()) == 0


# ----------------------------------------------------------------------
# Eta ties finish the smallest flow id first
# ----------------------------------------------------------------------
def _four_racks():
    """Four single-server racks, every ToR on two OPSs, one web VM per
    server; 10 Gbps (1.25e9 bytes/s) everywhere once overridden."""
    dcn = DataCenterNetwork("ties")
    for rack in range(4):
        dcn.add_server(ServerSpec(server_id=f"srv-{rack}", rack=rack))
        dcn.add_tor(TorSpec(tor_id=f"tor-{rack}", rack=rack))
        dcn.connect(f"srv-{rack}", f"tor-{rack}")
    for ops in ("ops-0", "ops-1"):
        dcn.add_optical_switch(OpticalSwitchSpec(ops_id=ops))
        for rack in range(4):
            dcn.connect(
                f"tor-{rack}",
                ops,
                LinkSpec(domain=Domain.OPTICAL, bandwidth_gbps=10.0),
            )
    inventory = MachineInventory(dcn)
    web = ServiceCatalog.standard().get("web")
    vms = []
    for rack in range(4):
        vm = inventory.create_vm(web)
        inventory.place(vm, f"srv-{rack}")
        vms.append(vm.vm_id)
    return inventory, vms


def _completion_order(monkeypatch, inventory, flows, failures=()) -> tuple:
    """``(report, flow ids in the order their completions were
    recorded)`` — the event order, on either loop."""
    order = []
    record = event_simulator.CompletedFlow

    def recording(*args, **kwargs):
        completed = record(*args, **kwargs)
        order.append(completed.flow_id)
        return completed

    monkeypatch.setattr(event_simulator, "CompletedFlow", recording)
    report = EventDrivenFlowSimulator(
        inventory, default_bandwidth_gbps=10.0
    ).run(flows, failures)
    monkeypatch.setattr(event_simulator, "CompletedFlow", record)
    return report, order


def _staggered_ties(vms) -> list[Flow]:
    """``z`` runs alone from 0 to 0.5 and then holds exactly the bytes
    that ``a``, ``b`` and ``c`` bring at 0.5: four flows of one class
    tie, with ``z`` in the earliest slot and the largest id."""
    rate = 1.25e9
    flows = [Flow("z", vms[0], vms[1], 1.5 * rate, arrival_time=0.0)]
    flows += [
        Flow(name, vms[0], vms[1], rate, arrival_time=0.5)
        for name in ("c", "a", "b")
    ]
    return flows


@needs_kernel
def test_staggered_tie_finishes_smallest_id_first(monkeypatch):
    inventory, vms = _four_racks()
    flows = _staggered_ties(vms)
    report, order = _completion_order(monkeypatch, inventory, flows)
    with _per_event_loop():
        expected, expected_order = _completion_order(
            monkeypatch, inventory, flows
        )
    _assert_same_report(report, expected)
    assert order == expected_order == ["a", "b", "c", "z"]


@needs_kernel
def test_rerouted_flow_in_the_newest_slot_wins_its_tie(monkeypatch):
    # ``a`` (srv-0 -> srv-1 over ops-0) is cut off at 0.1 and rerouted
    # over ops-1 into the newest slot; ``b`` and ``c`` (srv-2 -> srv-3)
    # hold earlier slots.  All three are due at exactly 1.0.
    inventory, vms = _four_racks()
    rate = 1.25e9
    flows = [
        Flow("a", vms[0], vms[1], rate, arrival_time=0.0),
        Flow("b", vms[2], vms[3], rate / 2, arrival_time=0.0),
        Flow("c", vms[2], vms[3], rate / 2, arrival_time=0.0),
    ]
    failures = [
        FaultEvent(
            time=0.1, kind=FaultKind.LINK_CUT, target=("tor-0", "ops-0")
        ),
        FaultEvent(
            time=0.5, kind=FaultKind.LINK_REPAIR, target=("tor-0", "ops-0")
        ),
    ]
    report, order = _completion_order(
        monkeypatch, inventory, flows, failures
    )
    with _per_event_loop():
        expected, expected_order = _completion_order(
            monkeypatch, inventory, flows, failures
        )
    _assert_same_report(report, expected)
    assert report.reroutes == 1
    assert {record.completion_time for record in report.completed} == {1.0}
    assert order == expected_order == ["a", "b", "c"]


@needs_kernel
def test_ties_follow_flow_id_ranks(monkeypatch):
    # Ranks in slot order instead of id order would finish ``z`` first:
    # the loop does read the ranks.
    inventory, vms = _four_racks()
    flows = _staggered_ties(vms)
    monkeypatch.setattr(
        event_simulator,
        "_id_ranks",
        lambda ids: np.arange(len(ids), dtype=np.int64),
    )
    _, order = _completion_order(monkeypatch, inventory, flows)
    assert order[0] == "z"


# ----------------------------------------------------------------------
# Telemetry totals do not depend on the loop
# ----------------------------------------------------------------------
def _totals(telemetry) -> dict:
    rounds = telemetry.histogram(
        "alvc_fairshare_vector_rounds", "", ROUNDS_BUCKETS
    )
    return {
        "events": telemetry.counter("alvc_sim_events_total").value,
        "bulk": telemetry.counter("alvc_admission_bulk_flows_total").value,
        "fallback": telemetry.counter(
            "alvc_admission_fallback_flows_total"
        ).value,
        "depth": telemetry.gauge("alvc_sim_active_flows").value,
        "peak": telemetry.gauge("alvc_sim_active_flows_peak").value,
        "rounds": (rounds.count, rounds.sum),
    }


@needs_kernel
@pytest.mark.parametrize("case", ["workload/101", "fault_schedule/1003"])
def test_telemetry_totals_match_the_mirror(case):
    cases, _, _ = golden_fixture()
    telemetry = {}
    for name, pin in LOOPS.items():
        telemetry[name] = Telemetry.enabled_instance()
        with pin(), use_telemetry(telemetry[name]):
            cases[case]()
    totals = {name: _totals(sink) for name, sink in telemetry.items()}
    assert totals["compiled"] == totals["per-event"] == totals["mirror"]
    assert totals["compiled"]["events"] > 0
    assert sum(_handoffs(telemetry["compiled"]).values()) > 0
    assert sum(_handoffs(telemetry["per-event"]).values()) == 0


# ----------------------------------------------------------------------
# Failure windows: one route batch per fault, admitted in the kernel
# ----------------------------------------------------------------------
RATE = 1.25e9  # bytes/s of every 10 Gbps link


def _window_testbed():
    """:func:`_four_racks` plus a second VM on ``srv-0``, and the
    ToR-OPS link the plan routes ``srv-0 -> srv-1`` over."""
    inventory, vms = _four_racks()
    web = ServiceCatalog.standard().get("web")
    vm = inventory.create_vm(web)
    inventory.place(vm, "srv-0")
    vms.append(vm.vm_id)
    path = resolve_tree_path(inventory.network, "srv-0", "srv-1", None)
    return inventory, vms, (path[1], path[2])


def _flows(pairs) -> list[Flow]:
    """``(source, destination, arrival, size in link-seconds)`` tuples
    as flows ``w0``, ``w1``, ..."""
    return [
        Flow(f"w{index}", source, destination, size * RATE, arrival_time=at)
        for index, (source, destination, at, size) in enumerate(pairs)
    ]


def _on_every_loop(inventory, flows, failures, until=None) -> dict:
    """``{loop: (report, telemetry)}``; the reports are bit-identical
    and the telemetry totals equal on all three loops."""
    runs = {}
    for name, pin in LOOPS.items():
        sink = Telemetry.enabled_instance()
        with pin():
            report = EventDrivenFlowSimulator(
                inventory, default_bandwidth_gbps=10.0, telemetry=sink
            ).run(flows, failures, until=until)
        runs[name] = (report, sink)
    want, sink = runs["compiled"]
    for report, other in runs.values():
        _assert_same_report(report, want)
        assert _totals(other) == _totals(sink)
    return runs


def _fallback(sink) -> float:
    return sink.counter("alvc_admission_fallback_flows_total").value


@needs_kernel
def test_window_arrivals_from_a_crashed_host_are_dropped():
    inventory, vms, _ = _window_testbed()
    flows = _flows(
        [
            (vms[0], vms[1], 0.0, 0.5),  # crosses srv-1: dropped at 0.1
            (vms[0], vms[2], 0.15, 0.2),
            (vms[1], vms[2], 0.2, 0.2),  # from the crashed host
            (vms[0], vms[3], 0.25, 0.2),
            (vms[1], vms[3], 0.3, 0.2),  # from the crashed host
            (vms[2], vms[3], 0.35, 0.2),
            (vms[1], vms[0], 0.6, 0.2),  # after the repair
        ]
    )
    failures = [
        FaultEvent(0.1, FaultKind.SERVER_CRASH, "srv-1"),
        FaultEvent(0.5, FaultKind.NODE_REPAIR, "srv-1"),
    ]
    report, sink = _on_every_loop(inventory, flows, failures)["compiled"]
    assert report.dropped == ("w0", "w2", "w4")
    assert _fallback(sink) == 3
    assert _handoffs(sink)["uncovered"] == 2


@needs_kernel
def test_colocated_window_arrivals():
    inventory, vms, link = _window_testbed()
    flows = _flows(
        [
            (vms[0], vms[1], 0.0, 0.4),
            (vms[0], vms[4], 0.2, 0.1),  # co-located, alone
            (vms[4], vms[0], 0.3, 0.1),  # co-located, in a batch
            (vms[0], vms[2], 0.3, 0.2),
        ]
    )
    failures = [
        FaultEvent(0.1, FaultKind.LINK_CUT, link),
        FaultEvent(0.5, FaultKind.LINK_REPAIR, link),
    ]
    report, sink = _on_every_loop(inventory, flows, failures)["compiled"]
    hops = {record.flow_id: record.hops for record in report.completed}
    assert hops["w1"] == hops["w2"] == 0
    assert report.reroutes == 1
    assert _fallback(sink) == 3
    assert _handoffs(sink)["uncovered"] == 0


@needs_kernel
def test_window_is_resolved_again_at_an_overlapping_fault():
    # tor-0 hangs off both OPSs: with its ops-0 link cut and ops-1
    # down, srv-0 is cut off until the link returns.
    inventory, vms, _ = _window_testbed()
    flows = _flows(
        [(vms[0], vms[1], at, 0.02) for at in (0.05, 0.15, 0.25, 0.35, 0.45)]
    )
    failures = [
        FaultEvent(0.1, FaultKind.LINK_CUT, ("tor-0", "ops-0")),
        FaultEvent(0.2, FaultKind.OPS_CRASH, "ops-1"),
        FaultEvent(0.3, FaultKind.LINK_REPAIR, ("tor-0", "ops-0")),
        FaultEvent(0.4, FaultKind.NODE_REPAIR, "ops-1"),
    ]
    report, sink = _on_every_loop(inventory, flows, failures)["compiled"]
    assert report.dropped == ("w2",)
    assert {record.flow_id for record in report.completed} == {
        "w0", "w1", "w3", "w4"
    }
    assert _fallback(sink) == 2
    assert _handoffs(sink)["uncovered"] == 1


@needs_kernel
def test_window_stays_covered_after_a_duplicate_fault():
    inventory, vms, link = _window_testbed()
    flows = _flows(
        [(vms[0], vms[1], at, 0.05) for at in (0.15, 0.25, 0.35)]
    )
    failures = [
        FaultEvent(0.1, FaultKind.LINK_CUT, link),
        FaultEvent(0.2, FaultKind.LINK_CUT, link),  # a no-op
        FaultEvent(0.5, FaultKind.LINK_REPAIR, link),
    ]
    report, sink = _on_every_loop(inventory, flows, failures)["compiled"]
    # The plan's route crosses the cut link: every arrival took the
    # surviving path.
    assert report.flows == 3 and not report.dropped
    assert _fallback(sink) == 3
    assert sink.counter("alvc_admission_bulk_flows_total").value == 0
    assert _handoffs(sink)["uncovered"] == 0


@needs_kernel
def test_until_inside_a_window():
    inventory, vms, link = _window_testbed()
    flows = _flows(
        [(vms[0], vms[1], at, 0.3) for at in (0.0, 0.2, 0.3, 0.5, 0.6)]
    )
    failures = [
        FaultEvent(0.1, FaultKind.LINK_CUT, link),
        FaultEvent(0.8, FaultKind.LINK_REPAIR, link),
    ]
    report, sink = _on_every_loop(
        inventory, flows, failures, until=0.4
    )["compiled"]
    assert report.makespan == 0.4
    assert report.in_flight == 3
    assert _fallback(sink) == 2
    assert _handoffs(sink)["until"] == 1


# ----------------------------------------------------------------------
# Every installed route is a simple path
# ----------------------------------------------------------------------
@contextlib.contextmanager
def _route_audit():
    """Record every link-index pool the simulator interns — plan routes
    before the first event, then each fault's reroutes and the
    failure-window arrivals it covers — as ``[(engine, pools in one
    call)]``."""
    calls = []
    original = BatchedFairShareEngine.intern_pools

    def intern_pools(engine, pools):
        calls.append((engine, [pool.tolist() for pool in pools]))
        return original(engine, pools)

    BatchedFairShareEngine.intern_pools = intern_pools
    try:
        yield calls
    finally:
        BatchedFairShareEngine.intern_pools = original


def _simple(calls) -> bool:
    return all(
        len(set(pool)) == len(pool) for _, call in calls for pool in call
    )


def test_golden_routes_are_simple_paths(monkeypatch):
    # Every surviving path a fault forces (a reroute or a window
    # arrival) is one the audit must see.
    surviving = []
    original = EventDrivenFlowSimulator._route_avoiding

    def route_avoiding(self, flow, failed_nodes, cut_links):
        path = original(self, flow, failed_nodes, cut_links)
        if path is not None and len(path) > 1:
            surviving.append(path)
        return path

    monkeypatch.setattr(
        EventDrivenFlowSimulator, "_route_avoiding", route_avoiding
    )
    cases, _, _ = golden_fixture()
    with _route_audit() as calls:
        for run in cases.values():
            run()
    assert _simple(calls)
    # Each run's first call interns its plan; the later calls are the
    # faults' batches, and they audited every surviving path.
    planned = set()
    later = []
    for engine, pools in calls:
        if id(engine) in planned:
            later.append(pools)
        planned.add(id(engine))
    assert any(len(pools) > 1 for pools in later)
    assert sum(len(pools) for pools in later) == len(surviving) >= 50


def _e2e_module(name: str):
    """``benchmarks/e2e/<name>.py`` as a module (its own ``trace``
    helper shadows the standard library's while it loads)."""
    sys.path.insert(0, str(E2E))
    shadowed = sys.modules.pop("trace", None)
    try:
        spec = importlib.util.spec_from_file_location(
            f"e2e_{name}", E2E / f"{name}.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    finally:
        sys.path.remove(str(E2E))
        sys.modules.pop("trace", None)
        if shadowed is not None:
            sys.modules["trace"] = shadowed


@pytest.mark.parametrize("workload", ["flows-al", "flows-mixed-faults"])
def test_e2e_flow_routes_are_simple_paths(workload, tmp_path):
    run = _e2e_module("run")
    workloads = _e2e_module("workloads")
    golden = json.loads((E2E / "golden.json").read_text())
    params = run.SIZES["ci"][workload]
    telemetry = Telemetry.enabled_instance()
    with _route_audit() as calls:
        result = workloads.flows(
            params, 0, tmp_path, workloads.trace.NullTracer(), telemetry,
            True,
        )
    assert _simple(calls) and calls
    assert result["values"] == golden["ci"][workload]
    if params["faults"]:
        assert result["counts"]["sim.event_simulator.reroutes"] > 0
        assert _fallback(telemetry) > 0
    # No flow is ever partitioned, so no arrival leaves the kernel.
    handoffs = _handoffs(telemetry)
    assert handoffs["uncovered"] == 0
    if params["faults"] and ckernel.kernels() is not None:
        assert handoffs["fault"] > 0

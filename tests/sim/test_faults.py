"""The sim-layer fault model: FaultEvent, normalize_failures, and the
simulator's native handling of link cut / degrade / repair events.

Node-crash behaviour (the legacy tuple path) is covered by
``test_event_simulator.py``; this module exercises the richer
:class:`~repro.sim.faults.FaultEvent` schedule entries introduced with
the chaos subsystem.
"""

import pytest

from repro.exceptions import SimulationError, ValidationError
from repro.sim.event_simulator import EventDrivenFlowSimulator
from repro.sim.faults import (
    LINK_DOWN,
    NODE_DOWN,
    FaultEvent,
    FaultKind,
    normalize_failures,
)
from repro.sim.flows import Flow
from repro.topology.datacenter import DataCenterNetwork
from repro.topology.elements import (
    Domain,
    LinkSpec,
    OpticalSwitchSpec,
    ServerSpec,
    TorSpec,
)
from repro.virtualization.machines import MachineInventory

from tests.sim.goldens import assert_golden


# ----------------------------------------------------------------------
# FaultEvent — construction and canonicalization
# ----------------------------------------------------------------------
class TestFaultEventModel:
    def test_link_targets_are_canonicalized(self):
        event = FaultEvent(
            time=1.0, kind=FaultKind.LINK_CUT, target=("tor-1", "ops-0")
        )
        assert event.target == ("ops-0", "tor-1")
        assert event.link == frozenset({"ops-0", "tor-1"})

    def test_canonical_spellings_compare_equal(self):
        forward = FaultEvent(
            time=2.0, kind=FaultKind.LINK_REPAIR, target=("a", "b")
        )
        backward = FaultEvent(
            time=2.0, kind=FaultKind.LINK_REPAIR, target=("b", "a")
        )
        assert forward == backward

    def test_node_kinds_reject_pair_targets(self):
        with pytest.raises(ValidationError):
            FaultEvent(
                time=0.0, kind=FaultKind.OPS_CRASH, target=("a", "b")
            )

    @pytest.mark.parametrize("target", ["ops-0", ("a", "a"), ("a",)])
    def test_link_kinds_reject_malformed_targets(self, target):
        with pytest.raises(ValidationError):
            FaultEvent(time=0.0, kind=FaultKind.LINK_CUT, target=target)

    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError):
            FaultEvent(
                time=-1.0, kind=FaultKind.NODE_REPAIR, target="ops-0"
            )

    @pytest.mark.parametrize("severity", [0.0, 1.0, 1.5, -0.2])
    def test_degrade_severity_must_be_fractional(self, severity):
        with pytest.raises(ValidationError):
            FaultEvent(
                time=0.0,
                kind=FaultKind.LINK_DEGRADE,
                target=("a", "b"),
                severity=severity,
            )

    def test_severity_is_degrade_only(self):
        with pytest.raises(ValidationError):
            FaultEvent(
                time=0.0,
                kind=FaultKind.LINK_CUT,
                target=("a", "b"),
                severity=0.5,
            )

    def test_node_event_has_no_link(self):
        event = FaultEvent(
            time=0.0, kind=FaultKind.SERVER_CRASH, target="srv-0"
        )
        assert event.is_node_event
        with pytest.raises(ValidationError):
            event.link


# ----------------------------------------------------------------------
# normalize_failures — one deterministic record stream for both forms
# ----------------------------------------------------------------------
class TestNormalizeFailures:
    def test_mixed_forms_sort_deterministically(self):
        schedule = [
            FaultEvent(
                time=5.0, kind=FaultKind.LINK_CUT, target=("b", "a")
            ),
            (1.0, "ops-2"),
            FaultEvent(time=1.0, kind=FaultKind.OPS_CRASH, target="ops-1"),
        ]
        records = normalize_failures(schedule)
        assert [record.time for record in records] == [1.0, 1.0, 5.0]
        # same instant: lexicographic on the target label
        assert records[0].payload == "ops-1"
        assert records[1].payload == "ops-2"
        assert records[2].payload == frozenset({"a", "b"})
        assert records[2].action == LINK_DOWN

    def test_input_order_is_irrelevant(self):
        schedule = [
            (3.0, "tor-0"),
            FaultEvent(time=1.0, kind=FaultKind.NODE_REPAIR, target="x"),
        ]
        assert normalize_failures(schedule) == normalize_failures(
            list(reversed(schedule))
        )

    def test_legacy_tuple_maps_to_node_down(self):
        (record,) = normalize_failures([(2, "ops-0")])
        assert record.action == NODE_DOWN
        assert record.payload == "ops-0"
        assert record.time == 2.0
        assert record.severity == 1.0

    @pytest.mark.parametrize(
        "entry", [object(), (1.0,), (1.0, 5), (1.0, "a", "b")]
    )
    def test_malformed_entries_rejected(self, entry):
        with pytest.raises(ValidationError):
            normalize_failures([entry])


# ----------------------------------------------------------------------
# Simulator link events, on purpose-built tiny fabrics
# ----------------------------------------------------------------------
def _linear_inventory() -> MachineInventory:
    """srv-0 — tor-0 — ops-0 — tor-1 — srv-1 (one path, 10 Gbps)."""
    dcn = DataCenterNetwork("linear")
    dcn.add_server(ServerSpec(server_id="srv-0"))
    dcn.add_server(ServerSpec(server_id="srv-1"))
    dcn.add_tor(TorSpec(tor_id="tor-0"))
    dcn.add_tor(TorSpec(tor_id="tor-1", rack=1))
    dcn.add_optical_switch(OpticalSwitchSpec(ops_id="ops-0"))
    dcn.connect("srv-0", "tor-0")
    dcn.connect("srv-1", "tor-1")
    for tor in ("tor-0", "tor-1"):
        dcn.connect(
            tor,
            "ops-0",
            LinkSpec(domain=Domain.OPTICAL, bandwidth_gbps=10.0),
        )
    return MachineInventory(dcn)


def _dual_path_inventory() -> MachineInventory:
    """Two disjoint OPS paths between the racks:

    srv-0 — tor-0 — {ops-0, ops-1} — tor-1 — srv-1
    """
    dcn = DataCenterNetwork("dual")
    dcn.add_server(ServerSpec(server_id="srv-0"))
    dcn.add_server(ServerSpec(server_id="srv-1"))
    dcn.add_tor(TorSpec(tor_id="tor-0"))
    dcn.add_tor(TorSpec(tor_id="tor-1", rack=1))
    dcn.add_optical_switch(OpticalSwitchSpec(ops_id="ops-0"))
    dcn.add_optical_switch(OpticalSwitchSpec(ops_id="ops-1"))
    dcn.connect("srv-0", "tor-0")
    dcn.connect("srv-1", "tor-1")
    for ops in ("ops-0", "ops-1"):
        for tor in ("tor-0", "tor-1"):
            dcn.connect(
                tor,
                ops,
                LinkSpec(domain=Domain.OPTICAL, bandwidth_gbps=10.0),
            )
    return MachineInventory(dcn)


def _one_flow(inventory, service_catalog, *, size_bytes, arrival_time=0.0):
    web = service_catalog.get("web")
    first = inventory.create_vm(web)
    second = inventory.create_vm(web)
    inventory.place(first, "srv-0")
    inventory.place(second, "srv-1")
    return Flow(
        flow_id="flow-0",
        source=first.vm_id,
        destination=second.vm_id,
        size_bytes=size_bytes,
        arrival_time=arrival_time,
    )


# All optical links run at 10 Gbps = 1.25e9 bytes/s; we match the
# electronic default so the inter-rack trunk is the uncontended rate.
_RATE = 1.25e9


class TestLinkCut:
    def test_mid_flow_cut_reroutes_and_keeps_progress(
        self, service_catalog
    ):
        inventory = _dual_path_inventory()
        flow = _one_flow(
            inventory, service_catalog, size_bytes=2 * _RATE
        )  # 2 s uncontended
        cut = FaultEvent(
            time=1.0, kind=FaultKind.LINK_CUT, target=("tor-0", "ops-0")
        )
        report = EventDrivenFlowSimulator(
            inventory, default_bandwidth_gbps=10.0
        ).run([flow], failures=[cut])
        assert report.dropped == ()
        assert report.reroutes == 1
        (done,) = report.completed
        # progress survives the reroute: 1 s done, 1 s left via ops-1
        assert done.completion_time == pytest.approx(2.0)
        assert done.hops == 4

    def test_cut_with_no_alternate_path_drops_the_flow(
        self, service_catalog
    ):
        inventory = _linear_inventory()
        flow = _one_flow(inventory, service_catalog, size_bytes=2 * _RATE)
        cut = FaultEvent(
            time=1.0, kind=FaultKind.LINK_CUT, target=("tor-1", "ops-0")
        )
        report = EventDrivenFlowSimulator(
            inventory, default_bandwidth_gbps=10.0
        ).run([flow], failures=[cut])
        assert report.completed == ()
        assert report.dropped == ("flow-0",)
        assert report.reroutes == 0

    def test_arrival_after_cut_routes_around_it(self, service_catalog):
        inventory = _dual_path_inventory()
        flow = _one_flow(
            inventory,
            service_catalog,
            size_bytes=_RATE,
            arrival_time=5.0,
        )
        cut = FaultEvent(
            time=1.0, kind=FaultKind.LINK_CUT, target=("tor-0", "ops-0")
        )
        report = EventDrivenFlowSimulator(
            inventory, default_bandwidth_gbps=10.0
        ).run([flow], failures=[cut])
        (done,) = report.completed
        # routed over the survivor from the start: no reroute counted
        assert report.reroutes == 0
        assert done.completion_time == pytest.approx(6.0)

    def test_unknown_link_is_rejected_up_front(self, service_catalog):
        inventory = _linear_inventory()
        flow = _one_flow(inventory, service_catalog, size_bytes=_RATE)
        bogus = FaultEvent(
            time=1.0, kind=FaultKind.LINK_CUT, target=("srv-0", "srv-1")
        )
        with pytest.raises(SimulationError):
            EventDrivenFlowSimulator(inventory).run(
                [flow], failures=[bogus]
            )


class TestLinkDegrade:
    def test_degrade_stretches_the_tail_of_the_transfer(
        self, service_catalog
    ):
        inventory = _linear_inventory()
        flow = _one_flow(inventory, service_catalog, size_bytes=2 * _RATE)
        degrade = FaultEvent(
            time=1.0,
            kind=FaultKind.LINK_DEGRADE,
            target=("tor-0", "ops-0"),
            severity=0.5,
        )
        report = EventDrivenFlowSimulator(
            inventory, default_bandwidth_gbps=10.0
        ).run([flow], failures=[degrade])
        (done,) = report.completed
        # 1 s at full rate, the remaining 1.25e9 bytes at half rate
        assert done.completion_time == pytest.approx(3.0)
        assert report.dropped == ()
        assert report.reroutes == 0  # connectivity preserved

    def test_degrades_compound_multiplicatively(self, service_catalog):
        inventory = _linear_inventory()
        flow = _one_flow(inventory, service_catalog, size_bytes=2 * _RATE)
        schedule = [
            FaultEvent(
                time=1.0,
                kind=FaultKind.LINK_DEGRADE,
                target=("tor-0", "ops-0"),
                severity=0.5,
            ),
            FaultEvent(
                time=2.0,
                kind=FaultKind.LINK_DEGRADE,
                target=("tor-0", "ops-0"),
                severity=0.5,
            ),
        ]
        report = EventDrivenFlowSimulator(
            inventory, default_bandwidth_gbps=10.0
        ).run([flow], failures=schedule)
        (done,) = report.completed
        # 1 s full, 1 s at 1/2, the remaining half-second's worth of
        # bytes crawls at 1/4 rate: two more seconds
        assert done.completion_time == pytest.approx(4.0)


class TestLinkRepair:
    def test_repair_restores_service_for_later_flows(
        self, service_catalog
    ):
        inventory = _linear_inventory()
        flow = _one_flow(
            inventory,
            service_catalog,
            size_bytes=2 * _RATE,
            arrival_time=5.0,
        )
        schedule = [
            FaultEvent(
                time=1.0,
                kind=FaultKind.LINK_CUT,
                target=("tor-0", "ops-0"),
            ),
            FaultEvent(
                time=4.0,
                kind=FaultKind.LINK_REPAIR,
                target=("tor-0", "ops-0"),
            ),
        ]
        report = EventDrivenFlowSimulator(
            inventory, default_bandwidth_gbps=10.0
        ).run([flow], failures=schedule)
        (done,) = report.completed
        # full pre-failure capacity is back: 2 s transfer from t=5
        assert done.completion_time == pytest.approx(7.0)
        assert report.dropped == ()

    def test_node_repair_does_not_revive_a_cut_link(
        self, service_catalog
    ):
        inventory = _linear_inventory()
        doomed = _one_flow(
            inventory,
            service_catalog,
            size_bytes=_RATE,
            arrival_time=3.0,
        )
        schedule = [
            # the OPS dies, taking both trunk links with it ...
            FaultEvent(
                time=0.5, kind=FaultKind.OPS_CRASH, target="ops-0"
            ),
            # ... one of them is *also* explicitly cut while down ...
            FaultEvent(
                time=1.0,
                kind=FaultKind.LINK_CUT,
                target=("tor-0", "ops-0"),
            ),
            # ... so the node repair must bring back only the other.
            FaultEvent(
                time=2.0, kind=FaultKind.NODE_REPAIR, target="ops-0"
            ),
        ]
        report = EventDrivenFlowSimulator(
            inventory, default_bandwidth_gbps=10.0
        ).run([doomed], failures=schedule)
        # tor-0 — ops-0 stayed cut: the fabric is still partitioned
        assert report.completed == ()
        assert report.dropped == ("flow-0",)

    def test_link_repair_after_node_repair_completes_the_recovery(
        self, service_catalog
    ):
        inventory = _linear_inventory()
        flow = _one_flow(
            inventory,
            service_catalog,
            size_bytes=_RATE,
            arrival_time=6.0,
        )
        schedule = [
            FaultEvent(
                time=0.5, kind=FaultKind.OPS_CRASH, target="ops-0"
            ),
            FaultEvent(
                time=1.0,
                kind=FaultKind.LINK_CUT,
                target=("tor-0", "ops-0"),
            ),
            FaultEvent(
                time=2.0, kind=FaultKind.NODE_REPAIR, target="ops-0"
            ),
            FaultEvent(
                time=4.0,
                kind=FaultKind.LINK_REPAIR,
                target=("tor-0", "ops-0"),
            ),
        ]
        report = EventDrivenFlowSimulator(
            inventory, default_bandwidth_gbps=10.0
        ).run([flow], failures=schedule)
        (done,) = report.completed
        assert done.completion_time == pytest.approx(7.0)


# ----------------------------------------------------------------------
# Engine parity on the richer fault vocabulary
# ----------------------------------------------------------------------
class TestEngineParityOnLinkFaults:
    def test_all_engines_agree_on_link_fault_schedules(self):
        """Degrade, cut, OPS crash and both repairs on the dual-path
        fabric: the frozen checksum every event loop agreed on."""
        assert_golden("link_faults/dual_path")

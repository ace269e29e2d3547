"""Randomized chaos schedules vs the subsystem's four invariants.

Each Hypothesis example draws a fresh seeded Poisson fault schedule and
replays it through a fresh orchestrator + simulator, then checks:

(a) **isolation** — no OPS crash ever impacts more clusters than
    :func:`repro.analysis.failure_domains.blast_radius_of` predicted;
(b) **coverage** — every successfully-repaired AL still passes
    :meth:`AlReconfigurator.verify` (covers all of its machines through
    live switches) and cluster OPS sets stay pairwise disjoint;
(c) **engine parity** — the data plane reproduces, bit for bit, the
    report checksums that every event loop the simulator used to carry
    (incremental, from-scratch, legacy, vector) agreed on for the 40
    schedules this property drew, with every fair-share recompute
    certified max-min fair (see :mod:`tests.sim.goldens`);
(d) **conservation** — every injected flow either completes or is
    explicitly reported dropped; nothing vanishes.

``derandomize=True`` keeps CI deterministic: the suite is a fixed set of
200+ generated schedules, not a lottery.  (c)'s schedules are frozen in
the golden fixture itself.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import FaultInjector, RecoveryPolicy, run_chaos
from repro.core.reconfiguration import AlReconfigurator
from repro.sim.traffic import TrafficGenerator

from tests.chaos.testbed import build_orchestrator
from tests.sim.goldens import assert_golden, golden_fixture

_SETTINGS = dict(deadline=None, derandomize=True)

# One generated schedule is defined by these draws; the fabric seed is
# kept to a small set so Hypothesis explores schedules, not topologies.
fabric_seeds = st.integers(min_value=0, max_value=2)
chaos_seeds = st.integers(min_value=0, max_value=10_000)
rates = st.floats(min_value=0.1, max_value=0.8, allow_nan=False)
durations = st.floats(min_value=5.0, max_value=25.0, allow_nan=False)
repairs = st.sampled_from([None, 4.0])


def _chaos_run(fabric_seed, chaos_seed, rate, duration, repair_after):
    orchestrator, services = build_orchestrator(seed=fabric_seed)
    inventory = orchestrator.cluster_manager.inventory
    injector = FaultInjector(inventory.network, seed=chaos_seed)
    injector.schedule(
        duration=duration, rate=rate, repair_after=repair_after
    )
    flows = TrafficGenerator(inventory, seed=chaos_seed).flows(8)
    report = run_chaos(
        orchestrator,
        injector.events(),
        flows,
        policy=RecoveryPolicy(max_attempts=2, seed=chaos_seed),
        seed=chaos_seed,
    )
    return orchestrator, services, flows, report


# ----------------------------------------------------------------------
# (a) blast radius never exceeds the prediction
# ----------------------------------------------------------------------
@given(fabric_seeds, chaos_seeds, rates, durations, repairs)
@settings(max_examples=60, **_SETTINGS)
def test_blast_radius_never_exceeds_prediction(
    fabric_seed, chaos_seed, rate, duration, repair_after
):
    _, _, _, report = _chaos_run(
        fabric_seed, chaos_seed, rate, duration, repair_after
    )
    for observation in report.blast_radii:
        assert observation.predicted_clusters <= 1  # OPS disjointness
        assert (
            observation.observed_clusters <= observation.predicted_clusters
        )
    assert report.isolation_held


# ----------------------------------------------------------------------
# (b) post-recovery ALs verify and stay disjoint
# ----------------------------------------------------------------------
@given(fabric_seeds, chaos_seeds, rates, durations, repairs)
@settings(max_examples=60, **_SETTINGS)
def test_repaired_layers_cover_and_stay_disjoint(
    fabric_seed, chaos_seed, rate, duration, repair_after
):
    orchestrator, services, _, report = _chaos_run(
        fabric_seed, chaos_seed, rate, duration, repair_after
    )
    manager = orchestrator.cluster_manager
    inventory = manager.inventory
    degraded = set(report.degraded_chains)
    # chain-{i} runs over services[i] (see testbed), so a cluster is
    # fully healthy iff its chain is not degraded.
    healthy = [
        manager.cluster_of_service(service)
        for index, service in enumerate(services)
        if f"chain-{index}" not in degraded
    ]
    for cluster in healthy:
        # no corpse left selected
        assert not (cluster.al_switches & orchestrator.failed_ops)
        attachments = {
            vm: inventory.tors_of_vm(vm) for vm in sorted(cluster.vm_ids)
        }
        AlReconfigurator(
            inventory.network,
            cluster.abstraction_layer,
            attachments,
            failed_ops=orchestrator.failed_ops,
        ).verify()  # raises CoverInfeasibleError on a coverage hole
    # the paper's disjointness rule survives the churn
    clusters = manager.clusters()
    for index, first in enumerate(clusters):
        for second in clusters[index + 1 :]:
            assert not (first.al_switches & second.al_switches)


# ----------------------------------------------------------------------
# (c) the data plane reproduces what every event loop agreed on
# ----------------------------------------------------------------------
def test_engines_bit_identical_under_failure_churn():
    _, _, chaos_examples = golden_fixture()
    for index in range(len(chaos_examples)):
        assert_golden(f"chaos/{index:02d}")


# ----------------------------------------------------------------------
# (d) flow conservation: completed + dropped = injected
# ----------------------------------------------------------------------
@given(fabric_seeds, chaos_seeds, rates, durations, repairs)
@settings(max_examples=60, **_SETTINGS)
def test_every_flow_is_accounted_for(
    fabric_seed, chaos_seed, rate, duration, repair_after
):
    _, _, flows, report = _chaos_run(
        fabric_seed, chaos_seed, rate, duration, repair_after
    )
    flow_ids = [flow.flow_id for flow in flows]
    assert report.unaccounted_flows(flow_ids) == set()
    assert report.flows_completed + report.flows_dropped == len(flow_ids)

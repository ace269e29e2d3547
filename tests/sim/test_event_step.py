"""The event step: ``BatchedFairShareEngine.settle``/``.materialize``,
and the admission and release around it.

The compiled entry points (``alvc_settle``, ``alvc_materialize``,
``alvc_admit``, ``alvc_release``) must
be bitwise-equal to their numpy mirror on every input the event loop
can hand them — dead slots, zero and infinite rates, zero elapsed time,
equal-eta ties, compaction in mid-run and the rebinds that table,
class-array and link growth force — and the
simulator must produce the same report on either path.  The compiled
step visits only the slots that can have changed, so it is also checked
against an implementation-independent oracle (a brute-force minimum
over the etas, and every live slot at its class's rate) under churn and
on the sequences that stress its bookkeeping.  The module also pins the
kernel's provenance (:func:`repro.sim.ckernel.kernel_status`) and the
per-event recompute and round counts.
"""

import random
import subprocess

import numpy as np
import pytest

from repro.exceptions import RepeatedLinkError, SimulationError
from repro.observability.runtime import Telemetry, use_telemetry
from repro.sim import ckernel
from repro.sim.admission import InternedRoute
from repro.sim.event_simulator import EventDrivenFlowSimulator
from repro.sim.fairshare import ROUNDS_BUCKETS
from repro.sim.vector import BatchedFairShareEngine, FlowTable
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

NODES = [f"n{index}" for index in range(7)]


def _caps(rng: random.Random) -> dict:
    caps = {}
    while len(caps) < 9:
        a, b = rng.sample(NODES, 2)
        caps[frozenset({a, b})] = rng.choice([1.0, 2.5, 4.0, 10.0])
    return caps


def _mirror(caps: dict, **table) -> BatchedFairShareEngine:
    """An engine over ``caps`` pinned to the numpy mirror."""
    saved = ckernel._kernel
    ckernel._kernel = None
    try:
        return BatchedFairShareEngine(dict(caps), table=FlowTable(**table))
    finally:
        ckernel._kernel = saved


def _pair(caps: dict, **table) -> tuple:
    """A kernel engine and a numpy-mirror engine over ``caps``."""
    kernel = BatchedFairShareEngine(dict(caps), table=FlowTable(**table))
    mirror = _mirror(caps, **table)
    assert kernel.kernel_active and not mirror.kernel_active
    return kernel, mirror


def _assert_same(kernel, mirror) -> None:
    """The two engines hold bitwise-equal step state and admission
    bookkeeping (``alvc_admit``/``alvc_release`` against the mirror)."""
    a, b = kernel.table, mirror.table
    assert (a.size, a.active_count) == (b.size, b.active_count)
    for name in ("remaining", "rate", "eta", "last_update", "alive"):
        got = getattr(a, name)[: a.size].tobytes()
        assert got == getattr(b, name)[: b.size].tobytes(), name
    assert a.slot_of == b.slot_of and a.flow_ids == b.flow_ids
    for name in ("_class_of", "_count", "_m"):
        got = getattr(kernel, name).tobytes()
        assert got == getattr(mirror, name).tobytes(), name
    assert kernel.busy.tobytes() == mirror.busy.tobytes()


def _path(rng: random.Random, links: list) -> list:
    if rng.random() < 0.05:
        return []  # zero-hop: an infinite rate
    return rng.sample(links, rng.randint(1, 3))


# ----------------------------------------------------------------------
# Kernel vs numpy mirror
# ----------------------------------------------------------------------
@needs_kernel
@pytest.mark.parametrize("seed", range(12))
def test_adopt_matches_mirror_on_synthetic_tables(seed):
    """Class rates with zeros, infinities, unchanged entries, zero
    elapsed time and equal etas, over tables with dead slots."""
    rng = random.Random(seed)
    caps = _caps(rng)
    links = list(caps)
    engines = _pair(caps)
    flows = [f"f{index}" for index in range(rng.randint(5, 40))]
    paths = {flow: _path(rng, links) for flow in flows}
    for engine in engines:
        for flow in flows:
            engine.add_flow(flow, paths[flow])
    for flow in rng.sample(flows, len(flows) // 4):
        for engine in engines:
            engine.remove_flow(flow)
    size = engines[0].table.size
    values = [0.0, np.inf, 0.5, 1.0, 2.5, 4.0]
    now = 3.0
    # Few distinct values, so etas tie and some slots have no time or
    # no bytes left to charge.
    remaining = np.array([rng.choice([0.0, 1.0, 5.0]) for _ in range(size)])
    last = np.array([rng.choice([0.0, 1.0, now]) for _ in range(size)])
    rate = np.array([rng.choice(values) for _ in range(size)])
    n_classes = engines[0].n_classes
    class_rate = [rng.choice(values) for _ in range(n_classes)]
    for engine in engines:
        table = engine.table
        live = table.alive[:size]
        table.remaining[:size] = remaining
        table.last_update[:size] = last
        table.rate[:size] = np.where(live, rate, 0.0)
        table.eta[:size] = np.where(live, now, np.inf)
    for step in range(4):
        # Some classes keep their current rate: their slots stay put.
        class_rate = [
            old if rng.random() < 0.3 else rng.choice(values)
            for old in class_rate
        ]
        for engine in engines:
            # The table and class-rate writes bypass the engine: declare
            # them, so the step visits every slot instead of only what
            # changed.
            engine._class_rate[:n_classes] = class_rate
            engine._require_full("first")
        upcoming = [engine._adopt(now) for engine in engines]
        assert upcoming[0] == upcoming[1]
        _assert_same(*engines)
        if upcoming[0][2] > 1:
            eta = engines[0].table.eta[:size]
            assert np.count_nonzero(eta == upcoming[0][0]) == upcoming[0][2]
        # Some steps repeat ``now``: elapsed 0 everywhere.
        now += rng.choice([0.0, 0.25])


def _churn(rng, engines, links: list, routes: list, now: float, serial: int):
    """Apply one seeded event to every engine alike: arrivals (single
    or interned), a completion, a reroute at one instant, a capacity
    edit, a new link or a public recompute.  Returns the next serial."""
    roll = rng.random()
    active = list(engines[0].table.slot_of)
    if roll < 0.35 or not active:
        batch, sizes = [], []
        for _ in range(rng.randint(1, 4)):
            batch.append((f"f{serial}", _path(rng, links)))
            sizes.append(rng.choice([0.5, 1.0, 3.0]))
            serial += 1
        bulk = rng.random() < 0.5
        for engine, cache in zip(engines, routes):
            table = engine.table
            if bulk:
                chosen = []
                for _, path in batch:
                    key = tuple(path)
                    if key not in cache:
                        indices = np.array(
                            [engine.link_index[link] for link in path],
                            dtype=np.int32,
                        )
                        cache[key] = InternedRoute([], tuple(path), indices)
                    chosen.append(cache[key])
                engine.add_interned(
                    [flow for flow, _ in batch], chosen, sizes, now
                )
            else:
                slots = [engine.add_flow(flow, path) for flow, path in batch]
                table.remaining[slots] = sizes
                table.last_update[slots] = now
    elif roll < 0.6:
        # A completion: charge the finisher, then drop it.
        flow = rng.choice(active)
        for engine in engines:
            engine.materialize((engine.table.slot_of[flow],), now)
            engine.remove_flow(flow)
    elif roll < 0.7:
        # A reroute: the flow leaves and comes back on a new path at
        # the same instant, keeping its bytes.
        flow = rng.choice(active)
        path = _path(rng, links)
        for engine in engines:
            table = engine.table
            engine.materialize((table.slot_of[flow],), now)
            left = table.remaining[table.slot_of[flow]]
            engine.remove_flow(flow)
            slot = engine.add_flow(flow, path)
            table.remaining[slot] = left
            table.last_update[slot] = now
    elif roll < 0.8:
        link = rng.choice(links)
        capacity = rng.choice([0.5, 3.0, 7.0])
        for engine in engines:
            engine.set_capacity(link, capacity)
    elif roll < 0.83:
        # A new link grows every per-link array, busy included.
        a, b = f"x{serial}", rng.choice(NODES)
        serial += 1
        link = frozenset({a, b})
        links.append(link)
        for engine in engines:
            engine.set_capacity(link, 2.0)
    elif roll < 0.9:
        # A public recompute between two steps re-levels early; the
        # step after it must still adopt what moved.
        for engine in engines:
            engine.recompute()
    return serial


def _advance(rng, now: float, upcoming: tuple) -> float:
    if rng.random() < 0.3:
        return now + rng.choice([0.0, 0.1, 0.7])
    if np.isfinite(upcoming[0]):
        return max(now, upcoming[0])
    return now


@needs_kernel
@pytest.mark.parametrize("seed", range(8))
def test_settle_matches_mirror_under_churn(seed):
    """Arrivals (single and interned), completions, reroutes, capacity
    edits, new links and recomputes between steps, with a tiny table
    and class arrays so slots, class pools, classes and busy all regrow
    (forcing rebinds) and the table compacts in mid-run."""
    rng = random.Random(1000 + seed)
    caps = _caps(rng)
    links = list(caps)
    engines = _pair(caps, capacity=4, compact_slack=3)
    routes = [{}, {}]
    now = 0.0
    serial = 0
    grown = False
    for _ in range(160):
        serial = _churn(rng, engines, links, routes, now, serial)
        upcoming = [engine.settle(now) for engine in engines]
        assert upcoming[0] == upcoming[1]
        _assert_same(*engines)
        grown = grown or engines[0].table.remaining.shape[0] > 16
        now = _advance(rng, now, upcoming[0])
    assert grown and engines[0].n_classes >= 16


@needs_kernel
@pytest.mark.parametrize("until", [0.2, 1.0, None])
def test_simulator_reports_match_mirror(until):
    """Full and windowed runs, with faults, report the same on both
    paths (windowed runs charge every in-flight flow at the edge)."""

    def run():
        inventory, clusters = clustered_testbed()
        flows = _traffic(inventory, 7, 60, arrival_rate=200.0)
        failures = fault_schedule(random.Random(7), inventory.network)
        simulator = EventDrivenFlowSimulator(inventory, clusters)
        return simulator.run(flows, failures, until=until)

    kernel = run()
    saved = ckernel._kernel
    ckernel._kernel = None
    try:
        mirror = run()
    finally:
        ckernel._kernel = saved
    assert report_crc(kernel) == report_crc(mirror)
    assert kernel.in_flight == mirror.in_flight
    assert kernel.events == mirror.events
    if until is not None:
        assert kernel.in_flight > 0


def test_empty_table_settles_to_no_completion():
    engine = BatchedFairShareEngine({frozenset({"a", "b"}): 1.0})
    assert engine.settle(0.0) == (np.inf, -1, 0)
    engine.add_flow("f0", [frozenset({"a", "b"})])
    engine.table.remaining[0] = 2.0
    assert engine.settle(0.0) == (2.0, 0, 1)
    engine.remove_flow("f0")
    assert engine.settle(1.0) == (np.inf, -1, 0)


# ----------------------------------------------------------------------
# The incremental step against an implementation-independent oracle
# ----------------------------------------------------------------------
AB, BC, AC = frozenset("ab"), frozenset("bc"), frozenset("ac")
REASONS = ("first", "compacted", "grown")


def _assert_step(engine, upcoming) -> None:
    """``upcoming`` is the brute-force minimum eta over the table, the
    first slot at it and the tie count, and every live slot runs at its
    class's rate."""
    table = engine.table
    eta = table.eta[: table.size]
    best = eta.min() if eta.shape[0] else np.inf
    if best == np.inf:
        assert upcoming == (np.inf, -1, 0)
    else:
        expected = (best, int(np.argmin(eta)), np.count_nonzero(eta == best))
        assert upcoming == expected
        assert np.float64(upcoming[0]).tobytes() == best.tobytes()
    live = table.active_slots()
    assert np.array_equal(
        table.rate[live], engine._class_rate[engine._class_of[live]]
    )


def _full_passes(telemetry) -> dict:
    return {
        reason: telemetry.counter(
            "alvc_fairshare_settle_full_total", "", reason=reason
        ).value
        for reason in REASONS
    }


@needs_kernel
@pytest.mark.parametrize("seed", range(10))
def test_settle_matches_brute_force_under_churn(seed):
    """The compiled step visits only what changed; after every settle
    its answer and the adopted rates still match the oracle, through
    compaction, growth, recomputes between steps and a refused
    repeated-link route at step 100."""
    rng = random.Random(2000 + seed)
    caps = _caps(rng)
    links = list(caps)
    telemetry = Telemetry.enabled_instance()
    engine = BatchedFairShareEngine(
        dict(caps),
        table=FlowTable(capacity=4, compact_slack=3),
        telemetry=telemetry,
    )
    assert engine.kernel_active
    now = 0.0
    serial = 0
    for step in range(200):
        serial = _churn(rng, [engine], links, [{}], now, serial)
        if step == 100:
            with pytest.raises(RepeatedLinkError):
                engine.add_flow("cyclic", [links[0], links[1], links[0]])
        upcoming = engine.settle(now)
        _assert_step(engine, upcoming)
        now = _advance(rng, now, upcoming)
    passes = _full_passes(telemetry)
    assert passes["first"] == 1 and passes["grown"] >= 1
    assert sum(passes.values()) < 40


def test_recompute_between_settles_keeps_what_moved():
    """A public recompute re-levels before the step: the step must still
    adopt the class rates it moved, though nothing is dirty then."""
    engine = BatchedFairShareEngine({AB: 4.0, BC: 4.0})
    table = engine.table
    engine.add_flow("f0", [AB])
    engine.add_flow("f1", [AB, BC])
    table.remaining[:2] = 8.0
    _assert_step(engine, engine.settle(0.0))
    assert table.rate[:2].tolist() == [2.0, 2.0]
    engine.set_capacity(AB, 8.0)
    engine.recompute()
    upcoming = engine.settle(1.0)
    _assert_step(engine, upcoming)
    assert table.rate[:2].tolist() == [4.0, 4.0]
    assert upcoming == (2.5, 0, 2)


def test_compaction_between_an_add_and_its_settle():
    telemetry = Telemetry.enabled_instance()
    engine = BatchedFairShareEngine(
        {AB: 6.0}, table=FlowTable(compact_slack=1), telemetry=telemetry
    )
    table = engine.table
    for index in range(4):
        table.remaining[engine.add_flow(f"f{index}", [AB])] = 3.0
    _assert_step(engine, engine.settle(0.0))
    for index in range(3):
        engine.materialize((table.slot_of[f"f{index}"],), 0.5)
        engine.remove_flow(f"f{index}")
    # Three dead slots against one live one: the add compacts first.
    slot = engine.add_flow("g", [AB])
    assert (table.size, slot) == (2, 1)
    table.remaining[slot] = 3.0
    table.last_update[slot] = 0.5
    upcoming = engine.settle(0.5)
    _assert_step(engine, upcoming)
    assert upcoming == (1.25, 0, 1)
    assert _full_passes(telemetry)["compacted"] == 1


def test_class_that_empties_and_returns():
    """A class whose last flow left keeps its stale rate; a new flow of
    it re-levels to that same rate, and must still adopt it."""
    engine = BatchedFairShareEngine({AB: 2.0, BC: 2.0})
    table = engine.table
    table.remaining[engine.add_flow("f0", [AB])] = 4.0
    _assert_step(engine, engine.settle(0.0))
    engine.remove_flow("f0")
    assert engine.settle(0.0) == (np.inf, -1, 0)
    table.remaining[engine.add_flow("f1", [AB])] = 4.0
    upcoming = engine.settle(0.0)
    _assert_step(engine, upcoming)
    assert upcoming == (2.0, 1, 1)


def test_reroute_at_one_instant():
    engine = BatchedFairShareEngine({AB: 2.0, BC: 2.0, AC: 2.0})
    table = engine.table
    table.remaining[engine.add_flow("f0", [AB, BC])] = 4.0
    table.remaining[engine.add_flow("f1", [AB])] = 4.0
    _assert_step(engine, engine.settle(0.0))
    engine.materialize((0,), 1.0)
    left = table.remaining[0]
    engine.remove_flow("f0")
    slot = engine.add_flow("f0", [AC])
    table.remaining[slot] = left
    table.last_update[slot] = 1.0
    upcoming = engine.settle(1.0)
    _assert_step(engine, upcoming)
    assert table.rate[[1, 2]].tolist() == [2.0, 2.0]
    assert upcoming == (2.5, 1, 2)


def test_eta_tie_on_an_earlier_slot_moves_the_first_slot():
    """A slot whose eta drops onto its block's minimum from above, at a
    lower index than the slot holding it, becomes the first slot."""
    engine = BatchedFairShareEngine({AB: 1.0, BC: 2.0})
    table = engine.table
    table.remaining[engine.add_flow("f0", [AB])] = 2.0
    table.remaining[engine.add_flow("f1", [BC])] = 2.0
    assert engine.settle(0.0) == (1.0, 1, 1)
    engine.set_capacity(AB, 2.0)
    upcoming = engine.settle(0.0)
    _assert_step(engine, upcoming)
    assert upcoming == (1.0, 0, 2)


def test_many_removals_between_settles():
    """Removals across two blocks between two steps, the last of them
    the earliest finisher: its block must be summarized again, or the
    step would still report it."""
    engine = BatchedFairShareEngine({AB: 8.0})
    table = engine.table
    for index in range(100):
        slot = engine.add_flow(f"f{index}", [AB])
        table.remaining[slot] = 5.0
    table.remaining[99] = 0.5
    assert engine.settle(0.0) == (6.25, 99, 1)
    for index in [*range(69), 99]:
        engine.remove_flow(f"f{index}")
    assert table.size == 100 and len(table) == 30
    upcoming = engine.settle(1.0)
    _assert_step(engine, upcoming)
    assert upcoming[1] == 69


def test_table_regrows_past_a_compaction():
    """A compaction cuts the table below its second block; arrivals then
    fill that block again.  Its summary from before the compaction must
    not stand in for the new slots' etas."""
    engine = BatchedFairShareEngine(
        {AB: 8.0}, table=FlowTable(compact_slack=1)
    )
    table = engine.table
    for index in range(130):
        slot = engine.add_flow(f"f{index}", [AB])
        table.remaining[slot] = 5.0
    assert engine.settle(0.0) == (81.25, 0, 130)
    for index in range(1, 130):
        engine.remove_flow(f"f{index}")
    slot = engine.add_flow("g0", [AB])
    assert table.size == 2
    table.remaining[slot] = 5.0
    table.last_update[slot] = 1.0
    _assert_step(engine, engine.settle(1.0))
    for index in range(1, 130):
        slot = engine.add_flow(f"g{index}", [AB])
        table.remaining[slot] = 5.0
        table.last_update[slot] = 1.0
    upcoming = engine.settle(1.0)
    _assert_step(engine, upcoming)
    assert upcoming[1] == 0 and table.size == 131


def test_table_and_class_growth_between_settles():
    chain = [frozenset({f"n{i}", f"n{i + 1}"}) for i in range(24)]
    telemetry = Telemetry.enabled_instance()
    engine = BatchedFairShareEngine(
        dict.fromkeys(chain, 3.0), telemetry=telemetry
    )
    table = engine.table
    table.remaining[engine.add_flow("f0", chain[:2])] = 1.0
    _assert_step(engine, engine.settle(0.0))
    # Forty flows on 23 new classes grow the slots and the class arrays.
    for index in range(40):
        start = index % 23
        slot = engine.add_flow(f"g{index}", chain[start : start + 2])
        table.remaining[slot] = 1.0 + index
    assert table.remaining.shape[0] > 16 and engine.n_classes > 16
    _assert_step(engine, engine.settle(0.0))
    assert _full_passes(telemetry) == dict(
        first=1.0, compacted=0.0, grown=1.0
    )
    table.remaining[engine.add_flow("h", chain[5:7])] = 2.0
    _assert_step(engine, engine.settle(0.5))
    assert sum(_full_passes(telemetry).values()) == 2.0


# ----------------------------------------------------------------------
# Admission and release (``alvc_admit``/``alvc_release`` and the mirror)
# ----------------------------------------------------------------------
PATHS = [pytest.param("kernel", marks=needs_kernel), "mirror"]


def _engine(path: str, caps: dict, **table) -> BatchedFairShareEngine:
    if path == "mirror":
        return _mirror(caps, **table)
    engine = BatchedFairShareEngine(dict(caps), table=FlowTable(**table))
    assert engine.kernel_active
    return engine


def _route(engine, path: list) -> InternedRoute:
    indices = np.array(
        [engine.link_index[link] for link in path], dtype=np.int32
    )
    return InternedRoute([], tuple(path), indices)


def _bookkeeping(engine) -> tuple:
    """What a rejected admission must leave as it was."""
    table = engine.table
    return (
        table.size,
        table.active_count,
        dict(table.slot_of),
        engine._count.tobytes(),
        engine._m.tobytes(),
    )


@pytest.mark.parametrize("path", PATHS)
def test_admission_over_a_removed_link_is_rejected(path):
    """``add_interned`` refuses a route over a removed link, like
    ``add_flow``, instead of loading the dead link at its old
    capacity."""
    engine = _engine(path, {AB: 4.0, BC: 2.0})
    engine.remove_link(BC)
    route = _route(engine, [AB, BC])
    before = _bookkeeping(engine)
    with pytest.raises(SimulationError, match="uses unknown link"):
        engine.add_interned(["y"], [route], [1.0], 0.0)
    assert _bookkeeping(engine) == before
    with pytest.raises(SimulationError, match="uses unknown link"):
        engine.add_flow("y", [AB, BC])
    assert _bookkeeping(engine) == before
    assert engine.link_counts() == {}
    # A live route in the same batch is not admitted either.
    with pytest.raises(SimulationError, match=r"'z' uses unknown link"):
        engine.add_interned(
            ["x", "z"], [_route(engine, [AB]), route], [1.0, 1.0], 0.0
        )
    assert _bookkeeping(engine) == before
    engine.set_capacity(BC, 2.0)
    engine.add_interned(["y"], [route], [1.0], 0.0)
    assert engine.link_counts() == {AB: 1, BC: 1}
    assert engine.recompute().tolist() == [2.0]


def _untouched(engine) -> tuple:
    """What a refused repeated-link route must leave as it was."""
    table = engine.table
    return (
        table.size,
        table.active_count,
        table._compact_pending,
        engine.link_counts(),
        engine.n_classes,
        engine.n_components,
        set(engine._dirty),
    )


@pytest.mark.parametrize("path", PATHS)
def test_repeated_link_routes_are_rejected_without_a_trace(path):
    """``add_flow``, ``add_interned`` and ``intern_pools`` refuse a route
    that crosses a link twice before they reserve, intern or count
    anything, even beside a new simple route in the same call."""
    caps = {AB: 4.0, BC: 2.0, AC: 3.0}
    probe, twin = (
        _engine(path, caps, capacity=16, compact_slack=1) for _ in range(2)
    )
    for engine in (probe, twin):
        flows = ["a", "b", "c", "d"]
        routes = [_route(engine, [AB, BC]), _route(engine, [AC])] * 2
        engine.add_interned(flows, routes, [1.0, 2.0, 3.0, 4.0], 0.0)
        engine.settle(0.0)
        for flow in flows[:3]:
            engine.remove_flow(flow)
    # A compaction and a dirty component wait for the next call.
    assert probe.table._compact_pending and probe._dirty
    before = _untouched(probe)
    cyclic = [AB, BC, AB]
    fresh = [BC, AC]  # a simple route no call has interned yet
    calls = (
        lambda: probe.add_flow("x", cyclic),
        lambda: probe.add_interned(
            ["x", "y"],
            [_route(probe, fresh), _route(probe, cyclic)],
            [1.0, 1.0],
            0.5,
        ),
        lambda: probe.intern_pools(
            [_route(probe, fresh).indices, _route(probe, cyclic).indices]
        ),
    )
    for call in calls:
        with pytest.raises(
            RepeatedLinkError, match=r"crosses link \['a', 'b'\] more than"
        ):
            call()
        assert _untouched(probe) == before
    assert "x" not in probe.table and "y" not in probe.table
    assert probe.recompute().tobytes() == twin.recompute().tobytes()
    assert probe.settle(1.0) == twin.settle(1.0)
    _assert_same(probe, twin)


@pytest.mark.parametrize("path", PATHS)
def test_one_batch_compacts_and_grows_then_drains(path):
    """One ``add_interned`` batch runs a pending compaction and grows
    the slots; every flow then leaves."""
    chain = [frozenset({f"n{i}", f"n{i + 1}"}) for i in range(6)]
    engine = _engine(
        path, dict.fromkeys(chain, 6.0), capacity=16, compact_slack=1
    )
    table = engine.table
    routes = [_route(engine, chain[i : i + 3]) for i in range(4)]
    engine.add_interned(
        [f"old{i}" for i in range(4)], routes, [1.0, 2.0, 3.0, 4.0], 0.0
    )
    for index in (0, 1, 3):
        engine.remove_flow(f"old{index}")
    assert table._compact_pending and table.size == 4
    before = _bookkeeping(engine)
    with pytest.raises(SimulationError, match="already active"):
        engine.add_interned(["a", "b", "a"], routes[:3], [1.0] * 3, 0.5)
    assert _bookkeeping(engine) == before
    with pytest.raises(SimulationError, match="already active"):
        engine.add_interned(["a", "old2"], routes[:2], [1.0] * 2, 0.5)
    assert _bookkeeping(engine) == before
    with pytest.raises(SimulationError, match="not active"):
        engine.remove_flow("old0")
    assert _bookkeeping(engine) == before

    capacity = table.remaining.shape[0]
    flows = [f"new{i}" for i in range(40)]
    chosen = [routes[i % 4] for i in range(40)]
    sizes = [float(i + 1) for i in range(40)]
    slots = engine.add_interned(flows, chosen, sizes, 0.5)
    assert table.remaining.shape[0] > capacity
    # The survivor compacted to slot 0; the batch follows in order.
    assert slots.tolist() == list(range(1, 41))
    assert table.slot_of == {"old2": 0, **dict(zip(flows, range(1, 41)))}
    assert table.flow_ids == ["old2", *flows]
    assert table.remaining[1:41].tolist() == sizes
    assert table.last_update[1:41].tolist() == [0.5] * 40
    assert table.last_update[0] == 0.0
    assert not table.rate[1:41].any() and np.isinf(table.eta[1:41]).all()
    # Each slot reads its route's links, in path order, through its class.
    flat, lens = engine._class_links(engine._class_of[:41])
    assert lens.tolist() == [3] * 41
    assert flat.tolist() == [
        index for route in [routes[2], *chosen] for index in route.indices
    ]
    assert engine._class_of[:41].tolist() == [
        route.cid for route in [routes[2], *chosen]
    ]
    assert engine._m[: engine.n_classes].tolist() == [10, 10, 11, 10]
    assert engine.link_counts() == {
        chain[0]: 10, chain[1]: 20, chain[2]: 31,
        chain[3]: 31, chain[4]: 21, chain[5]: 10,
    }
    _assert_step(engine, engine.settle(0.5))

    for flow in ["old2", *flows]:
        engine.remove_flow(flow)
    assert len(table) == 0 and not table.slot_of
    assert not engine._count.any() and not engine._m.any()
    assert not table.alive[: table.size].any()
    assert (engine._class_of == -1).all()
    assert engine.settle(1.0) == (np.inf, -1, 0)


# ----------------------------------------------------------------------
# Recomputes and rounds per event
# ----------------------------------------------------------------------
#: ``alvc_fairshare_vector_rounds`` (observations, summed rounds) per
#: golden case, recorded from the numpy event loop: one recompute per
#: state-changing event and the same rounds in each, whichever path
#: runs the step.  Plan routes are interned before the first event, so
#: a component re-leveled early may already span links whose classes
#: arrive later (admission_faults/3 sums 39 rounds, 37 when each class
#: was interned at its first arrival); the recompute counts are as
#: before.
ROUNDS = {
    "workload/101": (136, 373.0),
    "ops_crashes/41": (46, 89.0),
    "fault_schedule/1000": (20, 27.0),
    "admission_faults/3": (29, 39.0),
    "admission_window/21": (4, 5.0),
    "link_faults/dual_path": (12, 9.0),
    "chaos/02": (36, 6.0),
}


@pytest.mark.parametrize("case", sorted(ROUNDS))
def test_recomputes_and_rounds_per_event_unchanged(case):
    cases, _, _ = golden_fixture()
    telemetry = Telemetry.enabled_instance()
    with use_telemetry(telemetry):
        cases[case]()
    histogram = telemetry.histogram(
        "alvc_fairshare_vector_rounds", "", ROUNDS_BUCKETS
    )
    assert (histogram.count, histogram.sum) == ROUNDS[case]


# ----------------------------------------------------------------------
# Kernel provenance
# ----------------------------------------------------------------------
@pytest.fixture
def fresh_kernel(monkeypatch, tmp_path):
    """Resolve the kernel from scratch in an empty cache directory (the
    module state is restored afterwards)."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.delenv(ckernel.DISABLE_ENV, raising=False)
    monkeypatch.setattr(ckernel, "_kernel", ckernel._UNSET)
    monkeypatch.setattr(ckernel, "_status", ckernel._status)
    return monkeypatch


def _compiler(returncode: int, stderr: bytes = b"", output: bytes = b""):
    def run(argv, **kwargs):
        if output:
            with open(argv[argv.index("-o") + 1], "wb") as handle:
                handle.write(output)
        return subprocess.CompletedProcess(argv, returncode, b"", stderr)

    return run


def test_status_reports_failed_compile(fresh_kernel):
    fresh_kernel.setattr(
        ckernel.subprocess,
        "run",
        _compiler(1, b"\nwaterfill.c:3:1: error: boom\nmore noise\n"),
    )
    assert ckernel.kernels() is None
    assert not ckernel.kernel_available()
    status = ckernel.kernel_status()
    assert status.startswith("compile failed:")
    assert "error: boom" in status and "more noise" not in status
    assert not BatchedFairShareEngine({}).kernel_active


def test_status_reports_missing_compiler(fresh_kernel):
    def run(argv, **kwargs):
        raise FileNotFoundError(argv[0])

    fresh_kernel.setattr(ckernel.subprocess, "run", run)
    assert ckernel.kernels() is None
    assert ckernel.kernel_status().startswith("no compiler")


def test_status_reports_failed_load(fresh_kernel):
    fresh_kernel.setattr(
        ckernel.subprocess, "run", _compiler(0, output=b"not an ELF")
    )
    assert ckernel.kernels() is None
    assert ckernel.kernel_status().startswith("load failed:")


def test_status_reports_disabled(fresh_kernel):
    fresh_kernel.setenv(ckernel.DISABLE_ENV, "1")
    assert ckernel.kernel_status() == (
        f"disabled: {ckernel.DISABLE_ENV} is set"
    )


@needs_kernel
def test_status_reports_compiled_then_cached(fresh_kernel):
    assert ckernel.kernel_status() == "compiled"
    fresh_kernel.setattr(ckernel, "_kernel", ckernel._UNSET)
    assert ckernel.kernel_status() == "cached"


def test_materialize_rejects_slots_outside_the_table():
    link = frozenset({"a", "b"})
    engine = BatchedFairShareEngine({link: 2.0})
    engine.add_flow("f0", [link])
    for slot in (-1, 1):
        with pytest.raises(SimulationError, match="outside the table"):
            engine.materialize((slot,), 1.0)


def test_materialize_twice_at_one_instant_charges_once():
    link = frozenset({"a", "b"})
    engine = BatchedFairShareEngine({link: 2.0})
    engine.add_flow("f0", [link])
    engine.table.remaining[0] = 4.0
    assert engine.settle(0.0) == (2.0, 0, 1)
    engine.materialize((0,), 1.0)
    engine.materialize((0,), 1.0)
    assert engine.table.remaining[0] == 2.0
    assert engine.busy.tolist() == [2.0]


def test_materialize_after_table_growth_charges_the_settled_rate():
    # Growth reallocates the slot arrays, so the first materialize after
    # it must rebind the event step before charging.
    link = frozenset({"a", "b"})
    engine = BatchedFairShareEngine({link: 2.0})
    engine.add_flow("f0", [link])
    engine.table.remaining[0] = 4.0
    assert engine.settle(0.0) == (2.0, 0, 1)
    capacity = engine.table.remaining.shape[0]
    for index in range(1, capacity + 1):
        engine.add_flow(f"f{index}", [link])
    assert engine.table.remaining.shape[0] > capacity
    engine.materialize((0,), 1.0)
    assert engine.table.remaining[0] == 2.0
    assert engine.busy.tolist() == [2.0]

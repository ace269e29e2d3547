"""Seeded parity: the vector engines vs the textbook water-filling.

The vectorized data plane's whole claim is **bit-identical** max-min
rates: ``np.subtract.at`` replays the reference's sequential IEEE
subtractions, the deferred per-round clamp is provably equivalent to
the per-subtraction clamp, and the rank-ordered ``argmin`` replicates
the ``sorted(link)`` tie-break.  This suite pins that claim on 220
randomized instances — 160 kernel-level add/remove/capacity-cut
sequences against :func:`~repro.sim.fairshare.max_min_fair_rates`, and
60 + 10 full simulator runs with ``FaultEvent`` schedules (capacity cuts
mid-run included) against frozen report checksums, every recompute
certified.

The batched engine keeps state across recomputes (live class
multiplicities, link components, dirty marks, class rates), so its
churn suite recomputes after *every* mutation and compares the whole
per-slot rate array bitwise.  Every reference allocation is also
certified by :func:`~repro.sim.fairshare.check_max_min_fair`, which
does not share any code with the engines.
"""

import random

import numpy as np
import pytest

from repro.sim import ckernel
from repro.sim.admission import InternedRoute
from repro.sim.fairshare import check_max_min_fair, max_min_fair_rates
from repro.sim.vector import (
    BatchedFairShareEngine,
    FlowTable,
    VectorFairShareEngine,
)

from tests.sim.goldens import assert_golden

#: 160 kernel instances + 60 simulator instances = 220 seeds.
KERNEL_CHUNKS = [range(start, start + 20) for start in range(0, 160, 20)]
SIM_CHUNKS = [range(start, start + 10) for start in range(1000, 1060, 10)]


def _random_instance(rng: random.Random):
    """A random capacity map plus unique-link flow paths.

    Capacities come from a tiny value set so exact ratio ties (the
    tie-break path) occur often; each path samples links without
    replacement (the reference's member bookkeeping assumes a flow
    crosses a link at most once).
    """
    nodes = [f"n{index}" for index in range(rng.randint(4, 12))]
    caps = {}
    while len(caps) < rng.randint(3, 14):
        a, b = rng.sample(nodes, 2)
        caps[frozenset({a, b})] = rng.choice([1.0, 2.5, 4.0, 10.0, 10.0])
    links = list(caps)
    paths = {
        f"f{index}": rng.sample(links, rng.randint(0, min(5, len(links))))
        for index in range(rng.randint(1, 40))
    }
    return caps, paths


def _assert_rates_equal(got: dict, want: dict):
    assert set(got) == set(want)
    for flow, rate in want.items():
        if np.isinf(rate):
            assert np.isinf(got[flow])
        else:
            assert got[flow] == rate, flow


class TestKernelParity:
    """VectorFairShareEngine vs max_min_fair_rates."""

    @pytest.mark.parametrize("seeds", KERNEL_CHUNKS)
    def test_randomized_instances(self, seeds):
        for seed in seeds:
            rng = random.Random(seed)
            caps, paths = _random_instance(rng)
            vector_engine = VectorFairShareEngine(caps)
            for flow, path in paths.items():
                vector_engine.add_flow(flow, path)

            reference = max_min_fair_rates(paths, caps)
            check_max_min_fair(reference, paths, caps)
            _assert_rates_equal(vector_engine.rates_by_flow(), reference)

            # Incremental churn: drop a random subset and recompare —
            # the vector table must stay exact across slot reuse.
            doomed = [
                flow for flow in paths if rng.random() < 0.4
            ]
            for flow in doomed:
                vector_engine.remove_flow(flow)
            survivors = {
                flow: path
                for flow, path in paths.items()
                if flow not in doomed
            }
            reference = max_min_fair_rates(survivors, caps)
            check_max_min_fair(reference, survivors, caps)
            _assert_rates_equal(vector_engine.rates_by_flow(), reference)

    @pytest.mark.parametrize("seeds", KERNEL_CHUNKS[:2])
    def test_capacity_cuts_mid_sequence(self, seeds):
        """The FaultEvent revocation hook (``set_capacity``) at the
        kernel level: degrade a loaded link, recompute, restore."""
        for seed in seeds:
            rng = random.Random(seed ^ 0xC0FFEE)
            caps, paths = _random_instance(rng)
            vector_engine = VectorFairShareEngine(caps)
            for flow, path in paths.items():
                vector_engine.add_flow(flow, path)
            victim = rng.choice(list(caps))
            for capacity in (caps[victim] * 0.25, caps[victim]):
                vector_engine.set_capacity(victim, capacity)
                degraded = {**caps, victim: capacity}
                reference = max_min_fair_rates(paths, degraded)
                check_max_min_fair(reference, paths, degraded)
                _assert_rates_equal(vector_engine.rates_by_flow(), reference)


class _Churn:
    """One seeded mutation sequence applied to every engine in lockstep.

    Links come in ``groups`` disjoint sets (one AL slice each); most
    flows stay inside one group, a few bridge two (merging their
    components), a few cross a link twice (duplicate-link classes that
    force the vector fallback while live) and a few have no links.
    """

    CAPS = (1.0, 2.5, 4.0, 10.0)

    def __init__(self, rng: random.Random, groups: int, slack: int):
        self.rng = rng
        self.groups = [
            [
                frozenset({f"g{group}a{index}", f"g{group}b{index}"})
                for index in range(rng.randint(2, 6))
            ]
            for group in range(groups)
        ]
        self.caps = {
            link: rng.choice(self.CAPS)
            for group in self.groups
            for link in group
        }
        self.dead: set = set()
        self.paths: dict = {}
        self.serial = 0
        self.vector = VectorFairShareEngine(
            dict(self.caps), table=FlowTable(compact_slack=slack)
        )
        self.batched = [self._batched(slack, kernel=False)]
        if ckernel.kernels() is not None:
            self.batched.append(self._batched(slack, kernel=True))
        #: Per batched engine: path -> InternedRoute (a route's cached
        #: class id belongs to one engine).
        self.routes = [{} for _ in self.batched]

    def _batched(self, slack: int, kernel: bool) -> BatchedFairShareEngine:
        saved = ckernel._kernel
        if not kernel:
            ckernel._kernel = None
        try:
            engine = BatchedFairShareEngine(
                dict(self.caps), table=FlowTable(compact_slack=slack)
            )
        finally:
            ckernel._kernel = saved
        assert engine.kernel_active == kernel
        return engine

    # ------------------------------------------------------------------
    def _alive(self, links):
        return [link for link in links if link not in self.dead]

    def _path(self) -> list:
        rng = self.rng
        roll = rng.random()
        if roll < 0.05:
            return []
        group = self._alive(rng.choice(self.groups))
        if roll < 0.15:
            group = group + self._alive(rng.choice(self.groups))
        if not group:
            return []
        path = rng.sample(group, rng.randint(1, min(4, len(group))))
        if roll > 0.95 and len(path) > 1:
            path.append(path[0])  # a cyclic path: duplicate link
        return path

    def _route(self, engine_index: int, path: list) -> InternedRoute:
        key = tuple(tuple(sorted(link)) for link in path)
        routes = self.routes[engine_index]
        route = routes.get(key)
        if route is None:
            index = self.batched[engine_index].link_index
            route = InternedRoute(
                ["?"] * (len(path) + 1),
                tuple(path),
                np.array([index[link] for link in path], dtype=np.int32),
                len(path) > len(set(path)),
            )
            routes[key] = route
        return route

    def add(self, count: int, interned: bool) -> None:
        flows = [f"f{self.serial + offset}" for offset in range(count)]
        self.serial += count
        paths = [self._path() for _ in flows]
        for flow, path in zip(flows, paths):
            self.paths[flow] = path
            self.vector.add_flow(flow, path)
        for position, engine in enumerate(self.batched):
            if interned:
                engine.add_interned(
                    flows,
                    [self._route(position, path) for path in paths],
                    [0.0] * count,
                    0.0,
                )
            else:
                for flow, path in zip(flows, paths):
                    engine.add_flow(flow, path)

    def remove(self) -> None:
        if not self.paths:
            return
        flow = self.rng.choice(sorted(self.paths))
        del self.paths[flow]
        for engine in (self.vector, *self.batched):
            engine.remove_flow(flow)

    def set_capacity(self) -> None:
        rng = self.rng
        if rng.random() < 0.15:
            # A link the engines have never seen (appended in place).
            group = rng.choice(self.groups)
            link = frozenset({f"new{self.serial}", "x"})
            self.serial += 1
            group.append(link)
        else:
            link = rng.choice(sorted(self.caps, key=sorted))
        capacity = rng.choice(self.CAPS)
        self.caps[link] = capacity
        self.dead.discard(link)
        for engine in (self.vector, *self.batched):
            engine.set_capacity(link, capacity)

    def remove_link(self) -> None:
        crossed = {link for path in self.paths.values() for link in path}
        idle = [
            link for link in sorted(self.caps, key=sorted)
            if link not in crossed and link not in self.dead
        ]
        if not idle:
            return
        link = self.rng.choice(idle)
        self.dead.add(link)
        for engine in (self.vector, *self.batched):
            engine.remove_link(link)

    # ------------------------------------------------------------------
    def check(self, step) -> None:
        want = self.vector.recompute()
        for engine in self.batched:
            got = engine.recompute()
            assert got.tobytes() == want.tobytes(), step
        live = {
            link: capacity
            for link, capacity in self.caps.items()
            if link not in self.dead
        }
        reference = max_min_fair_rates(self.paths, live)
        check_max_min_fair(reference, self.paths, live)
        _assert_rates_equal(self.batched[0].rates_by_flow(), reference)


class TestBatchedChurnParity:
    """Batched engine state across recomputes vs the vector engine and
    the reference, kernel and numpy loop alike."""

    @pytest.mark.parametrize("seeds", [range(0, 15), range(15, 30)])
    def test_recompute_after_every_mutation(self, seeds):
        merged = 0
        for seed in seeds:
            rng = random.Random(seed)
            churn = _Churn(rng, groups=rng.randint(2, 5), slack=2)
            for step in range(120):
                roll = rng.random()
                if roll < 0.25:
                    churn.add(1, interned=False)
                elif roll < 0.45:
                    churn.add(rng.randint(1, 4), interned=True)
                elif roll < 0.8 or len(churn.paths) > 30:
                    churn.remove()
                elif roll < 0.92:
                    churn.set_capacity()
                else:
                    churn.remove_link()
                churn.check((seed, step))
            for engine in churn.batched:
                assert engine.n_components >= 1
            merged += churn.batched[0].n_components < len(churn.groups)
        # Bridging flows merged components in some sequences.
        assert merged > 0

    def test_clean_components_keep_their_rates(self):
        """An event in one group re-levels only that group: the other
        group's slots come back bit-identical without re-leveling."""
        from repro.observability.runtime import Telemetry
        from repro.sim.fairshare import ROUNDS_BUCKETS

        telemetry = Telemetry.enabled_instance()
        caps = {
            frozenset({"a", "b"}): 4.0,
            frozenset({"b", "c"}): 2.5,
            frozenset({"x", "y"}): 10.0,
            frozenset({"y", "z"}): 1.0,
        }
        left, right = list(caps)[:2], list(caps)[2:]
        engine = BatchedFairShareEngine(caps, telemetry=telemetry)
        rounds = telemetry.histogram(
            "alvc_fairshare_vector_rounds", "", ROUNDS_BUCKETS
        )
        for index in range(3):
            engine.add_flow(f"l{index}", left[: index % 2 + 1])
            engine.add_flow(f"r{index}", right[: index % 2 + 1])
        engine.recompute()
        assert engine.n_components == 2
        before = rounds.sum
        engine.add_flow("l3", left[1:])
        engine.recompute()
        # Only the left component (two loaded links) was re-leveled.
        assert rounds.sum - before <= 2
        before = rounds.sum
        engine.recompute()  # nothing dirty
        assert rounds.sum == before
        paths = {
            **{f"l{i}": left[: i % 2 + 1] for i in range(3)},
            **{f"r{i}": right[: i % 2 + 1] for i in range(3)},
            "l3": left[1:],
        }
        assert engine.rates_by_flow() == max_min_fair_rates(paths, caps)

    def test_component_telemetry(self):
        from repro.observability.runtime import Telemetry

        telemetry = Telemetry.enabled_instance()
        caps = {
            frozenset({"a", "b"}): 1.0,
            frozenset({"c", "d"}): 1.0,
            frozenset({"e", "f"}): 1.0,
        }
        ab, cd, ef = caps
        engine = BatchedFairShareEngine(caps, telemetry=telemetry)
        components = telemetry.gauge("alvc_fairshare_components")
        merges = telemetry.counter("alvc_fairshare_component_merges_total")
        engine.add_flow("f0", [ab])
        engine.add_flow("f1", [cd])
        engine.add_flow("f2", [ef])
        assert (engine.n_components, components.value) == (3, 3)
        assert merges.value == 0
        engine.add_flow("f3", [ab, cd])  # bridges two components
        assert (engine.n_components, components.value) == (2, 2)
        assert merges.value == 1
        engine.add_flow("f4", [ab, cd, ef])
        assert (engine.n_components, components.value) == (1, 1)
        assert merges.value == 2
        engine.add_flow("f5", [ef, ab])  # already one component
        assert merges.value == 2
        paths = {
            "f0": [ab], "f1": [cd], "f2": [ef], "f3": [ab, cd],
            "f4": [ab, cd, ef], "f5": [ef, ab],
        }
        assert engine.rates_by_flow() == max_min_fair_rates(paths, caps)


class TestFairnessCertificate:
    """check_max_min_fair rejects allocations that are not max-min fair."""

    CAPS = {frozenset({"a", "b"}): 4.0, frozenset({"b", "c"}): 2.0}
    PATHS = {"f0": [frozenset({"a", "b"})],
             "f1": [frozenset({"a", "b"}), frozenset({"b", "c"})],
             "f2": []}

    def test_accepts_reference(self):
        reference = max_min_fair_rates(self.PATHS, self.CAPS)
        assert reference == {"f0": 2.0, "f1": 2.0, "f2": float("inf")}
        check_max_min_fair(reference, self.PATHS, self.CAPS)

    @pytest.mark.parametrize(
        "rates, reason",
        [
            ({"f0": 2.5, "f1": 2.0, "f2": float("inf")}, "over capacity"),
            ({"f0": 1.0, "f1": 2.0, "f2": float("inf")}, "no bottleneck"),
            ({"f0": 3.0, "f1": 1.0, "f2": float("inf")}, "no bottleneck"),
            ({"f0": 2.0, "f1": 2.0, "f2": 1.0}, "no links"),
            ({"f0": 2.0, "f1": float("inf"), "f2": float("inf")}, "rate"),
            ({"f0": 2.0, "f1": 2.0}, "different flows"),
        ],
    )
    def test_rejects(self, rates, reason):
        from repro.exceptions import SimulationError

        with pytest.raises(SimulationError, match=reason):
            check_max_min_fair(rates, self.PATHS, self.CAPS)


class TestSimulatorParity:
    """Full event loop under FaultEvent schedules: the frozen checksums
    the from-scratch, incremental and vector loops agreed on."""

    @pytest.mark.parametrize("seeds", SIM_CHUNKS)
    def test_randomized_fault_schedules(self, seeds):
        for seed in seeds:
            assert_golden(f"fault_schedule/{seed}")


class TestAdmissionParity:
    """The frozen checksums per-event and batched admission agreed on."""

    @pytest.mark.parametrize("seeds", [range(2000, 2010)])
    def test_fault_schedules_bit_identical(self, seeds):
        for seed in seeds:
            assert_golden(f"fault_schedule/{seed}")

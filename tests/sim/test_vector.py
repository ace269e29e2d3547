"""Units for the struct-of-arrays data plane (``repro.sim.vector``).

``FlowTable`` slot lifecycle and compaction, ``LinkBusyView`` mapping
semantics, and ``BatchedFairShareEngine`` incremental bookkeeping — the
bit-parity arguments live in ``tests/sim/test_vector_parity.py``.
"""

import pickle

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.sim.fairshare import max_min_fair_rates
from repro.sim.vector import BatchedFairShareEngine, FlowTable, LinkBusyView

A = frozenset({"a", "b"})
B = frozenset({"b", "c"})
C = frozenset({"c", "d"})

CAPS = {A: 10.0, B: 4.0, C: 8.0}


def _engine(caps=None, **kwargs):
    return BatchedFairShareEngine(dict(caps or CAPS), **kwargs)


def _admit(table, *flows):
    """Admit ``flows`` into the table's next slots the way the engine
    does: reserve them, write them (here only ``alive``), commit them.
    Returns the first slot."""
    first = table.reserve(flows)
    table.alive[first : first + len(flows)] = True
    table.commit(flows)
    return first


# ----------------------------------------------------------------------
# FlowTable
# ----------------------------------------------------------------------
class TestFlowTable:
    def test_add_remove_roundtrip(self):
        table = FlowTable()
        slot = _admit(table, "f0")
        assert slot == 0
        assert "f0" in table
        assert len(table) == 1
        assert table.remove("f0") == slot
        assert "f0" not in table
        assert len(table) == 0

    def test_duplicate_add_rejected(self):
        table = FlowTable()
        _admit(table, "f0")
        with pytest.raises(SimulationError, match="already active"):
            table.reserve(("f0",))

    def test_remove_unknown_rejected(self):
        with pytest.raises(SimulationError, match="not active"):
            FlowTable().remove("ghost")

    def test_slots_are_activation_ordered(self):
        table = FlowTable()
        for index in range(5):
            _admit(table, f"f{index}")
        table.remove("f2")
        assert table.active_slots().tolist() == [0, 1, 3, 4]

    def test_growth_preserves_state(self):
        table = FlowTable(capacity=16)
        grown = []
        table.on_grow = lambda: grown.append(table.remaining.shape[0])
        for index in range(200):
            slot = _admit(table, f"f{index}")
            table.remaining[slot] = float(index)
        assert len(table) == 200
        assert grown == [32, 64, 128, 256]
        assert table.remaining[:200].tolist() == list(range(200))
        assert table.active_slots().tolist() == list(range(200))

    def test_compaction_renumbers_in_relative_order(self):
        table = FlowTable(compact_slack=1)
        for index in range(8):
            table.remaining[_admit(table, f"f{index}")] = float(index)
        for index in (0, 2, 4, 6, 1):
            table.remove(f"f{index}")
        # Dead slots now outnumber live ones; the next add compacts.
        table.remaining[_admit(table, "fresh")] = 9.0
        assert table.size == len(table) == 4
        survivors = [table.flow_ids[slot] for slot in table.active_slots()]
        assert survivors == ["f3", "f5", "f7", "fresh"]
        assert table.slot_of == {"f3": 0, "f5": 1, "f7": 2, "fresh": 3}
        assert table.remaining[:4].tolist() == [3.0, 5.0, 7.0, 9.0]


# ----------------------------------------------------------------------
# LinkBusyView
# ----------------------------------------------------------------------
class TestLinkBusyView:
    def _view(self):
        return LinkBusyView((A, B, C), np.array([5.0, 0.0, 2.5]))

    def test_only_busy_links_visible(self):
        view = self._view()
        assert set(view) == {A, C}
        assert len(view) == 2
        assert view[A] == 5.0
        with pytest.raises(KeyError):
            view[B]
        with pytest.raises(KeyError):
            view[frozenset({"x", "y"})]

    def test_equals_plain_dict(self):
        view = self._view()
        assert view == {A: 5.0, C: 2.5}
        assert not view == {A: 5.0}
        assert not view == {A: 5.0, C: 99.0}
        assert view.to_dict() == {A: 5.0, C: 2.5}

    def test_pickles_as_plain_dict(self):
        revived = pickle.loads(pickle.dumps(self._view()))
        assert isinstance(revived, dict)
        assert revived == {A: 5.0, C: 2.5}

    def test_mean_utilization_matches_manual(self):
        view = self._view()
        got = view.mean_utilization({A: 10.0, B: 4.0, C: 8.0}, 2.0)
        manual = (5.0 / (10.0 * 2.0) + 2.5 / (8.0 * 2.0)) / 2.0
        assert got == pytest.approx(manual)
        assert view.mean_utilization({A: 10.0, C: 8.0}, 0.0) == 0.0

    @pytest.mark.parametrize(
        "caps, match",
        [
            ({C: 8.0}, "no capacity entry"),
            ({A: -1.0, C: 8.0}, "negative capacity"),
            ({A: 0.0, C: 8.0}, "zero-capacity"),
        ],
    )
    def test_mean_utilization_validation(self, caps, match):
        with pytest.raises(SimulationError, match=match):
            self._view().mean_utilization(caps, 1.0)


# ----------------------------------------------------------------------
# BatchedFairShareEngine: link registry and flow bookkeeping
# ----------------------------------------------------------------------
class TestVectorFairShareEngine:
    """The engine's link registry, incremental bookkeeping and rates."""

    def test_non_positive_capacity_rejected(self):
        with pytest.raises(SimulationError, match="non-positive"):
            _engine({A: 0.0})

    def test_unknown_link_rejected(self):
        engine = _engine()
        with pytest.raises(SimulationError, match="unknown link"):
            engine.add_flow("f0", [frozenset({"x", "y"})])

    def test_duplicate_flow_rejected(self):
        engine = _engine()
        engine.add_flow("f0", [A])
        with pytest.raises(SimulationError, match="already active"):
            engine.add_flow("f0", [B])

    def test_remove_unknown_flow_rejected(self):
        with pytest.raises(SimulationError, match="not active"):
            _engine().remove_flow("ghost")

    def test_counts_track_add_remove(self):
        engine = _engine()
        engine.add_flow("f0", [A, B])
        engine.add_flow("f1", [B])
        assert engine.link_counts() == {A: 1, B: 2}
        assert engine.active_flows == 2
        assert engine.loaded_links == 2
        engine.remove_flow("f0")
        assert engine.link_counts() == {B: 1}

    def test_remove_link_refuses_crossing_flows(self):
        engine = _engine()
        engine.add_flow("f0", [A])
        with pytest.raises(SimulationError, match="active flows"):
            engine.remove_link(A)
        engine.remove_flow("f0")
        engine.remove_link(A)
        assert A not in engine.capacities()
        engine.remove_link(frozenset({"x", "y"}))  # unknown: no-op

    def test_set_capacity_validates_and_restores(self):
        engine = _engine()
        with pytest.raises(SimulationError, match="positive"):
            engine.set_capacity(A, 0.0)
        engine.remove_link(A)
        engine.set_capacity(A, 6.0)
        assert engine.capacities()[A] == 6.0

    def test_set_capacity_appends_unknown_link(self):
        engine = _engine()
        fresh = frozenset({"x", "y"})
        before = engine.n_links
        engine.set_capacity(fresh, 3.0)
        assert engine.n_links == before + 1
        assert engine.capacities()[fresh] == 3.0
        engine.add_flow("f0", [fresh])
        assert engine.rates_by_flow() == {"f0": 3.0}

    def test_linkless_flow_gets_infinite_rate(self):
        engine = _engine()
        engine.add_flow("f0", [])
        assert engine.rates_by_flow() == {"f0": np.inf}

    def test_empty_recompute(self):
        assert _engine().recompute().shape[0] == 0

    def test_rates_match_reference_kernel(self):
        engine = _engine()
        paths = {"f0": [A, B], "f1": [B, C], "f2": [C]}
        for flow, path in paths.items():
            engine.add_flow(flow, path)
        assert engine.rates_by_flow() == max_min_fair_rates(paths, CAPS)

    def test_rounds_telemetry_observed(self):
        from repro.observability.runtime import Telemetry
        from repro.sim.fairshare import ROUNDS_BUCKETS

        telemetry = Telemetry.enabled_instance()
        engine = _engine(telemetry=telemetry)
        engine.add_flow("f0", [A, B])
        engine.add_flow("f1", [B])
        engine.recompute()
        histogram = telemetry.histogram(
            "alvc_fairshare_vector_rounds", "", ROUNDS_BUCKETS
        )
        assert histogram.count >= 1


# ----------------------------------------------------------------------
# FlowTable batch admission: one reserve/commit for many flows
# ----------------------------------------------------------------------
class TestFlowTableBulk:
    def test_add_many_matches_serial_adds(self):
        serial = FlowTable(capacity=4)
        bulk = FlowTable(capacity=4)
        flows = [f"f{index}" for index in range(6)]
        for flow in flows:
            _admit(serial, flow)
        assert _admit(bulk, *flows) == 0
        assert bulk.slot_of == serial.slot_of
        assert bulk.flow_ids == serial.flow_ids
        assert bulk.meta == serial.meta == [None] * 6
        assert bulk.size == serial.size
        assert bulk.active_count == serial.active_count
        assert bulk.remaining.shape == serial.remaining.shape
        assert bulk.alive.tolist() == serial.alive.tolist()

    def test_add_many_empty(self):
        table = FlowTable()
        assert _admit(table) == 0
        assert len(table) == 0 and table.size == 0

    def test_add_many_duplicate_rejected_atomically(self):
        table = FlowTable()
        _admit(table, "f0")
        size = table.size
        with pytest.raises(SimulationError, match="already active"):
            table.reserve(["f1", "f0"])
        # No partial allocation: the duplicate was detected up front.
        assert table.size == size
        assert "f1" not in table

    def test_add_many_repeated_id_rejected_atomically(self):
        # A repeated id must not get two slots: remove() would leave the
        # first one alive and ownerless, and the run could not drain.
        table = FlowTable()
        with pytest.raises(SimulationError, match="already active"):
            table.reserve(["a", "b", "a"])
        assert (table.size, len(table)) == (0, 0)
        assert not table.slot_of and not table.flow_ids

    def test_add_many_grows_slots(self):
        table = FlowTable(capacity=2)
        flows = [f"f{index}" for index in range(64)]
        assert _admit(table, *flows) == 0
        assert table.remaining.shape[0] >= 64
        assert table.slot_of == {flow: slot for slot, flow in enumerate(flows)}
        assert table.active_slots().tolist() == list(range(64))


# ----------------------------------------------------------------------
# Compaction amortization (S1): the predicate is evaluated once per
# remove() — the only operation that can flip it — and add paths only
# check the cached flag.
# ----------------------------------------------------------------------
class TestCompactionAmortization:
    def _filled(self, n, slack):
        table = FlowTable(compact_slack=slack)
        for index in range(n):
            _admit(table, f"f{index}")
        return table

    def test_flag_flips_in_remove_not_add(self):
        table = self._filled(8, 1)
        for index in range(4):
            table.remove(f"f{index}")
        # dead (4) == live (4): bound not exceeded, no compaction due.
        assert not table._compact_pending
        table.remove("f4")
        # dead (5) > max(1, live=3): pending now, but nothing compacts
        # until the next admission.
        assert table._compact_pending
        assert table.size == 8
        _admit(table, "fresh")
        assert not table._compact_pending
        assert table.size == len(table) == 4

    def test_dead_equals_live_boundary_does_not_compact(self):
        table = self._filled(6, 0)
        for index in range(3):
            table.remove(f"f{index}")
        assert not table._compact_pending
        _admit(table, "fresh")
        assert table.size == 7  # no compaction happened

    def test_compact_slack_exactly_met_does_not_compact(self):
        # slack=4 dominates live: dead == slack is not > slack.
        table = self._filled(5, 4)
        for index in range(4):
            table.remove(f"f{index}")
        assert not table._compact_pending
        table.remove("f4")
        # dead (5) > max(slack=4, live=0): now pending.
        assert table._compact_pending

    def test_add_many_honors_pending_compaction(self):
        table = self._filled(8, 1)
        for index in range(5):
            table.remove(f"f{index}")
        assert table._compact_pending
        # Compaction ran first: three survivors then the new pair.
        assert _admit(table, "a", "b") == 3
        assert table.size == 5

    def test_on_compact_hook_sees_live_slots(self):
        table = self._filled(6, 1)
        seen = []
        table.on_compact = lambda live: seen.append(live.tolist())
        for index in range(4):
            table.remove(f"f{index}")
        _admit(table, "fresh")
        assert seen == [[4, 5]]


# ----------------------------------------------------------------------
# BatchedFairShareEngine: class aggregation + compiled kernel
# ----------------------------------------------------------------------
class TestBatchedEngine:
    def _batched(self, caps=None, **kwargs):
        return BatchedFairShareEngine(dict(caps or CAPS), **kwargs)

    def test_interning_dedupes_classes(self):
        engine = self._batched()
        engine.add_flow("f0", [A, B])
        engine.add_flow("f1", [A, B])
        engine.add_flow("f2", [B, C])
        assert engine.n_classes == 2

    @staticmethod
    def _transpose(engine) -> list[list[int]]:
        return [
            engine._t_classes[start : start + length].tolist()
            for start, length in zip(
                engine._t_start.tolist(), engine._t_len.tolist()
            )
        ]

    def test_bulk_interning_matches_one_by_one(self):
        import random as _random

        rng = _random.Random(7)
        caps = {frozenset({f"n{i}", f"n{i + 1}"}): 1.0 for i in range(40)}
        pools = [
            np.array(rng.sample(range(40), rng.randint(0, 6)), np.int32)
            for _ in range(120)
        ]
        pools += pools[::7]  # repeats, inside the call and across calls
        bulk, serial = self._batched(caps), self._batched(caps)
        cids = bulk.intern_pools(pools[:5])
        cids += bulk.intern_pools(pools[5:])
        assert cids == [serial.intern_pools((pool,))[0] for pool in pools]
        n = serial.n_classes
        assert bulk.n_classes == n
        for name in ("_cstart", "_clen", "_class_rate", "_label"):
            assert getattr(bulk, name)[:n].tolist() == (
                getattr(serial, name)[:n].tolist()
            ), name
        assert bulk._cflat[: bulk._flat_len].tolist() == (
            serial._cflat[: serial._flat_len].tolist()
        )
        assert bulk._anchor == serial._anchor
        for cid, pool in zip(cids, pools):
            links = pool.tolist()
            start = bulk._cstart[cid]
            assert bulk._cflat[start : start + len(links)].tolist() == links
            assert bulk._anchor[cid] == (links[0] if links else -1)
        assert bulk._layout.tolist() == serial._layout.tolist()
        assert bulk.n_components == serial.n_components
        transpose = self._transpose(bulk)
        assert transpose == self._transpose(serial)
        # Each link lists exactly the classes crossing it, ascending.
        assert transpose == [
            [cid for cid in range(n) if link in set(
                bulk._cflat[bulk._cstart[cid]:][: bulk._clen[cid]].tolist()
            )]
            for link in range(40)
        ]

    def test_slots_crossing_reads_the_transpose(self):
        engine = self._batched()
        paths = {"f0": [A, B], "f1": [B, C], "f2": [C], "f3": [A], "f4": [B]}
        for flow, path in paths.items():
            engine.add_flow(flow, path)
        engine.remove_flow("f4")
        slot_of = engine.table.slot_of
        for links in ([A], [B], [C], [A, C], []):
            want = sorted(
                slot_of[flow]
                for flow, path in paths.items()
                if flow in slot_of and set(path) & set(links)
            )
            assert engine.slots_crossing(links).tolist() == want

    def test_shared_class_rates_match_reference(self):
        # Two flows of one class freeze together at one share.
        engine = self._batched()
        paths = {"f0": [A, B], "f1": [B, C], "f2": [C], "f3": [A, B]}
        for flow, path in paths.items():
            engine.add_flow(flow, path)
        rates = engine.recompute()
        assert rates[0].tobytes() == rates[3].tobytes()
        assert engine.rates_by_flow() == max_min_fair_rates(paths, CAPS)

    def test_prefilled_table_rejected(self):
        table = FlowTable()
        _admit(table, "f0")
        with pytest.raises(SimulationError, match="already holds 1 live"):
            self._batched(table=table)
        # A table whose flows all left is accepted.
        table.remove("f0")
        engine = self._batched(table=table)
        engine.add_flow("f1", [A])
        assert engine.rates_by_flow() == {"f1": 10.0}

    def test_set_capacity_appends_link_and_rebuilds(self):
        extra = frozenset({"d", "e"})
        engine = self._batched()
        engine.add_flow("f0", [A])
        engine.recompute()
        engine.set_capacity(extra, 2.0)
        engine.add_flow("f1", [extra, A])
        paths = {"f0": [A], "f1": [extra, A]}
        assert engine.rates_by_flow() == max_min_fair_rates(
            paths, {**CAPS, extra: 2.0}
        )

    def test_compaction_renumbers_classes(self):
        table = FlowTable(compact_slack=1)
        engine = self._batched(table=table)
        for index in range(8):
            engine.add_flow(f"f{index}", [A, B] if index % 2 else [C])
        for index in range(5):
            engine.remove_flow(f"f{index}")
        engine.add_flow("fresh", [C])  # triggers compaction
        paths = {"f5": [A, B], "f6": [C], "f7": [A, B], "fresh": [C]}
        assert engine.rates_by_flow() == max_min_fair_rates(paths, CAPS)

    def test_kernel_matches_numpy_bitwise(self, monkeypatch):
        import random as _random

        from repro.sim import ckernel

        if ckernel.kernels() is None:
            pytest.skip("no C compiler in this environment")

        for seed in range(20):
            rng = _random.Random(seed)
            nodes = [f"n{index}" for index in range(rng.randint(4, 10))]
            caps = {}
            while len(caps) < rng.randint(3, 12):
                a, b = rng.sample(nodes, 2)
                caps[frozenset({a, b})] = rng.choice(
                    [1.0, 2.5, 4.0, 10.0]
                )
            links = list(caps)
            paths = {
                f"f{index}": rng.sample(
                    links, rng.randint(1, min(4, len(links)))
                )
                for index in range(rng.randint(1, 30))
            }

            with monkeypatch.context() as patch:
                patch.setattr(ckernel, "_kernel", None)
                numpy_engine = self._batched(caps)
                assert not numpy_engine.kernel_active
                for flow, path in paths.items():
                    numpy_engine.add_flow(flow, path)
                numpy_rates = numpy_engine.recompute()

            kernel_engine = self._batched(caps)
            assert kernel_engine.kernel_active
            for flow, path in paths.items():
                kernel_engine.add_flow(flow, path)
            kernel_rates = kernel_engine.recompute()

            assert kernel_rates.tobytes() == numpy_rates.tobytes(), seed
            # And both match the reference water-filling.
            assert kernel_engine.rates_by_flow() == max_min_fair_rates(
                paths, caps
            ), seed

    def test_disable_env_pins_numpy_loop(self, monkeypatch):
        from repro.sim import ckernel

        monkeypatch.setenv(ckernel.DISABLE_ENV, "1")
        monkeypatch.setattr(ckernel, "_kernel", ckernel._UNSET)
        monkeypatch.setattr(ckernel, "_status", ckernel._status)
        assert ckernel.kernels() is None
        assert not ckernel.kernel_available()
        engine = self._batched()
        assert not engine.kernel_active
        engine.add_flow("f0", [A, B])
        engine.add_flow("f1", [B])
        assert engine.rates_by_flow() == max_min_fair_rates(
            {"f0": [A, B], "f1": [B]}, CAPS
        )

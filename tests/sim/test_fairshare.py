"""Tests for max-min fair bandwidth allocation."""

import random

import pytest

from repro.exceptions import SimulationError
from repro.sim.fairshare import link_of, links_on_path, max_min_fair_rates
from repro.sim.vector import BatchedFairShareEngine


AB = link_of("a", "b")
BC = link_of("b", "c")
CD = link_of("c", "d")


class TestHelpers:
    def test_link_of_unordered(self):
        assert link_of("a", "b") == link_of("b", "a")

    def test_links_on_path(self):
        assert links_on_path(["a", "b", "c"]) == [AB, BC]

    def test_single_node_path_has_no_links(self):
        assert links_on_path(["a"]) == []


class TestMaxMinFairness:
    def test_single_flow_gets_full_capacity(self):
        rates = max_min_fair_rates({"f1": [AB]}, {AB: 10.0})
        assert rates["f1"] == pytest.approx(10.0)

    def test_two_flows_share_equally(self):
        rates = max_min_fair_rates(
            {"f1": [AB], "f2": [AB]}, {AB: 10.0}
        )
        assert rates["f1"] == pytest.approx(5.0)
        assert rates["f2"] == pytest.approx(5.0)

    def test_disjoint_flows_independent(self):
        rates = max_min_fair_rates(
            {"f1": [AB], "f2": [CD]}, {AB: 10.0, CD: 4.0}
        )
        assert rates["f1"] == pytest.approx(10.0)
        assert rates["f2"] == pytest.approx(4.0)

    def test_classic_three_flow_example(self):
        # f1: AB+BC, f2: AB, f3: BC; capacities AB=10, BC=4.
        # BC is the bottleneck: f1 and f3 get 2 each; f2 then gets the
        # remaining 8 on AB.
        rates = max_min_fair_rates(
            {"f1": [AB, BC], "f2": [AB], "f3": [BC]},
            {AB: 10.0, BC: 4.0},
        )
        assert rates["f1"] == pytest.approx(2.0)
        assert rates["f3"] == pytest.approx(2.0)
        assert rates["f2"] == pytest.approx(8.0)

    def test_linkless_flow_is_unbounded(self):
        rates = max_min_fair_rates({"f1": []}, {})
        assert rates["f1"] == float("inf")

    def test_capacity_conservation(self):
        flows = {
            "f1": [AB, BC],
            "f2": [AB],
            "f3": [BC, CD],
            "f4": [CD],
        }
        capacities = {AB: 6.0, BC: 3.0, CD: 9.0}
        rates = max_min_fair_rates(flows, capacities)
        # No link is oversubscribed.
        for link, capacity in capacities.items():
            used = sum(
                rates[flow]
                for flow, links in flows.items()
                if link in links
            )
            assert used <= capacity + 1e-9

    def test_all_rates_positive(self):
        flows = {f"f{i}": [AB, BC] for i in range(5)}
        rates = max_min_fair_rates(flows, {AB: 10.0, BC: 1.0})
        assert all(rate > 0 for rate in rates.values())

    def test_unknown_link_rejected(self):
        with pytest.raises(SimulationError):
            max_min_fair_rates({"f1": [AB]}, {})

    def test_non_positive_capacity_rejected(self):
        with pytest.raises(SimulationError):
            max_min_fair_rates({"f1": [AB]}, {AB: 0.0})

    def test_no_flows(self):
        assert max_min_fair_rates({}, {AB: 5.0}) == {}

    def test_colocated_flow_beside_loaded_flows(self):
        rates = max_min_fair_rates(
            {"f1": [], "f2": [AB]}, {AB: 6.0}
        )
        assert rates["f1"] == float("inf")
        assert rates["f2"] == 6.0

    def test_bottleneck_tie_broken_by_sorted_link(self):
        # AB and CD offer the same share; sorted(link) makes the pick
        # deterministic regardless of dict/set iteration order, so the
        # allocation is stable across runs and engines.
        first = max_min_fair_rates(
            {"f1": [AB], "f2": [CD], "f3": [AB, CD]},
            {AB: 4.0, CD: 4.0},
        )
        second = max_min_fair_rates(
            {"f3": [CD, AB], "f2": [CD], "f1": [AB]},
            {CD: 4.0, AB: 4.0},
        )
        assert first == second
        assert first["f3"] == pytest.approx(2.0)

    def test_bottleneck_fairness_property(self):
        """Each flow is limited by at least one saturated link on which
        it gets a maximal share (the max-min optimality condition)."""
        flows = {
            "f1": [AB, BC],
            "f2": [AB],
            "f3": [BC],
            "f4": [BC, CD],
        }
        capacities = {AB: 12.0, BC: 6.0, CD: 2.0}
        rates = max_min_fair_rates(flows, capacities)
        for flow, links in flows.items():
            has_bottleneck = False
            for link in links:
                used = sum(
                    rates[other]
                    for other, other_links in flows.items()
                    if link in other_links
                )
                saturated = used >= capacities[link] - 1e-9
                maximal = all(
                    rates[flow] >= rates[other] - 1e-9
                    for other, other_links in flows.items()
                    if link in other_links
                )
                if saturated and maximal:
                    has_bottleneck = True
            assert has_bottleneck, f"{flow} has no bottleneck link"


class TestFairShareEngine:
    """The simulator's incremental engine must match the reference bit
    for bit (``rates_by_flow`` recomputes and keys rates by flow)."""

    def test_matches_reference_on_classic_example(self):
        capacities = {AB: 10.0, BC: 4.0}
        engine = BatchedFairShareEngine(capacities)
        flows = {"f1": [AB, BC], "f2": [AB], "f3": [BC]}
        for flow, links in flows.items():
            engine.add_flow(flow, links)
        assert engine.rates_by_flow() == max_min_fair_rates(flows, capacities)

    def test_linkless_flow_is_unbounded(self):
        engine = BatchedFairShareEngine({})
        engine.add_flow("f1", [])
        assert engine.rates_by_flow() == {"f1": float("inf")}

    def test_colocated_inf_alongside_loaded_flows(self):
        # A zero-hop flow must get inf without disturbing loaded shares.
        engine = BatchedFairShareEngine({AB: 6.0})
        engine.add_flow("loaded", [AB])
        engine.add_flow("colocated", [])
        rates = engine.rates_by_flow()
        assert rates["colocated"] == float("inf")
        assert rates["loaded"] == 6.0

    def test_bottleneck_tie_broken_by_sorted_link(self):
        # Two links with identical remaining/load: the reference's min()
        # keeps the first encountered; the engine tie-breaks on
        # sorted(link), which must produce the same allocation.
        capacities = {AB: 4.0, CD: 4.0}
        flows = {"f1": [AB], "f2": [CD], "f3": [AB, CD]}
        engine = BatchedFairShareEngine(capacities)
        for flow, links in flows.items():
            engine.add_flow(flow, links)
        assert engine.rates_by_flow() == max_min_fair_rates(flows, capacities)

    def test_remove_flow_releases_share(self):
        engine = BatchedFairShareEngine({AB: 10.0})
        engine.add_flow("f1", [AB])
        engine.add_flow("f2", [AB])
        assert engine.rates_by_flow()["f1"] == 5.0
        engine.remove_flow("f2")
        assert engine.rates_by_flow() == {"f1": 10.0}

    def test_duplicate_flow_rejected(self):
        engine = BatchedFairShareEngine({AB: 1.0})
        engine.add_flow("f1", [AB])
        with pytest.raises(SimulationError):
            engine.add_flow("f1", [AB])

    def test_unknown_link_rejected(self):
        engine = BatchedFairShareEngine({AB: 1.0})
        with pytest.raises(SimulationError):
            engine.add_flow("f1", [BC])

    def test_remove_inactive_flow_rejected(self):
        engine = BatchedFairShareEngine({AB: 1.0})
        with pytest.raises(SimulationError):
            engine.remove_flow("ghost")

    def test_remove_loaded_link_rejected(self):
        engine = BatchedFairShareEngine({AB: 1.0})
        engine.add_flow("f1", [AB])
        with pytest.raises(SimulationError):
            engine.remove_link(AB)
        engine.remove_flow("f1")
        engine.remove_link(AB)
        assert engine.loaded_links == 0

    def test_non_positive_capacity_rejected(self):
        with pytest.raises(SimulationError):
            BatchedFairShareEngine({AB: 0.0})
        with pytest.raises(SimulationError):
            BatchedFairShareEngine({AB: -1.0})

    def test_counters_track_membership(self):
        engine = BatchedFairShareEngine({AB: 2.0, BC: 2.0})
        engine.add_flow("f1", [AB, BC])
        engine.add_flow("f2", [AB])
        assert engine.active_flows == 2
        assert engine.link_counts() == {AB: 2, BC: 1}
        engine.remove_flow("f1")
        assert engine.link_counts() == {AB: 1}

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6])
    def test_randomized_parity_with_reference(self, seed):
        """Exact (==, not approx) parity against `max_min_fair_rates`
        through a random churn of arrivals and departures."""
        rng = random.Random(seed)
        nodes = [f"n{i}" for i in range(8)]
        links = [
            link_of(a, b)
            for a in nodes
            for b in nodes
            if a < b and rng.random() < 0.4
        ]
        capacities = {
            link: rng.choice([1.0, 2.5, 4.0, 10.0, 40.0]) for link in links
        }
        engine = BatchedFairShareEngine(capacities)
        reference: dict[str, list] = {}
        for step in range(60):
            if reference and rng.random() < 0.35:
                victim = rng.choice(list(reference))
                del reference[victim]
                engine.remove_flow(victim)
            else:
                flow = f"f{seed}-{step}"
                chosen = rng.sample(links, k=rng.randint(0, 3))
                reference[flow] = chosen
                engine.add_flow(flow, chosen)
            assert engine.rates_by_flow() == max_min_fair_rates(
                reference, capacities
            )

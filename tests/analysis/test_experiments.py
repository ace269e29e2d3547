"""Tests for the experiment harness (shapes and invariants of E1-E12)."""

import pytest

from repro.analysis import experiments as exp


class TestStandardTestbed:
    def test_vm_counts(self):
        inventory, catalog, services = exp.standard_testbed(
            n_services=2, vms_per_service=5
        )
        assert len(services) == 2
        for service in services:
            assert len(inventory.vms_of_service(service)) == 5
        assert all(
            inventory.is_placed(vm.vm_id) for vm in inventory.all_vms()
        )


class TestE1Clustering:
    def test_structure(self):
        result = exp.experiment_fig1_clustering(n_flows=100)
        assert {row["architecture"] for row in result["traffic"]} == {
            "al-vc",
            "flat",
        }
        assert len(result["census"]) == 3

    def test_alvc_confines_more(self):
        result = exp.experiment_fig1_clustering(n_flows=150)
        by_arch = {
            row["architecture"]: row for row in result["traffic"]
        }
        assert (
            by_arch["al-vc"]["al_confined_flows"]
            >= by_arch["flat"]["al_confined_flows"]
        )


class TestE2Topology:
    def test_pairs_of_rows_per_scale(self):
        rows = exp.experiment_fig2_topology(scales=((4, 4, 4),))
        assert len(rows) == 2
        assert rows[0]["fabric"].startswith("alvc")
        assert rows[1]["fabric"].startswith("fat-tree")

    def test_alvc_has_optical_links_baseline_does_not(self):
        rows = exp.experiment_fig2_topology(scales=((4, 4, 4),))
        assert rows[0]["optical_links"] > 0
        assert rows[1]["optical_links"] == 0


class TestE3Clusters:
    def test_disjoint_totals(self):
        rows = exp.experiment_fig3_clusters(n_services=3)
        per_cluster = [row for row in rows if row["cluster"].startswith("cluster")]
        total_row = next(row for row in rows if row["cluster"] == "TOTAL")
        assert total_row["al_size"] == sum(
            row["al_size"] for row in per_cluster
        )


class TestE4Fig4:
    def test_worked_example_matches_paper(self):
        result = exp.experiment_fig4_worked_example()
        assert result["tor_selected"] == ["tor-0", "tor-2"]
        assert result["tor_considered"] == ["tor-0", "tor-1", "tor-2"]
        assert result["tor_weights"]["tor-0"] == 6
        assert result["al"] == ["ops-0", "ops-2"]
        assert result["al_size"] == 2

    def test_strategy_sweep_shape(self):
        rows = exp.experiment_fig4_strategy_sweep(
            scales=((4, 4),), seeds=(0, 1), include_exact=False
        )
        strategies = {row["strategy"] for row in rows}
        assert strategies == {
            "vertex_cover_greedy",
            "marginal_greedy",
            "random",
        }

    def test_greedy_beats_random_on_average(self):
        rows = exp.experiment_fig4_strategy_sweep(
            scales=((8, 8),), seeds=(0, 1, 2, 3), include_exact=False
        )
        by_strategy = {row["strategy"]: row for row in rows}
        assert (
            by_strategy["vertex_cover_greedy"]["mean_al_size"]
            <= by_strategy["random"]["mean_al_size"]
        )


class TestE5NfcPaths:
    def test_three_chains(self):
        rows = exp.experiment_fig5_nfc_paths()
        assert [row["chain"] for row in rows] == ["blue", "black", "green"]
        for row in rows:
            assert row["path_len"] >= 0
            assert row["conversions"] >= 0


class TestE6Orchestration:
    def test_action_census(self):
        rows = exp.experiment_fig6_orchestration()
        metrics = {row["metric"]: row["value"] for row in rows}
        assert metrics["action:provision"] == 3
        assert metrics["action:delete"] == 2
        assert metrics["action:upgrade"] == 1
        assert metrics["live_chains"] == 1


class TestE7Slicing:
    def test_rejection_after_exhaustion(self):
        rows = exp.experiment_fig7_slicing(n_services=7, n_ops=4)
        outcomes = [row["outcome"] for row in rows]
        assert any(outcome.startswith("rejected") for outcome in outcomes)
        # Accepted count never decreases.
        accepted = [row["accepted_total"] for row in rows]
        assert accepted == sorted(accepted)


class TestE8Placement:
    def test_worked_example(self):
        result = exp.experiment_fig8_worked_example()
        assert result["before_conversions"] == 2
        assert result["after_conversions"] == 1
        assert result["saved"] == 1
        assert result["after_optical"] == 2

    def test_sweep_monotone_in_capacity(self):
        rows = exp.experiment_fig8_sweep(
            chain_lengths=(4,),
            capacity_scales=(0.0, 1.0),
            seeds=(0,),
        )
        greedy = {
            row["capacity_scale"]: row
            for row in rows
            if row["algorithm"] == "greedy"
        }
        assert (
            greedy[1.0]["mean_conversions"] <= greedy[0.0]["mean_conversions"]
        )

    def test_optimal_never_worse_than_greedy(self):
        rows = exp.experiment_fig8_sweep(
            chain_lengths=(4, 6),
            capacity_scales=(0.5, 1.0),
            seeds=(0, 1),
        )
        greedy = {
            (row["chain_len"], row["capacity_scale"]): row["mean_conversions"]
            for row in rows
            if row["algorithm"] == "greedy"
        }
        optimal = {
            (row["chain_len"], row["capacity_scale"]): row["mean_conversions"]
            for row in rows
            if row["algorithm"] == "exact"
        }
        for key, greedy_value in greedy.items():
            assert optimal[key] <= greedy_value + 1e-9

    def test_all_electronic_is_upper_bound(self):
        rows = exp.experiment_fig8_sweep(
            chain_lengths=(4,), capacity_scales=(1.0,), seeds=(0,)
        )
        by_algorithm = {row["algorithm"]: row for row in rows}
        ceiling = by_algorithm["all_electronic"]["mean_conversions"]
        for name, row in by_algorithm.items():
            assert row["mean_conversions"] <= ceiling + 1e-9


class TestE9OptimalityGap:
    def test_gaps_at_least_one(self):
        rows = exp.experiment_e9_optimality_gap(instances=4)
        for row in rows:
            assert row["gap_vs_exact"] >= 1.0 - 1e-9

    def test_greedy_gap_below_random(self):
        rows = exp.experiment_e9_optimality_gap(instances=6)
        gaps = {row["strategy"]: row["gap_vs_exact"] for row in rows}
        assert gaps["vertex_cover_greedy"] <= gaps["random"] + 1e-9


class TestE10UpdateCost:
    def test_alvc_cheaper(self):
        rows = exp.experiment_e10_update_cost(n_events=30)
        total = next(row for row in rows if row["event_kind"] == "ALL")
        assert total["mean_alvc_touched"] < total["mean_flat_touched"]
        assert 0 < total["reduction"] <= 1


class TestE11Scalability:
    def test_rows_per_scale(self):
        rows = exp.experiment_e11_scalability(scales=((4, 8, 4), (8, 8, 8)))
        assert len(rows) == 2
        assert rows[0]["servers"] == 32
        assert all(row["construct_ms"] >= 0 for row in rows)

    def test_al_size_bounded_by_core(self):
        rows = exp.experiment_e11_scalability(scales=((8, 16, 8),))
        assert rows[0]["al_size"] <= rows[0]["ops"]


class TestE12Energy:
    def test_energy_monotone_nonincreasing(self):
        rows = exp.experiment_e12_energy(
            capacity_scales=(0.0, 1.0, 4.0), n_flows=50
        )
        energies = [row["energy_joules"] for row in rows]
        assert energies == sorted(energies, reverse=True)

    def test_zero_capacity_no_saving(self):
        rows = exp.experiment_e12_energy(capacity_scales=(0.0,), n_flows=20)
        assert rows[0]["energy_saving"] == 0.0

    def test_saving_fraction_bounds(self):
        rows = exp.experiment_e12_energy(n_flows=30)
        for row in rows:
            assert 0.0 <= row["energy_saving"] <= 1.0


class TestE13Reconfiguration:
    def test_incremental_never_worse(self):
        rows = exp.experiment_e13_reconfiguration(churn_events=20)
        by_policy = {row["policy"]: row for row in rows}
        assert (
            by_policy["incremental"]["total_touched"]
            <= by_policy["rebuild"]["total_touched"]
        )

    def test_zero_cost_events_counted(self):
        rows = exp.experiment_e13_reconfiguration(churn_events=20)
        incremental = next(
            row for row in rows if row["policy"] == "incremental"
        )
        assert 0 <= incremental["zero_cost_events"] <= incremental["events"]


class TestE14ChainTraffic:
    def test_optical_strictly_cheaper(self):
        rows = exp.experiment_e14_chain_traffic(n_flows=40)
        by_placement = {row["placement"]: row for row in rows}
        optical = by_placement["greedy-optical"]
        electronic = by_placement["all-electronic"]
        assert optical["conversion_cost"] < electronic["conversion_cost"]
        assert optical["energy_joules"] < electronic["energy_joules"]

    def test_processing_cost_independent_of_placement(self):
        rows = exp.experiment_e14_chain_traffic(n_flows=40)
        costs = {row["processing_cost"] for row in rows}
        assert len(costs) == 1


class TestE15FlowCompletion:
    def test_load_monotonicity(self):
        rows = exp.experiment_e15_flow_completion(
            arrival_rates=(10.0, 160.0), n_flows=60
        )
        alvc = {
            row["arrival_rate"]: row["mean_fct"]
            for row in rows
            if row["architecture"] == "al-vc"
        }
        assert alvc[160.0] >= alvc[10.0]

    def test_both_architectures_reported(self):
        rows = exp.experiment_e15_flow_completion(
            arrival_rates=(20.0,), n_flows=40
        )
        assert {row["architecture"] for row in rows} == {"al-vc", "flat"}


class TestE17OperationalMigration:
    def test_consistency(self):
        rows = exp.experiment_e17_operational_migration(n_migrations=10)
        row = rows[0]
        assert row["isolation_violations"] == 0
        assert row["chains_rerouted"] == row["migrations"]
        assert row["mean_switches_touched"] >= 0


class TestE18FailureContinuity:
    def test_conservation(self):
        rows = exp.experiment_e18_failure_continuity(
            n_flows=60, n_failures_sweep=(0, 1)
        )
        for row in rows:
            assert row["completed"] + row["dropped"] == 60

    def test_baseline_clean(self):
        rows = exp.experiment_e18_failure_continuity(
            n_flows=40, n_failures_sweep=(0,)
        )
        assert rows[0]["dropped"] == 0
        assert rows[0]["reroutes"] == 0


class TestE26Soak:
    def test_spawned_soak_matches_in_process_run(self):
        from repro.sim.event_simulator import EventDrivenFlowSimulator

        rows = exp.experiment_e26_dataplane_throughput(
            n_flows=200, arrival_rate=200.0, soak_flows=2000
        )
        soak = {row["arm"]: row for row in rows}["soak"]

        inventory, clusters, services = exp._e26_testbed(128, 8, 48, 16, 7, 0)
        flows = exp._e26_soak_workload(inventory, services, 2000, 12, 0)
        report = EventDrivenFlowSimulator(inventory, clusters).run(
            flows, until=12.0
        )
        assert (soak["events"], soak["in_flight"]) == (
            report.events,
            report.in_flight,
        )
        assert soak["rss_workload_mb"] > 0
        assert soak["rss_run_mb"] >= 0
        assert "workers" not in soak

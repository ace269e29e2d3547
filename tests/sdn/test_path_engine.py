"""PathEngine units: CSR snapshot, bitmasks, generations, telemetry.

The bit-parity of the kernels against ``networkx`` is exercised at
scale in ``tests/sdn/test_routing_parity.py``; this module covers the
engine's *machinery* — snapshot (re)builds keyed to
``topology_generation``, AL bitmask caching, fault-driven mask
invalidation, telemetry counters and the engine selector plumbing.
"""

import pytest

from repro.exceptions import RoutingError, ValidationError
from repro.observability.runtime import Telemetry
from repro.sdn.path_engine import PathEngine, PathEngineNoPath, engine_for
from repro.config import ROUTING_ENGINES, EngineConfig
from repro.sdn.routing import (
    k_shortest_paths,
    routes_from,
    shortest_path_in_al,
    shortest_surviving_path,
    simple_path,
)
from repro.topology.elements import ServerSpec, TorSpec


class TestCsrSnapshot:
    def test_engine_for_attaches_one_engine(self, paper_dcn):
        first = engine_for(paper_dcn)
        second = engine_for(paper_dcn)
        assert first is second

    def test_node_count_matches_fabric(self, paper_dcn):
        engine = engine_for(paper_dcn)
        assert engine.node_count == paper_dcn.graph.number_of_nodes()

    def test_route_matches_networkx(self, paper_dcn):
        engine = engine_for(paper_dcn)
        assert engine.route("server-0", "server-5") == simple_path(
            paper_dcn, "server-0", "server-5", engine="nx"
        )

    def test_route_same_node_is_trivial(self, paper_dcn):
        assert engine_for(paper_dcn).route("server-0", "server-0") == [
            "server-0"
        ]

    def test_no_path_raises_internal_error(self, paper_dcn):
        engine = engine_for(paper_dcn)
        with pytest.raises(PathEngineNoPath):
            engine.route("server-0", "server-4", allowed_ops=frozenset())


class TestGenerationInvalidation:
    def test_topology_mutation_bumps_generation(self, paper_dcn):
        before = paper_dcn.topology_generation
        paper_dcn.add_server(ServerSpec(server_id="server-new"))
        mid = paper_dcn.topology_generation
        paper_dcn.add_tor(TorSpec(tor_id="tor-new"))
        paper_dcn.connect("server-new", "tor-new")
        assert before < mid < paper_dcn.topology_generation

    def test_engine_rebuilds_after_mutation(self, paper_dcn):
        engine = engine_for(paper_dcn)
        n_before = engine.node_count
        mask_before = engine.mask_generation
        paper_dcn.add_server(ServerSpec(server_id="server-new"))
        paper_dcn.add_tor(TorSpec(tor_id="tor-new"))
        paper_dcn.connect("server-new", "tor-new")
        paper_dcn.connect("tor-new", "ops-0")
        # Lazy: nothing rebuilt yet; first query refreshes the snapshot.
        assert engine.node_count == n_before + 2
        assert engine.mask_generation > mask_before
        path = engine.route("server-new", "server-0")
        assert path[0] == "server-new" and path[-1] == "server-0"

    def test_new_link_changes_routes(self, paper_dcn):
        long_before = simple_path(paper_dcn, "server-0", "server-4")
        assert len(long_before) > 3
        paper_dcn.connect("tor-0", "tor-2")
        after = simple_path(paper_dcn, "server-0", "server-4")
        assert after == ["server-0", "tor-0", "tor-2", "server-4"]

    def test_note_fault_bumps_mask_generation_only(self, paper_dcn):
        engine = engine_for(paper_dcn)
        engine.route("server-0", "server-1")  # force a build
        topo = paper_dcn.topology_generation
        mask = engine.mask_generation
        engine.note_fault()
        assert engine.mask_generation == mask + 1
        assert paper_dcn.topology_generation == topo

    def test_note_fault_invalidates_avoid_masks(self, paper_dcn):
        # A cut link must stay respected across a fault event even
        # though the (failed_nodes, cut_links) cache key is identical.
        baseline = simple_path(paper_dcn, "server-0", "server-4")
        cut = (baseline[1], baseline[2])  # first ToR -> OPS hop
        detour = shortest_surviving_path(
            paper_dcn, "server-0", "server-4", cut_links=[cut], engine="csr"
        )
        hops = set(zip(detour, detour[1:]))
        assert cut not in hops and tuple(reversed(cut)) not in hops
        engine_for(paper_dcn).note_fault()
        again = shortest_surviving_path(
            paper_dcn, "server-0", "server-4", cut_links=[cut], engine="csr"
        )
        assert again == detour


class TestTelemetryCounters:
    def test_counters_track_queries_and_masks(self, paper_dcn):
        telemetry = Telemetry.enabled_instance()
        engine = PathEngine(paper_dcn, telemetry=telemetry)
        al = frozenset({"ops-0", "ops-2"})
        engine.route("server-0", "server-4", al)
        engine.route("server-0", "server-5", al)
        metrics = telemetry.registry
        assert metrics.value_of("alvc_path_engine_queries_total") == 2.0
        assert metrics.value_of("alvc_path_engine_rebuilds_total") == 1.0
        assert metrics.value_of("alvc_path_engine_bitmask_builds_total") == 1.0
        assert metrics.value_of("alvc_path_engine_bitmask_hits_total") == 1.0

    def test_rebuild_counts_mutations(self, paper_dcn):
        telemetry = Telemetry.enabled_instance()
        engine = PathEngine(paper_dcn, telemetry=telemetry)
        engine.route("server-0", "server-1")
        paper_dcn.add_server(ServerSpec(server_id="server-new"))
        paper_dcn.add_tor(TorSpec(tor_id="tor-new"))
        paper_dcn.connect("server-new", "tor-new")
        engine.route("server-0", "server-1")
        engine.route("server-0", "server-1")
        metrics = telemetry.registry
        assert metrics.value_of("alvc_path_engine_rebuilds_total") == 2.0


class TestEngineSelection:
    def test_registry(self):
        from repro.sdn import routing

        assert ROUTING_ENGINES == ("auto", "csr", "nx")
        # One vocabulary: routing checks the tuple EngineConfig checks.
        assert routing.ROUTING_ENGINES is ROUTING_ENGINES

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValidationError):
            EngineConfig(routing="quantum")

    def test_unknown_engine_rejected_per_call(self, paper_dcn):
        with pytest.raises(ValidationError):
            simple_path(paper_dcn, "server-0", "server-1", engine="quantum")

    def test_auto_follows_fabric_caching(self, paper_dcn):
        from repro.sdn.routing import _resolve_engine

        paper_dcn.set_caching(True)
        assert _resolve_engine(paper_dcn, "auto") == "csr"
        paper_dcn.set_caching(False)
        assert _resolve_engine(paper_dcn, "auto") == "nx"
        paper_dcn.set_caching(True)
        assert _resolve_engine(paper_dcn, "csr") == "csr"
        assert _resolve_engine(paper_dcn, "nx") == "nx"


class TestKShortestValidation:
    """Satellite: AL violations must not masquerade as unknown endpoints."""

    @pytest.mark.parametrize("engine", ["csr", "nx"])
    def test_ops_outside_al_is_an_al_error(self, paper_dcn, engine):
        with pytest.raises(RoutingError, match="outside the abstraction"):
            k_shortest_paths(
                paper_dcn,
                "ops-1",
                "server-0",
                k=2,
                al_switches={"ops-0"},
                engine=engine,
            )

    @pytest.mark.parametrize("engine", ["csr", "nx"])
    def test_unknown_endpoint_still_unknown(self, paper_dcn, engine):
        with pytest.raises(RoutingError, match="unknown endpoint"):
            k_shortest_paths(
                paper_dcn,
                "mars",
                "server-0",
                k=2,
                al_switches={"ops-0"},
                engine=engine,
            )

    @pytest.mark.parametrize("engine", ["csr", "nx"])
    def test_ops_inside_al_is_fine(self, paper_dcn, engine):
        paths = k_shortest_paths(
            paper_dcn,
            "ops-0",
            "server-0",
            k=2,
            al_switches={"ops-0"},
            engine=engine,
        )
        assert paths and paths[0][0] == "ops-0"


class TestRoutesFrom:
    @pytest.mark.parametrize("engine", ["csr", "nx"])
    def test_batched_fanout_reaches_all(self, paper_dcn, engine):
        targets = ["server-1", "server-4", "server-5"]
        routed = routes_from(paper_dcn, "server-0", targets, engine=engine)
        assert set(routed) == set(targets)
        for target, path in routed.items():
            assert path[0] == "server-0" and path[-1] == target

    @pytest.mark.parametrize("engine", ["csr", "nx"])
    def test_unreachable_targets_omitted(self, paper_dcn, engine):
        routed = routes_from(
            paper_dcn,
            "server-0",
            ["server-1", "server-4"],
            al_switches=set(),
            engine=engine,
        )
        assert "server-1" in routed  # same rack, no OPS needed
        assert "server-4" not in routed  # needs the core

    @pytest.mark.parametrize("engine", ["csr", "nx"])
    def test_empty_targets(self, paper_dcn, engine):
        assert routes_from(paper_dcn, "server-0", [], engine=engine) == {}
        with pytest.raises(RoutingError, match="unknown endpoint"):
            routes_from(paper_dcn, "mars", [], engine=engine)

    @pytest.mark.parametrize("engine", ["csr", "nx"])
    def test_unknown_target_raises(self, paper_dcn, engine):
        with pytest.raises(RoutingError, match="unknown endpoint"):
            routes_from(paper_dcn, "server-0", ["mars"], engine=engine)


class TestShortestSurvivingPath:
    @pytest.mark.parametrize("engine", ["csr", "nx"])
    def test_detours_around_failed_node(self, paper_dcn, engine):
        baseline = simple_path(paper_dcn, "server-0", "server-4")
        ops_on_path = [n for n in baseline if n.startswith("ops")]
        assert ops_on_path
        detour = shortest_surviving_path(
            paper_dcn,
            "server-0",
            "server-4",
            failed_nodes=[ops_on_path[0]],
            engine=engine,
        )
        assert ops_on_path[0] not in detour

    @pytest.mark.parametrize("engine", ["csr", "nx"])
    def test_failed_endpoint_raises(self, paper_dcn, engine):
        with pytest.raises(RoutingError, match="endpoint failed"):
            shortest_surviving_path(
                paper_dcn,
                "server-0",
                "server-4",
                failed_nodes=["server-4"],
                engine=engine,
            )

    @pytest.mark.parametrize("engine", ["csr", "nx"])
    def test_isolated_source_raises(self, paper_dcn, engine):
        with pytest.raises(RoutingError, match="no surviving path"):
            shortest_surviving_path(
                paper_dcn,
                "server-0",
                "server-4",
                cut_links=[("server-0", "tor-0")],
                engine=engine,
            )


class TestSnapshotRoundTrip:
    """The engine hangs off the fabric, so a stack snapshot pickles it:
    no ``ctypes`` state of the compiled searches may reach the pickle,
    and the restored engine must rebuild it and route the same."""

    def _queries(self, fabric):
        servers = fabric.servers()
        ops = fabric.optical_switches()
        al = frozenset(ops[: len(ops) // 2 + 1])
        engine = engine_for(fabric)
        baseline = engine.route(servers[0], servers[-1])
        cut = frozenset({frozenset(baseline[1:3])})
        return [
            engine.route(servers[0], servers[-1]),
            engine.route(servers[1], servers[-2], al),
            engine.routes_from(servers[0], servers[1:], al),
            engine.k_shortest(servers[0], servers[-1], 4),
            engine.route_avoiding(
                servers[0], servers[-1], frozenset({ops[0]}), cut
            ),
        ]

    def test_restored_stack_routes_identically(self, tmp_path):
        from repro.service.snapshot import load_snapshot, write_snapshot
        from repro.stack import AlvcStack

        stack = AlvcStack.build(n_racks=4, servers_per_rack=3, n_ops=5, seed=3)
        stack.provision(("firewall", "nat"), service="web")
        fabric = stack.fabric
        self._queries(fabric)
        engine_for(fabric).note_fault()
        before = self._queries(fabric)
        path = write_snapshot(stack, tmp_path / "snap.alvc", journal_seq=0)
        restored = load_snapshot(path).stack.fabric
        assert restored is not fabric
        assert self._queries(restored) == before
        # The live stack's engine still routes after being pickled.
        assert self._queries(fabric) == before

    def test_pickle_holds_no_projection(self, paper_dcn):
        import pickle

        from repro.sim.ckernel import kernel_available

        engine = engine_for(paper_dcn)
        engine.route_avoiding(
            "server-0",
            "server-4",
            frozenset(),
            frozenset({frozenset({"tor-0", "ops-0"})}),
        )
        assert (engine._csr is not None) == kernel_available()
        state = engine.__getstate__()
        assert "_csr" not in state and "_mask_cache" not in state
        clone = pickle.loads(pickle.dumps(engine))
        assert clone._csr is None and clone._built_generation == -1
        assert clone.route("server-0", "server-5") == engine.route(
            "server-0", "server-5"
        )
        assert (clone._csr is not None) == kernel_available()

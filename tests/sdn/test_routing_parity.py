"""Randomized engine parity: CSR vs networkx, bit for bit.

The whole point of :class:`repro.sdn.path_engine.PathEngine` is that
switching engines can never change an experiment's output.  This suite
sweeps hundreds of ``(seeded fabric, AL mask)`` combinations and
asserts the two engines return **identical paths and identical error
messages** for every routing entry point, then replays a full chaos
run under each engine and compares the frozen reports.

The last section compares the engine's compiled searches
(``alvc_bidir``, ``alvc_level_paths``) with their Python mirrors on
randomized fabrics, masks and cut links, and checks every returned
path against a brute-force shortest-path length over the masked graph,
an oracle that shares no code with either.
"""

from __future__ import annotations

import random
from array import array

import pytest

from repro.exceptions import RoutingError
from repro.sdn.path_engine import PathEngine, PathEngineNoPath
from repro.sdn.routing import (
    chain_path,
    k_shortest_paths,
    routes_from,
    shortest_path_in_al,
    shortest_surviving_path,
    simple_path,
    use_engine,
)
from repro.sim import ckernel
from repro.topology.generators import build_alvc_fabric

#: 20 fabric seeds x 10 AL masks each = 200 compared combinations.
FABRIC_SEEDS = range(20)
ALS_PER_FABRIC = 10


def _outcome(fn):
    """Normalize a routing call into a comparable (status, value) pair."""
    try:
        return ("ok", fn())
    except RoutingError as exc:
        return ("err", str(exc))


def _both(fabric, fn):
    """Run ``fn(engine)`` under both engines and assert identical results."""
    nx_result = _outcome(lambda: fn("nx"))
    csr_result = _outcome(lambda: fn("csr"))
    assert csr_result == nx_result
    return nx_result


@pytest.mark.parametrize("seed", FABRIC_SEEDS)
def test_engines_agree_on_paths_and_errors(seed):
    fabric = build_alvc_fabric(
        n_racks=4, servers_per_rack=3, n_ops=5, seed=seed
    )
    rng = random.Random(seed * 7919 + 13)
    servers = fabric.servers()
    ops = fabric.optical_switches()
    nodes = servers + fabric.tors() + ops

    for _ in range(ALS_PER_FABRIC):
        al = frozenset(rng.sample(ops, rng.randint(0, len(ops))))
        a, b = rng.choice(nodes), rng.choice(nodes)
        s, t = rng.choice(servers), rng.choice(servers)
        waypoints = [rng.choice(servers) for _ in range(rng.randint(2, 4))]
        targets = rng.sample(servers, rng.randint(1, 4))
        failed = rng.sample(ops, rng.randint(0, 2))
        cut = []
        if rng.random() < 0.5:
            edge = rng.choice(list(fabric.graph.edges))
            cut = [tuple(edge)]

        _both(fabric, lambda e: simple_path(fabric, a, b, engine=e))
        _both(
            fabric,
            lambda e: shortest_path_in_al(fabric, s, t, al, engine=e),
        )
        _both(
            fabric,
            lambda e: chain_path(fabric, waypoints, al, engine=e),
        )
        _both(
            fabric,
            lambda e: k_shortest_paths(
                fabric, s, t, k=3, al_switches=al, engine=e
            ),
        )
        _both(
            fabric,
            lambda e: routes_from(
                fabric, s, targets, al_switches=al, engine=e
            ),
        )
        _both(
            fabric,
            lambda e: shortest_surviving_path(
                fabric, s, t, failed_nodes=failed, cut_links=cut, engine=e
            ),
        )

        # Occasionally probe validation paths: unknown and out-of-AL
        # endpoints must produce the same error text under both engines.
        if rng.random() < 0.3:
            _both(
                fabric,
                lambda e: shortest_path_in_al(
                    fabric, "no-such-node", t, al, engine=e
                ),
            )
        if ops and rng.random() < 0.3:
            outsider = rng.choice(ops)
            restricted = al - {outsider}
            _both(
                fabric,
                lambda e: k_shortest_paths(
                    fabric,
                    outsider,
                    t,
                    k=2,
                    al_switches=restricted,
                    engine=e,
                ),
            )


def test_parity_survives_topology_mutation():
    """The CSR snapshot tracks mutations: agree, mutate, agree again."""
    fabric = build_alvc_fabric(n_racks=3, servers_per_rack=2, n_ops=3, seed=1)
    servers = fabric.servers()
    s, t = servers[0], servers[-1]
    _both(fabric, lambda e: simple_path(fabric, s, t, engine=e))
    tors = fabric.tors()
    fabric.connect(tors[0], tors[-1])  # new shortcut changes routes
    status, path = _both(fabric, lambda e: simple_path(fabric, s, t, engine=e))
    assert status == "ok"
    assert tors[0] in path and tors[-1] in path


def _one_chaos_run(seed: int):
    """A full seeded chaos run (faults + flows) under the ambient engine."""
    from repro.chaos import FaultInjector, RecoveryPolicy, run_chaos
    from repro.sim.traffic import TrafficGenerator

    from tests.chaos.testbed import build_orchestrator

    orchestrator, _ = build_orchestrator(seed=seed)
    inventory = orchestrator.cluster_manager.inventory
    injector = FaultInjector(inventory.network, seed=seed)
    injector.schedule(duration=30.0, rate=0.4, repair_after=6.0)
    flows = TrafficGenerator(inventory, seed=seed).flows(25)
    return run_chaos(
        orchestrator,
        injector.events(),
        flows,
        policy=RecoveryPolicy(max_attempts=3, seed=seed),
        seed=seed,
    )


@pytest.mark.parametrize("seed", [5, 11])
def test_chaos_replay_is_engine_invariant(seed):
    """Chaos reports are bit-identical whichever engine routed them."""
    with use_engine("nx"):
        reference = _one_chaos_run(seed)
    with use_engine("csr"):
        candidate = _one_chaos_run(seed)
    assert candidate == reference
    assert candidate.to_rows() == reference.to_rows()
    assert candidate.summary() == reference.summary()


# ----------------------------------------------------------------------
# Compiled searches against their Python mirror and a brute-force oracle
# ----------------------------------------------------------------------
def _random_fabric(seed: int):
    """A seeded fabric with a few extra ToR-ToR shortcuts (more ties)."""
    rng = random.Random(seed)
    fabric = build_alvc_fabric(
        n_racks=rng.randint(3, 7),
        servers_per_rack=rng.randint(2, 4),
        n_ops=rng.randint(2, 6),
        seed=seed,
    )
    tors = fabric.tors()
    for _ in range(rng.randint(0, 3)):
        a, b = rng.sample(tors, 2)
        if not fabric.graph.has_edge(a, b):
            fabric.connect(a, b)
    return fabric


def _pair(fabric) -> tuple[PathEngine, PathEngine]:
    """The compiled engine (when a kernel builds) and the mirror."""
    compiled = PathEngine(fabric)
    compiled.node_count  # binds the searches
    saved = ckernel._kernel
    ckernel._kernel = None
    try:
        mirror = PathEngine(fabric)
        mirror.node_count
    finally:
        ckernel._kernel = saved
    assert mirror._csr is None
    assert (compiled._csr is not None) == ckernel.kernel_available()
    return compiled, mirror


def _hops(fabric, s: str, allowed, cut: set) -> dict[str, int]:
    """Hop distance from ``s`` to every node reachable over ``allowed``
    nodes (``s`` itself always) without crossing a ``cut`` link."""
    adjacency = fabric.graph.adj
    distance = {s: 0}
    frontier = [s]
    while frontier:
        following = []
        for v in frontier:
            for w in adjacency[v]:
                if w in distance or w not in allowed:
                    continue
                if frozenset((v, w)) in cut:
                    continue
                distance[w] = distance[v] + 1
                following.append(w)
        frontier = following
    return distance


def _check_path(fabric, path, s, t, allowed, cut, distance) -> None:
    """``path`` runs ``s`` to ``t`` over allowed nodes and uncut links,
    visits no node twice and is as short as the oracle's distance."""
    assert path[0] == s and path[-1] == t
    assert len(set(path)) == len(path)
    for v, w in zip(path, path[1:]):
        assert fabric.graph.has_edge(v, w)
        assert frozenset((v, w)) not in cut
    assert all(node in allowed for node in path[1:])
    assert len(path) - 1 == distance[t]


def _random_masks(engine: PathEngine, rng: random.Random):
    """A node mask and a cut mask (or ``None``) drawn the way the
    callers draw them: an AL, a failure set, or a Yen spur's ignore
    sets.  Also returns the names the node mask allows and the cut
    links."""
    fabric = engine._dcn
    kind = rng.choice(("al", "faults", "spur"))
    cut, cut_links = None, set()
    if kind == "al":
        ops = fabric.optical_switches()
        al = frozenset(rng.sample(ops, rng.randint(0, len(ops))))
        mask = engine._al_mask(al)
    else:
        pool = fabric.optical_switches() + fabric.tors()
        if kind == "spur":
            pool += fabric.servers()
        failed = frozenset(rng.sample(pool, rng.randint(0, 3)))
        edges = list(fabric.graph.edges)
        cut_links = {
            frozenset(edge) for edge in rng.sample(edges, rng.randint(0, 4))
        }
        mask, cut = engine._avoid_mask(failed, frozenset(cut_links))
        if kind == "spur":
            # Yen grows its ignore sets into a private copy of the masks.
            mask = array("B", mask)
            spur_cut = array("B", bytes(len(engine._indices)))
            for link in cut_links:
                a, b = tuple(link)
                engine._cut(spur_cut, engine._ids[a], engine._ids[b])
            assert cut is None or spur_cut == cut
            cut = spur_cut
    allowed = {name for idx, name in enumerate(engine._names) if mask[idx]}
    return mask, cut, allowed, cut_links


def _search(engine: PathEngine, s, t, mask, cut):
    try:
        return engine._search(s, t, mask, cut)
    except PathEngineNoPath:
        return None


@pytest.mark.parametrize("seed", range(12))
def test_bidirectional_kernel_matches_mirror_and_oracle(seed):
    fabric = _random_fabric(seed)
    compiled, mirror = _pair(fabric)
    rng = random.Random(seed * 31 + 7)
    names = compiled._names
    ids = compiled._ids
    found = missing = 0
    for _ in range(60):
        mask, cut, allowed, cut_links = _random_masks(compiled, rng)
        endpoints = sorted(allowed)
        if not endpoints:
            continue
        s = rng.choice(endpoints)
        t = s if rng.random() < 0.1 else rng.choice(endpoints)
        path = _search(compiled, ids[s], ids[t], mask, cut)
        assert path == _search(mirror, ids[s], ids[t], mask, cut)
        distance = _hops(fabric, s, allowed, cut_links)
        if path is None:
            assert t not in distance
            missing += 1
        else:
            _check_path(
                fabric, [names[i] for i in path], s, t, allowed, cut_links,
                distance,
            )
            found += 1
    assert found and missing  # both outcomes exercised


@pytest.mark.parametrize("seed", range(12))
def test_level_paths_kernel_matches_mirror_and_oracle(seed):
    fabric = _random_fabric(seed)
    compiled, mirror = _pair(fabric)
    rng = random.Random(seed * 17 + 3)
    names = compiled._names
    ids = compiled._ids
    every = list(range(len(names)))
    for _ in range(40):
        mask, _, allowed, _ = _random_masks(compiled, rng)
        s = rng.choice(sorted(allowed | set(fabric.servers())))
        wanted = rng.sample(every, rng.randint(1, min(6, len(every))))
        if rng.random() < 0.3:
            wanted.append(ids[s])
        paths = compiled._fan_out(ids[s], mask, wanted)
        assert paths == mirror._fan_out(ids[s], mask, wanted)
        # The early exit cannot change a path: each target's path is
        # the one the full tree (every node wanted) walks back.
        tree = compiled._fan_out(ids[s], mask, every)
        assert tree == mirror._fan_out(ids[s], mask, every)
        distance = _hops(fabric, s, allowed, set())
        for idx, path in zip(wanted, paths):
            assert path == tree[idx]
            t = names[idx]
            if path is None:
                assert t not in distance
            else:
                _check_path(
                    fabric, [names[i] for i in path], s, t, allowed | {s},
                    set(), distance,
                )


def test_level_paths_regrow_a_short_output_buffer():
    fabric = _random_fabric(5)
    compiled, mirror = _pair(fabric)
    compiled._paths = array("i", [0])
    every = list(range(compiled.node_count))
    mask = compiled._al_mask(None)
    assert compiled._fan_out(0, mask, every) == mirror._fan_out(0, mask, every)


@pytest.mark.parametrize("seed", range(8))
def test_yen_kernel_matches_mirror_and_oracle(seed):
    fabric = _random_fabric(seed)
    compiled, mirror = _pair(fabric)
    rng = random.Random(seed)
    servers = fabric.servers()
    ops = fabric.optical_switches()
    for _ in range(6):
        al = frozenset(rng.sample(ops, rng.randint(1, len(ops))))
        s, t = rng.sample(servers, 2)
        k = rng.randint(1, 6)
        paths = compiled.k_shortest(s, t, k, al)
        assert paths == mirror.k_shortest(s, t, k, al)
        allowed = set(servers) | set(fabric.tors()) | al
        distance = _hops(fabric, s, allowed, set())
        assert 1 <= len(paths) <= k
        assert len(set(map(tuple, paths))) == len(paths)
        assert [len(p) for p in paths] == sorted(len(p) for p in paths)
        _check_path(fabric, paths[0], s, t, allowed, set(), distance)
        for path in paths[1:]:
            assert path[0] == s and path[-1] == t
            assert len(set(path)) == len(path)
            assert all(node in allowed for node in path)


@pytest.mark.parametrize("seed", range(6))
def test_route_avoiding_kernel_matches_mirror_across_faults(seed):
    fabric = _random_fabric(seed + 100)
    compiled, mirror = _pair(fabric)
    rng = random.Random(seed)
    servers = fabric.servers()
    pool = fabric.optical_switches() + fabric.tors()
    edges = list(fabric.graph.edges)
    for _ in range(30):
        failed = frozenset(rng.sample(pool, rng.randint(0, 2)))
        cut = frozenset(
            frozenset(edge) for edge in rng.sample(edges, rng.randint(0, 3))
        )
        s, t = rng.sample(servers, 2)
        outcomes = []
        for engine in (compiled, mirror):
            if rng.random() < 0.3:
                engine.note_fault()
            try:
                outcomes.append(engine.route_avoiding(s, t, failed, cut))
            except PathEngineNoPath:
                outcomes.append(None)
        assert outcomes[0] == outcomes[1]
        allowed = set(fabric.graph.nodes) - failed
        distance = _hops(fabric, s, allowed, cut)
        if outcomes[0] is None:
            assert t not in distance
        else:
            _check_path(fabric, outcomes[0], s, t, allowed, cut, distance)

"""The per-command control path: serial/batch parity and its memos.

A serial provision is a batch of one, so admitting a request list one
command at a time and through ``provision_batch`` must commit the same
state and the same journal.  The orchestrator memoizes AL-confined route
segments; a memoized path must always equal a fresh, un-memoized
``chain_path`` over the same waypoints and AL, and the memo must leave
no trace in journal replay or snapshot restore.  It also memoizes each
cluster's admission context across commands; a memoized context must
always equal a freshly computed one, and a warm provision must not
rescan the cluster's servers.
"""

import random

import pytest

import repro.core.orchestrator as orchestrator_module
from repro import AlvcStack
from repro.core.chaining import NetworkFunctionChain
from repro.exceptions import ALVCError, RoutingError
from repro.service import ProvisionRequest
from repro.service.journal import read_journal
from repro.service.restore import restore_stack
from repro.service.snapshot import state_digest, state_view
from repro.sdn.routing import chain_path

SERVICES = ("web", "streaming", "backup")
FUNCTIONS = ("firewall", "nat", "dpi", "cache", "proxy", "ids")
BUILD = dict(
    n_racks=4,
    servers_per_rack=4,
    n_ops=6,
    vms_per_service=3,
    exclusive_chains=False,
    sync="off",
    telemetry="json",
)

#: One request list: shapes and services mixed, an explicit id reused
#: mid-list (a duplicate the cluster lookup rejects) and heavy ``ids``
#: chains that run the small fabric out of carrier capacity.
REQUESTS = (
    dict(chain=("firewall", "nat"), service="web"),
    dict(chain=("dpi",), service="streaming", chain_id="fixed"),
    dict(chain=("proxy", "ids"), service="backup"),
    dict(chain=("nat",), service="web", chain_id="fixed"),
    dict(chain=("ids", "ids", "ids"), service="streaming"),
    dict(chain=("cache", "firewall"), service="backup", flow_size_gb=2.0),
    dict(chain=("ids", "ids", "ids", "ids"), service="web"),
    dict(chain=("dpi", "nat"), service="web"),
)


def _journal_ops(path):
    return [record.to_dict() for record in read_journal(path).records]


class TestSerialBatchParity:
    def test_batch_commits_what_serial_commands_commit(self, tmp_path):
        serial = AlvcStack.build(journal=tmp_path / "serial.alvc", **BUILD)
        serial_outcomes = []
        for request in REQUESTS:
            try:
                serial.provision(**request)
                serial_outcomes.append(True)
            except ALVCError:
                serial_outcomes.append(False)

        batched = AlvcStack.build(journal=tmp_path / "batch.alvc", **BUILD)
        results = batched.provision_batch(
            [ProvisionRequest(**request) for request in REQUESTS],
            on_error="collect",
        )
        batch_outcomes = [
            not isinstance(result, ALVCError) for result in results
        ]

        assert batch_outcomes == serial_outcomes
        assert False in serial_outcomes  # the list really fails mid-way
        assert serial_outcomes[-1]  # ...and admits after the failure
        # Batch-only admission counters are excluded from the view.
        assert state_view(batched) == state_view(serial)
        serial.journal.close()
        batched.journal.close()
        assert _journal_ops(tmp_path / "batch.alvc") == _journal_ops(
            tmp_path / "serial.alvc"
        )

    def test_stack_batch_matches_serial_paths(self):
        requests = [
            {**item, "chain_id": f"chain-{index}"}
            for index, item in enumerate(REQUESTS)
        ]
        build = {**BUILD, "telemetry": "off"}
        serial = AlvcStack.build(**build)
        serial_paths = []
        for request in requests:
            try:
                serial_paths.append(serial.provision(**request).path)
            except ALVCError as exc:
                serial_paths.append(type(exc))

        batched = AlvcStack.build(**build)
        results = batched.provision_batch(
            [ProvisionRequest(**request) for request in requests],
            on_error="collect",
        )
        batch_paths = [
            type(result) if isinstance(result, ALVCError) else result.path
            for result in results
        ]
        assert batch_paths == serial_paths
        assert state_view(batched) == state_view(serial)


def _assert_paths_fresh(stack):
    """Every live, non-degraded chain's path equals a fresh networkx
    ``chain_path`` over its waypoints and its cluster's AL."""
    orchestrator = stack.orchestrator
    inventory = stack.inventory
    degraded = set(orchestrator.degraded_chains())
    for live in orchestrator.chains():
        if live.chain_id in degraded:
            continue
        vm_servers = sorted(
            {
                inventory.host_of(vm)
                for vm in live.cluster.vm_ids
                if inventory.is_placed(vm)
            }
        )
        hosts = [
            orchestrator.nfv_manager.instance_of(vnf).host
            for vnf in live.vnf_ids
        ]
        waypoints = [vm_servers[0], *hosts, vm_servers[-1]]
        fresh = chain_path(
            stack.fabric, waypoints, live.cluster.al_switches, engine="nx"
        )
        assert list(live.path) == fresh, live.chain_id
        if len(fresh) >= 2:
            assert orchestrator.sdn.path_of(live.chain_id) == fresh


def _step(stack, rng, serial):
    """One seeded control-plane command; failures are part of the run."""
    orchestrator = stack.orchestrator
    action = rng.choice(
        ("provision", "provision", "provision", "modify", "teardown",
         "migrate", "fault", "repair")
    )
    live = stack.chains()
    if action == "provision":
        stack.provision(
            tuple(rng.sample(FUNCTIONS, k=rng.randint(1, 3))),
            service=rng.choice(SERVICES),
        )
    elif action == "modify" and live:
        target = rng.choice(live)
        names = tuple(rng.sample(FUNCTIONS, k=rng.randint(1, 2)))
        orchestrator.modify_chain(
            target.chain_id,
            NetworkFunctionChain.from_names(
                f"mod-{serial}", names, stack.functions
            ),
        )
    elif action == "teardown" and live:
        stack.teardown(rng.choice(live).chain_id)
    elif action == "migrate":
        cluster = rng.choice(orchestrator.cluster_manager.clusters())
        orchestrator.handle_vm_migration(
            rng.choice(sorted(cluster.vm_ids)),
            rng.choice(sorted(stack.fabric.servers())),
        )
    elif action == "fault":
        healthy = sorted(
            set(stack.fabric.optical_switches()) - orchestrator.failed_ops
        )
        if healthy:
            orchestrator.handle_ops_failure(rng.choice(healthy))
    elif action == "repair" and orchestrator.failed_ops:
        orchestrator.mark_ops_repaired(
            rng.choice(sorted(orchestrator.failed_ops))
        )


class TestSegmentMemo:
    @pytest.mark.parametrize("seed", range(6))
    def test_memo_never_changes_a_path(self, tmp_path, seed):
        journal = tmp_path / "memo.alvc"
        snapshot = tmp_path / "memo.snap"
        stack = AlvcStack.build(seed=seed, journal=journal, **BUILD)
        for service in SERVICES:
            stack.cluster(service)
        orchestrator = stack.orchestrator
        sdn = orchestrator.sdn

        # A provision that fails after routing: its segments stay in
        # the memo, and nothing else of it does.  Its optical VNFs sit
        # on AL routers, so its path has switches to install.
        def rejecting_install(flow, path):
            raise RoutingError("controller rejected the path")

        digest = state_digest(stack)
        sdn.install_path = rejecting_install
        try:
            with pytest.raises(RoutingError, match="rejected"):
                stack.provision(("firewall", "nat"), service="web")
        finally:
            del sdn.install_path
        assert orchestrator._segments
        assert state_digest(stack) == digest

        rng = random.Random(seed)
        for serial in range(40):
            if serial == 20:
                stack.snapshot(snapshot)
            try:
                _step(stack, rng, serial)
            except ALVCError:
                pass  # failed commands journal nothing
            _assert_paths_fresh(stack)
            _assert_contexts_fresh(stack)

        digest = state_digest(stack)  # telemetry counters included
        counts = orchestrator.nfv_manager.lifecycle.event_counts()
        stack.journal.close()
        replayed = restore_stack(journal)
        restored = restore_stack(journal, snapshot)
        assert restored.source == "snapshot"
        assert state_digest(replayed.stack) == digest
        assert state_digest(restored.stack) == digest
        for other in (replayed.stack, restored.stack):
            nfv = other.orchestrator.nfv_manager
            assert nfv.lifecycle.event_counts() == counts

    @pytest.mark.parametrize("seed", range(3))
    def test_reroute_leaves_a_failed_transit_switch(self, seed):
        # Spread the web cluster onto a far rack so its chain crosses
        # the optical core, then kill the transit switch.  The chain's
        # waypoints stay the same and only its AL changes, so a memo
        # that ignored the AL would hand back the dead path.
        stack = AlvcStack.build(seed=seed, **{**BUILD, "telemetry": "off"})
        orchestrator = stack.orchestrator
        chain_id = stack.provision(("dpi",), service="web").chain_id
        cluster = stack.cluster("web")
        near = {
            server
            for tor in cluster.tor_switches
            for server in stack.fabric.servers_under(tor)
        }
        far = max(set(stack.fabric.servers()) - near)
        orchestrator.handle_vm_migration(max(cluster.vm_ids), far)
        live = stack.chain(chain_id)
        hosts = {
            orchestrator.nfv_manager.instance_of(vnf).host
            for vnf in live.vnf_ids
        }
        transit = [
            node for node in live.path
            if node in live.cluster.al_switches and node not in hosts
        ]
        assert transit
        recovery = orchestrator.handle_ops_failure(transit[0])
        assert recovery.chains_rerouted == 1
        assert transit[0] not in stack.chain(chain_id).path
        _assert_paths_fresh(stack)

    def test_paths_are_fresh_lists(self):
        stack = AlvcStack.build(**{**BUILD, "telemetry": "off"})
        al = stack.cluster("web").al_switches
        orchestrator = stack.orchestrator
        waypoints = list(_attachments(stack)[0])
        first = orchestrator._al_path(waypoints, al)
        first.append("junk")
        again = orchestrator._al_path(waypoints, al)
        assert again == chain_path(stack.fabric, waypoints, al, engine="nx")
        assert isinstance(
            next(iter(orchestrator._segments.values())), tuple
        )

    def test_routing_errors_are_not_memoized(self):
        stack = AlvcStack.build(**{**BUILD, "telemetry": "off"})
        orchestrator = stack.orchestrator
        server = sorted(stack.fabric.servers())[0]
        outside = sorted(stack.fabric.optical_switches())[0]
        with pytest.raises(RoutingError):
            orchestrator._al_path([server, outside], frozenset())
        assert orchestrator._segments == {}

    def test_generation_move_and_size_limit_drop_the_memo(
        self, monkeypatch
    ):
        stack = AlvcStack.build(**{**BUILD, "telemetry": "off"})
        al = stack.cluster("web").al_switches
        orchestrator = stack.orchestrator
        fabric = stack.fabric
        pairs = _attachments(stack)

        orchestrator._al_path(list(pairs[0]), al)
        assert list(orchestrator._segments) == [(*pairs[0], al)]
        fabric.set_caching(fabric.caching_enabled)  # bumps the generation
        orchestrator._al_path(list(pairs[1]), al)
        assert list(orchestrator._segments) == [(*pairs[1], al)]

        monkeypatch.setattr(orchestrator_module, "SEGMENT_MEMO_LIMIT", 2)
        for pair in pairs:
            path = orchestrator._al_path(list(pair), al)
            assert path == chain_path(fabric, list(pair), al, engine="nx")
            assert len(orchestrator._segments) <= 2


def _assert_contexts_fresh(stack):
    """Every cluster's memoized admission context equals a fresh one."""
    orchestrator = stack.orchestrator
    for cluster in orchestrator.cluster_manager.clusters():
        assert orchestrator._context_of(cluster) == (
            orchestrator._cluster_context(cluster)
        ), cluster.cluster_id


def _spy_contexts(monkeypatch, orchestrator):
    """Record the (cluster, context) pair every provision admits with."""
    seen = []
    real = orchestrator._context_of

    def spy(cluster):
        ctx = real(cluster)
        seen.append((cluster, ctx))
        return ctx

    monkeypatch.setattr(orchestrator, "_context_of", spy)
    return seen


def _far_server(stack, cluster):
    """The last server under none of the cluster's AL ToRs."""
    near = {
        server
        for tor in cluster.tor_switches
        for server in stack.fabric.servers_under(tor)
    }
    return max(set(stack.fabric.servers()) - near)


class TestClusterContextMemo:
    """After each event that can change a cluster's admission context,
    the next provision admits with a context equal to a fresh
    ``_cluster_context`` — candidate order included — and the event
    really changed it, so a stale memo hit would fail the test."""

    @pytest.fixture
    def stack(self, monkeypatch):
        stack = AlvcStack.build(seed=1, **{**BUILD, "telemetry": "off"})
        for service in SERVICES:
            stack.cluster(service)
        self.seen = _spy_contexts(monkeypatch, stack.orchestrator)
        self.before = self._provision(stack)
        return stack

    def _provision(self, stack, service="web"):
        self.seen.clear()
        stack.provision(("dpi",), service=service)
        ((cluster, ctx),) = self.seen
        assert ctx == stack.orchestrator._cluster_context(cluster)
        return ctx

    def test_unchanged_cluster_hits_the_memo(self, stack):
        assert self._provision(stack) is self.before

    def test_vm_migration_out_of_the_al(self, stack):
        cluster = stack.cluster("web")
        stack.orchestrator.handle_vm_migration(
            max(cluster.vm_ids), _far_server(stack, cluster)
        )
        after = self._provision(stack)
        assert after.vm_servers != self.before.vm_servers

    def test_vm_migration_inside_the_al(self, stack):
        # A move between servers of the same ToRs leaves the AL as it
        # was: only the VM hosts in the memo key see it.
        cluster = stack.cluster("web")
        fabric = stack.fabric
        target = next(
            server
            for server in self.before.candidates
            if server not in self.before.vm_servers
            and set(fabric.tors_of_server(server)) <= cluster.tor_switches
        )
        stack.orchestrator.handle_vm_migration(max(cluster.vm_ids), target)
        moved = stack.cluster("web")
        assert moved.tor_switches == cluster.tor_switches
        assert moved.al_switches == cluster.al_switches
        after = self._provision(stack)
        assert target in after.vm_servers
        assert after.vm_servers != self.before.vm_servers

    def test_ops_failure_repair_and_ops_repair(self, stack):
        orchestrator = stack.orchestrator
        old = stack.cluster("web")
        failed = sorted(old.al_switches)[0]
        recovery = orchestrator.handle_ops_failure(failed)
        assert recovery.recovered
        repaired = stack.cluster("web")
        assert repaired is not old  # replace_cluster swapped it in
        after = self._provision(stack)
        assert failed not in after.routers
        assert after.routers != self.before.routers
        orchestrator.mark_ops_repaired(failed)
        self._provision(stack)

    def test_cluster_recreation(self, stack):
        manager = stack.orchestrator.cluster_manager
        cluster = stack.cluster("web")
        stack.teardown()  # the AL is free to go
        manager.dissolve_cluster("web")
        stack.inventory.migrate(
            max(cluster.vm_ids), _far_server(stack, cluster)
        )
        recreated = manager.create_cluster("web")
        assert recreated.tor_switches != cluster.tor_switches
        after = self._provision(stack)
        assert after.candidates != self.before.candidates

    def test_topology_generation_bump(self, stack):
        cluster = stack.cluster("web")
        outsider = _far_server(stack, cluster)
        generation = stack.fabric.topology_generation
        stack.fabric.connect(outsider, min(cluster.tor_switches))
        assert stack.fabric.topology_generation != generation
        after = self._provision(stack)
        assert outsider in after.candidates
        assert outsider not in self.before.candidates

    def test_warm_provision_rescans_nothing(self, monkeypatch):
        """The saving, pinned: a second provision on an unchanged
        cluster calls neither ``servers_under`` nor ``_vm_servers``."""
        stack = AlvcStack.build(**{**BUILD, "telemetry": "off"})
        orchestrator = stack.orchestrator
        stack.provision(("firewall", "nat"), service="web")
        calls = []

        def spy(name, real):
            def wrapper(*args):
                calls.append(name)
                return real(*args)
            return wrapper

        monkeypatch.setattr(
            stack.fabric, "servers_under",
            spy("servers_under", stack.fabric.servers_under),
        )
        monkeypatch.setattr(
            orchestrator, "_vm_servers",
            spy("_vm_servers", orchestrator._vm_servers),
        )
        stack.provision(("proxy", "ids"), service="web")
        assert calls == []


def _attachments(stack):
    """(server, its first ToR) pairs: segments every AL can route."""
    fabric = stack.fabric
    return [
        (server, fabric.tors_of_server(server)[0])
        for server in sorted(fabric.servers())
    ]

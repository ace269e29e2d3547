"""The runtime loads neither networkx nor asyncio.

The fabric keeps its own adjacency dicts, so only the ``networkx``
oracle paths (``DataCenterNetwork.graph``, ``engine="nx"`` routing,
analysis helpers) import networkx, and only :class:`RequestFrontend`
imports asyncio.  A fresh interpreter drives every runtime path the
benchmarks take — a journaled stack's provisions and teardowns, a churn
workload with chaos, journal and snapshot restores, and an event-driven
simulation with a link cut — and reports which of the two modules got
loaded.  It then uses the oracle paths, which must still work.

The same run checks that once :meth:`AlvcStack.build` returns, the
commands (provision, teardown, VM migration, OPS failure), a churn
workload with chaos and migration storms, and both restores load no
further ``repro`` module.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = r"""
import json
import sys
from pathlib import Path

from repro.core.cluster import ClusterManager
from repro.sdn.routing import shortest_path_in_al, simple_path
from repro.service.restore import restore_stack
from repro.service.snapshot import state_digest, write_snapshot
from repro.sim.event_simulator import EventDrivenFlowSimulator
from repro.sim.faults import FaultEvent, FaultKind
from repro.sim.traffic import TrafficConfig, TrafficGenerator
from repro.stack import AlvcStack
from repro.topology.generators import build_alvc_fabric
from repro.virtualization.machines import MachineInventory
from repro.virtualization.services import ServiceCatalog
from repro.virtualization.vm_placement import (
    PlacementStrategy,
    VmPlacementEngine,
)
from repro.workload import ScenarioConfig, generate_scenario

from repro.exceptions import ALVCError


def repro_modules():
    return {name for name in sys.modules if name.startswith("repro")}


work = Path(sys.argv[1])
journal = work / "state.alvc"
stack = AlvcStack.build(
    n_racks=4, servers_per_rack=4, n_ops=6, vms_per_service=2,
    exclusive_chains=False, seed=0, journal=journal, sync="off",
)
built = repro_modules()
first = stack.provision(("firewall", "nat"), service="web")
stack.provision(("dpi",), service="backup")
stack.teardown(first.chain_id)
orchestrator = stack.orchestrator
cluster = orchestrator.cluster_manager.cluster_of_service("web")
vm = sorted(cluster.vm_ids)[0]
migrated = False
for server in stack.fabric.servers():
    try:
        orchestrator.handle_vm_migration(vm, server)
    except ALVCError:
        continue
    migrated = True
    break
orchestrator.handle_ops_failure(sorted(cluster.al_switches)[0])
scenario = generate_scenario(
    ScenarioConfig(days=0.5, epochs_per_day=16, arrival_rate=0.9,
                   mean_lifetime_epochs=5.0, slots=3),
    seed=1,
)
workload = stack.run_workload(scenario, chaos_rate=0.2, storm_period=4)
write_snapshot(stack, work / "state.snap", journal_seq=stack.journal.next_seq)
digest = state_digest(stack)
stack.journal.close()
replayed = restore_stack(journal)
restored = restore_stack(journal, work / "state.snap")
loaded_late = sorted(repro_modules() - built)

fabric = build_alvc_fabric(n_racks=8, servers_per_rack=8, n_ops=8, seed=11)
inventory = MachineInventory(fabric)
vm_engine = VmPlacementEngine(
    inventory, strategy=PlacementStrategy.SERVICE_AFFINITY, seed=3
)
catalog = ServiceCatalog.standard()
for service in ("web", "map-reduce", "sns"):
    for _ in range(6):
        vm_engine.place(inventory.create_vm(catalog.get(service)))
clusters = ClusterManager(inventory)
for service in inventory.services_present():
    clusters.create_cluster(service)
tor = next(tor for tor in fabric.tors() if fabric.ops_of_tor(tor))
cut = (tor, fabric.ops_of_tor(tor)[0])
flows = TrafficGenerator(
    inventory, TrafficConfig(arrival_rate=50.0), seed=2
).flows(40)
report = EventDrivenFlowSimulator(inventory, clusters).run(
    flows, [FaultEvent(time=0.05, kind=FaultKind.LINK_CUT, target=cut)]
)
loaded = sorted(name for name in ("networkx", "asyncio") if name in sys.modules)

# The oracle paths load what they need on demand.
graph = fabric.graph
source, target = fabric.servers()[0], fabric.servers()[-1]
al_ops = fabric.optical_switches()
nx_routes = [
    simple_path(fabric, source, target, engine="nx")
    == simple_path(fabric, source, target, engine="csr"),
    shortest_path_in_al(fabric, source, target, al_ops, engine="nx")
    == shortest_path_in_al(fabric, source, target, al_ops, engine="csr"),
]

import asyncio

from repro.service import ProvisionRequest, RequestFrontend, TeardownRequest


async def round_trip():
    async with RequestFrontend(restored.stack) as frontend:
        up = await frontend.submit(
            ProvisionRequest(("firewall",), service="web")
        )
        down = await frontend.submit(TeardownRequest(up.detail["chain_id"]))
    return [up.ok, down.ok]


print(json.dumps({
    "epochs": workload.epochs,
    "migrated": migrated,
    "loaded_late": loaded_late,
    "replay_parity": state_digest(replayed.stack) == digest,
    "snapshot_parity": (restored.source == "snapshot"
                        and state_digest(restored.stack) == digest),
    "flows_done": report.flows + len(report.dropped) == len(flows),
    "loaded": loaded,
    "graph_nodes": graph.number_of_nodes(),
    "fabric_nodes": sum(fabric.summary()[kind] for kind in
                        ("servers", "tors", "optical_switches")),
    "nx_routes": nx_routes,
    "frontend": asyncio.run(round_trip()),
}))
"""


def test_runtime_loads_neither_networkx_nor_asyncio(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["epochs"] > 0
    assert result["migrated"]
    # Commands, workloads and restores load nothing a build did not:
    # an import inside a timed command is paid on its first call.
    assert result["loaded_late"] == []
    assert result["replay_parity"] and result["snapshot_parity"]
    assert result["flows_done"]
    assert result["loaded"] == []
    assert result["graph_nodes"] == result["fabric_nodes"]
    assert result["nx_routes"] == [True, True]
    assert result["frontend"] == [True, True]

"""State snapshots and the canonical state digest.

A snapshot is the pickled :class:`~repro.stack.AlvcStack` object graph
behind a CRC-protected header, stamped with the journal sequence it was
taken at.  Restore (:mod:`repro.service.restore`) loads the snapshot
and replays only the journal *tail* — the records appended after the
snapshot — so recovery time is bounded by churn since the last
snapshot, not by the deployment's lifetime.

File format::

    b"ALVCSNAP" | u32 format version | u32 record version
    u64 journal_seq | u64 payload length | u32 crc32(payload)
    payload (pickle protocol >= 4)

Any torn write — a snapshot the process died in the middle of — fails
the length or CRC check and raises :class:`SnapshotError`; restore then
falls back to full journal replay, which is always sufficient.

:func:`state_digest` is the parity oracle: a SHA-256 over a canonical
JSON rendering of every piece of control-plane state the service
promises to restore bit-identically — live chains (placements, paths,
VNF ids), AL membership per cluster, sticky failed OPSs, degraded
chains, VM placements and per-server capacity, SDN flow rules, optical
slices, the id-allocator/serial counters, the fabric's topology
generation and the path engine's availability (mask) generation, and
the deterministic telemetry counters.  Two stacks with equal digests
are operationally indistinguishable.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pickle
import struct
import zlib
from pathlib import Path
from typing import Iterator

from repro.exceptions import SnapshotError
from repro.observability.metrics import ATTEMPT_COUNTERS
from repro.service.journal import NULL_RECORDER
from repro.service.records import RECORD_VERSION

MAGIC = b"ALVCSNAP"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<IIQQI")  # format ver, record ver, seq, len, crc


# ----------------------------------------------------------------------
# Canonical digest
# ----------------------------------------------------------------------
def _vector(vector) -> list[float]:
    return [vector.cpu_cores, vector.memory_gb, vector.storage_gb]


def state_view(stack) -> dict:
    """The canonical JSON-serializable view :func:`state_digest` hashes.

    Exposed separately so parity tests can diff *which* component
    diverged instead of comparing opaque hashes.
    """
    orchestrator = stack.orchestrator
    inventory = stack.inventory
    fabric = stack.fabric
    nfv = orchestrator.nfv_manager
    sdn = orchestrator.sdn

    chains = []
    for live in orchestrator.chains():
        chains.append(
            {
                "chain_id": live.chain_id,
                "tenant": live.request.tenant,
                "service": live.request.service,
                "flow_size_gb": live.request.flow_size_gb,
                "functions": list(live.request.chain.function_names),
                "bandwidth_gbps": live.request.chain.bandwidth_gbps,
                "cluster": live.cluster.cluster_id,
                "al": sorted(live.cluster.al_switches),
                "tors": sorted(live.cluster.tor_switches),
                "slice": live.optical_slice.slice_id,
                "slice_switches": sorted(live.optical_slice.switches),
                "wavelength": live.optical_slice.wavelength,
                "assignments": [
                    [placed.function.name, placed.host, placed.domain.value]
                    for placed in live.placement.assignments
                ],
                "conversions": live.conversions,
                "vnf_ids": list(live.vnf_ids),
                "path": list(live.path),
            }
        )

    clusters = [
        {
            "cluster_id": cluster.cluster_id,
            "service": cluster.service,
            "vms": sorted(cluster.vm_ids),
            "al": sorted(cluster.al_switches),
            "tors": sorted(cluster.tor_switches),
        }
        for cluster in sorted(
            orchestrator.cluster_manager.clusters(),
            key=lambda cluster: cluster.cluster_id,
        )
    ]

    vms = [
        {
            "vm": vm.vm_id,
            "service": vm.service,
            "host": inventory.host_of(vm.vm_id)
            if inventory.is_placed(vm.vm_id)
            else None,
        }
        for vm in inventory.all_vms()
    ]

    # Servers with the same used vector object share one row: idle
    # servers all hold the shared zero vector.  Keyed by identity, not
    # value, since equal vectors may render differently (8 and 8.0).
    rows: dict[int, list[float]] = {}
    servers = {}
    for server in fabric.servers():
        used = inventory.used_capacity(server)
        row = rows.get(id(used))
        if row is None:
            row = rows[id(used)] = _vector(used)
        servers[server] = row

    pool = nfv.pool
    instances = [
        {
            "vnf": instance.vnf_id,
            "function": instance.function.name,
            "demand": _vector(instance.function.demand),
            "host": instance.host,
            "domain": instance.domain.value,
        }
        for instance in nfv.live_instances()
    ]
    optical_free = {
        ops: _vector(pool.get(ops).free) for ops in sorted(pool.host_ids())
    }

    flows = {
        flow: sdn.path_of(flow) for flow in sdn.installed_flows()
    }

    slices = [
        {
            "slice_id": sliced.slice_id,
            "cluster": sliced.cluster,
            "switches": sorted(sliced.switches),
            "wavelength": sliced.wavelength,
            "bandwidth_gbps": sliced.bandwidth_gbps,
        }
        for sliced in sorted(
            orchestrator.slice_allocator.slices(),
            key=lambda sliced: sliced.slice_id,
        )
    ]

    # Note: no path-engine/route-cache cursors here — those are lazy
    # read-path caches a restored stack rebuilds on demand, and their
    # values differ by EngineConfig, never by control-plane state.
    counters = {
        "chain_serial": stack._chain_serial,
        "topology_generation": fabric.topology_generation,
        "actions": orchestrator.action_log(),  # tuples render as lists
    }

    telemetry = stack.telemetry
    metrics = {}
    if telemetry.enabled:
        # Counters and gauges of *replayed* mutations are deterministic
        # under replay and double-check it; histogram and span timings
        # measure wall clock and are excluded.  Also excluded:
        # * the durability plumbing's own metrics (journal/snapshot/
        #   restore/front-end) — a restored stack replays without
        #   journaling them;
        # * the attempt counters (``ATTEMPT_COUNTERS``: batch sizes,
        #   failed provisions and covers, injected faults) — replay
        #   re-runs only the *committed* commands, one by one, never the
        #   injector that drew the faults, so how requests arrived or
        #   failed is not state;
        # * read-path performance tallies (route cache, path engine,
        #   simulators and their fair-share and admission data plane,
        #   sweeps) — dry runs and queries mutate nothing.
        _excluded_prefixes = (
            "alvc_journal_", "alvc_snapshot_", "alvc_restore_",
            "alvc_frontend_", "alvc_service_", "alvc_route_cache_",
            "alvc_path_engine_", "alvc_sim_", "alvc_fairshare_",
            "alvc_admission_", "alvc_sweep_",
        )
        for name, family in telemetry.registry.snapshot().items():
            if name in ATTEMPT_COUNTERS or name.startswith(
                _excluded_prefixes
            ):
                continue
            if family.get("kind") in ("counter", "gauge"):
                metrics[name] = family["series"]

    return {
        "chains": chains,
        "clusters": clusters,
        "vms": vms,
        "servers": servers,
        "instances": instances,
        "optical_free": optical_free,
        "flows": flows,
        "slices": slices,
        "failed_ops": sorted(orchestrator.failed_ops),
        "degraded_chains": list(orchestrator.degraded_chains()),
        "counters": counters,
        "metrics": metrics,
    }


def state_digest(stack) -> str:
    """SHA-256 over the canonical state view (the parity oracle)."""
    canonical = json.dumps(
        state_view(stack), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Snapshot write / load
# ----------------------------------------------------------------------
@contextlib.contextmanager
def _detached_recorders(stack) -> Iterator[None]:
    """Temporarily unhook journal recorders (open files can't pickle)."""
    holders = [stack, stack.orchestrator, stack.orchestrator.nfv_manager]
    saved = [holder._recorder for holder in holders]
    try:
        for holder in holders:
            holder._recorder = NULL_RECORDER
        yield
    finally:
        for holder, recorder in zip(holders, saved):
            holder._recorder = recorder


def write_snapshot(stack, path: str | Path, *, journal_seq: int) -> Path:
    """Atomically write a snapshot of ``stack`` taken at ``journal_seq``.

    ``journal_seq`` is the number of journal records the snapshot
    already reflects (i.e. :attr:`Journal.next_seq` at snapshot time);
    restore replays records with ``seq >= journal_seq``.

    The write goes through a temporary file and an atomic rename, so a
    crash mid-snapshot leaves the previous snapshot (if any) intact.
    """
    path = Path(path)
    buffer = io.BytesIO()
    with _detached_recorders(stack):
        try:
            pickle.dump(stack, buffer, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise SnapshotError(
                f"stack is not snapshottable: {exc}"
            ) from exc
    payload = buffer.getvalue()
    header = MAGIC + _HEADER.pack(
        FORMAT_VERSION,
        RECORD_VERSION,
        journal_seq,
        len(payload),
        zlib.crc32(payload),
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_name(path.name + ".tmp")
    with open(temporary, "wb") as handle:
        handle.write(header)
        handle.write(payload)
        handle.flush()
    temporary.replace(path)
    return path


class SnapshotRecord:
    """A loaded snapshot: the stack plus its journal position."""

    __slots__ = ("stack", "journal_seq", "record_version")

    def __init__(self, stack, journal_seq: int, record_version: int) -> None:
        self.stack = stack
        self.journal_seq = journal_seq
        self.record_version = record_version


def load_snapshot(path: str | Path) -> SnapshotRecord:
    """Load and verify a snapshot.

    Raises:
        SnapshotError: on a missing file, bad magic, version skew, a
            truncated payload, or a CRC mismatch (torn mid-op write).
    """
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from None
    if len(blob) < len(MAGIC) + _HEADER.size or blob[: len(MAGIC)] != MAGIC:
        raise SnapshotError(f"{path} is not an AL-VC snapshot (bad magic)")
    format_version, record_version, journal_seq, length, crc = (
        _HEADER.unpack_from(blob, len(MAGIC))
    )
    if format_version > FORMAT_VERSION:
        raise SnapshotError(
            f"{path} uses snapshot format v{format_version}; this build "
            f"reads up to v{FORMAT_VERSION}"
        )
    payload = blob[len(MAGIC) + _HEADER.size :]
    if len(payload) != length:
        raise SnapshotError(
            f"{path} is truncated ({len(payload)} of {length} payload "
            f"bytes) — likely written mid-op"
        )
    if zlib.crc32(payload) != crc:
        raise SnapshotError(f"{path} failed its CRC check (torn write)")
    try:
        stack = pickle.loads(payload)
    except Exception as exc:
        raise SnapshotError(f"{path} failed to unpickle: {exc}") from exc
    return SnapshotRecord(stack, journal_seq, record_version)

"""CSR-based AL-restricted routing kernel (the PathEngine).

Every AL-restricted route in the data plane — chain provisioning
(Section IV.A "packet processing order"), :class:`~repro.sdn.route_cache.
RouteCache` cold misses, and post-fault rerouting — used to rebuild a
``networkx`` subgraph view and run generic dict-based BFS per query.
:class:`PathEngine` replaces that with a flat compressed-sparse-row
snapshot of the fabric, built from the fabric's own methods
(:meth:`~repro.topology.datacenter.DataCenterNetwork.nodes`,
:meth:`~repro.topology.datacenter.DataCenterNetwork.neighbors`,
:meth:`~repro.topology.datacenter.DataCenterNetwork.optical_switches`),
so routing never imports ``networkx``:

* node names are interned into dense int ids (``_ids``/``_names``) in
  fabric insertion order, so CSR adjacency iterates neighbors in exactly
  the order ``networkx`` would over ``dcn.graph`` — a precondition for
  bit-identical paths;
* adjacency is flattened into ``indptr``/``indices`` arrays
  (:class:`array.array` of C ints; no per-query allocation);
* abstraction layers become **bitmasks** — per-AL ``bytearray`` masks
  over the dense ids, cached by the AL's switch frozenset.  Restricting
  a query to an AL is one byte probe per visited neighbor instead of a
  ``subgraph()`` construction;
* a **generation counter** keys the snapshot to
  :attr:`~repro.topology.datacenter.DataCenterNetwork.topology_generation`:
  any structural mutation invalidates lazily (next query rebuilds), and
  :meth:`note_fault` bumps the engine's own mask generation when chaos
  fault events change link/node availability without touching topology.

The kernels deliberately replicate the traversal order of the
``networkx`` routines they replace — ``_bidirectional_pred_succ``
(alternating smaller-fringe BFS), ``shortest_simple_paths`` (Yen with a
``PathBuffer`` heap and its ``len``-based cost bookkeeping), and
``single_source_shortest_path`` (level BFS) — so the same fabric yields
the same paths under either engine, tie-breaks included.  Tie-breaking
is therefore deterministic fabric-construction (insertion) order.

The two searches run in the compiled kernel library
(:mod:`repro.sim.ckernel`): ``alvc_bidir`` serves :meth:`PathEngine.
route`, :meth:`~PathEngine.route_avoiding` and every Yen spur query,
``alvc_level_paths`` serves :meth:`~PathEngine.routes_from`.  Cut links
(post-fault, or a spur query's ignored edges) are a byte mask over CSR
positions with both directions of a link marked; the avoidance cache
keeps it beside its node mask.  Without a compiler, or under
``ALVC_NO_CKERNEL``, the Python loops :meth:`~PathEngine._bidirectional`
and :meth:`~PathEngine._level_bfs` are the mirrors, on the same masks.

Use :func:`engine_for` to get the engine attached to a fabric; the
public entry points live in :mod:`repro.sdn.routing` behind the
``engine="auto"|"csr"|"nx"`` selector.
"""

from __future__ import annotations

import ctypes
from array import array
from heapq import heappop, heappush
from itertools import count
from typing import Iterable, Mapping

from repro.observability.runtime import current_telemetry
from repro.topology.datacenter import DataCenterNetwork

#: Drop the whole AL-mask table when it grows past this many distinct
#: ALs — reconfiguration churn can mint unbounded frozensets; real
#: deployments hold a handful of live ALs at a time.
_MASK_CACHE_LIMIT = 512

#: Same guard for post-fault avoidance masks (failure-set keyed).
_AVOID_CACHE_LIMIT = 256


class PathEngineNoPath(Exception):
    """Internal: the masked fabric does not connect the endpoints.

    Callers in :mod:`repro.sdn.routing` translate this into the public
    :class:`~repro.exceptions.RoutingError` vocabulary; it never crosses
    the package boundary.
    """


class PathEngine:
    """CSR routing kernel bound to one :class:`DataCenterNetwork`.

    The engine holds no authoritative state: everything is a lazily
    (re)built projection of the fabric, validated per query against
    ``dcn.topology_generation``.  All methods take and return node
    *names*; int ids never leak.

    A pickled engine (it hangs off the fabric, so snapshots carry it)
    keeps only its counters and generation: the projection, including
    the kernel's ``ctypes`` state, is rebuilt by the first query after
    unpickling.  The compiled searches share the engine's scratch
    arrays (and release the GIL), so one engine serves one thread at a
    time.
    """

    def __init__(self, dcn: DataCenterNetwork, telemetry=None) -> None:
        self._dcn = dcn
        self._mask_generation = 0
        self._reset()
        telemetry = telemetry if telemetry is not None else current_telemetry()
        self._queries_total = telemetry.counter(
            "alvc_path_engine_queries_total",
            "Routing queries answered by the CSR path engine",
        )
        self._rebuilds_total = telemetry.counter(
            "alvc_path_engine_rebuilds_total",
            "CSR snapshot rebuilds triggered by topology generation bumps",
        )
        self._bitmask_hits_total = telemetry.counter(
            "alvc_path_engine_bitmask_hits_total",
            "AL bitmask cache hits (queries that skipped mask construction)",
        )
        self._bitmask_builds_total = telemetry.counter(
            "alvc_path_engine_bitmask_builds_total",
            "AL bitmasks materialized from scratch",
        )

    def _reset(self) -> None:
        """The empty projection: the next query rebuilds it."""
        self._built_generation = -1
        self._ids: dict[str, int] = {}
        self._names: list[str] = []
        self._indptr = array("i", [0])
        self._indices = array("i")
        self._is_ops = bytearray()
        self._all_mask = array("B")
        self._mask_cache: dict[frozenset, array] = {}
        self._avoid_cache: dict[tuple, tuple[array, array | None]] = {}
        #: The compiled searches and their bound state (``None`` on the
        #: Python mirror); see :meth:`_bind`.
        self._kernels = None
        self._csr = None
        self._csr_address = 0
        self._scratch: tuple = ()
        self._out = array("i")
        self._lens = array("q")
        self._paths = array("i")

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for name in _PROJECTION:
            del state[name]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._reset()

    # ------------------------------------------------------------------
    # Snapshot maintenance
    # ------------------------------------------------------------------
    @property
    def mask_generation(self) -> int:
        """Bumped whenever cached masks stop being trustworthy.

        Advances on every CSR rebuild (topology mutated) and on every
        :meth:`note_fault` (availability changed without a topology
        mutation).  Tests use it to prove invalidation wiring.
        """
        return self._mask_generation

    @property
    def node_count(self) -> int:
        """Number of interned fabric nodes in the current snapshot."""
        self._ensure_current()
        return len(self._names)

    def note_fault(self) -> None:
        """Record a fault/repair event affecting node or link availability.

        The CSR arrays and AL masks only encode *topology*, which fault
        events do not change — but post-fault avoidance masks cached by
        failure set must not survive a changing failure picture, and the
        mask generation is the observable consumers key off.
        """
        self._mask_generation += 1
        self._avoid_cache.clear()

    def _ensure_current(self) -> None:
        if self._built_generation != self._dcn.topology_generation:
            self._rebuild()

    def _rebuild(self) -> None:
        dcn = self._dcn
        names = list(dcn.nodes())
        ids = {node: idx for idx, node in enumerate(names)}
        n = len(names)
        is_ops = bytearray(n)
        for ops in dcn.optical_switches():
            is_ops[ids[ops]] = 1
        indptr = array("i", [0] * (n + 1))
        indices = array("i")
        for idx, node in enumerate(names):
            indices.extend(ids[neighbor] for neighbor in dcn.neighbors(node))
            indptr[idx + 1] = len(indices)
        self._ids = ids
        self._names = names
        self._indptr = indptr
        self._indices = indices
        self._is_ops = is_ops
        self._all_mask = array("B", b"\x01" * n)
        self._mask_cache.clear()
        self._avoid_cache.clear()
        self._bind(n)
        self._built_generation = self._dcn.topology_generation
        self._mask_generation += 1
        self._rebuilds_total.inc()

    def _bind(self, n: int) -> None:
        """Point the compiled searches at the new CSR arrays and fresh
        scratch (zeroed visit stamps), or select the Python mirror when
        no kernel is available (:func:`~repro.sim.ckernel.kernel_status`
        says why)."""
        from repro.sim.ckernel import CsrState, kernels

        self._kernels = kernels()
        if self._kernels is None:
            self._csr = None
            self._scratch = ()
            return
        self._out = array("i", [0]) * n
        self._lens = array("q", [0]) * n
        self._paths = array("i", [0]) * max(n, 64)
        buffers = {
            "indptr": self._indptr,
            "indices": self._indices,
            "pred": array("i", [0]) * n,
            "succ": array("i", [0]) * n,
            "fwd_seen": array("q", [0]) * n,
            "rev_seen": array("q", [0]) * n,
            "wanted": array("q", [0]) * n,
            "fwd": array("i", [0]) * n,
            "rev": array("i", [0]) * n,
            "out": self._out,
        }
        state = CsrState()
        for field, buffer in buffers.items():
            setattr(state, field, buffer.buffer_info()[0])
        self._scratch = tuple(buffers.values())
        self._csr = state
        self._csr_address = ctypes.addressof(state)

    # ------------------------------------------------------------------
    # Bitmasks
    # ------------------------------------------------------------------
    def _al_mask(self, allowed_ops: frozenset | None) -> array:
        """The allowed-node byte mask for one abstraction layer.

        ``None`` means unrestricted (the shared all-ones mask).  An OPS
        outside ``allowed_ops`` is masked out; servers and ToRs are
        always allowed — exactly the membership rule of
        :func:`repro.sdn.routing.shortest_path_in_al`.
        """
        if allowed_ops is None:
            return self._all_mask
        mask = self._mask_cache.get(allowed_ops)
        if mask is not None:
            self._bitmask_hits_total.inc()
            return mask
        if len(self._mask_cache) >= _MASK_CACHE_LIMIT:
            self._mask_cache.clear()
        mask = array("B", self._all_mask)
        ids = self._ids
        is_ops = self._is_ops
        for idx, flagged in enumerate(is_ops):
            if flagged:
                mask[idx] = 0
        for ops in allowed_ops:
            idx = ids.get(ops)
            if idx is not None and is_ops[idx]:
                mask[idx] = 1
        self._mask_cache[allowed_ops] = mask
        self._bitmask_builds_total.inc()
        return mask

    def _cut(self, cut: array, a: int, b: int) -> None:
        """Mark link ``a``–``b`` cut at its CSR positions in both rows
        (a no-op for nodes that are not adjacent)."""
        indptr = self._indptr
        indices = self._indices
        for x, y in ((a, b), (b, a)):
            lo = indptr[x]
            try:
                cut[lo + indices[lo : indptr[x + 1]].index(y)] = 1
            except ValueError:
                return

    def _avoid_mask(
        self,
        failed_nodes: frozenset,
        cut_links: frozenset,
    ) -> tuple[array, array | None]:
        """Mask minus failed nodes, plus the cut mask over CSR positions
        (``None`` without cut links), cached together by failure set."""
        key = (failed_nodes, cut_links)
        cached = self._avoid_cache.get(key)
        if cached is not None:
            return cached
        if len(self._avoid_cache) >= _AVOID_CACHE_LIMIT:
            self._avoid_cache.clear()
        mask = array("B", self._all_mask)
        ids = self._ids
        for node in failed_nodes:
            idx = ids.get(node)
            if idx is not None:
                mask[idx] = 0
        cut = None
        if cut_links:
            cut = array("B", bytes(len(self._indices)))
            for link in cut_links:
                a, b = tuple(link)
                ia = ids.get(a)
                ib = ids.get(b)
                if ia is not None and ib is not None:
                    self._cut(cut, ia, ib)
        entry = (mask, cut)
        self._avoid_cache[key] = entry
        return entry

    # ------------------------------------------------------------------
    # Searches (int-id space): the compiled kernel, or its mirror
    # ------------------------------------------------------------------
    def _search(
        self, s: int, t: int, mask: array, cut: array | None = None
    ) -> list[int]:
        """Shortest ``s``–``t`` path over ``mask`` minus ``cut``
        (``alvc_bidir``, or :meth:`_bidirectional` without a kernel)."""
        if self._csr is None:
            return self._bidirectional(s, t, mask, cut)
        n = self._kernels.bidir(
            self._csr_address,
            s,
            t,
            mask.buffer_info()[0],
            None if cut is None else cut.buffer_info()[0],
        )
        if not n:
            raise PathEngineNoPath
        return self._out[:n].tolist()

    def _fan_out(
        self, s: int, mask: array, wanted: list[int]
    ) -> list[list[int] | None]:
        """Each wanted node's path in ``s``'s level-order BFS tree, or
        ``None`` when the mask cuts it off (``alvc_level_paths``, or
        :meth:`_level_bfs` without a kernel)."""
        if self._csr is None:
            return self._level_bfs(s, mask, wanted)
        k = len(wanted)
        targets = array("i", wanted)
        while True:
            total = self._kernels.level_paths(
                self._csr_address,
                s,
                mask.buffer_info()[0],
                targets.buffer_info()[0],
                k,
                self._lens.buffer_info()[0],
                self._paths.buffer_info()[0],
                len(self._paths),
            )
            if total >= 0:
                break
            self._paths = array("i", [0]) * max(-total, 2 * len(self._paths))
        flat = self._paths[:total].tolist()
        paths: list[list[int] | None] = []
        at = 0
        for length in self._lens[:k]:
            if length:
                paths.append(flat[at : at + length])
                at += length
            else:
                paths.append(None)
        return paths

    def _bidirectional(
        self, s: int, t: int, mask: array, cut: array | None = None
    ) -> list[int]:
        """Bidirectional BFS replicating ``_bidirectional_pred_succ``
        (the Python mirror of ``alvc_bidir``).

        Alternates the smaller fringe, appends a neighbor to the fringe
        *before* checking for the meet, and returns on the first meet —
        the exact discovery order of the ``networkx`` helper, so the
        reconstructed path is identical, tie-breaks included.
        """
        if s == t:
            return [s]
        indptr = self._indptr
        indices = self._indices
        pred: dict[int, int] = {s: -1}
        succ: dict[int, int] = {t: -1}
        forward = [s]
        reverse = [t]
        while forward and reverse:
            if len(forward) <= len(reverse):
                this_level = forward
                forward = []
                for v in this_level:
                    lo = indptr[v]
                    for k, w in enumerate(indices[lo : indptr[v + 1]], lo):
                        if not mask[w] or (cut is not None and cut[k]):
                            continue
                        if w not in pred:
                            forward.append(w)
                            pred[w] = v
                        if w in succ:  # path found
                            return _assemble(pred, succ, w)
            else:
                this_level = reverse
                reverse = []
                for v in this_level:
                    lo = indptr[v]
                    for k, w in enumerate(indices[lo : indptr[v + 1]], lo):
                        if not mask[w] or (cut is not None and cut[k]):
                            continue
                        if w not in succ:
                            succ[w] = v
                            reverse.append(w)
                        if w in pred:  # found path
                            return _assemble(pred, succ, w)
        raise PathEngineNoPath

    def _yen(self, s: int, t: int, k: int, mask: array) -> list[list[int]]:
        """K shortest simple paths replicating ``shortest_simple_paths``.

        Keeps the upstream quirks verbatim for ordering parity: the
        first candidate is pushed with cost ``len(path)`` while spur
        candidates cost ``len(root) + len(spur)`` (one more, since the
        spur repeats the deviation node), and the deviation node joins
        the ignored nodes only *after* its spur query.  A spur query
        sees the ignored nodes as a copy of ``mask`` with them cleared
        and the ignored edges as a cut mask, both grown as the deviation
        point walks along the previous path.  (``networkx`` also fails
        a spur query whose endpoint is ignored; on a simple previous
        path neither endpoint ever is.)
        """
        listA: list[list[int]] = []
        heap: list[tuple[int, int, list[int]]] = []
        in_heap: set[tuple[int, ...]] = set()
        counter = count()
        found: list[list[int]] = []
        prev_path: list[int] | None = None
        while True:
            if not prev_path:
                path = self._search(s, t, mask)
                key = tuple(path)
                if key not in in_heap:
                    heappush(heap, (len(path), next(counter), path))
                    in_heap.add(key)
            else:
                spur_mask = array("B", mask)
                spur_cut = array("B", bytes(len(self._indices)))
                for i in range(1, len(prev_path)):
                    root = prev_path[:i]
                    root_length = len(root)
                    for path in listA:
                        if path[:i] == root:
                            self._cut(spur_cut, path[i - 1], path[i])
                    try:
                        spur = self._search(root[-1], t, spur_mask, spur_cut)
                        path = root[:-1] + spur
                        key = tuple(path)
                        if key not in in_heap:
                            heappush(
                                heap,
                                (root_length + len(spur), next(counter), path),
                            )
                            in_heap.add(key)
                    except PathEngineNoPath:
                        pass
                    spur_mask[root[-1]] = 0
            if heap:
                _, _, path = heappop(heap)
                in_heap.discard(tuple(path))
                found.append(path)
                if len(found) >= k:
                    return found
                listA.append(path)
                prev_path = path
            else:
                return found

    def _level_bfs(
        self, s: int, mask: array, wanted: list[int]
    ) -> list[list[int] | None]:
        """Single-source shortest-path tree in level order, walked back
        to each wanted node (the Python mirror of ``alvc_level_paths``).

        Replicates ``networkx.single_source_shortest_path``'s discovery
        order (first-discovery wins per node), with a safe early exit
        once every ``wanted`` target is discovered — a node's
        predecessor never changes afterwards, so the exit cannot alter
        the paths walked back from the tree.
        """
        indptr = self._indptr
        indices = self._indices
        targets = set(wanted)
        pred: dict[int, int] = {s: -1}
        remaining = len(targets - {s})
        nextlevel = [s] if remaining else []
        while nextlevel:
            thislevel = nextlevel
            nextlevel = []
            for v in thislevel:
                for w in indices[indptr[v] : indptr[v + 1]]:
                    if mask[w] and w not in pred:
                        pred[w] = v
                        nextlevel.append(w)
                        if w in targets:
                            remaining -= 1
                            if not remaining:
                                return _walk_back(pred, wanted)
        return _walk_back(pred, wanted)

    # ------------------------------------------------------------------
    # Public name-level API
    # ------------------------------------------------------------------
    def route(
        self,
        source: str,
        target: str,
        allowed_ops: frozenset | None = None,
    ) -> list[str]:
        """Shortest path, optionally AL-restricted.

        Endpoints must already be validated by the caller (they exist
        and are permitted by the AL); raises :class:`PathEngineNoPath`
        when the masked fabric does not connect them.
        """
        self._ensure_current()
        self._queries_total.inc()
        mask = self._al_mask(allowed_ops)
        ids = self._ids
        names = self._names
        path = self._search(ids[source], ids[target], mask)
        return [names[idx] for idx in path]

    def k_shortest(
        self,
        source: str,
        target: str,
        k: int,
        allowed_ops: frozenset | None = None,
    ) -> list[list[str]]:
        """Up to ``k`` shortest simple paths (CSR-native Yen)."""
        self._ensure_current()
        self._queries_total.inc()
        mask = self._al_mask(allowed_ops)
        ids = self._ids
        names = self._names
        return [
            [names[idx] for idx in path]
            for path in self._yen(ids[source], ids[target], k, mask)
        ]

    def routes_from(
        self,
        source: str,
        targets: Iterable[str],
        allowed_ops: frozenset | None = None,
    ) -> dict[str, list[str]]:
        """Batched fan-out: one BFS serves every target.

        Returns a mapping ``target -> path`` with unreachable targets
        omitted, mirroring ``nx.single_source_shortest_path`` filtered
        to ``targets``.  Endpoint validation is the caller's job.
        """
        self._ensure_current()
        self._queries_total.inc()
        mask = self._al_mask(allowed_ops)
        ids = self._ids
        names = self._names
        wanted = list({ids[t] for t in targets})
        return {
            names[idx]: [names[node] for node in path]
            for idx, path in zip(
                wanted, self._fan_out(ids[source], mask, wanted)
            )
            if path is not None
        }

    def route_avoiding(
        self,
        source: str,
        target: str,
        failed_nodes: frozenset,
        cut_links: frozenset,
    ) -> list[str]:
        """Shortest path avoiding failed nodes and cut links.

        The CSR replacement for ``nx.restricted_view`` + shortest path
        in post-fault rerouting.  ``cut_links`` is a frozenset of
        2-element frozensets (undirected link keys).
        """
        self._ensure_current()
        self._queries_total.inc()
        mask, cut = self._avoid_mask(failed_nodes, cut_links)
        ids = self._ids
        s = ids[source]
        t = ids[target]
        if not mask[s] or not mask[t]:
            raise PathEngineNoPath
        names = self._names
        return [names[idx] for idx in self._search(s, t, mask, cut)]


#: The attributes :meth:`PathEngine._reset` (re)creates: the projection
#: a pickled engine leaves out.
_PROJECTION = (
    "_built_generation", "_ids", "_names", "_indptr", "_indices",
    "_is_ops", "_all_mask", "_mask_cache", "_avoid_cache", "_kernels",
    "_csr", "_csr_address", "_scratch", "_out", "_lens", "_paths",
)


def _assemble(
    pred: Mapping[int, int], succ: Mapping[int, int], w: int
) -> list[int]:
    """Rebuild the meet-in-the-middle path (−1 is the root sentinel)."""
    path = []
    node = w
    while node != -1:
        path.append(node)
        node = pred[node]
    path.reverse()
    node = succ[w]
    while node != -1:
        path.append(node)
        node = succ[node]
    return path


def _walk_back(
    pred: Mapping[int, int], wanted: list[int]
) -> list[list[int] | None]:
    """Each wanted node's root path in a predecessor tree (−1 is the
    root sentinel), or ``None`` when the tree does not reach it."""
    paths: list[list[int] | None] = []
    for idx in wanted:
        if idx in pred:
            path = []
            node = idx
            while node != -1:
                path.append(node)
                node = pred[node]
            path.reverse()
            paths.append(path)
        else:
            paths.append(None)
    return paths


def engine_for(dcn: DataCenterNetwork) -> PathEngine:
    """The :class:`PathEngine` attached to a fabric (created on demand).

    One engine per fabric: the CSR snapshot and mask caches amortize
    across every consumer (route cache fills, simulators, orchestrator
    rerouting).  The engine binds the ambient telemetry at creation.
    """
    engine = getattr(dcn, "_alvc_path_engine", None)
    if engine is None:
        engine = PathEngine(dcn)
        dcn._alvc_path_engine = engine
    return engine

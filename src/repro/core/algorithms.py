r"""Covering algorithms behind abstraction-layer construction.

The paper (Section III.C) formalizes AL construction as minimum vertex
cover over the machine↔ToR bipartite graph ("S ⊆ V is a vertex cover …
find a vertex cover S that minimizes |S|") and solves it with a
*maximum-weighted* greedy pass: candidates are visited in descending static
weight, and a candidate is selected exactly when it still covers an
uncovered element — the walk-through in Fig. 4 selects ToR 1 (weight 6),
*skips* ToR 2 (its machines are already covered), and selects ToR 3.

This module gives that greedy its precise form plus the comparison
algorithms the experiments need: the classic marginal-gain greedy, the
random selection of the authors' earlier work [15], and König's-theorem
bipartite minimum vertex cover.  The exact minimum cover the greedy is
measured against is the certified MILP in :mod:`repro.opt.cover`.

Two interchangeable **kernels** back :func:`greedy_marginal_cover`:

* the **set kernel** — the original frozenset formulation, kept as the
  readable reference implementation;
* the **bitset kernel** — an element→bit-position interning pass turns
  every candidate into one Python integer, so marginal gains are single
  ``mask & uncovered`` AND operations and coverage updates are
  ``uncovered &= ~gain``, and a *lazy-greedy* max-heap re-evaluates
  only stale heap tops instead of rescanning every remaining candidate
  per round.

Both kernels produce **bit-for-bit identical** :class:`CoverResult`
values (selection order, the full :class:`CoverStep` trace, the
universe) — the randomized parity suite in
``tests/core/test_cover_kernels.py`` holds them to that.  The
``kernel=`` argument (``"auto"``, ``"set"`` or ``"bitset"``, the
:data:`repro.config.COVER_KERNELS` vocabulary) is the only selector:
``auto`` picks the bitset kernel once the universe reaches
:data:`BITSET_KERNEL_THRESHOLD` elements — the marginal cover
re-evaluates gains many times per candidate, which amortizes the
interning pass (measured 4–8× on fat-tree-scale fabrics).  The
single-pass covers (:func:`greedy_max_weight_cover`,
:func:`random_cover`) evaluate each candidate's gain exactly once, so
interning never pays for itself there and they run only on frozensets.
"""

from __future__ import annotations

import dataclasses
import heapq
import random
from typing import TYPE_CHECKING, Hashable, Mapping

from repro.config import COVER_KERNELS
from repro.exceptions import CoverInfeasibleError, ValidationError
from repro.ids import index_of, kind_prefix

if TYPE_CHECKING:
    import networkx as nx

#: Universe size at which ``kernel="auto"`` switches
#: :func:`greedy_marginal_cover` from the frozenset reference kernel to
#: the interned bitset kernel (with the lazy-greedy heap).  Below this
#: the interning pass costs more than it saves; at fat-tree scale
#: (hundreds to thousands of machines) the lazy bitset kernel wins 4–8×.
BITSET_KERNEL_THRESHOLD = 64


def _resolve_kernel(kernel: str, universe: frozenset) -> str:
    """Turn a ``kernel=`` argument into ``"set"`` or ``"bitset"``."""
    if kernel not in COVER_KERNELS:
        raise ValidationError(
            f"unknown cover kernel {kernel!r} "
            f"(expected one of {COVER_KERNELS})"
        )
    if kernel == "auto":
        if len(universe) >= BITSET_KERNEL_THRESHOLD:
            return "bitset"
        return "set"
    return kernel


def natural_sort_key(entity_id: Hashable):
    """Sort key ordering ``tor-2`` before ``tor-10`` (prefix, then index).

    Ids without a numeric suffix sort after indexed ids with the same
    prefix, by their string form.  Deterministic tie-breaking in every
    algorithm below uses this key.

    The key always has the single shape ``(str, int, int, str)`` so
    fabrics mixing pure-int entity ids with string ids stay orderable:
    int ids get an empty prefix (sorting before every prefixed id) and
    their numeric value as the index, which also orders ``10`` after
    ``2`` instead of lexically.
    """
    if isinstance(entity_id, int) and not isinstance(entity_id, bool):
        return ("", 0, int(entity_id), str(entity_id))
    text = str(entity_id)
    try:
        return (kind_prefix(text), 0, index_of(text), text)
    except ValueError:
        return (kind_prefix(text), 1, 0, text)


@dataclasses.dataclass(frozen=True, slots=True)
class CoverStep:
    """One decision of a covering algorithm (kept for traceability).

    ``selected`` is False for the paper's "tries to select … and notices
    the machines are already covered" skip steps.
    """

    candidate: Hashable
    weight: float
    newly_covered: frozenset
    selected: bool


@dataclasses.dataclass(frozen=True, slots=True)
class CoverResult:
    """Outcome of a covering run: the chosen sets and the decision trace."""

    selected: tuple
    steps: tuple[CoverStep, ...]
    universe: frozenset

    @property
    def size(self) -> int:
        """Number of selected candidates."""
        return len(self.selected)

    def covered(self) -> frozenset:
        """Union of elements covered by the selected candidates."""
        covered: set = set()
        for step in self.steps:
            if step.selected:
                covered |= step.newly_covered
        return frozenset(covered)

    def selection_order(self) -> list:
        """Selected candidates in the order they were chosen."""
        return [step.candidate for step in self.steps if step.selected]

    def considered_order(self) -> list:
        """Every candidate the algorithm looked at, in visit order."""
        return [step.candidate for step in self.steps]


def _degenerate_cover(
    universe, candidates: Mapping[Hashable, frozenset]
) -> "CoverResult | None":
    """Shared guard for instances with no candidates at all.

    Both kernels must agree on degenerate input: an empty candidate
    pool covers an empty universe with the empty selection, and is
    infeasible for any non-empty universe.  Handling this before kernel
    dispatch makes the answer kernel-independent by construction.
    Returns None for non-degenerate instances.
    """
    if candidates:
        return None
    target = frozenset(universe)
    if target:
        raise CoverInfeasibleError(target)
    return CoverResult(selected=(), steps=(), universe=target)


def _check_feasible(
    universe: frozenset, candidates: Mapping[Hashable, frozenset]
) -> None:
    coverable: set = set()
    for members in candidates.values():
        coverable |= members
    uncovered = universe - coverable
    if uncovered:
        raise CoverInfeasibleError(frozenset(uncovered))


class _BitUniverse:
    """Element→bit-position interning behind the bitset cover kernel.

    A single pass over ``candidates`` builds one Python integer mask per
    candidate *and* the union-of-all-masks ``coverable_mask``, so the
    feasibility check shares the interning pass instead of rebuilding the
    coverable union a second time (the set kernel's
    :func:`_check_feasible` does exactly that rebuild).

    Bit positions follow the universe's iteration order — deliberately
    *not* sorted, because every value that leaves the kernel is a
    :func:`decode`-d frozenset (order-independent) or a ``bit_count``
    (position-independent), so parity with the set kernel never depends
    on which element owns which bit and the per-instance sort would be
    pure overhead.
    """

    __slots__ = ("elements", "index", "masks", "full_mask", "coverable_mask")

    def __init__(
        self,
        universe: frozenset,
        candidates: Mapping[Hashable, frozenset],
    ) -> None:
        self.elements = list(universe)
        self.index = {
            element: position
            for position, element in enumerate(self.elements)
        }
        self.full_mask = (1 << len(self.elements)) - 1
        index_get = self.index.get
        masks: dict = {}
        coverable = 0
        for candidate, members in candidates.items():
            mask = 0
            for member in members:
                position = index_get(member)
                if position is not None:  # out-of-universe members ignored
                    mask |= 1 << position
            masks[candidate] = mask
            coverable |= mask
        self.masks = masks
        self.coverable_mask = coverable

    def check_feasible(self) -> None:
        """Raise :class:`CoverInfeasibleError` naming the exact uncovered set."""
        uncovered = self.full_mask & ~self.coverable_mask
        if uncovered:
            raise CoverInfeasibleError(self.decode(uncovered))

    def decode(self, mask: int) -> frozenset:
        """Turn a bitmask back into the frozenset of universe elements."""
        elements = self.elements
        out = []
        while mask:
            low = mask & -mask
            out.append(elements[low.bit_length() - 1])
            mask ^= low
        return frozenset(out)


def _require_weights(
    candidates: Mapping[Hashable, frozenset],
    weights: Mapping[Hashable, float],
) -> None:
    missing = sorted(
        (cand for cand in candidates if cand not in weights),
        key=natural_sort_key,
    )
    if missing:
        raise ValidationError(
            f"greedy_max_weight_cover: candidates missing a weight: {missing!r}"
        )


def _greedy_marginal_bitset(
    target: frozenset, candidates: Mapping[Hashable, frozenset]
) -> CoverResult:
    interned = _BitUniverse(target, candidates)
    interned.check_feasible()
    masks = interned.masks
    # Lazy-greedy max-heap.  Marginal gains only shrink as coverage grows
    # (submodularity), so stored gains are upper bounds: after popping the
    # top we recompute its gain and re-push only if the *fresh* value no
    # longer beats the next stored top.  The heap tuple's trailing
    # ``position`` (insertion order over ``candidates``) reproduces the
    # eager ``min()``'s first-wins tie-breaking for candidates whose
    # natural sort keys collide, and keeps candidate objects themselves
    # out of the comparison.
    heap: list[tuple] = [
        (
            -masks[candidate].bit_count(),
            natural_sort_key(candidate),
            position,
            candidate,
        )
        for position, candidate in enumerate(candidates)
    ]
    heapq.heapify(heap)
    steps: list[CoverStep] = []
    selected: list = []
    uncovered = interned.full_mask
    while uncovered:
        if not heap:
            raise CoverInfeasibleError(interned.decode(uncovered))
        neg_gain, key, position, candidate = heapq.heappop(heap)
        gain_mask = masks[candidate] & uncovered
        fresh = -gain_mask.bit_count()
        if fresh != neg_gain and heap and (fresh, key, position) > heap[0][:3]:
            heapq.heappush(heap, (fresh, key, position, candidate))
            continue
        if not gain_mask:
            # All remaining candidates are useless; infeasibility was
            # excluded up front, so this cannot happen — guard anyway.
            raise CoverInfeasibleError(interned.decode(uncovered))
        gain = interned.decode(gain_mask)
        steps.append(
            CoverStep(
                candidate=candidate,
                weight=float(len(gain)),
                newly_covered=gain,
                selected=True,
            )
        )
        selected.append(candidate)
        uncovered &= ~gain_mask
    return CoverResult(
        selected=tuple(selected), steps=tuple(steps), universe=target
    )


def greedy_max_weight_cover(
    universe,
    candidates: Mapping[Hashable, frozenset],
    weights: Mapping[Hashable, float],
) -> CoverResult:
    """The paper's maximum-weighted greedy cover (Section III.C).

    Candidates are visited in descending static ``weights`` order (ties by
    :func:`natural_sort_key`); each is *selected* if it covers at least one
    still-uncovered element and *skipped* otherwise.  The visit stops once
    the universe is covered, so trailing candidates never appear in the
    trace (Fig. 4: "ToR N" is never considered).

    Args:
        universe: elements that must be covered.
        candidates: candidate id → set of elements it covers.
        weights: candidate id → static weight (e.g. a ToR's incoming plus
            outgoing connection count).

    Raises:
        CoverInfeasibleError: when the union of all candidates misses part
            of the universe.
        ValidationError: when any candidate is missing from ``weights``.
            Silently defaulting a missing weight to 0.0 used to demote the
            candidate to the back of the visit order, which can flip the
            cover for fabrics where callers forgot to score a switch — a
            wrong answer instead of a loud error.
    """
    target = frozenset(universe)
    degenerate = _degenerate_cover(target, candidates)
    if degenerate is not None:
        return degenerate
    _check_feasible(target, candidates)
    _require_weights(candidates, weights)
    order = sorted(
        candidates,
        key=lambda cand: (-weights[cand], natural_sort_key(cand)),
    )
    steps: list[CoverStep] = []
    selected: list = []
    uncovered = set(target)
    for candidate in order:
        if not uncovered:
            break
        gain = frozenset(candidates[candidate] & uncovered)
        take = bool(gain)
        steps.append(
            CoverStep(
                candidate=candidate,
                weight=float(weights[candidate]),
                newly_covered=gain,
                selected=take,
            )
        )
        if take:
            selected.append(candidate)
            uncovered -= gain
    return CoverResult(
        selected=tuple(selected), steps=tuple(steps), universe=target
    )


def greedy_marginal_cover(
    universe,
    candidates: Mapping[Hashable, frozenset],
    *,
    kernel: str = "auto",
) -> CoverResult:
    """Classic greedy set cover: pick the candidate covering the most
    still-uncovered elements each round (ablation baseline, experiment E9).

    The bitset kernel runs this as a *lazy-greedy* max-heap (gains are
    submodular, so stale heap tops are only ever over-estimates and the
    first top whose fresh gain still wins is provably the round's
    maximum); the trace it produces is bit-for-bit identical to this
    eager reference.
    """
    target = frozenset(universe)
    degenerate = _degenerate_cover(target, candidates)
    if degenerate is not None:
        return degenerate
    if _resolve_kernel(kernel, target) == "bitset":
        return _greedy_marginal_bitset(target, candidates)
    _check_feasible(target, candidates)
    steps: list[CoverStep] = []
    selected: list = []
    uncovered = set(target)
    remaining = dict(candidates)
    while uncovered:
        best = min(
            remaining,
            key=lambda cand: (
                -len(remaining[cand] & uncovered),
                natural_sort_key(cand),
            ),
        )
        gain = frozenset(remaining.pop(best) & uncovered)
        if not gain:
            # All remaining candidates are useless; infeasibility was
            # excluded up front, so this cannot happen — guard anyway.
            raise CoverInfeasibleError(frozenset(uncovered))
        steps.append(
            CoverStep(
                candidate=best,
                weight=float(len(gain)),
                newly_covered=gain,
                selected=True,
            )
        )
        selected.append(best)
        uncovered -= gain
    return CoverResult(
        selected=tuple(selected), steps=tuple(steps), universe=target
    )


def random_cover(
    universe,
    candidates: Mapping[Hashable, frozenset],
    rng: random.Random,
) -> CoverResult:
    """Random selection: the authors' earlier AL construction ([15]).

    Candidates are visited in uniformly random order; each is selected if
    it still covers something.  Expected AL sizes exceed the greedy's —
    the gap is exactly what experiment E4 quantifies.
    """
    target = frozenset(universe)
    degenerate = _degenerate_cover(target, candidates)
    if degenerate is not None:
        return degenerate
    _check_feasible(target, candidates)
    order = sorted(candidates, key=natural_sort_key)
    rng.shuffle(order)
    steps: list[CoverStep] = []
    selected: list = []
    uncovered = set(target)
    for candidate in order:
        if not uncovered:
            break
        gain = frozenset(candidates[candidate] & uncovered)
        take = bool(gain)
        steps.append(
            CoverStep(
                candidate=candidate,
                weight=0.0,
                newly_covered=gain,
                selected=take,
            )
        )
        if take:
            selected.append(candidate)
            uncovered -= gain
    return CoverResult(
        selected=tuple(selected), steps=tuple(steps), universe=target
    )


def bipartite_min_vertex_cover(
    graph: nx.Graph, top_nodes
) -> set:
    """Exact minimum vertex cover of a bipartite graph (König's theorem).

    This is the MIN-VCP formulation the paper states; networkx's
    Hopcroft–Karp maximum matching yields the cover via
    :func:`nx.algorithms.bipartite.to_vertex_cover`.

    Args:
        graph: a bipartite graph.
        top_nodes: one side of the bipartition (needed when the graph is
            disconnected).

    Returns:
        A minimum vertex cover as a set of nodes.
    """
    import networkx as nx

    top = set(top_nodes)
    if not graph:
        return set()
    matching = nx.algorithms.bipartite.hopcroft_karp_matching(graph, top)
    return nx.algorithms.bipartite.to_vertex_cover(graph, matching, top)

"""Cover kernel parity and kernel-selection controls.

The bitset kernel of :func:`greedy_marginal_cover` must be an
*implementation detail*: it returns a bit-for-bit identical
:class:`CoverResult` (selection, full decision trace, universe) to the
set kernel, and infeasible instances raise the same
:class:`CoverInfeasibleError` with the same ``uncovered`` set.  The
single-pass covers (:func:`greedy_max_weight_cover`,
:func:`random_cover`) have one implementation; their parity tests hold
them to the properties results depend on — independence from the
candidate mapping's insertion order, and ``random_cover`` being the
paper's skip-walk over its seeded shuffle.  The suite generates several
hundred randomized instances across universe sizes straddling
:data:`~repro.core.algorithms.BITSET_KERNEL_THRESHOLD`.
"""

import random

import pytest

from repro.core import algorithms
from repro.core.algorithms import (
    BITSET_KERNEL_THRESHOLD,
    greedy_marginal_cover,
    greedy_max_weight_cover,
    natural_sort_key,
    random_cover,
)
from repro.exceptions import CoverInfeasibleError, ValidationError


def _random_instance(rng: random.Random, universe_size: int):
    """One feasible random cover instance (universe, candidates, weights)."""
    universe = frozenset(f"m-{i}" for i in range(universe_size))
    n_candidates = rng.randint(2, max(3, universe_size // 2))
    members = list(universe)
    candidates = {}
    for index in range(n_candidates):
        size = rng.randint(1, max(1, universe_size // 2))
        candidates[f"tor-{index}"] = frozenset(rng.sample(members, size))
    # Guarantee feasibility: one candidate sweeps up the leftovers.
    covered = frozenset().union(*candidates.values())
    leftovers = universe - covered
    if leftovers:
        victim = f"tor-{rng.randrange(n_candidates)}"
        candidates[victim] = candidates[victim] | leftovers
    weights = {name: rng.randint(1, 12) for name in candidates}
    return universe, candidates, weights


#: (universe size, instances at that size) — sizes straddle the auto
#: threshold so both sides of the heuristic are exercised.
_GRID = ((6, 30), (20, 30), (63, 10), (64, 10), (96, 20), (160, 10))


#: Every heuristic cover as ``cover(universe, candidates, kernel)``.  The
#: single-pass covers have one implementation and ignore ``kernel``; the
#: degenerate guard must hold for them too.
_DEGENERATE_COVERS = [
    pytest.param(
        lambda u, c, kernel: greedy_max_weight_cover(u, c, {}),
        id="max_weight",
    ),
    pytest.param(
        lambda u, c, kernel: greedy_marginal_cover(u, c, kernel=kernel),
        id="marginal",
    ),
    pytest.param(
        lambda u, c, kernel: random_cover(u, c, random.Random(0)),
        id="random",
    ),
]


def _reversed_insertion(mapping: dict) -> dict:
    """The same mapping with its insertion order reversed."""
    return dict(reversed(list(mapping.items())))


class TestKernelParity:
    """~330 generated instances x 3 algorithms: the marginal cover's set
    vs bitset kernels, and the single-pass covers' order parities."""

    @pytest.mark.parametrize("universe_size,count", _GRID)
    def test_greedy_max_weight_parity(self, universe_size, count):
        # The visit order is (weight, natural key): the candidate
        # mapping's insertion order must never leak into the result.
        rng = random.Random(universe_size)
        for _ in range(count):
            universe, candidates, weights = _random_instance(
                rng, universe_size
            )
            reference = greedy_max_weight_cover(universe, candidates, weights)
            reordered = greedy_max_weight_cover(
                universe,
                _reversed_insertion(candidates),
                _reversed_insertion(weights),
            )
            assert reordered == reference

    @pytest.mark.parametrize("universe_size,count", _GRID)
    def test_greedy_marginal_parity(self, universe_size, count):
        rng = random.Random(1000 + universe_size)
        for _ in range(count):
            universe, candidates, _ = _random_instance(rng, universe_size)
            reference = greedy_marginal_cover(
                universe, candidates, kernel="set"
            )
            bitset = greedy_marginal_cover(
                universe, candidates, kernel="bitset"
            )
            assert bitset == reference

    @pytest.mark.parametrize("universe_size,count", _GRID)
    def test_random_cover_parity(self, universe_size, count):
        # random_cover is the paper's skip-walk in a seeded random
        # order: the same walk as greedy_max_weight_cover given weights
        # that rank candidates in that order, whatever the insertion
        # order of the candidate mapping.
        rng = random.Random(2000 + universe_size)
        for trial in range(count):
            universe, candidates, _ = _random_instance(rng, universe_size)
            result = random_cover(
                universe,
                _reversed_insertion(candidates),
                random.Random(trial),
            )
            order = sorted(candidates, key=natural_sort_key)
            random.Random(trial).shuffle(order)
            ranks = {
                name: len(order) - rank for rank, name in enumerate(order)
            }
            walk = greedy_max_weight_cover(universe, candidates, ranks)
            assert result.selected == walk.selected
            assert result.considered_order() == walk.considered_order()
            assert [step.newly_covered for step in result.steps] == [
                step.newly_covered for step in walk.steps
            ]
            assert {step.weight for step in result.steps} <= {0.0}

    def test_infeasible_parity(self):
        rng = random.Random(7)
        for _ in range(30):
            universe, candidates, _ = _random_instance(rng, 24)
            universe = universe | frozenset({"ghost-1", "ghost-2"})
            errors = {}
            for kernel in ("set", "bitset"):
                with pytest.raises(CoverInfeasibleError) as info:
                    greedy_marginal_cover(universe, candidates, kernel=kernel)
                errors[kernel] = info.value.uncovered
            assert errors["set"] == errors["bitset"]
            assert {"ghost-1", "ghost-2"} <= errors["bitset"]

    def test_marginal_exhaustion_parity(self):
        # Feasibility can also fail mid-run semantics-wise: candidates
        # exist but none add new elements.  Both kernels must report the
        # same uncovered remainder up front.
        universe = frozenset(f"m-{i}" for i in range(70))
        candidates = {
            "tor-0": frozenset({"m-0", "m-1"}),
            "tor-1": frozenset({"m-1", "m-2"}),
        }
        uncovered = {}
        for kernel in ("set", "bitset"):
            with pytest.raises(CoverInfeasibleError) as info:
                greedy_marginal_cover(universe, candidates, kernel=kernel)
            uncovered[kernel] = info.value.uncovered
        assert uncovered["set"] == uncovered["bitset"]
        assert uncovered["set"] == universe - frozenset(
            {"m-0", "m-1", "m-2"}
        )

    @pytest.mark.parametrize("cover", _DEGENERATE_COVERS)
    def test_empty_candidates_empty_universe_parity(self, cover):
        # Degenerate regression: with no candidates at all, the set
        # kernel used to return an empty cover while the bitset kernel
        # diverged.  Every cover must return the identical empty,
        # feasibility-checked result.
        results = {
            kernel: cover(frozenset(), {}, kernel)
            for kernel in ("set", "bitset")
        }
        assert results["set"] == results["bitset"]
        assert results["set"].selected == ()
        assert results["set"].steps == ()
        assert results["set"].universe == frozenset()

    @pytest.mark.parametrize("cover", _DEGENERATE_COVERS)
    def test_empty_candidates_nonempty_universe_parity(self, cover):
        universe = frozenset({"m-0", "m-1"})
        uncovered = {}
        for kernel in ("set", "bitset"):
            with pytest.raises(CoverInfeasibleError) as info:
                cover(universe, {}, kernel)
            uncovered[kernel] = info.value.uncovered
        assert uncovered["set"] == uncovered["bitset"] == universe

    def test_empty_candidates_rng_stream_untouched(self):
        # The degenerate guard must short-circuit *before* the random
        # shuffle so it never consumes randomness (rng-stream parity
        # with callers that share one Random across covers).
        rng = random.Random(42)
        random_cover(frozenset(), {}, rng)
        assert rng.random() == random.Random(42).random()


class TestInfeasibilityReporting:
    """The interning pass doubles as the feasibility check: the error
    must still name the *exact* uncovered set, not just "infeasible"."""

    def test_bitset_reports_exact_uncovered_set(self):
        # Above the auto threshold, so the interning pass runs.
        universe = frozenset(
            f"m-{i}" for i in range(BITSET_KERNEL_THRESHOLD + 6)
        )
        candidates = {
            "tor-0": frozenset({"m-0", "m-1", "m-2"}),
            "tor-1": frozenset({"m-2", "m-3"}),
        }
        for kernel in ("bitset", "auto"):
            with pytest.raises(CoverInfeasibleError) as info:
                greedy_marginal_cover(universe, candidates, kernel=kernel)
            assert info.value.uncovered == universe - frozenset(
                f"m-{i}" for i in range(4)
            )

    def test_feasibility_checked_before_weights(self):
        # Error precedence: an infeasible instance raises
        # CoverInfeasibleError even when weights are also missing.
        universe = frozenset({"m-0", "ghost"})
        candidates = {"tor-0": frozenset({"m-0"})}
        with pytest.raises(CoverInfeasibleError) as info:
            greedy_max_weight_cover(universe, candidates, {})
        assert info.value.uncovered == frozenset({"ghost"})

    def test_missing_weights_parity(self):
        # The message names the unweighted candidates in natural order,
        # whatever the mapping's insertion order.
        universe = frozenset({"m-0", "m-1"})
        candidates = {
            "tor-1": frozenset({"m-0"}),
            "tor-0": frozenset({"m-1"}),
        }
        messages = []
        for mapping in (candidates, _reversed_insertion(candidates)):
            with pytest.raises(ValidationError) as info:
                greedy_max_weight_cover(universe, mapping, {})
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert messages[0].index("tor-0") < messages[0].index("tor-1")


class TestKernelSelection:
    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValidationError):
            greedy_marginal_cover(
                {"a"}, {"s": frozenset({"a"})}, kernel="simd"
            )

    def test_auto_keeps_single_pass_covers_on_set(self, monkeypatch):
        # The single-pass covers never intern, however large the
        # universe: interning one gain scan never pays for itself.
        def refuse(*args, **kwargs):
            raise AssertionError("single-pass cover interned its universe")

        monkeypatch.setattr(algorithms, "_BitUniverse", refuse)
        universe = frozenset(range(BITSET_KERNEL_THRESHOLD * 2))
        candidates = {"big": universe, "small": frozenset({0})}
        weights = {"big": 2, "small": 1}
        assert greedy_max_weight_cover(
            universe, candidates, weights
        ).selected == ("big",)
        assert set(
            random_cover(universe, candidates, random.Random(0)).selected
        ) <= {"big", "small"}

    def test_auto_promotes_amortized_covers_above_threshold(self):
        big = frozenset(range(BITSET_KERNEL_THRESHOLD))
        small = frozenset(range(BITSET_KERNEL_THRESHOLD - 1))
        assert algorithms._resolve_kernel("auto", big) == "bitset"
        assert algorithms._resolve_kernel("auto", small) == "set"

    def test_explicit_kernel_wins_over_default(self):
        big = frozenset(range(BITSET_KERNEL_THRESHOLD * 2))
        assert (
            algorithms._resolve_kernel("bitset", frozenset({"a"}))
            == "bitset"
        )
        assert algorithms._resolve_kernel("set", big) == "set"

    def test_default_kernel_applies_to_auto_call_sites(self, monkeypatch):
        # A call that passes no kernel runs "auto": the bitset kernel
        # above the threshold, the set kernel below it.
        calls = []
        original = algorithms._greedy_marginal_bitset

        def spy(*args):
            calls.append(len(args[0]))
            return original(*args)

        monkeypatch.setattr(algorithms, "_greedy_marginal_bitset", spy)
        for size in (8, BITSET_KERNEL_THRESHOLD):
            universe = frozenset(f"m-{i}" for i in range(size))
            candidates = {
                "tor-0": frozenset(f"m-{i}" for i in range(size // 2 + 1)),
                "tor-1": frozenset(f"m-{i}" for i in range(size // 2, size)),
            }
            result = greedy_marginal_cover(universe, candidates)
            reference = greedy_marginal_cover(
                universe, candidates, kernel="set"
            )
            assert result == reference
        assert calls == [BITSET_KERNEL_THRESHOLD]


class TestNaturalSortKeyEdges:
    """Edge cases beyond the happy paths in test_algorithms."""

    def test_empty_string(self):
        assert sorted(["tor-1", ""], key=natural_sort_key) == ["", "tor-1"]

    def test_bare_prefix_vs_indexed(self):
        # "tor" has no numeric suffix: it sorts after every indexed id
        # sharing the prefix.
        assert sorted(["tor", "tor-2", "tor-10"], key=natural_sort_key) == [
            "tor-2",
            "tor-10",
            "tor",
        ]

    def test_multi_dash_ids(self):
        items = ["dc-1-tor-10", "dc-1-tor-2"]
        assert sorted(items, key=natural_sort_key) == [
            "dc-1-tor-2",
            "dc-1-tor-10",
        ]

    def test_non_string_ids(self):
        # Plain integer ids order numerically, not by their string form
        # (which would put 10 before 2).
        assert sorted([10, 2], key=natural_sort_key) == [2, 10]

    def test_mixed_int_and_string_ids(self):
        # The regression this pins: mixed id populations used to raise
        # TypeError (comparing ("10", ...) against ("tor", 10, ...)
        # shapes).  Every key now has the same (str, int, int, str)
        # shape, ints sort before prefixed ids, and numeric order wins
        # within each group.
        mixed = ["tor-10", 2, "tor-2", 10, "ops-1", 3]
        assert sorted(mixed, key=natural_sort_key) == [
            2,
            3,
            10,
            "ops-1",
            "tor-2",
            "tor-10",
        ]

    def test_bool_ids_keep_string_keying(self):
        # bools are ints in python; keep them on the generic string
        # path so True/False don't interleave with numeric ids.
        assert natural_sort_key(True) == natural_sort_key("True")

    def test_numeric_suffix_with_leading_zeros(self):
        assert sorted(["tor-010", "tor-2"], key=natural_sort_key) == [
            "tor-2",
            "tor-010",
        ]

    def test_stable_for_equal_keys(self):
        assert natural_sort_key("ops-3") == natural_sort_key("ops-3")

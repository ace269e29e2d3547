"""Brute-force set-cover oracle the exact cover MILP is checked against."""

import itertools


def min_cover_size(universe, candidates) -> int:
    """Smallest number of candidates whose union contains ``universe``.

    Tries every subset in increasing size, so keep instances small.
    """
    target = frozenset(universe)
    names = sorted(candidates)
    for size in range(len(names) + 1):
        for combo in itertools.combinations(names, size):
            if target <= frozenset().union(*(candidates[n] for n in combo)):
                return size
    raise ValueError("no cover exists")

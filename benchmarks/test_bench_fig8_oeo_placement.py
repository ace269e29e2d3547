"""E8 / Fig. 8 — VNF placement to save O/E/O conversions.

Regenerates: (a) the exact Fig. 8 walk-through (3-VNF chain, two
conversions before, one after, two VNFs in the optical domain) and
(b) the sweep over chain length and optoelectronic capacity comparing
all-electronic / random / greedy / exact placement.  Expected shape:
all-electronic is the ceiling, conversions fall as capacity grows, and
exact ≤ greedy ≤ random ≤ all-electronic.
"""

from repro.analysis.experiments import (
    experiment_fig8_sweep,
    experiment_fig8_worked_example,
)
from repro.analysis.reporting import render_table


def test_bench_fig8_worked_example(benchmark):
    result = benchmark(experiment_fig8_worked_example)
    print()
    print("Fig. 8 worked example:")
    print(f"  chain:  {result['chain']}")
    print(
        f"  before: {result['before_conversions']} conversions "
        f"({result['before_optical']} VNF optical)"
    )
    print(
        f"  after:  {result['after_conversions']} conversions "
        f"({result['after_optical']} VNFs optical), "
        f"saved {result['saved']}"
    )

    assert result["before_conversions"] == 2
    assert result["after_conversions"] == 1
    assert result["saved"] == 1
    assert result["after_optical"] == 2


def test_bench_fig8_sweep(benchmark):
    rows = benchmark.pedantic(
        experiment_fig8_sweep,
        kwargs={
            "chain_lengths": (2, 4, 6),
            "capacity_scales": (0.0, 0.5, 1.0, 2.0),
            "seeds": (0, 1, 2),
        },
        rounds=1,
        iterations=1,
    )
    print()
    print(
        render_table(
            rows, title="Fig. 8 — conversions per placement algorithm"
        )
    )

    indexed = {
        (row["chain_len"], row["capacity_scale"], row["algorithm"]): row
        for row in rows
    }
    for length in (2, 4, 6):
        for scale in (0.0, 0.5, 1.0, 2.0):
            ceiling = indexed[(length, scale, "all_electronic")][
                "mean_conversions"
            ]
            greedy = indexed[(length, scale, "greedy")]["mean_conversions"]
            exact = indexed[(length, scale, "exact")]["mean_conversions"]
            assert exact <= greedy + 1e-9 <= ceiling + 1e-9
        # More capacity never hurts the optimizer.
        greedy_curve = [
            indexed[(length, scale, "greedy")]["mean_conversions"]
            for scale in (0.0, 0.5, 1.0, 2.0)
        ]
        assert all(
            b <= a + 1e-9 for a, b in zip(greedy_curve, greedy_curve[1:])
        )

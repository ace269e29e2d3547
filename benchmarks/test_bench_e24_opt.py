"""E24 — certified optimality gaps of the greedy control-plane paths.

Regenerates: the exact-baseline claim behind :mod:`repro.opt` — on
every fabric scale point the branch-and-bound MILP closes both exact
formulations (AL cover and chain placement) with a certificate, the
greedy objectives sit within a committed gap tolerance of the
certified optimum, and the node counts stay inside an interactive
budget (the perf canary for the pure-python solver).

The run writes a machine-readable record (``BENCH_e24.json`` in the
working directory, or ``$ALVC_BENCH_E24_OUT``) and holds it to the
certificate, gap tolerances and node budget declared in
``benchmarks/gates.py``, which also diffs it against the committed
``benchmarks/BENCH_e24.json`` to gate exact-baseline regressions in
CI.
"""

from gates import GATES, write_record

from repro.analysis.experiments import experiment_e24_exact_gap
from repro.analysis.reporting import render_table

GATE = GATES["e24_exact_gap"]


def test_bench_e24_exact_gap(benchmark):
    rows = benchmark.pedantic(
        experiment_e24_exact_gap,
        rounds=1,
        iterations=1,
    )
    print()
    print(render_table(rows, title="E24 — certified optimality gaps"))

    by_problem: dict = {}
    for row in rows:
        by_problem.setdefault(row["problem"], []).append(row)

    # Both exact formulations, each on >= 3 fabric sizes.
    assert set(by_problem) == {"al_cover", "placement"}
    for problem, group in by_problem.items():
        assert len({row["fabric_servers"] for row in group}) >= 3, (
            f"{problem}: want >= 3 fabric sizes, got {group}"
        )

    for row in rows:
        label = f"{row['problem']}@{row['fabric_servers']}"
        # The certificate brackets the exact objective from below and
        # the greedy objective from above (exactness sanity).
        assert (
            row["certified_lower_bound"]
            <= row["exact_objective"]
            <= row["greedy_objective"]
        ), f"{label}: certificate ordering violated: {row}"
        # Greedy within the declared tolerance of optimal: the paper's
        # greedy is near-optimal on these scales, so a bigger gap means
        # a greedy regression (or an exact-solver bug making "optimal"
        # too easy).
        tolerance = GATE.max_gap[row["problem"]]
        assert 0.0 <= row["gap"] <= tolerance, (
            f"{label}: gap {row['gap']:.3f} outside [0, {tolerance}]"
        )

    record = {
        "experiment": "e24_exact_gap",
        "rows": rows,
        "max_gap": {
            problem: max(row["gap"] for row in group)
            for problem, group in by_problem.items()
        },
        "total_bnb_nodes": sum(row["bnb_nodes"] for row in rows),
        # A gap curve against an uncertified incumbent proves nothing.
        "proven_optimal": all(row["proven_optimal"] for row in rows),
    }
    # Every instance closed, within the node budget (the perf canary:
    # the pure-python solver must stay interactive at bench scale).
    write_record(record)

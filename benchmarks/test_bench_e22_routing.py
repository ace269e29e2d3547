"""E22 — routing throughput (CSR path engine vs networkx traversal).

Regenerates: the engineering claim behind this repo's routing rework —
the CSR-based :class:`repro.sdn.path_engine.PathEngine` answers cold
AL-restricted shortest-path queries at least 5x faster than the
per-query ``networkx`` path on a 1024-server fabric, the RouteCache on
top of it multiplies that further, and every arm folds the exact same
CRC32 checksum over its answers (paths *and* error messages), proving
the engines are bit-identical.

The run writes a machine-readable record (``BENCH_e22.json`` in the
working directory, or ``$ALVC_BENCH_E22_OUT``) and holds it to the
floors declared in ``benchmarks/gates.py``, which also diffs it
against the committed ``benchmarks/BENCH_e22.json`` to gate routing
regressions in CI.
"""

from gates import write_record

from repro.analysis.experiments import experiment_e22_routing_throughput
from repro.analysis.reporting import render_table


def test_bench_e22_routing(benchmark):
    rows = benchmark.pedantic(
        experiment_e22_routing_throughput,
        rounds=1,
        iterations=1,
    )
    print()
    print(render_table(rows, title="E22 — routing throughput by arm"))

    by_arm = {row["arm"]: row for row in rows}
    nx_row = by_arm["nx"]
    csr = by_arm["csr"]
    cached = by_arm["csr+cache"]
    batch = by_arm["csr-batch"]

    # Bit-parity: every arm folded the same answers (paths and error
    # messages alike) into its checksum as its own reference pass.
    assert all(row["parity"] for row in rows), (
        "engine parity broken: "
        + ", ".join(
            f"{row['arm']}={row['parity']}" for row in rows
        )
    )
    assert nx_row["checksum"] == csr["checksum"] == cached["checksum"]
    assert cached["cache_hit_rate"] > 0.3

    record = {
        "experiment": "e22_routing_throughput",
        "rows": rows,
        "paths_per_sec": {row["arm"]: row["paths_per_sec"] for row in rows},
        # The CSR engine on cold AL-restricted queries.
        "csr_speedup": csr["speedup"],
        # RouteCache over the CSR engine on the repeat-heavy pool.
        "cached_speedup": cached["speedup"],
        "batch_speedup": batch["speedup"],
        "parity": all(row["parity"] for row in rows),
    }
    write_record(record)

"""E21 — control-plane throughput (bitset kernels + sweep batching).

Regenerates: the engineering claim behind this repo's control-plane
rework — the interned bitset cover kernels plus fabric accessor
memoization deliver at least 2x AL constructions/second over the
legacy set-based path on a 1024-server fabric (~ a k=16 fat-tree),
and driving the same grid through :class:`repro.parallel.SweepRunner`
with per-seed shard tasks cuts wall clock by a further >= 2x while an
order-independent checksum proves every arm built identical layers.

Set ``ALVC_E21_WORKERS`` to shard the parallel arm across processes
(CI pins 1 so the batching win is measured honestly on one core).

The run writes a machine-readable record (``BENCH_e21.json`` in the
working directory, or ``$ALVC_BENCH_E21_OUT``) and holds it to the
floors declared in ``benchmarks/gates.py``, which also diffs it
against the committed ``benchmarks/BENCH_e21.json`` to gate
control-plane regressions in CI.
"""

import os

from gates import write_record

from repro.analysis.experiments import (
    experiment_e21_control_plane_throughput,
)
from repro.analysis.reporting import render_table


def test_bench_e21_control_plane(benchmark):
    workers = int(os.environ.get("ALVC_E21_WORKERS", "1"))
    rows = benchmark.pedantic(
        experiment_e21_control_plane_throughput,
        kwargs={"workers": workers},
        rounds=1,
        iterations=1,
    )
    print()
    print(
        render_table(
            rows, title="E21 — control-plane throughput by arm"
        )
    )

    by_arm = {row["arm"]: row for row in rows}
    serial = by_arm["serial-set"]
    bitset = by_arm["bitset"]
    parallel = by_arm["bitset-parallel"]

    # Every arm built the same abstraction layers: same construction
    # count, same order-independent checksum (the "parallel merge is
    # bit-identical to serial" proof).
    assert (
        serial["constructions"]
        == bitset["constructions"]
        == parallel["constructions"]
    )
    assert serial["checksum"] == bitset["checksum"] == parallel["checksum"]

    record = {
        "experiment": "e21_control_plane_throughput",
        "rows": rows,
        "constructions_per_sec": {
            row["arm"]: row["constructions_per_sec"] for row in rows
        },
        # The bitset kernels + accessor memoization (constructions/s).
        "kernel_speedup": bitset["cps_speedup"],
        # SweepRunner shard batching on top of the kernels (wall clock).
        "sweep_speedup": parallel["wall_speedup"],
        "checksums_match": len({row["checksum"] for row in rows}) == 1,
        "workers": workers,
    }
    write_record(record)

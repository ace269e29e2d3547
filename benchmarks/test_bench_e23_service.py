"""E23 — durable service throughput (group commit + restore time).

Regenerates: the engineering claim behind this repo's durable
control-plane service — admitting the same op stream through the
batched front-end path (one group-commit fsync per wave) delivers
at least 2x provision/teardown ops/second over serial fsync-per-op submission on a
1024-server fabric, a snapshot bounds restore wall clock to at least
2x better than full journal replay, and the canonical state digest
proves every arm (and every recovery) landed in the bit-identical
control-plane state.

The run writes a machine-readable record (``BENCH_e23.json`` in the
working directory, or ``$ALVC_BENCH_E23_OUT``) and holds it to the
floors declared in ``benchmarks/gates.py``, which also diffs it
against the committed ``benchmarks/BENCH_e23.json`` to gate
durable-service regressions in CI.
"""

from gates import write_record

from repro.analysis.experiments import experiment_e23_service_throughput
from repro.analysis.reporting import render_table


def test_bench_e23_service(benchmark):
    rows = benchmark.pedantic(
        experiment_e23_service_throughput,
        rounds=1,
        iterations=1,
    )
    print()
    print(render_table(rows, title="E23 — durable-service ops/sec by arm"))

    by_arm = {row["arm"]: row for row in rows}
    serial = by_arm["serial"]
    batched = by_arm["batched"]
    replay = by_arm["restore-replay"]
    snapshot = by_arm["restore-snapshot"]

    # Every arm — including both recovery paths — reached the
    # bit-identical control-plane state (the replay-parity proof).
    assert all(row["parity"] for row in rows), (
        f"state digests diverged across arms: "
        f"{[(row['arm'], row['digest']) for row in rows]}"
    )
    assert len({row["digest"] for row in rows}) == 1
    assert snapshot["replayed"] == 0  # head snapshot: empty tail

    record = {
        "experiment": "e23_service_throughput",
        "rows": rows,
        "ops_per_sec": {row["arm"]: row["ops_per_sec"] for row in rows},
        "p99_ms": {row["arm"]: row["p99_ms"] for row in (serial, batched)},
        # Group commit over fsync-per-op.
        "batched_speedup": batched["speedup"],
        # A snapshot bounds recovery below full genesis replay.
        "restore_speedup": snapshot["speedup"],
        # Replay must recover committed commands at a usable rate.
        "restore_ops_per_sec": replay["ops_per_sec"],
        "parity": all(row["parity"] for row in rows),
    }
    write_record(record)

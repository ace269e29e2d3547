"""E26 — vectorized data-plane throughput (struct-of-arrays fair share).

Regenerates: the engineering claim behind this repo's vectorized data
plane — the batched, component-local water-filling engine scales to
concurrency regimes a per-object loop cannot reach, and the AL-sharded
fan-out (:func:`repro.sim.sharding.simulate_sharded`) reproduces the
single-process rate trace and merges worker reports bit-identically at
any worker count.

The run here is CI-sized (4000 flows and a 100k-flow soak).  The
committed ``benchmarks/BENCH_e26.json`` is the **full-scale** record:
8000 flows on the 1024-server fabric through the single-process and
sharded arms plus the 1M-flow soak; ``benchmarks/compare_dataplane.py``
gates both records on checksum parity and worker determinism.

The run writes a machine-readable record (``BENCH_e26.json`` in the
working directory, or ``$ALVC_BENCH_E26_OUT``) for that gate.
"""

import json
import os

from repro.analysis.experiments import experiment_e26_dataplane_throughput
from repro.analysis.reporting import render_table
from repro.sim.ckernel import kernel_status

#: CI sizing: mid concurrency, 100k-flow soak.
CI_CONFIG = dict(
    n_flows=4000,
    arrival_rate=4000.0,
    soak_flows=100_000,
    soak_epochs=12,
    seed=0,
    workers=4,
)

#: Soak memory envelope (resident set per worker process, MB).
MAX_SOAK_WORKER_RSS_MB = 4096.0


def build_record(rows: list[dict], config: dict) -> dict:
    """The BENCH_e26 JSON schema, shared by CI and full-scale runs."""
    by_arm = {row["arm"]: row for row in rows}
    rates = {
        arm: row["events_per_sec"]
        for arm, row in by_arm.items()
        if arm != "soak"
    }
    checksums = {
        arm: row["checksum"]
        for arm, row in by_arm.items()
        if arm != "soak"
    }
    return {
        "experiment": "e26_dataplane_throughput",
        "config": dict(config),
        # Which round loop and event step ran: "compiled"/"cached", or
        # why the numpy mirror did.
        "kernel": kernel_status(),
        "rows": rows,
        "events_per_sec": rates,
        "checksum_parity": len(set(checksums.values())) == 1,
        "worker_parity": bool(
            by_arm["vector-sharded"].get("deterministic", False)
        ),
        "soak": by_arm.get("soak"),
    }


def test_bench_e26_dataplane(benchmark):
    rows = benchmark.pedantic(
        lambda: experiment_e26_dataplane_throughput(**CI_CONFIG),
        rounds=1,
        iterations=1,
    )
    print()
    print(render_table(rows, title="E26 — vectorized data-plane throughput"))

    record = build_record(rows, CI_CONFIG)
    by_arm = {row["arm"]: row for row in rows}

    # Gate A: the sharded fan-out reproduced the single-process rate
    # trace bit-for-bit — identical CRC32 checksums over every
    # completion time and busy-link accumulator.
    assert record["checksum_parity"], (
        f"rate-trace checksums diverged: "
        f"{[(row['arm'], row.get('checksum')) for row in rows]}"
    )

    # Gate B: the shard merge is deterministic — workers=4 and
    # workers=1 produced bit-identical reports.
    assert record["worker_parity"]

    # Gate C: the concurrency soak completed inside the memory
    # envelope with (almost) every flow still in flight — co-located
    # VM pairs complete instantly, everything else stays concurrent.
    soak = by_arm["soak"]
    assert soak["in_flight"] >= 0.95 * soak["flows"]
    assert soak["rss_worker_mb"] <= MAX_SOAK_WORKER_RSS_MB

    out_path = os.environ.get("ALVC_BENCH_E26_OUT", "BENCH_e26.json")
    with open(out_path, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")

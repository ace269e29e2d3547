"""E26 — vectorized data-plane throughput (struct-of-arrays fair share).

Regenerates: the engineering claim behind this repo's vectorized data
plane — the batched, component-local water-filling engine scales to
concurrency regimes a per-object loop cannot reach.  The single-process
``vector-batched`` arm reproduces a frozen CRC32 rate-trace checksum,
and a 1M-flow soak runs through the same simulator in one freshly
spawned child that reports its own resident-set growth.

The run here is CI-sized (``CI_CONFIG``: 4000 flows and a 100k-flow
soak).  The committed ``benchmarks/BENCH_e26.json`` is the full-scale
record (``FULL_CONFIG``: 8000 flows on the 1024-server fabric plus the
1M-flow soak); regenerate it with::

    PYTHONPATH=src python benchmarks/test_bench_e26_dataplane.py

``benchmarks/gates.py`` declares the frozen per-config checksums and
the soak envelope; this test and that gate both apply them.

The CI run writes its record (``BENCH_e26.json`` in the
working directory, or ``$ALVC_BENCH_E26_OUT``) for that gate.
"""

import pathlib

import gates

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
)

#: Full sizing behind the committed ``BENCH_e26.json``.
FULL_CONFIG = dict(
    n_flows=8000,
    arrival_rate=8000.0,
    soak_flows=1_000_000,
    soak_epochs=12,
    seed=0,
)


def build_record(rows: list[dict], config: dict) -> dict:
    """The BENCH_e26 JSON schema, shared by CI and full-scale runs."""
    by_arm = {row["arm"]: row for row in rows}
    return {
        "experiment": "e26_dataplane_throughput",
        "config": dict(config),
        # Which round loop and event step ran: "compiled"/"cached", or
        # why the numpy mirror did.
        "kernel": kernel_status(),
        "rows": rows,
        "events_per_sec": {
            arm: row["events_per_sec"]
            for arm, row in by_arm.items()
            if arm != "soak"
        },
        "soak": by_arm.get("soak"),
    }


def write_record(
    config: dict, out_path: str | None = None, label: str = "ci"
) -> dict:
    """Run E26 at *config*, write its record and hold it to its gate.

    The record goes to *out_path*, else where :func:`gates.write_record`
    puts it (``$ALVC_BENCH_E26_OUT`` or ``BENCH_e26.json``).
    """
    rows = experiment_e26_dataplane_throughput(**config)
    return gates.write_record(
        build_record(rows, config), label=label, path=out_path
    )


def test_bench_e26_dataplane(benchmark):
    record = benchmark.pedantic(
        lambda: write_record(CI_CONFIG),
        rounds=1,
        iterations=1,
    )
    print()
    print(
        render_table(
            record["rows"], title="E26 — vectorized data-plane throughput"
        )
    )
    # write_record held the single-process rate trace to the frozen CI
    # golden (an identical CRC32 over every completion time and
    # busy-link accumulator), and the soak to keeping (almost) every
    # flow in flight inside the memory envelope — co-located VM pairs
    # complete instantly, everything else stays concurrent.
    assert record["soak"] is not None


if __name__ == "__main__":
    write_record(
        FULL_CONFIG,
        str(pathlib.Path(__file__).with_name("BENCH_e26.json")),
        label="full",
    )

"""E25 — week-in-the-life churn soak (acceptance, SLA, replayability).

Regenerates: the acceptance claim behind this repo's workload layer — a
long horizon of seeded multi-tenant churn (Poisson/diurnal arrivals,
exponential lifetimes, elastic VNF scaling, OPS chaos, migration storms
and defragmenting re-embedding) drives the whole control plane through
its journaled entry points, and the run is *bit-replayable*: every arm
restores from its own journal into the digest-identical state, the
twin arm reproduces the identical row, and spreading the arms across
worker processes changes nothing.

The soak here is CI-sized (one simulated day per arm, a 128-server
fleet fabric plus the deliberately over-subscribed dense arm); the
committed ``benchmarks/BENCH_e25.json`` records the expected rows and
``benchmarks/gates.py`` enforces exact equality — every field of every
arm is deterministic, so any drift is a real behaviour change, not
noise.

The run writes a machine-readable record (``BENCH_e25.json`` in the
working directory, or ``$ALVC_BENCH_E25_OUT``) for that gate.
"""

from gates import write_record

from repro.analysis.experiments import experiment_e25_week_in_the_life
from repro.analysis.reporting import render_table

#: CI sizing: one simulated day, a 16-rack fleet, one dense day.
CI_SOAK = dict(
    days=1.0,
    n_racks=16,
    servers_per_rack=8,
    n_ops=16,
    slots=8,
    dense_days=1.0,
    seed=0,
)

#: Worker counts whose rows must be bit-identical.
WORKER_PARITY = (1, 3)


def test_bench_e25_workload(benchmark):
    rows = benchmark.pedantic(
        lambda: experiment_e25_week_in_the_life(**CI_SOAK, workers=1),
        rounds=1,
        iterations=1,
    )
    print()
    print(render_table(rows, title="E25 — week-in-the-life churn soak"))

    by_arm = {row["arm"]: row for row in rows}
    assert set(by_arm) == {"fleet-a", "fleet-b", "dense"}

    # Gate A: every arm restored from its own journal into the
    # bit-identical control plane (a whole day of churn, replayed).
    assert all(row["replay_identical"] for row in rows), (
        f"journal replay diverged: "
        f"{[(row['arm'], row['digest']) for row in rows]}"
    )

    # Gate B: the twin arm reproduced the identical row — run-to-run
    # determinism of the entire soak, digest and checksum included.
    assert all(row["twin_identical"] for row in rows)
    fleet_a = dict(by_arm["fleet-a"], arm="fleet")
    fleet_b = dict(by_arm["fleet-b"], arm="fleet")
    assert fleet_a == fleet_b

    # Gate C: the soak exercises what it claims to — churn with both
    # admissions and rejections, elastic scaling, chaos, storms, and
    # (on the dense arm) defragmenting re-embedding.
    assert by_arm["fleet-a"]["admitted"] > 0
    assert by_arm["fleet-a"]["rejected"] > 0
    assert by_arm["fleet-a"]["scale_ups"] > 0
    assert by_arm["fleet-a"]["faults"] > 0
    assert by_arm["fleet-a"]["vms_migrated"] > 0
    assert by_arm["dense"]["reembeddings"] > 0
    assert by_arm["dense"]["fragmentation_peak"] > 0

    # Gate D: spreading the arms across workers changes nothing.
    sharded = experiment_e25_week_in_the_life(
        **CI_SOAK, workers=WORKER_PARITY[1]
    )
    assert sharded == rows, (
        f"rows differ between workers={WORKER_PARITY[0]} and "
        f"workers={WORKER_PARITY[1]}"
    )

    record = {
        "experiment": "e25_week_in_the_life",
        "soak": CI_SOAK,
        "rows": rows,
        "digests": {row["arm"]: row["digest"] for row in rows},
        "decisions_checksums": {
            row["arm"]: row["decisions_checksum"] for row in rows
        },
        "acceptance_ratios": {
            row["arm"]: row["acceptance_ratio"] for row in rows
        },
        "parity": all(
            row["replay_identical"] and row["twin_identical"] for row in rows
        ),
        "worker_parity": sharded == rows,
    }
    write_record(record)

#!/usr/bin/env python3
"""Gate E26 data-plane records on frozen checksums and the soak envelope.

Usage::

    python benchmarks/compare_dataplane.py \
        benchmarks/BENCH_e26.json BENCH_e26.json

Both files are the JSON written by
``benchmarks/test_bench_e26_dataplane.py``: the CI-sized run
(``CI_CONFIG``) or the full-scale committed record (``FULL_CONFIG``).
**Results are non-negotiable in either record**: the ``vector-batched``
CRC32 rate-trace checksum must equal the golden frozen for the record's
``(n_flows, arrival_rate, seed)``, and a record whose config has no
golden fails.  A soak row must keep at least 95% of its flows in flight
and grow the soak child's resident set by at most
``MAX_SOAK_RSS_MB``.  A perf win that changes results is a bug.
"""

from __future__ import annotations

import argparse
import json
import sys

#: Frozen ``vector-batched`` checksums by ``(n_flows, arrival_rate, seed)``.
GOLDEN_CHECKSUMS = {
    (8000, 8000.0, 0): 2458824102,  # full scale, the committed record
    (4000, 4000.0, 0): 120512518,  # CI sizing
}

#: Soak memory envelope (workload plus run growth of the soak child, MB).
MAX_SOAK_RSS_MB = 4096.0


def _load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def record_failures(label: str, record: dict) -> list[str]:
    """Every way *record* misses its frozen checksum or the soak gates."""
    failures: list[str] = []
    config = record.get("config", {})
    key = tuple(
        config.get(name) for name in ("n_flows", "arrival_rate", "seed")
    )
    golden = GOLDEN_CHECKSUMS.get(key)
    if golden is None:
        failures.append(f"{label}: no frozen checksum for config {key}")
    else:
        by_arm = {row["arm"]: row for row in record.get("rows", ())}
        checksum = by_arm.get("vector-batched", {}).get("checksum")
        if checksum != golden:
            failures.append(
                f"{label}: vector-batched checksum {checksum} != "
                f"golden {golden} for config {key}"
            )
    soak = record.get("soak")
    if soak:
        if soak["in_flight"] < 0.95 * soak["flows"]:
            failures.append(
                f"{label}: soak kept {soak['in_flight']} of "
                f"{soak['flows']} flows in flight (< 95%)"
            )
        rss = soak["rss_workload_mb"] + soak["rss_run_mb"]
        if rss > MAX_SOAK_RSS_MB:
            failures.append(
                f"{label}: soak child grew {rss:.0f} MB "
                f"(> {MAX_SOAK_RSS_MB:.0f} MB)"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed BENCH_e26.json")
    parser.add_argument("candidate", help="freshly measured BENCH_e26.json")
    args = parser.parse_args(argv)

    failures: list[str] = []
    for label, path in (("baseline", args.baseline),
                        ("candidate", args.candidate)):
        record = _load(path)
        rates = record.get("events_per_sec", {})
        formatted = ", ".join(
            f"{arm}={rate:,.0f} ev/s" for arm, rate in sorted(rates.items())
        )
        print(f"{label}: {formatted}")
        failures += record_failures(label, record)

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Gate two E26 data-plane records on parity.

Usage::

    python benchmarks/compare_dataplane.py \
        benchmarks/BENCH_e26.json BENCH_e26.json

Both files are the JSON written by
``benchmarks/test_bench_e26_dataplane.py`` (the CI-sized run) or the
full-scale generator behind the committed record.  **Parity is
non-negotiable in either record**: every arm's CRC32 rate-trace checksum
must match (``checksum_parity``) and the AL-sharded fan-out must be
worker-count invariant (``worker_parity``).  A perf win that changes
results is a bug.
"""

from __future__ import annotations

import argparse
import json
import sys


def _load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _check_parity(label: str, record: dict, failures: list[str]) -> None:
    if not record.get("checksum_parity"):
        failures.append(f"{label}: rate-trace checksums diverge across arms")
    if not record.get("worker_parity"):
        failures.append(f"{label}: sharded run is not worker-count invariant")


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
        _check_parity(label, record, failures)

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

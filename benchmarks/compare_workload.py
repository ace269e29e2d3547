#!/usr/bin/env python3
"""Compare two E25 churn-soak records and enforce the gates.

Usage::

    python benchmarks/compare_workload.py \
        benchmarks/BENCH_e25.json BENCH_e25.json

Both files are the JSON written by
``benchmarks/test_bench_e25_workload.py``.  Unlike the throughput
benches, every field of an E25 row is deterministic — the soak runs in
virtual time from one seed — so the gate is *exact equality*, not a
regression bound:

* the candidate's **parity** flags — every arm restored from its own
  journal into the digest-identical state (``replay_identical``), the
  twin arm reproduced the identical row (``twin_identical``), and
  spreading the arms across workers changed nothing (``worker_parity``);
* every row of the candidate equals the committed baseline row for the
  same arm, field for field (acceptance ratio, SLA counts, scaling and
  re-embedding activity, churn cost, state digest, decision checksum).

Any difference is a genuine behaviour change in the control plane or
the workload layer and must ship with a regenerated baseline.
"""

from __future__ import annotations

import argparse
import json
import sys


def _load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed BENCH_e25.json")
    parser.add_argument("candidate", help="freshly measured BENCH_e25.json")
    args = parser.parse_args(argv)

    baseline = _load(args.baseline)
    candidate = _load(args.candidate)

    passed = True
    for flag in ("parity", "worker_parity"):
        if candidate.get(flag, False):
            print(f"ok: candidate {flag} holds")
        else:
            print(f"FAIL: candidate {flag} is false", file=sys.stderr)
            passed = False

    base_rows = {row["arm"]: row for row in baseline.get("rows", [])}
    cand_rows = {row["arm"]: row for row in candidate.get("rows", [])}
    if set(base_rows) != set(cand_rows):
        print(
            f"FAIL: arm sets differ — baseline {sorted(base_rows)} vs "
            f"candidate {sorted(cand_rows)}",
            file=sys.stderr,
        )
        return 1

    for arm in sorted(base_rows):
        before, after = base_rows[arm], cand_rows[arm]
        fields = sorted(set(before) | set(after))
        diffs = [
            field
            for field in fields
            if before.get(field) != after.get(field)
        ]
        if diffs:
            passed = False
            print(f"FAIL: arm {arm!r} drifted from baseline:", file=sys.stderr)
            for field in diffs:
                print(
                    f"  {field}: {before.get(field)!r} -> "
                    f"{after.get(field)!r}",
                    file=sys.stderr,
                )
        else:
            print(
                f"ok: arm {arm!r} identical "
                f"(acceptance {after['acceptance_ratio']}, "
                f"digest {after['digest']})"
            )
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())

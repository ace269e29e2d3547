#!/usr/bin/env python3
"""One gate for the committed benchmark records.

Usage::

    python benchmarks/gates.py BASELINE CANDIDATE

BASELINE is the committed record (e.g. ``benchmarks/BENCH_e23.json``)
and CANDIDATE the one a bench test just wrote.  The record's
``experiment`` field picks its declaration in :data:`GATES`; a pair of
pytest-benchmark files (recognised by their ``benchmarks`` key) is
compared for telemetry overhead instead.  Exit status: 0 when every
check holds, 1 when one fails, 2 when the files cannot be compared
(an undeclared or mismatched experiment, or no common benchmark).

Each experiment is declared once.  Its checks come in two kinds:

* **record checks** hold on one record alone — parity flags, absolute
  floors, the branch-and-bound node budget, frozen checksums and the
  soak envelope.  The bench tests apply them to the record they write
  (:func:`write_record`), and this gate applies them to the
  candidate (and, for E26, to the baseline too);
* **regression checks** compare the candidate with the baseline — at
  most :data:`MAX_REGRESSION` below each floored value, no widened
  optimality gap, bounded node growth and, for E25's deterministic
  soak, exact equality of every row.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Iterator, Mapping

#: Largest relative drop of a floored value against the baseline.  Arm
#: ratios on shared runners vary more than one engine's rate does; the
#: absolute floors are the primary gate.
MAX_REGRESSION = 0.25

#: Largest relative slowdown of a benchmark's median with telemetry on
#: (the zero-cost-when-disabled telemetry contract).
MAX_TELEMETRY_OVERHEAD = 0.05

#: One check's outcome: whether it holds, and what it looked at.
Verdict = tuple[bool, str]


class GateError(Exception):
    """The two files cannot be compared (exit status 2)."""


@dataclasses.dataclass(frozen=True)
class Gate:
    """Everything one experiment's record is held to.

    Attributes:
        flags: booleans the record must set.
        floors: absolute floor per value; the candidate's value must
            also stay within :data:`MAX_REGRESSION` of the baseline's,
            which must be positive.
        max_gap: per-problem gap tolerance of every row (the bench
            test applies it row by row).
        gap_slack: how far each problem's worst gap may widen past the
            baseline's; a problem the candidate lost fails.
        max_bnb_nodes: branch-and-bound node budget of the worst row.
        max_node_growth: relative growth allowed in the total node
            count against the baseline.
        exact_rows: every row must equal the baseline's row for the
            same arm, field for field, over the same set of arms.
        goldens: frozen ``vector-batched`` checksum by the record's
            ``(n_flows, arrival_rate, seed)``; a config without one
            fails.
        min_soak_in_flight: share of the soak's flows that must still
            be in flight.
        max_soak_rss_mb: workload plus run growth of the soak child.
        both_records: apply the record checks to the baseline as well.
    """

    flags: tuple[str, ...] = ()
    floors: Mapping[str, float] = dataclasses.field(default_factory=dict)
    max_gap: Mapping[str, float] = dataclasses.field(default_factory=dict)
    gap_slack: float | None = None
    max_bnb_nodes: int | None = None
    max_node_growth: float | None = None
    exact_rows: bool = False
    goldens: Mapping[tuple, int] = dataclasses.field(default_factory=dict)
    min_soak_in_flight: float | None = None
    max_soak_rss_mb: float | None = None
    both_records: bool = False


GATES: dict[str, Gate] = {
    # Bitset kernels over the serial-set arm (constructions/s), and the
    # batched sweep over the bitset arm (wall clock); all three arms
    # fold one layer checksum.
    "e21_control_plane_throughput": Gate(
        flags=("checksums_match",),
        floors={"kernel_speedup": 2.0, "sweep_speedup": 2.0},
    ),
    # Cold CSR routing and the RouteCache over networkx (paths/s);
    # every arm reproduces its networkx reference checksum.
    "e22_routing_throughput": Gate(
        flags=("parity",),
        floors={"csr_speedup": 5.0, "cached_speedup": 8.0},
    ),
    # Group commit over fsync-per-op, snapshot restore over full
    # replay, and replay's commands/s; every arm lands in one digest.
    "e23_service_throughput": Gate(
        flags=("parity",),
        floors={
            "batched_speedup": 2.0,
            "restore_speedup": 2.0,
            "restore_ops_per_sec": 200.0,
        },
    ),
    # Every instance closed with a certificate; the greedy within a
    # per-problem gap of the optimum; the pure-python solver
    # interactive (the node budget is its perf canary).
    "e24_exact_gap": Gate(
        flags=("proven_optimal",),
        max_gap={"al_cover": 0.5, "placement": 0.0},
        gap_slack=0.0,
        max_bnb_nodes=2000,
        max_node_growth=0.5,
    ),
    # The soak runs in virtual time from one seed, so every field of
    # every row is deterministic: any drift is a behaviour change.
    "e25_week_in_the_life": Gate(
        flags=("parity", "worker_parity"),
        exact_rows=True,
    ),
    # Results are non-negotiable in the CI-sized and the full-scale
    # record alike: a perf win that changes the rate trace is a bug.
    "e26_dataplane_throughput": Gate(
        goldens={
            (8000, 8000.0, 0): 2458824102,  # full scale, the committed record
            (4000, 4000.0, 0): 120512518,  # CI sizing
        },
        min_soak_in_flight=0.95,
        max_soak_rss_mb=4096.0,
        both_records=True,
    ),
}


def _record_verdicts(
    gate: Gate, record: dict, label: str
) -> Iterator[Verdict]:
    for flag in gate.flags:
        yield bool(record.get(flag, False)), f"{label} {flag} is set"
    for name, floor in gate.floors.items():
        value = float(record[name])
        yield value >= floor, f"{label} {name} {value:.2f} (floor {floor:g})"
    if gate.max_bnb_nodes is not None:
        worst = max(row["bnb_nodes"] for row in record["rows"])
        yield worst <= gate.max_bnb_nodes, (
            f"{label} worst instance used {worst} B&B nodes "
            f"(budget {gate.max_bnb_nodes})"
        )
    if gate.goldens:
        config = record.get("config", {})
        key = tuple(
            config.get(name) for name in ("n_flows", "arrival_rate", "seed")
        )
        golden = gate.goldens.get(key)
        if golden is None:
            yield False, f"{label} has no frozen checksum for config {key}"
        else:
            by_arm = {row["arm"]: row for row in record.get("rows", ())}
            checksum = by_arm.get("vector-batched", {}).get("checksum")
            yield checksum == golden, (
                f"{label} vector-batched checksum {checksum} "
                f"(golden {golden} for config {key})"
            )
    soak = record.get("soak") if gate.max_soak_rss_mb is not None else None
    if soak:
        yield soak["in_flight"] >= gate.min_soak_in_flight * soak["flows"], (
            f"{label} soak kept {soak['in_flight']} of {soak['flows']} "
            f"flows in flight (floor {gate.min_soak_in_flight:.0%})"
        )
        rss = soak["rss_workload_mb"] + soak["rss_run_mb"]
        yield rss <= gate.max_soak_rss_mb, (
            f"{label} soak child grew {rss:.0f} MB "
            f"(envelope {gate.max_soak_rss_mb:.0f} MB)"
        )


def _regression_verdicts(
    gate: Gate, baseline: dict, candidate: dict
) -> Iterator[Verdict]:
    for name in gate.floors:
        before, after = float(baseline[name]), float(candidate[name])
        if before <= 0:
            yield False, f"baseline {name} {before} is not positive"
            continue
        drop = (before - after) / before
        yield drop <= MAX_REGRESSION, (
            f"{name} {before:.2f} -> {after:.2f} "
            f"({-drop:+.1%}, limit -{MAX_REGRESSION:.0%})"
        )
    if gate.gap_slack is not None:
        for problem, before in sorted(baseline["max_gap"].items()):
            after = candidate["max_gap"].get(problem)
            if after is None:
                yield False, f"candidate lost problem {problem!r}"
                continue
            yield after <= before + gate.gap_slack, (
                f"{problem} worst gap {before:.3f} -> {after:.3f} "
                f"(slack {gate.gap_slack:.3f})"
            )
    if gate.max_node_growth is not None:
        before = baseline["total_bnb_nodes"]
        after = candidate["total_bnb_nodes"]
        if before > 0:
            growth = (after - before) / before
            yield growth <= gate.max_node_growth, (
                f"total B&B nodes {before} -> {after} "
                f"({growth:+.1%}, limit +{gate.max_node_growth:.0%})"
            )
    if gate.exact_rows:
        base = {row["arm"]: row for row in baseline.get("rows", [])}
        cand = {row["arm"]: row for row in candidate.get("rows", [])}
        if set(base) != set(cand):
            yield False, f"arm sets differ: {sorted(base)} -> {sorted(cand)}"
            return
        for arm in sorted(base):
            before, after = base[arm], cand[arm]
            drift = [
                f"{field}: {before.get(field)!r} -> {after.get(field)!r}"
                for field in sorted(set(before) | set(after))
                if before.get(field) != after.get(field)
            ]
            yield not drift, f"arm {arm!r} matches the baseline" + (
                "".join(f"\n  {line}" for line in drift)
            )


def _overhead_verdicts(baseline: dict, candidate: dict) -> list[Verdict]:
    def medians(data: dict) -> dict[str, float]:
        return {
            bench["fullname"]: bench["stats"]["median"]
            for bench in data["benchmarks"]
        }

    before_by_name, after_by_name = medians(baseline), medians(candidate)
    shared = sorted(before_by_name.keys() & after_by_name.keys())
    if not shared:
        raise GateError("no common benchmarks between the two files")
    verdicts = []
    for name in shared:
        before, after = before_by_name[name], after_by_name[name]
        overhead = (after - before) / before if before > 0 else 0.0
        verdicts.append((
            overhead <= MAX_TELEMETRY_OVERHEAD,
            f"{name}: {before * 1e3:.3f} ms -> {after * 1e3:.3f} ms "
            f"({overhead:+.1%}, limit +{MAX_TELEMETRY_OVERHEAD:.0%})",
        ))
    return verdicts


def _gate_for(record: dict) -> Gate:
    experiment = record.get("experiment")
    if experiment not in GATES:
        raise GateError(f"no gate is declared for experiment {experiment!r}")
    return GATES[experiment]


def compare(baseline: dict, candidate: dict) -> list[Verdict]:
    """Every check of *candidate* against *baseline*, in order."""
    if "benchmarks" in candidate:
        return _overhead_verdicts(baseline, candidate)
    gate = _gate_for(candidate)
    if baseline.get("experiment") != candidate["experiment"]:
        raise GateError(
            f"baseline is {baseline.get('experiment')!r}, candidate is "
            f"{candidate['experiment']!r}"
        )
    verdicts: list[Verdict] = []
    if gate.both_records:
        verdicts += _record_verdicts(gate, baseline, "baseline")
    verdicts += _record_verdicts(gate, candidate, "candidate")
    verdicts += _regression_verdicts(gate, baseline, candidate)
    return verdicts


def record_failures(record: dict, label: str = "candidate") -> list[str]:
    """Every record check *record* fails (the bench tests' assertion)."""
    return [
        message
        for ok, message in _record_verdicts(_gate_for(record), record, label)
        if not ok
    ]


def write_record(
    record: dict, *, label: str = "candidate", path: str | None = None
) -> dict:
    """Write a bench test's *record* and assert its record checks.

    The record's ``experiment`` id prefix (``e23`` of
    ``e23_service_throughput``) names the file: *path* if given, else
    ``$ALVC_BENCH_E23_OUT``, else ``BENCH_e23.json`` in the working
    directory.  The file is written before the checks run, so a failing
    record can still be read.
    """
    prefix = record["experiment"].split("_", 1)[0]
    if path is None:
        path = os.environ.get(
            f"ALVC_BENCH_{prefix.upper()}_OUT", f"BENCH_{prefix}.json"
        )
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    failures = record_failures(record, label)
    if failures:
        raise AssertionError("\n".join(failures))
    return record


def _load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("baseline", help="the committed record")
    parser.add_argument("candidate", help="the freshly measured record")
    args = parser.parse_args(argv)
    try:
        verdicts = compare(_load(args.baseline), _load(args.candidate))
    except GateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for ok, message in verdicts:
        if ok:
            print(f"ok: {message}")
        else:
            print(f"FAIL: {message}", file=sys.stderr)
    return 0 if all(ok for ok, _ in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())

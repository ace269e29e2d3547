#!/usr/bin/env python3
"""Collate committed ``BENCH_*.json`` records into a perf trajectory.

Every tentpole PR that touches a committed benchmark record leaves a
point in git history.  This tool walks that history and writes
``benchmarks/TRAJECTORY.json``::

    {
      "e26_dataplane_throughput": {
        "speedups.vector_over_incremental": {
          "series": [{"commit": "...", "subject": "...", "value": 3.12}],
          "floor": 2.34
        },
        ...
      }
    }

one series per scalar metric (dotted path into the record; the bulky
``rows`` / ``config`` subtrees are skipped), oldest commit first, with
the working-tree value appended last under commit ``WORKTREE`` when it
differs from HEAD.

**Floors** are recorded for ratio metrics only (paths containing
``speedup``) — raw events/sec and ops/sec are machine-dependent, while
speedup ratios of arms measured back-to-back on the same machine are
comparable across PRs.  A floor is ``RATCHET_FRACTION`` of the best
value ever committed, and only ever ratchets upward: once a record
demonstrates a ratio, later PRs may not quietly regress it by more
than the slack.  ``check`` mode re-reads the committed trajectory,
compares the current records against those floors, and exits non-zero
on any violation — that is the CI step::

    python benchmarks/trajectory.py check     # gate (CI)
    python benchmarks/trajectory.py collect   # rewrite TRAJECTORY.json

Absolute floors (E22's cold routing ≥5x networkx etc.) are declared
in ``gates.py``; this file guards the *trajectory* — no silent
erosion of any previously committed speedup.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
TRAJECTORY_PATH = BENCH_DIR / "TRAJECTORY.json"

#: Subtrees that hold raw rows / sizing, not headline metrics.
SKIP_KEYS = frozenset({"rows", "config"})

#: Series retired on purpose, by experiment: ``None`` retires the whole
#: block, a set names single metrics.  ``collect`` skips them while
#: walking history, so an old record cannot resurrect one with a floor
#: that ``check`` would then miss; any *other* metric that vanishes
#: from a record still fails ``check``.
RETIRED: dict[str, frozenset | None] = {
    # E19 measured the incremental and legacy event loops against each
    # other; both loops are gone, and so are the bench and its record.
    "e19_event_throughput": None,
    # E26 ratios over arms whose event loops are gone (legacy,
    # incremental, per-event vector), the AL-sharded arm and the soak
    # fields it carried; the record keeps only the single-process
    # batched arm and a soak measured in its own child.
    "e26_dataplane_throughput": frozenset({
        "speedups.vector_over_legacy",
        "speedups.vector_over_incremental",
        "speedups.batched_over_vector",
        "speedups.sharded_over_legacy",
        "events_per_sec.vector-sharded",
        "soak.workers",
        "soak.rss_self_mb",
        "soak.rss_worker_mb",
    }),
    # Scored the load-aware candidate pools (RouteCandidates), which
    # left with load-aware routing.
    "e22_routing_throughput": frozenset({"candidates_speedup"}),
}

#: A gated metric keeps at least this fraction of its best-ever value.
#: Deliberately loose: the arms of a committed record run minutes apart
#: on a shared machine, so a ratio of two arms can swing
#: tens of percent with background load alone.  This gate exists to
#: catch silent order-of-magnitude erosion (a committed 23x quietly
#: becoming 8x), not to re-litigate run-to-run noise — the tight
#: absolute floors are declared in ``gates.py``.
RATCHET_FRACTION = 0.5


def _git(*argv: str) -> str:
    return subprocess.run(
        ["git", "-C", str(REPO_ROOT), *argv],
        check=True,
        capture_output=True,
        text=True,
    ).stdout


def flatten_metrics(record: dict, prefix: str = "") -> dict[str, float]:
    """Scalar numeric leaves of *record* as ``dotted.path -> value``."""
    out: dict[str, float] = {}
    for key, value in record.items():
        if key in SKIP_KEYS:
            continue
        path = f"{prefix}{key}"
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            out[path] = float(value)
        elif isinstance(value, dict):
            out.update(flatten_metrics(value, f"{path}."))
    return out


def is_gated(metric: str) -> bool:
    """Ratio metrics ratchet; absolute rates are machine-dependent."""
    return "speedup" in metric


def is_retired(experiment: str, metric: str) -> bool:
    """Whether ``metric`` of ``experiment`` is listed in :data:`RETIRED`."""
    if experiment not in RETIRED:
        return False
    metrics = RETIRED[experiment]
    return metrics is None or metric in metrics


def _history(path: pathlib.Path) -> list[dict]:
    """Oldest-first ``{commit, subject, record}`` for a committed file."""
    rel = path.relative_to(REPO_ROOT).as_posix()
    log = _git(
        "log", "--follow", "--reverse", "--format=%H\x1f%s", "--", rel
    )
    points = []
    for line in filter(None, log.splitlines()):
        commit, _, subject = line.partition("\x1f")
        try:
            blob = _git("show", f"{commit}:{rel}")
        except subprocess.CalledProcessError:
            continue  # renamed or absent at that commit
        try:
            record = json.loads(blob)
        except json.JSONDecodeError:
            continue
        points.append(
            {"commit": commit[:12], "subject": subject, "record": record}
        )
    return points


def collect() -> dict:
    """Build the trajectory mapping from git history + working tree."""
    previous: dict = {}
    if TRAJECTORY_PATH.exists():
        with open(TRAJECTORY_PATH) as handle:
            previous = json.load(handle)

    trajectory: dict = {}
    for path in sorted(BENCH_DIR.glob("BENCH_*.json")):
        points = _history(path)
        with open(path) as handle:
            current = json.load(handle)
        if not points or points[-1]["record"] != current:
            points.append(
                {
                    "commit": "WORKTREE",
                    "subject": "(uncommitted)",
                    "record": current,
                }
            )
        experiment = current.get("experiment", path.stem.lower())
        series_by_metric: dict[str, list] = {}
        for point in points:
            for metric, value in flatten_metrics(point["record"]).items():
                if is_retired(experiment, metric):
                    continue
                series_by_metric.setdefault(metric, []).append(
                    {
                        "commit": point["commit"],
                        "subject": point["subject"],
                        "value": value,
                    }
                )
        entry: dict = {}
        for metric, series in sorted(series_by_metric.items()):
            record: dict = {"series": series}
            if is_gated(metric):
                best = max(item["value"] for item in series)
                floor = RATCHET_FRACTION * best
                old = (
                    previous.get(experiment, {})
                    .get(metric, {})
                    .get("floor")
                )
                if old is not None:
                    floor = max(floor, old)  # ratchet, never loosen
                record["floor"] = round(floor, 6)
            entry[metric] = record
        if entry:
            trajectory[experiment] = entry
    return trajectory


def check() -> list[str]:
    """Current records vs the committed trajectory floors."""
    if not TRAJECTORY_PATH.exists():
        return [f"{TRAJECTORY_PATH.name} missing — run `trajectory.py collect`"]
    with open(TRAJECTORY_PATH) as handle:
        trajectory = json.load(handle)

    failures = []
    for path in sorted(BENCH_DIR.glob("BENCH_*.json")):
        with open(path) as handle:
            current = json.load(handle)
        experiment = current.get("experiment", path.stem.lower())
        floors = trajectory.get(experiment, {})
        metrics = flatten_metrics(current)
        for metric, entry in floors.items():
            floor = entry.get("floor")
            if floor is None or is_retired(experiment, metric):
                continue
            value = metrics.get(metric)
            if value is None:
                failures.append(
                    f"{experiment}: gated metric {metric} vanished "
                    f"from {path.name}"
                )
            elif value < floor:
                failures.append(
                    f"{experiment}: {metric} = {value:.3f} fell below "
                    f"the recorded floor {floor:.3f} "
                    f"({RATCHET_FRACTION:.0%} of best-ever)"
                )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "mode",
        choices=("collect", "check"),
        help="collect: rewrite TRAJECTORY.json; check: gate against it",
    )
    args = parser.parse_args(argv)

    if args.mode == "collect":
        trajectory = collect()
        with open(TRAJECTORY_PATH, "w") as handle:
            json.dump(trajectory, handle, indent=2, sort_keys=True)
            handle.write("\n")
        gated = sum(
            1
            for metrics in trajectory.values()
            for entry in metrics.values()
            if "floor" in entry
        )
        print(
            f"wrote {TRAJECTORY_PATH.name}: {len(trajectory)} experiments, "
            f"{gated} gated metrics"
        )
        return 0

    failures = check()
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("trajectory ok: no gated metric below its recorded floor")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

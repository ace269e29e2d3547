"""End-to-end benchmark of the AL-VC control and data planes.

One command runs every workload, prints every metric by name with its
unit, checks the program's outputs and ends with one JSON line::

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace 0|1] [--size full|ci] [--out FILE]

Each repetition runs in a fresh single-threaded child process
(``workloads.py``), one child at a time, round-robin across the chosen
workloads.  ``--seconds`` fixes how many repetitions each workload gets
(its budget divided by the nominal repetition time), so a run measures
about that long and both sides of a comparison run the same inputs.
Repetition ``r`` of seed ``s`` draws its inputs from seed ``1000*s + r``.
With ``--trace 1`` each workload then replays repetition 0's inputs
twice more, back to back: once untraced (its twin) and once with every
layer's public callables wrapped (``trace.py``); the per-layer metrics
come from the traced one and ``trace_overhead`` compares the pair.

Metric names, units and bounds live in the repository's
``BENCHMARK.json``; golden outputs at seed 0 in ``golden.json``.  Exit
status is 0 when every check passed, 1 on a failed check or a crashed
repetition, 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = HERE / ".work"

#: Repetition sizes per ``--size``.  ``rep_s`` is one repetition's wall
#: time (child start to exit) on a 2-core x86 VM in its slower periods;
#: ``--seconds`` divided by it fixes the repetition count.
SIZES = {
    "full": {
        "chain-stream": {
            "n_racks": 512, "n_ops": 128, "commands": 10000, "live": 200,
            "rep_s": 3.5,
        },
        "tenant-month": {"n_racks": 128, "n_ops": 48, "days": 7.0,
                         "rep_s": 3.7},
        "flows-al": {"flows": 8000, "rate": 8000.0, "intra": 1.0,
                     "faults": 0, "horizon": 0.0, "rep_s": 7.5},
        "flows-mixed-faults": {"flows": 2000, "rate": 4000.0, "intra": 0.5,
                               "faults": 20, "horizon": 0.75, "rep_s": 4.0},
    },
    "ci": {
        "chain-stream": {
            "n_racks": 128, "n_ops": 32, "commands": 1000, "live": 200,
            "rep_s": 1.5,
        },
        "tenant-month": {"n_racks": 128, "n_ops": 48, "days": 1.0,
                         "rep_s": 1.2},
        "flows-al": {"flows": 1500, "rate": 8000.0, "intra": 1.0,
                     "faults": 0, "horizon": 0.0, "rep_s": 1.2},
        "flows-mixed-faults": {"flows": 400, "rate": 4000.0, "intra": 0.5,
                               "faults": 5, "horizon": 0.2, "rep_s": 1.2},
    },
}
WORKLOADS = tuple(SIZES["full"])

#: What ``throughput_per_s`` counts on each workload.
WORK_UNIT = {
    "chain-stream": "commands",
    "tenant-month": "epochs",
    "flows-al": "simulator events",
    "flows-mixed-faults": "simulator events",
}

#: A repetition that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 150


class RepetitionFailed(RuntimeError):
    """A child process crashed or timed out."""


def rep_seed(seed: int, rep: int) -> int:
    return 1000 * seed + rep


def summarize(values: list[float]) -> dict:
    """Median, quartiles and count (quartiles collapse for one value)."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values), "q1": q1, "q3": q3,
        "n": len(values), "values": values,
    }


def percentile(samples: list[float], fraction: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------
def child_env() -> dict:
    """Single-threaded children whose caches stay inside the checkout."""
    env = dict(os.environ)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["XDG_CACHE_HOME"] = str(WORK / "cache")
    env["TMPDIR"] = str(WORK / "tmp")
    return env


def run_child(env: dict, spec: dict) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), json.dumps(spec)],
            stdout=subprocess.PIPE, env=env, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise RepetitionFailed(
            f"{spec['workload']} repetition {spec['rep']} timed out"
        ) from None
    if proc.returncode != 0:
        raise RepetitionFailed(
            f"{spec['workload']} repetition {spec['rep']} exited "
            f"{proc.returncode}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------
def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True
    )
    return proc.stdout.strip() if proc.returncode == 0 else None


def _filesystem(path: Path) -> str | None:
    """The type of the filesystem holding ``path`` (longest mount prefix)."""
    try:
        mounts = Path("/proc/self/mounts").read_text().splitlines()
    except OSError:
        return None
    best, kind = "", None
    target = str(path.resolve())
    for line in mounts:
        fields = line.split()
        point = fields[1]
        inside = target == point or target.startswith(point.rstrip("/") + "/")
        if inside and len(point) > len(best):
            best, kind = point, fields[2]
    return kind


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def manifest(args, reps: dict, kernel: bool) -> dict:
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "cpu": _cpu_model(),
        "kernel_available": kernel,
        "alvc_no_ckernel_set": bool(os.environ.get("ALVC_NO_CKERNEL")),
        "journal_fs": _filesystem(WORK),
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "repetitions": reps,
        "trace": bool(args.trace),
    }


# ----------------------------------------------------------------------
# Aggregation and checks
# ----------------------------------------------------------------------
def end_to_end(spec: dict, results: list[dict]) -> dict:
    out = {}
    for metric in spec["end_to_end"]:
        values = [result[metric["name"]] for result in results]
        out[metric["name"]] = {
            **summarize(values), "unit": metric["unit"],
            "better": metric["better"],
        }
    return out


def per_layer(spec: dict, results: list[dict], twin: dict,
              traced: dict) -> dict:
    """Traced layer times and counts plus untraced latency/restore figures."""
    values: dict[str, float] = {**traced["layers"], **traced["counts"]}
    samples = [ms for result in results for ms in result.get(
        "provision_ms", ())]
    if samples:
        values["stack.provision_p50_ms"] = percentile(samples, 0.50)
        values["stack.provision_p99_ms"] = percentile(samples, 0.99)
    values["stack.provision_samples"] = len(samples)
    for name in ("replay_s", "snapshot_restore_s"):
        if name in results[0]:  # restores run in repetition 0 only
            values[f"service.restore.{name}"] = results[0][name]
    values["trace_overhead"] = traced["work_s"] / twin["work_s"] - 1.0
    return {
        metric["name"]: {
            "value": float(values.get(metric["name"], 0.0)),
            "unit": metric["unit"],
        }
        for metric in spec["per_layer"]
    }


def checks(args, workload: str, results: list[dict], replays: list[dict],
           golden) -> dict:
    """Parity in every repetition, goldens at seed 0, and repetition 0's
    twin and traced replays equal to it."""
    reference = results[0]["values"]
    report = {
        "values": reference,
        "parity": all(
            all(result["parity"].values()) for result in (*results, *replays)
        ),
        "golden": None,
        "replays_equal": None,
    }
    if args.seed == 0:
        expected = golden.get(args.size, {}).get(workload)
        report["golden"] = expected == reference
    if replays:
        report["replays_equal"] = all(
            replay["values"] == reference for replay in replays
        )
    report["passed"] = report["parity"] and all(
        report[key] is not False for key in ("golden", "replays_equal")
    )
    return report


def _show(value: float) -> str:
    return f"{value:.6g}"


def print_workload(name: str, summary: dict) -> None:
    print(f"== {name}: {summary['reps']} repetitions, throughput in "
          f"{WORK_UNIT[name]}")
    rows = {**summary["end_to_end"], "throughput_per_s (raw)": {
        **summary["throughput_per_s"], "unit": "1/s"}}
    for metric, stats in rows.items():
        print(f"  {metric:<22} {_show(stats['median']):>12} {stats['unit']:<8}"
              f" q1 {_show(stats['q1'])} q3 {_show(stats['q3'])}"
              f" n {stats['n']}")
    if "per_layer" in summary:
        for metric, entry in summary["per_layer"].items():
            if entry["value"]:  # layers this workload never calls: 0
                print(f"  {metric:<44} {_show(entry['value']):>12} "
                      f"{entry['unit']}")
    check = summary["checks"]
    print(f"  attempted {summary['attempted']} failed {summary['failed']};"
          f" parity {check['parity']} golden {check['golden']}"
          f" replays_equal {check['replays_equal']}")


# ----------------------------------------------------------------------
def parse_args(argv: list[str] | None) -> argparse.Namespace:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS,
                        default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="measurement budget per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    parser.add_argument("--out", type=Path,
                        help="write the full results document here")
    args = parser.parse_args(argv)
    args.spec = spec
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    env = child_env()
    for directory in ("cache", "tmp"):
        (WORK / directory).mkdir(parents=True, exist_ok=True)
    os.environ["XDG_CACHE_HOME"] = env["XDG_CACHE_HOME"]
    sys.path.insert(0, str(ROOT / "src"))
    from repro.sim.ckernel import kernel_available

    kernel = kernel_available()  # the first build happens off the clock
    golden = json.loads((HERE / "golden.json").read_text())
    reps = {
        workload: max(1, round(
            args.seconds / SIZES[args.size][workload]["rep_s"]
        ))
        for workload in args.workload
    }

    def spec_for(workload: str, rep: int, traced: bool) -> dict:
        return {
            "workload": workload, "rep": rep, "trace": traced,
            "seed": rep_seed(args.seed, rep), "work": str(WORK),
            "params": SIZES[args.size][workload],
        }

    results: dict[str, list[dict]] = {w: [] for w in args.workload}
    replays: dict[str, list[dict]] = {w: [] for w in args.workload}
    try:
        for rep in range(max(reps.values())):
            for workload in args.workload:
                if rep < reps[workload]:
                    results[workload].append(
                        run_child(env, spec_for(workload, rep, False))
                    )
        if args.trace:
            for workload in args.workload:
                for traced in (False, True):  # [twin, traced]
                    replays[workload].append(
                        run_child(env, spec_for(workload, 0, traced))
                    )
    except RepetitionFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    document = {"manifest": manifest(args, reps, kernel), "workloads": {}}
    for workload in args.workload:
        runs = results[workload]
        summary = {
            "reps": len(runs),
            "unit_of_work": WORK_UNIT[workload],
            "attempted": sum(result["attempted"] for result in runs),
            "failed": sum(result["failed"] for result in runs),
            "end_to_end": end_to_end(args.spec, runs),
            # Uncorrected wall-clock rate, for reference (not gated).
            "throughput_per_s": summarize(
                [result["throughput_per_s"] for result in runs]
            ),
            "checks": checks(args, workload, runs, replays[workload],
                             golden),
        }
        if "resolved" in runs[0]:
            summary["resolved"] = runs[0]["resolved"]
        if replays[workload]:
            summary["per_layer"] = per_layer(args.spec, runs,
                                             *replays[workload])
            # The traced phases' wall time: layer and bench self times
            # sum to it.
            summary["traced_root_s"] = replays[workload][1]["root_s"]
        document["workloads"][workload] = summary
        print_workload(workload, summary)
    document["manifest"]["numpy"] = results[args.workload[0]][0]["numpy"]
    for summary in document["workloads"].values():
        if "resolved" in summary:
            document["manifest"].update(summary["resolved"])
    document["correct"] = all(
        summary["checks"]["passed"]
        for summary in document["workloads"].values()
    )
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(document, indent=1) + "\n")

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for workload, summary in document["workloads"].items():
        prefix = "" if len(args.workload) == 1 else f"{workload}/"
        for name, entry in summary[section].items():
            metrics[prefix + name] = {
                "value": entry["value" if args.trace else "median"],
                "unit": entry["unit"],
            }
    print(json.dumps({
        "correct": document["correct"],
        "attempted": sum(s["attempted"] for s in
                         document["workloads"].values()),
        "failed": sum(s["failed"] for s in document["workloads"].values()),
        "metrics": metrics,
    }))
    return 0 if document["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

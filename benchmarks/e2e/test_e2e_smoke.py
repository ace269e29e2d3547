"""CI smoke of the end-to-end benchmark: schema, checks, attribution.

Runs ``run.py --size ci --seconds 1 --trace 1`` (one repetition per
workload, plus its untraced twin and the traced replay) and asserts the
result schema, every correctness gate, and that each workload's layer
self times plus the bench-side root's self time sum to the traced
phases' wall time.  It asserts no speed.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def run_smoke(out: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--size", "ci",
         "--seconds", "1", "--trace", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )


def test_e2e_smoke(benchmark):
    out = HERE / ".work" / "smoke.json"
    proc = benchmark.pedantic(run_smoke, args=(out,), rounds=1,
                              iterations=1)
    assert proc.returncode == 0, proc.stderr
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {metric["name"] for metric in spec["end_to_end"]}
    layers = {metric["name"] for metric in spec["per_layer"]}

    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert last["failed"] == 0 and last["attempted"] >= 1

    document = json.loads(out.read_text())
    assert document["correct"] is True
    assert document["manifest"]["size"] == "ci"
    for workload in (entry["name"] for entry in spec["workloads"]):
        summary = document["workloads"][workload]
        checks = summary["checks"]
        assert checks["parity"] is True, workload
        assert checks["golden"] is True, workload
        assert checks["replays_equal"] is True, workload
        assert set(summary["end_to_end"]) == e2e
        assert all(stats["median"] > 0
                   for stats in summary["end_to_end"].values())
        assert set(summary["per_layer"]) == layers
        self_times = sum(
            entry["value"]
            for name, entry in summary["per_layer"].items()
            if name.endswith(".self_s")
        )
        root = summary["traced_root_s"]
        assert abs(self_times - root) <= 0.01 * root, workload
        assert summary["per_layer"]["bench.share"]["value"] <= 0.05

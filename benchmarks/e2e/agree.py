"""Do two result files of ``run.py --out`` agree within the bounds?

    python3 benchmarks/e2e/agree.py A.json B.json

For every (workload, end-to-end metric) pair in both files it prints
both medians and quartiles, the relative gap of B's median from A's, and
the metric's bound from ``BENCHMARK.json``.  A pair is *unresolved* when
either file's interquartile range is wider than the bound: its spread
cannot tell a change of that size from noise.  Exit status 1 when any
gap exceeds its bound.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def compare(a: dict, b: dict, bounds: dict[str, float]) -> list[dict]:
    rows = []
    for workload, summary in a["workloads"].items():
        other = b["workloads"].get(workload)
        if other is None:
            continue
        for metric, first in summary["end_to_end"].items():
            second = other["end_to_end"][metric]
            bound = bounds[metric]
            gap = (second["median"] - first["median"]) / first["median"]
            spread = max(
                (stats["q3"] - stats["q1"]) / stats["median"]
                for stats in (first, second)
            )
            rows.append({
                "workload": workload, "metric": metric, "a": first,
                "b": second, "gap": gap, "bound": bound,
                "unresolved": spread > bound,
                "agree": abs(gap) <= bound,
            })
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    rows = compare(a, b, bounds)
    print(f"{'workload':<19}{'metric':<18}{'A median [q1, q3]':>34}"
          f"{'B median [q1, q3]':>34}{'gap':>8}{'bound':>7}  verdict")
    for row in rows:
        cells = [
            f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"
            for s in (row["a"], row["b"])
        ]
        verdict = "agree" if row["agree"] else "DISAGREE"
        if row["unresolved"]:
            verdict += " (unresolved)"
        print(f"{row['workload']:<19}{row['metric']:<18}{cells[0]:>34}"
              f"{cells[1]:>34}{row['gap']:>+8.3f}{row['bound']:>7.2f}"
              f"  {verdict}")
    return 0 if all(row["agree"] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

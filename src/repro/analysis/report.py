"""The experiment registry, and a one-shot markdown report over it.

:data:`EXPERIMENTS` declares each experiment once: its id, a one-line
description and the tables it prints, each made by one procedure
(nearly all from :mod:`repro.analysis.experiments`).  ``python -m
repro.cli list``, ``run`` and ``report`` all read it, through
:func:`run_experiment`.

``generate_report`` runs the experiments and renders their tables into
a single markdown document — the artifact to attach to a reproduction
claim.  Exposed as ``python -m repro.cli report [PATH]``.
"""

from __future__ import annotations

import inspect
import time
from pathlib import Path
from typing import Any, Callable, NamedTuple

from repro.analysis import experiments
from repro.analysis.reporting import format_value
from repro.analysis.topology_metrics import core_layout_comparison


class Table(NamedTuple):
    """One printed table: its title and the procedure making its rows.

    A procedure that returns several tables in one dict names this
    table's entry by ``key``; it runs once per experiment run.
    """

    title: str
    procedure: Callable[..., Any]
    key: str | None = None


class Experiment:
    """One experiment: a description, the tables it prints, and the
    keyword arguments each table's procedure is called with."""

    def __init__(self, description: str, *tables: Table, **kwargs: Any):
        self.description = description
        self.tables = tables
        self.kwargs = kwargs


def _fig4_example() -> list[dict]:
    """Fig. 4's worked example as a one-row table."""
    example = experiments.experiment_fig4_worked_example()
    return [
        {
            "tor_weights": str(example["tor_weights"]),
            "tors_considered": "->".join(example["tor_considered"]),
            "tors_selected": "->".join(example["tor_selected"]),
            "final_al": ",".join(example["al"]),
        }
    ]


def _fig8_example() -> list[dict]:
    """Fig. 8's worked example as a one-row table."""
    example = experiments.experiment_fig8_worked_example()
    return [
        {
            "chain": "->".join(example["chain"]),
            "before_conversions": example["before_conversions"],
            "after_conversions": example["after_conversions"],
            "saved": example["saved"],
            "vnfs_optical_after": example["after_optical"],
        }
    ]


#: Experiment id -> declaration, in the paper's order (Figs. 1–8, then
#: E9–E26).  Scalar worked examples become one-row tables so every
#: experiment prints and exports uniformly.
EXPERIMENTS: dict[str, Experiment] = {
    "fig1": Experiment(
        "Service clustering vs flat DCN (traffic locality)",
        Table(
            "Fig. 1 — traffic locality",
            experiments.experiment_fig1_clustering,
            "traffic",
        ),
        Table(
            "Fig. 1 — cluster census",
            experiments.experiment_fig1_clustering,
            "census",
        ),
    ),
    "fig2": Experiment(
        "AL-VC fabric vs fat-tree (census, path lengths)",
        Table(
            "Fig. 2 — fabric census and path lengths",
            experiments.experiment_fig2_topology,
        ),
    ),
    "fig3": Experiment(
        "Disjoint per-service abstraction layers",
        Table(
            "Fig. 3 — per-cluster abstraction layers",
            experiments.experiment_fig3_clusters,
        ),
    ),
    "fig4": Experiment(
        "AL construction worked example + strategy sweep",
        Table("Fig. 4 — worked example", _fig4_example),
        Table(
            "Fig. 4 — AL size per construction strategy",
            experiments.experiment_fig4_strategy_sweep,
        ),
    ),
    "fig5": Experiment(
        "Three NFCs, each on its own path",
        Table(
            "Fig. 5 — per-chain paths",
            experiments.experiment_fig5_nfc_paths,
        ),
    ),
    "fig6": Experiment(
        "Orchestration action census (NFV functional blocks)",
        Table(
            "Fig. 6 — orchestration action census",
            experiments.experiment_fig6_orchestration,
        ),
    ),
    "fig7": Experiment(
        "One optical slice per NFC, to exhaustion",
        Table(
            "Fig. 7 — slice allocation and rejection",
            experiments.experiment_fig7_slicing,
        ),
    ),
    "fig8": Experiment(
        "VNF placement saving O/E/O conversions",
        Table("Fig. 8 — worked example", _fig8_example),
        Table(
            "Fig. 8 — conversions per placement algorithm",
            experiments.experiment_fig8_sweep,
        ),
    ),
    "e9": Experiment(
        "Optimality gap of AL construction heuristics",
        Table(
            "E9 — AL size vs exact optimum",
            experiments.experiment_e9_optimality_gap,
        ),
    ),
    "e10": Experiment(
        "Network-update cost under churn (AL-VC vs flat)",
        Table(
            "E10 — switches touched per churn event",
            experiments.experiment_e10_update_cost,
        ),
    ),
    "e11": Experiment(
        "AL construction scalability (64 -> 2048 servers)",
        Table(
            "E11 — AL construction vs fabric size",
            experiments.experiment_e11_scalability,
        ),
    ),
    "e12": Experiment(
        "O/E/O conversion energy vs optical capacity",
        Table(
            "E12 — conversion energy vs capacity",
            experiments.experiment_e12_energy,
        ),
    ),
    "e13": Experiment(
        "Incremental AL reconfiguration vs full rebuild",
        Table(
            "E13 — switches touched: incremental repair vs rebuild",
            experiments.experiment_e13_reconfiguration,
        ),
    ),
    "e14": Experiment(
        "Per-chain traffic cost with transport energy",
        Table(
            "E14 — per-chain flow cost by placement policy",
            experiments.experiment_e14_chain_traffic,
        ),
    ),
    "e15": Experiment(
        "Flow completion times under load (fair-share DES)",
        Table(
            "E15 — flow completion time vs offered load",
            experiments.experiment_e15_flow_completion,
        ),
    ),
    "e16": Experiment(
        "Optical-core layout metrics (ref [29] ablation)",
        Table("E16 — optical-core layout metrics", core_layout_comparison),
    ),
    "e17": Experiment(
        "Live VM migration churn through the orchestrator",
        Table(
            "E17 — operational migration churn",
            experiments.experiment_e17_operational_migration,
        ),
    ),
    "e18": Experiment(
        "Traffic continuity under optical-switch failures",
        Table(
            "E18 — continuity under switch failures",
            experiments.experiment_e18_failure_continuity,
        ),
    ),
    "e20": Experiment(
        "Chaos recovery: AL-VC vs the random-AL baseline",
        Table(
            "E20 — self-healing under fault injection",
            experiments.experiment_e20_chaos_recovery,
        ),
    ),
    "e21": Experiment(
        "Control-plane throughput: set vs bitset vs parallel",
        Table(
            "E21 — AL constructions/sec per control-plane arm",
            experiments.experiment_e21_control_plane_throughput,
        ),
    ),
    "e22": Experiment(
        "Routing throughput: networkx vs the CSR path engine",
        Table(
            "E22 — AL-restricted paths/sec per routing arm",
            experiments.experiment_e22_routing_throughput,
        ),
    ),
    "e23": Experiment(
        "Durable service: group-commit throughput and restore",
        Table(
            "E23 — durable-service ops/sec per arm",
            experiments.experiment_e23_service_throughput,
        ),
    ),
    "e24": Experiment(
        "Certified optimality gaps: greedy vs exact MILP",
        Table(
            "E24 — greedy objective vs certified exact optimum",
            experiments.experiment_e24_exact_gap,
        ),
    ),
    "e25": Experiment(
        "Week-in-the-life churn soak: scaling, chaos, defrag",
        Table(
            "E25 — week-in-the-life churn soak",
            experiments.experiment_e25_week_in_the_life,
        ),
    ),
    # Smoke sizing: the full-scale run (8000 flows, 1M-flow soak) lives
    # in benchmarks/BENCH_e26.json; this keeps `run e26` interactive
    # while still exercising the batched arm and the spawned soak child.
    "e26": Experiment(
        "Vectorized data plane: event throughput and soak memory",
        Table(
            "E26 — vectorized data-plane throughput (smoke sizing)",
            experiments.experiment_e26_dataplane_throughput,
        ),
        n_flows=1200,
        arrival_rate=1200.0,
        soak_flows=20_000,
    ),
}


def _takes_workers(procedure: Callable[..., Any]) -> bool:
    return "workers" in inspect.signature(procedure).parameters


def sharded_experiments() -> list[str]:
    """Ids of the experiments whose sweeps shard across ``workers``."""
    return [
        exp_id
        for exp_id, experiment in EXPERIMENTS.items()
        if any(_takes_workers(table.procedure) for table in experiment.tables)
    ]


def run_experiment(exp_id: str, workers: int = 1) -> dict[str, list[dict]]:
    """Run one declared experiment; returns ``{table title: rows}``.

    ``workers`` reaches each procedure that accepts it: the seeded
    sweeps shard across that many processes, and their rows are
    identical for any count.

    Raises:
        KeyError: ``exp_id`` is not declared in :data:`EXPERIMENTS`.
    """
    experiment = EXPERIMENTS[exp_id]
    results: dict[Callable[..., Any], Any] = {}
    tables: dict[str, list[dict]] = {}
    for title, procedure, key in experiment.tables:
        if procedure not in results:
            kwargs = dict(experiment.kwargs)
            if _takes_workers(procedure):
                kwargs["workers"] = workers
            results[procedure] = procedure(**kwargs)
        result = results[procedure]
        tables[title] = result if key is None else result[key]
    return tables


def generate_report(
    *, include: tuple[str, ...] | None = None
) -> str:
    """Render the experiment tables as one markdown document.

    Args:
        include: experiment ids to run; defaults to all declared.

    Returns:
        The markdown text (also suitable for printing to a terminal).
    """
    chosen = sorted(include) if include is not None else sorted(EXPERIMENTS)
    unknown = [exp_id for exp_id in chosen if exp_id not in EXPERIMENTS]
    if unknown:
        raise ValueError(f"unknown experiment id(s): {', '.join(unknown)}")

    lines = [
        "# AL-VC reproduction report",
        "",
        "Auto-generated by `repro.analysis.report`; every table below is",
        "also asserted by a benchmark in `benchmarks/` (shape checks) and",
        "regenerable via `python -m repro.cli run <id>`.",
        "",
    ]
    for exp_id in chosen:
        start = time.perf_counter()
        tables = run_experiment(exp_id)
        elapsed = time.perf_counter() - start
        lines.append(f"## {exp_id} — {EXPERIMENTS[exp_id].description}")
        lines.append("")
        for title, rows in tables.items():
            lines.append(f"### {title}")
            lines.append("")
            lines.append(_markdown_table(rows))
            lines.append("")
        lines.append(f"*generated in {elapsed * 1e3:.0f} ms*")
        lines.append("")
    return "\n".join(lines)


def write_report(
    path: str | Path, *, include: tuple[str, ...] | None = None
) -> Path:
    """Generate the report and write it to ``path``."""
    target = Path(path)
    target.write_text(generate_report(include=include))
    return target


def _markdown_table(rows) -> str:
    if not rows:
        return "*(no rows)*"
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    header = "| " + " | ".join(columns) + " |"
    rule = "|" + "|".join(" --- " for _ in columns) + "|"
    body = [
        "| "
        + " | ".join(format_value(row.get(name, "")) for name in columns)
        + " |"
        for row in rows
    ]
    return "\n".join([header, rule, *body])

"""Command-line experiment runner.

Run any of the paper-reproduction experiments from a shell::

    python -m repro.cli list
    python -m repro.cli run fig4 fig8
    python -m repro.cli run all --export-dir results/
    python -m repro.cli report REPORT.md

Each experiment prints the same rows/series its benchmark asserts, and
``--export-dir`` additionally writes every table as CSV.  The
experiments are declared once, in
:data:`repro.analysis.report.EXPERIMENTS`; the CLI only reads that
registry.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from repro.analysis.export import save_rows
from repro.analysis.report import (
    EXPERIMENTS,
    generate_report,
    run_experiment,
    sharded_experiments,
    write_report,
)
from repro.analysis.reporting import render_table
from repro.observability.runtime import resolve, use_telemetry

#: Defaults for the ``--chaos`` option; every key may be overridden in
#: the ``key=value,key=value`` spec.
_CHAOS_DEFAULTS: dict[str, float] = {
    "seed": 0,
    "rate": 0.2,
    "duration": 40.0,
    "repair_after": 8.0,
    "flows": 120,
}


def _parse_chaos(spec: str) -> dict:
    """Parse ``--chaos seed=N,rate=R[,duration=D,...]`` into kwargs.

    Raises:
        ValueError: on an unknown key or a malformed entry.
    """
    options = dict(_CHAOS_DEFAULTS)
    for entry in filter(None, spec.split(",")):
        key, separator, value = entry.partition("=")
        key = key.strip()
        if not separator or key not in options:
            raise ValueError(
                f"bad --chaos entry {entry!r} (known keys: "
                f"{', '.join(sorted(_CHAOS_DEFAULTS))})"
            )
        options[key] = (
            int(value) if key in ("seed", "flows") else float(value)
        )
    return options


def _run_chaos(options: dict) -> dict:
    """One seeded chaos run through the facade; returns printable tables."""
    from repro.chaos import RecoveryPolicy
    from repro.stack import AlvcStack

    seed = int(options["seed"])
    stack = AlvcStack.build(seed=seed)
    for service, functions in (
        ("web", ("firewall", "nat")),
        ("database", ("load-balancer", "proxy")),
    ):
        stack.provision(functions, service=service)
    report = stack.inject_faults(
        seed=seed,
        rate=float(options["rate"]),
        duration=float(options["duration"]),
        repair_after=float(options["repair_after"]),
        n_flows=int(options["flows"]),
        policy=RecoveryPolicy(seed=seed),
    )
    tables = {
        "Chaos — run summary": [
            {"metric": name, "value": value}
            for name, value in sorted(report.summary().items())
        ]
    }
    rows = report.to_rows()
    if rows:
        tables["Chaos — per-failure recoveries"] = rows
    return tables


#: ``--build`` keys that are :class:`~repro.config.EngineConfig`
#: selectors rather than :meth:`AlvcStack.build` arguments; they fold
#: into the ``engines=`` mapping (e.g. ``--build "solver=exact"``).
#: ``workers`` is the one non-string selector and coerces to int.
_ENGINE_BUILD_KEYS = (
    "cover_kernel",
    "routing",
    "solver",
    "workers",
)


def _parse_build(spec: str) -> dict:
    """Parse ``--build key=value,key=value`` into build kwargs.

    Values coerce in order: bool (``true``/``false``), int, float, and
    finally plain string — enough for every scalar
    :meth:`AlvcStack.build` argument.  Engine selectors
    (``cover_kernel``, ``routing``, ``solver``, ``workers``) fold into
    the ``engines=`` mapping, so ``--build "n_racks=8,solver=exact"``
    serves a stack on the certified exact solvers.

    Raises:
        ValueError: on an entry with no ``=``.
    """
    options: dict = {}
    for entry in filter(None, spec.split(",")):
        key, separator, value = entry.partition("=")
        key = key.strip()
        value = value.strip()
        if not separator or not key:
            raise ValueError(
                f"bad --build entry {entry!r} (want key=value)"
            )
        if key in _ENGINE_BUILD_KEYS:
            options.setdefault("engines", {})[key] = (
                int(value) if key == "workers" else value
            )
            continue
        if value.lower() in ("true", "false"):
            options[key] = value.lower() == "true"
            continue
        try:
            options[key] = int(value)
        except ValueError:
            try:
                options[key] = float(value)
            except ValueError:
                options[key] = value
    return options


def _service_request(payload: dict):
    """Map one JSON-lines payload to a typed front-end request.

    Raises:
        ValueError: unknown ``op``.
        KeyError: a required field is missing.
    """
    from repro.service import (
        FaultReport,
        ProvisionRequest,
        RepairReport,
        TeardownRequest,
    )

    kind = payload.get("op")
    if kind == "provision":
        return ProvisionRequest(
            tuple(payload["chain"]),
            service=payload["service"],
            tenant=payload.get("tenant", "tenant-0"),
            chain_id=payload.get("chain_id"),
            flow_size_gb=float(payload.get("flow_size_gb", 1.0)),
            bandwidth_gbps=float(payload.get("bandwidth_gbps", 1.0)),
        )
    if kind == "teardown":
        return TeardownRequest(payload["chain_id"])
    if kind == "fault":
        return FaultReport(payload["ops"])
    if kind == "repair":
        return RepairReport(payload["ops"])
    raise ValueError(
        f"unknown op {kind!r} (want provision/teardown/fault/repair)"
    )


def _serve(args) -> int:
    """``serve``: a JSON-lines request loop over a durable state dir.

    One request per stdin line, one JSON response per stdout line, in
    submission order.  Requests are admitted through the async batched
    front-end, so bursts share group commits; every committed op is in
    the journal before its response is printed.
    """
    import asyncio
    import collections
    import json

    from repro.exceptions import ALVCError
    from repro.service import ControlPlaneService

    try:
        build_options = _parse_build(args.build) if args.build else {}
        service = ControlPlaneService.open(
            args.state, sync=args.sync, **build_options
        )
    except (ValueError, ALVCError) as error:
        print(str(error), file=sys.stderr)
        return 2

    def emit(response=None, *, error: str | None = None) -> None:
        if response is not None:
            record = {
                "id": response.request_id,
                "op": response.kind,
                "ok": response.ok,
                "detail": response.detail,
                "error": response.error,
                "latency_ms": round(response.latency_s * 1e3, 3),
            }
        else:
            record = {"id": None, "ok": False, "error": error}
        print(json.dumps(record), flush=True)

    async def session() -> None:
        loop = asyncio.get_running_loop()
        pending: collections.deque = collections.deque()

        def drain_ready() -> None:
            while pending and pending[0].done():
                emit(pending.popleft().result())

        async with service.stack.serve(
            max_queue=args.max_queue, max_batch=args.max_batch
        ) as frontend:
            while True:
                line = await loop.run_in_executor(None, sys.stdin.readline)
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    request = _service_request(json.loads(line))
                except (ValueError, KeyError) as exc:
                    emit(error=f"bad request: {exc}")
                    continue
                waiter = frontend.offer(request)
                if waiter is None:
                    emit(error="queue full: request rejected")
                    continue
                pending.append(asyncio.ensure_future(waiter))
                drain_ready()
            while pending:
                emit(await pending.popleft())

    try:
        asyncio.run(session())
        if args.snapshot_on_exit:
            service.snapshot()
    finally:
        service.close()
    return 0


def _workload(args) -> int:
    """``workload``: one seeded long-horizon churn soak on a fresh stack.

    Draws a scenario from the seed, plays it through
    :meth:`AlvcStack.run_workload` (admission control, elastic scaling,
    optional chaos and migration storms) and prints the
    :class:`~repro.workload.WorkloadReport` as tables.  With ``--state``
    the run is journaled into a durable directory; ``--verify-replay``
    restores the stack from that journal afterwards and asserts the
    replayed control plane is digest-identical to the live one.
    """
    import tempfile
    from pathlib import Path as _Path

    from repro.exceptions import ALVCError
    from repro.stack import AlvcStack
    from repro.workload import AdmissionPolicy, ScenarioConfig

    try:
        build_options = _parse_build(args.build) if args.build else {}
        config = ScenarioConfig(
            days=args.days,
            epochs_per_day=args.epochs_per_day,
            arrival_rate=args.arrival_rate,
            mean_lifetime_epochs=args.mean_lifetime,
            slots=args.slots,
        )
        policy = AdmissionPolicy(
            defrag_threshold=args.defrag_threshold,
            defrag_period=args.defrag_period,
        )
    except (ValueError, ALVCError) as error:
        print(str(error), file=sys.stderr)
        return 2
    # Slots share clusters across a tenant's chains, so the stack must
    # allow multiple chains per cluster unless the caller overrides it.
    build_options.setdefault("exclusive_chains", False)
    scratch = None
    state_dir = args.state
    if state_dir is None and args.verify_replay:
        scratch = tempfile.TemporaryDirectory(prefix="alvc-workload-")
        state_dir = scratch.name
    try:
        if state_dir is not None:
            directory = _Path(state_dir)
            directory.mkdir(parents=True, exist_ok=True)
            build_options["journal"] = directory / "journal.alvc"
            build_options["sync"] = args.sync
        # The workload seed doubles as the fabric seed unless --build
        # names its own.
        build_options.setdefault("seed", args.seed)
        try:
            stack = AlvcStack.build(**build_options)
            report = stack.run_workload(
                seed=args.seed,
                config=config,
                admission=policy,
                chaos_rate=args.chaos_rate,
                chaos_repair_after=args.repair_after,
                storm_period=args.storm_period,
                storm_size=args.storm_size,
            )
        except (TypeError, ALVCError) as error:
            print(str(error), file=sys.stderr)
            return 2
        summary = report.to_dict()
        rejections = summary.pop("rejections", {})
        tables = {
            "Workload — run summary": [
                {"metric": name, "value": value}
                for name, value in sorted(summary.items())
            ]
        }
        if rejections:
            tables["Workload — rejection reasons"] = [
                {"reason": reason, "tenants": count}
                for reason, count in sorted(rejections.items())
            ]
        replay_ok = True
        if args.verify_replay:
            from repro.service.snapshot import state_digest

            stack.journal.close()
            restored = AlvcStack.restore(build_options["journal"])
            replay_ok = state_digest(restored) == report.state_digest
            restored.journal.close()
            tables["Workload — journal replay"] = [
                {
                    "journal_records": report.journal_records,
                    "digest": report.state_digest[:12],
                    "replay_identical": replay_ok,
                }
            ]
        elif state_dir is not None:
            stack.journal.close()
        for title, rows in tables.items():
            print(render_table(rows, title=title))
        return 0 if replay_ok else 1
    finally:
        if scratch is not None:
            scratch.cleanup()


def _slug(title: str) -> str:
    keep = [c if c.isalnum() else "-" for c in title.lower()]
    collapsed = "".join(keep)
    while "--" in collapsed:
        collapsed = collapsed.replace("--", "-")
    return collapsed.strip("-")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description="Run AL-VC paper-reproduction experiments.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list available experiments")
    report_parser = subparsers.add_parser(
        "report", help="run every experiment into one markdown report"
    )
    report_parser.add_argument(
        "path",
        nargs="?",
        default=None,
        metavar="PATH",
        help="write the report here instead of stdout",
    )
    serve_parser = subparsers.add_parser(
        "serve",
        help="durable control-plane service: JSON-lines requests on "
        "stdin, responses on stdout",
    )
    serve_parser.add_argument(
        "--state",
        required=True,
        metavar="DIR",
        help="state directory (journal + snapshot); restored when it "
        "already has a journal, initialized otherwise",
    )
    serve_parser.add_argument(
        "--sync",
        choices=("always", "off"),
        default="always",
        help="journal durability mode (default: always — fsync per "
        "group commit)",
    )
    serve_parser.add_argument(
        "--build",
        metavar="SPEC",
        default=None,
        help="AlvcStack.build arguments for a fresh state directory as "
        "'key=value,key=value' (e.g. 'n_racks=8,seed=3'); rejected "
        "when the directory already has a journal",
    )
    serve_parser.add_argument(
        "--max-batch",
        type=int,
        default=64,
        metavar="N",
        help="largest request batch one group commit admits",
    )
    serve_parser.add_argument(
        "--max-queue",
        type=int,
        default=1024,
        metavar="N",
        help="bounded request queue depth (overflow is rejected)",
    )
    serve_parser.add_argument(
        "--snapshot-on-exit",
        action="store_true",
        help="write a snapshot after the request stream ends, bounding "
        "the next restore's replay work",
    )
    workload_parser = subparsers.add_parser(
        "workload",
        help="seeded long-horizon churn soak (tenant arrivals, elastic "
        "scaling, chaos) with optional journal-replay verification",
    )
    workload_parser.add_argument(
        "--days", type=float, default=1.0, help="simulated days (default: 1)"
    )
    workload_parser.add_argument(
        "--epochs-per-day",
        type=int,
        default=24,
        metavar="N",
        help="scheduling rounds per simulated day",
    )
    workload_parser.add_argument(
        "--seed", type=int, default=0, help="scenario and stack seed"
    )
    workload_parser.add_argument(
        "--slots",
        type=int,
        default=8,
        metavar="N",
        help="concurrent tenant service slots (one AL each)",
    )
    workload_parser.add_argument(
        "--arrival-rate",
        type=float,
        default=1.0,
        metavar="R",
        help="mean tenant arrivals per epoch before diurnal modulation",
    )
    workload_parser.add_argument(
        "--mean-lifetime",
        type=float,
        default=12.0,
        metavar="EPOCHS",
        help="mean tenant lifetime in epochs (exponential)",
    )
    workload_parser.add_argument(
        "--chaos-rate",
        type=float,
        default=0.0,
        metavar="R",
        help="OPS fault-injection rate per epoch (0 disables chaos)",
    )
    workload_parser.add_argument(
        "--repair-after",
        type=float,
        default=2.0,
        metavar="EPOCHS",
        help="epochs between an injected fault and its repair",
    )
    workload_parser.add_argument(
        "--storm-period",
        type=int,
        default=0,
        metavar="N",
        help="fire a VM migration storm every N epochs (0 disables)",
    )
    workload_parser.add_argument(
        "--storm-size",
        type=int,
        default=2,
        metavar="N",
        help="VMs migrated per storm",
    )
    workload_parser.add_argument(
        "--defrag-threshold",
        type=float,
        default=0.5,
        metavar="F",
        help="fragmentation level that triggers re-embedding",
    )
    workload_parser.add_argument(
        "--defrag-period",
        type=int,
        default=12,
        metavar="N",
        help="epochs between defragmentation checks",
    )
    workload_parser.add_argument(
        "--state",
        metavar="DIR",
        default=None,
        help="journal the run into this directory (restorable later "
        "with ControlPlaneService.open / AlvcStack.restore)",
    )
    workload_parser.add_argument(
        "--sync",
        choices=("always", "off"),
        default="off",
        help="journal durability mode when --state is given "
        "(default: off — soaks favour speed over fsync)",
    )
    workload_parser.add_argument(
        "--verify-replay",
        action="store_true",
        help="after the soak, restore the stack from its journal and "
        "verify the replayed state digest matches the live one "
        "(uses a temporary directory when --state is omitted); "
        "exit code 1 on mismatch",
    )
    workload_parser.add_argument(
        "--build",
        metavar="SPEC",
        default=None,
        help="AlvcStack.build arguments as 'key=value,key=value' "
        "(e.g. 'n_racks=16,n_ops=16'); exclusive_chains defaults "
        "to false so tenant chains can share cluster slices",
    )
    run_parser = subparsers.add_parser("run", help="run experiments by id")
    run_parser.add_argument(
        "experiments",
        nargs="+",
        metavar="EXPERIMENT",
        help=f"experiment ids ({', '.join(sorted(EXPERIMENTS))}) or 'all'",
    )
    run_parser.add_argument(
        "--export-dir",
        metavar="DIR",
        default=None,
        help="also write every table as CSV into this directory",
    )
    run_parser.add_argument(
        "--chaos",
        metavar="SPEC",
        default=None,
        help=(
            "append a seeded chaos run: 'seed=N,rate=R' (optional "
            "duration=, repair_after=, flows=); the fault schedule is "
            "replayed through the orchestrator and the event-driven "
            "simulator and the ChaosReport is printed as tables"
        ),
    )
    run_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help=(
            f"shard the seeded sweeps ({', '.join(sharded_experiments())}) "
            "across N worker processes; results are identical for any N "
            "(default: 1, fully in-process)"
        ),
    )
    run_parser.add_argument(
        "--telemetry",
        choices=("json", "prom", "off"),
        default="off",
        help=(
            "collect control-plane metrics/traces while the experiments "
            "run and print them afterwards (json: snapshot; prom: "
            "Prometheus text format; off: zero-cost no-op, the default)"
        ),
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "serve":
        return _serve(args)
    if args.command == "workload":
        return _workload(args)
    if args.command == "list":
        for exp_id in sorted(EXPERIMENTS):
            print(f"{exp_id:<6} {EXPERIMENTS[exp_id].description}")
        return 0
    if args.command == "report":
        if args.path is None:
            print(generate_report())
        else:
            target = write_report(args.path)
            print(f"report written to {target}")
        return 0
    requested = list(args.experiments)
    if requested == ["all"]:
        requested = sorted(EXPERIMENTS)
    unknown = [exp_id for exp_id in requested if exp_id not in EXPERIMENTS]
    if unknown:
        print(
            f"unknown experiment(s): {', '.join(unknown)} (try 'list')",
            file=sys.stderr,
        )
        return 2
    # (CSV prefix, table producer) per run, the chaos run last.
    runs = [
        (exp_id, functools.partial(run_experiment, exp_id, args.workers))
        for exp_id in requested
    ]
    if args.chaos is not None:
        try:
            chaos_options = _parse_chaos(args.chaos)
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return 2
        runs.append(("chaos", functools.partial(_run_chaos, chaos_options)))
    export_dir = Path(args.export_dir) if args.export_dir else None
    if export_dir is not None:
        export_dir.mkdir(parents=True, exist_ok=True)
    mode = args.telemetry
    telemetry = resolve(mode != "off")
    # Experiments build their own orchestrators/simulators, which pick
    # up the ambient telemetry at construction — so install ours for
    # the duration of the run.
    with use_telemetry(telemetry):
        for index, (prefix, produce) in enumerate(runs):
            if index:
                print()
            for title, rows in produce().items():
                print(render_table(rows, title=title))
                if export_dir is not None:
                    target = export_dir / f"{prefix}-{_slug(title)}.csv"
                    save_rows(rows, target)
                    print(f"  [exported {target}]")
    if mode == "json":
        print()
        print(telemetry.to_json())
    elif mode == "prom":
        print()
        print(telemetry.to_prometheus(), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())

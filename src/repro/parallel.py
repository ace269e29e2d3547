"""Process-parallel execution of seeded experiment sweeps.

The experiment grids in :mod:`repro.analysis.experiments` are
embarrassingly parallel: every trial is a pure function of a seeded
parameter tuple (the fabric generators, AL constructors, and simulators
are all deterministic given their seeds).  :class:`SweepRunner` shards
such trials across a spawn-safe :class:`~concurrent.futures.\
ProcessPoolExecutor` while keeping three guarantees the serial code
gives for free:

* **Deterministic ordered merge** — results come back in the exact
  order of the submitted parameter list, regardless of worker count or
  chunk completion order, so ``workers=4`` output is bit-identical to
  ``workers=1`` (the parity suite in ``tests/parallel`` holds sweeps to
  that).
* **Telemetry rollup** — each worker records into its own fresh
  :class:`~repro.observability.Telemetry` and ships a snapshot back;
  the parent folds snapshots into its own registry with
  :meth:`~repro.observability.metrics.MetricsRegistry.merge_snapshot`
  in submission order (sums are the only order-independent
  combination, so the rolled-up registry is deterministic too).
* **In-process fallback** — ``workers=1`` runs trials inline under the
  parent telemetry with zero multiprocessing machinery, so library
  users and tests pay nothing for the parallel capability.

Trials must be **top-level (picklable) callables** taking one picklable
parameter and returning a picklable result — the same constraint any
``multiprocessing`` fan-out imposes.  That parameter also carries every
backend choice a trial needs (a cover kernel, an
:class:`~repro.config.EngineConfig`): the runner sets no process-global
selector, so a trial computes the same thing inline and in a worker.
The runner uses the ``spawn`` start method everywhere (fork is unsafe
with threads and unavailable on some platforms), which re-imports
:mod:`repro` in each worker; chunked task batches amortize that
interpreter start-up and, within a chunk, let consecutive trials share
warm caches.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from multiprocessing import get_context
from typing import Callable, Sequence

from repro.exceptions import ValidationError
from repro.observability import Telemetry, current_telemetry, use_telemetry

__all__ = ["SweepRunner", "run_sweep_chunk"]


def run_sweep_chunk(
    trial: Callable,
    params: Sequence,
    record_telemetry: bool,
) -> tuple[list, dict | None]:
    """Run one chunk of trials (executed inside a worker process).

    Top-level on purpose: the spawn start method pickles this function
    by qualified name.  Each chunk gets a fresh recording telemetry
    (when the parent records) and runs its trials in order.

    Returns:
        ``(results, metrics snapshot or None)``.
    """
    telemetry = (
        Telemetry.enabled_instance()
        if record_telemetry
        else Telemetry.disabled_instance()
    )
    with use_telemetry(telemetry):
        results = [trial(param) for param in params]
    snapshot = telemetry.registry.snapshot() if record_telemetry else None
    return results, snapshot


class SweepRunner:
    """Shards seeded experiment trials across worker processes.

    Args:
        workers: process count; ``1`` (the default) runs trials inline
            in this process under the parent telemetry.
        chunk_size: trials per worker task.  Defaults to
            ``ceil(len(params) / (workers * 4))`` — large enough to
            amortize spawn/import cost, small enough to keep all
            workers busy until the tail.
        telemetry: where worker metrics roll up (and what inline runs
            record into); defaults to the ambient
            :func:`~repro.observability.current_telemetry`.

    The runner installs no backend selector: a trial that needs a
    particular cover kernel or routing engine carries it in its
    parameter and passes it on (``kernel=``, ``engine=`` or an
    :class:`~repro.config.EngineConfig`).

    Raises:
        ValidationError: when ``workers`` is a bool, not an integer, or
            below 1, or ``chunk_size`` is below 1.
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        chunk_size: int | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        # ``True`` is an int to isinstance, but never a worker count.
        if (
            isinstance(workers, bool)
            or not isinstance(workers, int)
            or workers < 1
        ):
            raise ValidationError(
                f"SweepRunner needs an integer workers >= 1, got {workers!r}"
            )
        if chunk_size is not None and chunk_size < 1:
            raise ValidationError(
                f"SweepRunner needs chunk_size >= 1, got {chunk_size}"
            )
        self.workers = workers
        self.chunk_size = chunk_size
        self._telemetry = (
            telemetry if telemetry is not None else current_telemetry()
        )

    # ------------------------------------------------------------------
    @property
    def telemetry(self) -> Telemetry:
        """The parent telemetry worker metrics roll up into."""
        return self._telemetry

    def map(self, trial: Callable, params: Sequence) -> list:
        """Run ``trial`` over every parameter; results in ``params`` order.

        ``trial`` must be a top-level callable and each parameter (and
        result) picklable when ``workers > 1``.  The returned list is
        bit-identical for any worker count.
        """
        params = list(params)
        if not params:
            return []
        if self.workers == 1:
            return self._map_inline(trial, params)
        return self._map_parallel(trial, params)

    # ------------------------------------------------------------------
    def _map_inline(self, trial: Callable, params: list) -> list:
        started = time.perf_counter()
        with use_telemetry(self._telemetry):
            results = [trial(param) for param in params]
        self._record_sweep(len(params), chunks=1, started=started)
        return results

    def _chunks(self, params: list) -> list[list]:
        size = self.chunk_size
        if size is None:
            size = max(1, math.ceil(len(params) / (self.workers * 4)))
        return [params[i : i + size] for i in range(0, len(params), size)]

    def _map_parallel(self, trial: Callable, params: list) -> list:
        started = time.perf_counter()
        chunks = self._chunks(params)
        record = self._telemetry.enabled
        results_by_chunk: list[list | None] = [None] * len(chunks)
        snapshots: list[dict | None] = [None] * len(chunks)
        context = get_context("spawn")
        with ProcessPoolExecutor(
            max_workers=min(self.workers, len(chunks)),
            mp_context=context,
        ) as pool:
            pending = {
                pool.submit(run_sweep_chunk, trial, chunk, record): index
                for index, chunk in enumerate(chunks)
            }
            while pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    index = pending.pop(future)
                    chunk_results, snapshot = future.result()
                    results_by_chunk[index] = chunk_results
                    snapshots[index] = snapshot
        if record:
            registry = self._telemetry.registry
            # Submission order, not completion order: the rollup is the
            # same no matter which worker finished first.
            for snapshot in snapshots:
                if snapshot:
                    registry.merge_snapshot(snapshot)
        self._record_sweep(len(params), chunks=len(chunks), started=started)
        return [
            result
            for chunk_results in results_by_chunk
            for result in chunk_results  # type: ignore[union-attr]
        ]

    def _record_sweep(self, trials: int, *, chunks: int, started: float) -> None:
        if not self._telemetry.enabled:
            return
        label = str(self.workers)
        self._telemetry.counter(
            "alvc_sweep_trials_total",
            "sweep trials executed",
            workers=label,
        ).inc(trials)
        self._telemetry.counter(
            "alvc_sweep_chunks_total",
            "sweep task chunks dispatched",
            workers=label,
        ).inc(chunks)
        self._telemetry.histogram(
            "alvc_sweep_seconds",
            "wall-clock seconds per sweep map() call",
            workers=label,
        ).observe(time.perf_counter() - started)

"""The async batched request front-end.

Callers talk to the control plane through typed request objects —
:class:`ProvisionRequest`, :class:`TeardownRequest`,
:class:`FaultReport`, :class:`RepairReport` — submitted to a
:class:`RequestFrontend`.  The front-end owns a **bounded** asyncio
queue (submission backpressures instead of growing without limit) and a
drain task that admits requests in **batches**:

* every journal append inside one batch rides a single group commit —
  one fsync per batch instead of one per op (see
  :meth:`repro.service.journal.Journal.batch`);
* contiguous runs of provisions are admitted through
  :meth:`AlvcStack.provision_batch <repro.stack.AlvcStack.provision_batch>`,
  which amortizes per-cluster candidate scans across the run.

Those two levers are where E23's batched-vs-serial throughput win comes
from.  Execution itself stays synchronous and single-threaded — the
control plane is deterministic precisely because ops commit in queue
order; the front-end adds admission control and batching, not
concurrency inside the orchestrator.

Every submission resolves to a :class:`Response`; per-request failures
(quota, capacity, unknown ids) are *reported*, never raised across the
queue — one bad request cannot poison its batch.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from typing import TYPE_CHECKING, Sequence

from repro.core.placement import PlacementAlgorithm
from repro.exceptions import ALVCError, ValidationError
from repro.service.journal import NULL_RECORDER

if TYPE_CHECKING:
    import asyncio

#: Queue capacity when the caller does not choose one.
DEFAULT_MAX_QUEUE = 1024
#: Largest batch one drain admits when the caller does not choose one.
DEFAULT_MAX_BATCH = 64


# ----------------------------------------------------------------------
# Typed requests / responses
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True, slots=True)
class ProvisionRequest:
    """Ask for one NFC (mirrors :meth:`AlvcStack.provision`)."""

    chain: Sequence[str] | object
    service: str
    tenant: str = "tenant-0"
    chain_id: str | None = None
    flow_size_gb: float = 1.0
    bandwidth_gbps: float = 1.0
    algorithm: PlacementAlgorithm | None = None


@dataclasses.dataclass(frozen=True, slots=True)
class TeardownRequest:
    """Tear down one live chain."""

    chain_id: str


@dataclasses.dataclass(frozen=True, slots=True)
class FaultReport:
    """Report a crashed optical switch (drives self-healing)."""

    ops: str
    policy: object = None


@dataclasses.dataclass(frozen=True, slots=True)
class RepairReport:
    """Report a previously failed switch as repaired."""

    ops: str


@dataclasses.dataclass(frozen=True, slots=True)
class Response:
    """Outcome of one submitted request.

    Attributes:
        request_id: front-end-assigned serial (submission order).
        kind: ``"provision"`` / ``"teardown"`` / ``"fault"`` /
            ``"repair"``.
        ok: whether the operation committed.
        detail: operation-specific result payload (e.g. the provisioned
            ``chain_id``, conversion count, and path length).
        error: ``"ExceptionType: message"`` when ``ok`` is False.
        latency_s: submit-to-commit wall time.
    """

    request_id: int
    kind: str
    ok: bool
    detail: dict = dataclasses.field(default_factory=dict)
    error: str | None = None
    latency_s: float = 0.0


_KINDS = {
    ProvisionRequest: "provision",
    TeardownRequest: "teardown",
    FaultReport: "fault",
    RepairReport: "repair",
}


class _Pending:
    """A queued request plus its future and submission timestamp."""

    __slots__ = ("request_id", "request", "future", "submitted_at")

    def __init__(self, request_id, request, future):
        self.request_id = request_id
        self.request = request
        self.future = future
        self.submitted_at = time.perf_counter()


# ----------------------------------------------------------------------
# The front-end
# ----------------------------------------------------------------------
class RequestFrontend:
    """Bounded-queue, batch-admitting front door of one stack.

    Use as an async context manager (starts/stops the drain task), or
    call :meth:`start` / :meth:`stop` yourself::

        async with RequestFrontend(stack) as frontend:
            response = await frontend.submit(
                ProvisionRequest(("firewall", "nat"), service="web")
            )

    ``max_queue`` bounds memory: :meth:`submit` backpressures (awaits
    space) once the queue is full; :meth:`offer` rejects immediately
    instead.
    """

    def __init__(
        self,
        stack,
        *,
        max_queue: int = DEFAULT_MAX_QUEUE,
        max_batch: int = DEFAULT_MAX_BATCH,
    ) -> None:
        if max_queue < 1:
            raise ValidationError(
                f"max_queue must be >= 1, got {max_queue}"
            )
        if max_batch < 1:
            raise ValidationError(
                f"max_batch must be >= 1, got {max_batch}"
            )
        import asyncio

        self._stack = stack
        self._max_batch = max_batch
        self._queue: asyncio.Queue[_Pending] = asyncio.Queue(max_queue)
        self._serial = itertools.count()
        self._task: asyncio.Task | None = None
        self._telemetry = stack.telemetry

    # ------------------------------------------------------------------
    def _count(self, name: str, help: str, amount: int = 1) -> None:
        if self._telemetry.enabled:
            self._telemetry.counter(name, help).inc(amount)

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting for admission."""
        return self._queue.qsize()

    def _kind_of(self, request) -> str:
        kind = _KINDS.get(type(request))
        if kind is None:
            raise ValidationError(
                f"unknown request type {type(request).__name__}; expected "
                f"one of {', '.join(rt.__name__ for rt in _KINDS)}"
            )
        return kind

    async def submit(self, request) -> Response:
        """Enqueue one request and await its response.

        Backpressures (awaits queue space) when the queue is full.
        """
        import asyncio

        self._kind_of(request)
        pending = _Pending(
            next(self._serial),
            request,
            asyncio.get_running_loop().create_future(),
        )
        await self._queue.put(pending)
        self._count(
            "alvc_frontend_requests_total", "requests accepted"
        )
        return await pending.future

    def offer(self, request) -> "asyncio.Future[Response] | None":
        """Non-blocking submit: None when the queue is full (rejected)."""
        import asyncio

        self._kind_of(request)
        pending = _Pending(
            next(self._serial),
            request,
            asyncio.get_running_loop().create_future(),
        )
        try:
            self._queue.put_nowait(pending)
        except asyncio.QueueFull:
            self._count(
                "alvc_frontend_rejected_total",
                "requests rejected by the bounded queue",
            )
            return None
        self._count(
            "alvc_frontend_requests_total", "requests accepted"
        )
        return pending.future

    async def submit_all(self, requests: Sequence) -> list[Response]:
        """Submit many requests concurrently; responses in input order."""
        import asyncio

        return list(
            await asyncio.gather(
                *(self.submit(request) for request in requests)
            )
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the drain task (idempotent)."""
        import asyncio

        if self._task is None or self._task.done():
            self._task = asyncio.get_running_loop().create_task(
                self._drain_forever()
            )

    async def stop(self) -> None:
        """Admit everything already queued, then stop the drain task."""
        import asyncio

        while not self._queue.empty():
            self._drain_once()
            await asyncio.sleep(0)
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    async def __aenter__(self) -> "RequestFrontend":
        self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    async def _drain_forever(self) -> None:
        import asyncio

        while True:
            pending = await self._queue.get()
            batch = [pending]
            while (
                len(batch) < self._max_batch and not self._queue.empty()
            ):
                batch.append(self._queue.get_nowait())
            self._execute(batch)
            # Yield so submitters can observe their responses (and
            # refill the queue) before the next drain.
            await asyncio.sleep(0)

    def _drain_once(self) -> None:
        batch = []
        while len(batch) < self._max_batch and not self._queue.empty():
            batch.append(self._queue.get_nowait())
        if batch:
            self._execute(batch)

    # ------------------------------------------------------------------
    # Batch admission
    # ------------------------------------------------------------------
    def _execute(self, batch: list[_Pending]) -> None:
        """Admit one batch under a single journal group commit."""
        recorder = getattr(self._stack, "_recorder", NULL_RECORDER)
        journal = recorder.journal
        self._count("alvc_frontend_batches_total", "batches admitted")
        if self._telemetry.enabled:
            self._telemetry.histogram(
                "alvc_frontend_batch_size", "requests per admitted batch"
            ).observe(len(batch))
        if journal is not None and not journal.closed:
            with journal.batch():
                self._admit(batch)
        else:
            self._admit(batch)

    def _admit(self, batch: list[_Pending]) -> None:
        index = 0
        while index < len(batch):
            pending = batch[index]
            if isinstance(pending.request, ProvisionRequest):
                run = [pending]
                while index + len(run) < len(batch) and isinstance(
                    batch[index + len(run)].request, ProvisionRequest
                ):
                    run.append(batch[index + len(run)])
                self._admit_provisions(run)
                index += len(run)
            else:
                self._resolve(pending, self._apply_one(pending))
                index += 1

    def _admit_provisions(self, run: list[_Pending]) -> None:
        """Admit a contiguous run of provisions through the batch path."""
        outcomes = self._stack.provision_batch(
            [pending.request for pending in run], on_error="collect"
        )
        for pending, outcome in zip(run, outcomes):
            if isinstance(outcome, Exception):
                self._resolve(pending, error=outcome)
            else:
                self._resolve(
                    pending,
                    {
                        "chain_id": outcome.chain_id,
                        "conversions": outcome.conversions,
                        "path_length": len(outcome.path),
                    },
                )

    def _apply_one(self, pending: _Pending) -> dict | Exception:
        orchestrator = self._stack.orchestrator
        request = pending.request
        try:
            if isinstance(request, TeardownRequest):
                orchestrator.teardown_chain(request.chain_id)
                return {"chain_id": request.chain_id}
            if isinstance(request, FaultReport):
                recovery = orchestrator.handle_ops_failure(
                    request.ops, policy=request.policy
                )
                return {
                    "ops": request.ops,
                    "recovered": recovery.recovered,
                    "degraded_chains": list(recovery.degraded_chains),
                }
            if isinstance(request, RepairReport):
                orchestrator.mark_ops_repaired(request.ops)
                return {"ops": request.ops}
        except ALVCError as exc:
            return exc
        raise ValidationError(
            f"unhandled request type {type(request).__name__}"
        )

    def _resolve(
        self,
        pending: _Pending,
        detail: dict | Exception | None = None,
        error: Exception | None = None,
    ) -> None:
        if isinstance(detail, Exception):
            error, detail = detail, None
        latency = time.perf_counter() - pending.submitted_at
        if error is not None:
            self._count(
                "alvc_frontend_errors_total", "requests that failed"
            )
            response = Response(
                request_id=pending.request_id,
                kind=self._kind_of(pending.request),
                ok=False,
                error=f"{type(error).__name__}: {error}",
                latency_s=latency,
            )
        else:
            response = Response(
                request_id=pending.request_id,
                kind=self._kind_of(pending.request),
                ok=True,
                detail=detail or {},
                latency_s=latency,
            )
        if not pending.future.done():
            pending.future.set_result(response)

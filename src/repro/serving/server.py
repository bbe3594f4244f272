"""Async micro-batching front door: interactive traffic → batch speedups.

The repo's query surfaces stop at ``batch_query`` — great when one
caller already holds a block of queries, useless for the ROADMAP's
real-traffic setting where "millions of users" each arrive with a
*single* query over a socket.  :class:`AsyncIndexServer` closes that
gap: concurrent single-query requests are admitted into a bounded
queue, coalesced into micro-batches under a ``max_batch`` /
``max_wait_us`` window, executed on the snapshot's one loaded index
handle in a thread pool (up to ``replicas`` batches at once; NumPy
kernels release the GIL, so concurrent batches overlap their array
work), and fanned back out one result per request — so interactive
traffic rides the ×10–15 batch-query amortization instead of paying the
per-call overhead ``n`` times.

Design points:

* **Exactness.**  A coalesced batch is executed as one
  ``batch_query`` call, whose results are element-for-element
  identical to per-query calls (the repo-wide batch/loop parity
  invariant) — so coalescing is invisible in the responses.  Requests
  with different ``max_retrieved`` budgets are grouped and executed
  per budget, since a budget applies to a whole ``batch_query`` call.
* **Backpressure.**  Admission is a bounded ``asyncio.Queue``; when
  it is full the request is *shed* immediately with a typed
  :class:`ServerOverloadedError` rather than queued into collapse.
* **Health.**  A batch that fails with an infrastructure error
  (:class:`IndexIntegrityError`, ``OSError``, e.g. a shard file that can
  no longer be read) fails with that error and marks its generation
  unhealthy; later batches on it fail fast until
  :meth:`AsyncIndexServer.check_health` finds the files intact (the
  bundle, or every shard file of a sharded index) or
  :meth:`AsyncIndexServer.swap` replaces
  the generation.  There is nothing to reroute to: every batch of a
  generation runs on the same handle over the same bundle pages.
* **Hot swap.**  :meth:`AsyncIndexServer.swap` loads a new snapshot
  (O(1) mmap cold start), atomically redirects new batches to it,
  drains in-flight batches on the old generation, then closes it —
  zero downtime, and no batch ever mixes generations because a batch
  resolves its snapshot exactly once, at dispatch.
* **Observability.**  Every response is a :class:`ServedResult`
  carrying :class:`ServeStats` (queue wait, coalesce window, batch
  size, executor latency, snapshot generation); server-level
  counters (admitted/served/shed/failed/swaps) come from
  :meth:`AsyncIndexServer.metrics`.

:func:`serve_in_thread` wraps the event loop in a daemon thread and
returns a synchronous :class:`ServerHandle` that satisfies the same
:class:`~repro.index.queryable.Queryable` protocol as every local
index — local, sharded, and served indexes are drop-in
interchangeable.
"""

from __future__ import annotations

import asyncio
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.index.lsh_index import _check_budget, _check_single_query
from repro.index.persistence import IndexIntegrityError
from repro.serving.options import ServingOptions
from repro.serving.sharded import _probe_bundle

__all__ = [
    "AsyncIndexServer",
    "ServerHandle",
    "ServerOverloadedError",
    "ServeStats",
    "ServedResult",
    "serve_in_thread",
    "DEFAULT_MAX_BATCH",
    "DEFAULT_MAX_WAIT_US",
    "DEFAULT_MAX_PENDING",
]

#: Default micro-batch size cap: large enough to amortize per-call
#: overhead, small enough to keep tail latency bounded.
DEFAULT_MAX_BATCH = 64

#: Default coalescing window in microseconds — how long a batch head
#: waits for followers before dispatching short.
DEFAULT_MAX_WAIT_US = 2_000

#: Default bound on admitted-but-unserved requests before shedding.
DEFAULT_MAX_PENDING = 1_024

#: Infrastructure failures that mark a generation unhealthy (vs. request
#: errors, which fail only their own batch).
_HANDLE_ERRORS = (IndexIntegrityError, OSError)


class ServerOverloadedError(RuntimeError):
    """The admission queue is full and the request was shed immediately
    (bounded-queue backpressure).  ``pending`` and ``max_pending`` record
    the queue state at shed time; callers should back off and retry."""

    def __init__(self, pending: int, max_pending: int) -> None:
        super().__init__(
            f"server overloaded: {pending} requests pending "
            f"(max_pending={max_pending}); request shed"
        )
        self.pending = pending
        self.max_pending = max_pending


@dataclass(frozen=True)
class ServeStats:
    """Per-request serving observability (timings in seconds).

    ``queue_wait_s`` is admission → batch dispatch; ``coalesce_wait_s``
    the window the batch head held open for followers; ``execute_s`` the
    executor-side ``batch_query`` latency of this request's budget
    group; ``batch_id`` / ``batch_size`` which coalesced batch the
    request rode and how many requests rode it (``group_size`` of them
    sharing this request's budget); ``snapshot`` which index generation
    answered.  Server-wide shed/swap/failure counters live on
    :meth:`AsyncIndexServer.metrics`.
    """

    queue_wait_s: float
    coalesce_wait_s: float
    execute_s: float
    batch_id: int
    batch_size: int
    group_size: int
    snapshot: int


@dataclass(frozen=True)
class ServedResult:
    """A served response: the *exact* underlying index result plus the
    serving-side :class:`ServeStats`.  Delegating ``stats`` / ``indices``
    properties let it quack like the wrapped result for cost accounting.
    """

    result: Any
    serve: ServeStats

    @property
    def stats(self) -> Any:
        """The wrapped result's :class:`QueryStats` (cost accounting)."""
        return self.result.stats

    @property
    def indices(self) -> Any:
        """The wrapped result's candidate indices (raw-index results)."""
        return self.result.indices


@dataclass
class _Request:
    """One admitted single-query request awaiting batch execution."""

    query: np.ndarray
    max_retrieved: int | None
    future: asyncio.Future[ServedResult]
    admitted_at: float


class _Snapshot:
    """One live index generation: the single loaded handle every batch of
    the generation runs on, its health flag, and drain bookkeeping.

    ``healthy`` drops when a batch fails with an infrastructure error and
    rises again when :meth:`AsyncIndexServer.check_health` finds the files
    intact.  ``in_flight`` counts batches dispatched to this generation;
    after :meth:`retire`, the last batch to finish sets ``drained``.
    """

    def __init__(self, generation: int, path: str, index: Any) -> None:
        self.generation = generation
        self.path = path
        self.index = index
        self.healthy = True
        self.in_flight = 0
        self.retired = False
        self.drained = asyncio.Event()
        self.dim: int | None = index.dim
        self.kind: str = index.spec.kind

    def retire(self) -> None:
        """Stop new dispatches (callers switch first) and arm ``drained``."""
        self.retired = True
        if self.in_flight == 0:
            self.drained.set()


def _load_handle(path: str, options: ServingOptions) -> Any:
    """Executor-side snapshot load: one handle on the bundle at ``path``."""
    from repro.api import load_index  # lazy: api imports serving lazily too

    return load_index(path, options=options)


def _close_handle(index: Any) -> None:
    """Executor-side snapshot teardown: close the handle if it has a
    ``close``; plain mmap indexes just drop."""
    closer = getattr(index, "close", None)
    if callable(closer):
        closer()


def _batch_query(
    index: Any, block: np.ndarray, max_retrieved: int | None
) -> list[Any]:
    """Executor-side batch execution — one ``batch_query`` call for one
    budget group, results element-for-element identical to per-query
    calls (the repo-wide parity invariant)."""
    if max_retrieved is None:
        return list(index.batch_query(block))
    return list(index.batch_query(block, max_retrieved=max_retrieved))


def _probe_handle(index: Any, path: str, verify: str) -> dict[str, Any]:
    """Executor-side health probe: defer to the handle's own ``health()``
    when it has one (ShardedIndex: its shard files), else check the single
    bundle at ``path`` the same way, at the server's ``verify`` level."""
    health = getattr(index, "health", None)
    if callable(health):
        report = health()
        return {"ok": bool(report.get("ok", False)), "detail": report}
    detail: dict[str, Any] = {"mode": "in-process", "verify": verify}
    error = _probe_bundle(path, verify)
    if error is not None:
        detail["error"] = error
    return {"ok": error is None, "detail": detail}


def _shutdown_executor(executor: ThreadPoolExecutor) -> None:
    """``weakref.finalize`` safety net for an abandoned server."""
    executor.shutdown(wait=False, cancel_futures=True)


class AsyncIndexServer:
    """Asyncio serving tier over one loaded handle per index snapshot.

    ``path`` names a :func:`repro.api.save_index` bundle (single or
    sharded layout), loaded once per generation; ``replicas`` is how many
    batches run on that handle at once (their NumPy work overlaps in the
    executor threads).  ``max_batch`` / ``max_wait_us`` bound the
    coalescing window, ``max_pending`` the admission queue (see the
    module docstring), and ``options`` is the same frozen
    :class:`~repro.serving.options.ServingOptions` every other query
    surface takes; each snapshot is loaded with it.

    Lifecycle: ``await start()`` (or ``async with``) before
    :meth:`query`; ``await close()`` drains in-flight work and releases
    the executor and the snapshot (also hooked to garbage collection via
    ``weakref.finalize`` so an abandoned server cannot leak threads).
    """

    def __init__(
        self,
        path: str,
        *,
        replicas: int = 1,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_wait_us: int = DEFAULT_MAX_WAIT_US,
        max_pending: int = DEFAULT_MAX_PENDING,
        options: ServingOptions | None = None,
    ) -> None:
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_us < 0:
            raise ValueError(f"max_wait_us must be >= 0, got {max_wait_us}")
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self._path = str(path)
        self._concurrency = replicas
        self._max_batch = max_batch
        self._max_wait_s = max_wait_us / 1e6
        self._max_pending = max_pending
        self._options = options if options is not None else ServingOptions()
        self._queue: asyncio.Queue[_Request] | None = None
        self._snapshot: _Snapshot | None = None
        self._batcher: asyncio.Task[None] | None = None
        self._getter: asyncio.Task[_Request] | None = None
        self._tasks: set[asyncio.Task[None]] = set()
        self._executor: ThreadPoolExecutor | None = None
        self._finalizer: weakref.finalize | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._swap_lock: asyncio.Lock | None = None
        self._slots: asyncio.Semaphore | None = None
        self._pending = 0
        self._started = False
        self._closed = False
        self._metrics: dict[str, int] = {
            "admitted": 0,
            "served": 0,
            "shed": 0,
            "failed": 0,
            "batches": 0,
            "coalesced": 0,
            "max_batch_size": 0,
            "swaps": 0,
        }

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> "AsyncIndexServer":
        """Load the snapshot and start the coalescing loop.

        Raises :class:`IndexIntegrityError` when the snapshot fails its
        ``options.verify`` integrity checks, ``FileNotFoundError`` for a
        missing bundle, and ``RuntimeError`` if the server was already
        started or closed.
        """
        if self._started or self._closed:
            raise RuntimeError("server already started or closed")
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._queue = asyncio.Queue(maxsize=self._max_pending)
        self._swap_lock = asyncio.Lock()
        self._slots = asyncio.Semaphore(self._concurrency)
        self._executor = ThreadPoolExecutor(
            max_workers=max(2, self._concurrency),
            thread_name_prefix="repro-serve",
        )
        self._finalizer = weakref.finalize(
            self, _shutdown_executor, self._executor
        )
        try:
            self._snapshot = await self._load_snapshot(self._path, 0)
        except BaseException:
            self._finalizer.detach()
            self._executor.shutdown(wait=False)
            self._executor = None
            raise
        self._batcher = loop.create_task(self._batch_loop())
        self._started = True
        return self

    async def close(self) -> None:
        """Graceful shutdown: stop admission, drain every in-flight
        request, then release the snapshot and the executor.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        if not self._started:
            if self._executor is not None:
                if self._finalizer is not None:
                    self._finalizer.detach()
                self._executor.shutdown(wait=False)
                self._executor = None
            return
        while self._pending > 0:
            tasks = list(self._tasks)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            else:
                await asyncio.sleep(0.001)
        if self._batcher is not None:
            self._batcher.cancel()
            try:
                await self._batcher
            except asyncio.CancelledError:
                pass
            self._batcher = None
        snapshot, self._snapshot = self._snapshot, None
        executor = self._executor
        if snapshot is not None and executor is not None:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(executor, _close_handle, snapshot.index)
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        if executor is not None:
            executor.shutdown(wait=True)
            self._executor = None

    async def __aenter__(self) -> "AsyncIndexServer":
        """``async with`` entry: :meth:`start`."""
        return await self.start()

    async def __aexit__(self, *exc: object) -> None:
        """``async with`` exit: :meth:`close`."""
        await self.close()

    # -- serving ---------------------------------------------------------

    async def query(
        self, query: np.ndarray, max_retrieved: int | None = None
    ) -> ServedResult:
        """Serve one query point through the coalescing tier.

        The response's ``result`` is *exactly* what a direct
        ``batch_query`` containing this query returns (coalescing is
        invisible); ``serve`` carries the :class:`ServeStats`.
        ``max_retrieved`` applies the same exactness-preserving budget
        clip as the underlying index (requests with different budgets
        are grouped per budget inside a batch).

        Raises ``ValueError`` at admission for a row of the wrong shape
        or dimension, a floating row with NaN/inf entries, or a negative
        budget, and ``TypeError`` for a row whose dtype is not bool,
        integer or real floating, a non-integer budget, or any budget on
        a snapshot whose kind is not ``"raw"`` (only raw indexes take
        ``max_retrieved``); such a request never joins a batch.

        Sheds with :class:`ServerOverloadedError` when ``max_pending``
        admitted requests are still outstanding (queued or in flight).
        Execution failures propagate: the :class:`IndexIntegrityError` or
        ``OSError`` that marked the generation unhealthy, then a
        ``RuntimeError`` naming that generation for every later batch on
        it until :meth:`check_health` or :meth:`swap` restores service.
        """
        queue = self._require_running()
        snapshot = self._snapshot
        # The index's own single-query check (shape, dimension, dtype,
        # finiteness), run here: a bad row that reached a shared batch
        # would fail every request coalesced with it.
        row = _check_single_query(
            query, None if snapshot is None else snapshot.dim
        )[0]
        budget = _check_budget(max_retrieved)
        # A budget on another kind would fail its whole budget group at
        # execution; a swap between here and dispatch still fails there.
        if budget is not None and snapshot is not None and snapshot.kind != "raw":
            raise TypeError(
                f"max_retrieved applies to raw indexes only; this "
                f"snapshot serves kind={snapshot.kind!r}"
            )
        loop = asyncio.get_running_loop()
        # ``_pending`` counts every admitted-but-unresolved request —
        # queued *and* in flight — so backpressure bounds total
        # outstanding work, not just the coalescing queue (batches
        # waiting for an execution slot would otherwise absorb overload
        # into unbounded memory instead of shedding it).
        if self._pending >= self._max_pending:
            self._metrics["shed"] += 1
            raise ServerOverloadedError(self._pending, self._max_pending)
        request = _Request(row, budget, loop.create_future(), loop.time())
        try:
            queue.put_nowait(request)
        except asyncio.QueueFull:  # pragma: no cover - pending gate first
            self._metrics["shed"] += 1
            raise ServerOverloadedError(
                queue.qsize(), self._max_pending
            ) from None
        self._metrics["admitted"] += 1
        self._pending += 1
        request.future.add_done_callback(self._request_done)
        return await request.future

    def _request_done(self, future: asyncio.Future[ServedResult]) -> None:
        self._pending -= 1

    def _require_running(self) -> asyncio.Queue[_Request]:
        if self._closed:
            raise RuntimeError("server is closed")
        if not self._started or self._queue is None:
            raise RuntimeError("server not started; await start() first")
        return self._queue

    # -- coalescing loop -------------------------------------------------

    def _ensure_getter(self) -> asyncio.Task[_Request]:
        # One persistent queue.get() task that survives window expiries —
        # cancelling a get() mid-completion can drop an item, so the
        # getter is never cancelled while the loop runs.
        if self._getter is None:
            if self._loop is None or self._queue is None:
                raise RuntimeError("server not started")
            self._getter = self._loop.create_task(self._queue.get())
        return self._getter

    def _poll_request(self) -> _Request | None:
        getter = self._getter
        if getter is not None and getter.done():
            self._getter = None
            return getter.result()
        if self._queue is None:
            return None
        try:
            return self._queue.get_nowait()
        except asyncio.QueueEmpty:
            return None

    async def _next_request(
        self, timeout: float | None
    ) -> _Request | None:
        getter = self._ensure_getter()
        done, _ = await asyncio.wait({getter}, timeout=timeout)
        if not done:
            return None  # window expired; getter stays armed for later
        self._getter = None
        return getter.result()

    async def _batch_loop(self) -> None:
        if self._loop is None:
            raise RuntimeError("server not started")
        loop = self._loop
        try:
            while True:
                head = await self._next_request(None)
                if head is None:  # pragma: no cover - None only on timeout
                    continue
                started = loop.time()
                batch = [head]
                deadline = started + self._max_wait_s
                while len(batch) < self._max_batch:
                    more = self._poll_request()
                    if more is not None:
                        batch.append(more)
                        continue
                    remaining = deadline - loop.time()
                    if remaining <= 0:
                        break
                    more = await self._next_request(remaining)
                    if more is None:
                        break
                    batch.append(more)
                coalesce_wait_s = loop.time() - started
                task = loop.create_task(
                    self._run_batch(batch, coalesce_wait_s)
                )
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)
        finally:
            getter, self._getter = self._getter, None
            if getter is not None:
                if getter.done() and not getter.cancelled():
                    orphan = getter.result()
                    if not orphan.future.done():
                        orphan.future.set_exception(
                            RuntimeError("server closed during admission")
                        )
                else:
                    getter.cancel()

    # -- batch execution -------------------------------------------------

    async def _run_batch(
        self, batch: list[_Request], coalesce_wait_s: float
    ) -> None:
        self._metrics["batches"] += 1
        batch_id = self._metrics["batches"]
        self._metrics["coalesced"] += len(batch)
        if len(batch) > self._metrics["max_batch_size"]:
            self._metrics["max_batch_size"] = len(batch)
        snapshot = self._snapshot
        if snapshot is None:
            for request in batch:
                if not request.future.done():
                    request.future.set_exception(
                        RuntimeError("server has no live snapshot")
                    )
            self._metrics["failed"] += len(batch)
            return
        groups: dict[int | None, list[_Request]] = {}
        for request in batch:
            groups.setdefault(request.max_retrieved, []).append(request)
        snapshot.in_flight += 1
        try:
            for budget, members in groups.items():
                await self._serve_group(
                    snapshot, budget, members, batch_id, len(batch),
                    coalesce_wait_s,
                )
        except asyncio.CancelledError:
            for request in batch:
                if not request.future.done():
                    request.future.cancel()
                    self._metrics["failed"] += 1
            raise
        except Exception as exc:
            # The batch task is the boundary: an unexpected error goes to
            # the requests it failed, not to an unretrieved task error.
            error = RuntimeError(f"internal serving failure: {exc!r}")
            error.__cause__ = exc
            self._fail_group(batch, error)
        finally:
            snapshot.in_flight -= 1
            if snapshot.retired and snapshot.in_flight == 0:
                snapshot.drained.set()

    async def _serve_group(
        self,
        snapshot: _Snapshot,
        budget: int | None,
        members: list[_Request],
        batch_id: int,
        batch_size: int,
        coalesce_wait_s: float,
    ) -> None:
        if self._loop is None or self._executor is None or self._slots is None:
            raise RuntimeError("server not started")
        loop, executor = self._loop, self._executor
        dispatched_at = loop.time()
        block = np.stack([request.query for request in members])
        async with self._slots:
            if not snapshot.healthy:
                self._fail_group(members, RuntimeError(
                    f"snapshot generation {snapshot.generation} is "
                    "unhealthy until check_health() finds its files "
                    "intact or swap() replaces it"
                ))
                return
            started = loop.time()
            try:
                results = await loop.run_in_executor(
                    executor, _batch_query, snapshot.index, block, budget
                )
            except _HANDLE_ERRORS as exc:
                snapshot.healthy = False
                self._fail_group(members, exc)
                return
            except (TimeoutError, ValueError, TypeError, RuntimeError) as exc:
                self._fail_group(members, exc)
                return
        execute_s = loop.time() - started
        for request, result in zip(members, results):
            if request.future.done():
                continue
            stats = ServeStats(
                queue_wait_s=dispatched_at - request.admitted_at,
                coalesce_wait_s=coalesce_wait_s,
                execute_s=execute_s,
                batch_id=batch_id,
                batch_size=batch_size,
                group_size=len(members),
                snapshot=snapshot.generation,
            )
            request.future.set_result(ServedResult(result, stats))
            self._metrics["served"] += 1

    def _fail_group(
        self, members: list[_Request], error: BaseException
    ) -> None:
        for request in members:
            if not request.future.done():
                request.future.set_exception(error)
                self._metrics["failed"] += 1

    # -- health / swap / metrics -----------------------------------------

    async def check_health(self) -> dict[str, Any]:
        """Probe the live generation's files on disk (its bundle, or every
        shard file of a sharded index) and set its health from the
        result: a generation that failed a batch serves again once its
        files check out, and one whose files fail stops serving.  Never
        raises for an unhealthy snapshot — the report
        (``generation`` / ``path`` / ``ok`` / ``detail``) carries the
        details.
        """
        self._require_running()
        snapshot = self._snapshot
        if snapshot is None or self._loop is None or self._executor is None:
            raise RuntimeError("server has no live snapshot")
        report = await self._loop.run_in_executor(
            self._executor,
            _probe_handle,
            snapshot.index,
            snapshot.path,
            self._options.verify,
        )
        snapshot.healthy = report["ok"]
        return {
            "generation": snapshot.generation, "path": snapshot.path, **report
        }

    async def swap(self, path: str) -> dict[str, Any]:
        """Zero-downtime hot swap to the snapshot at ``path``.

        The new generation is loaded first (O(1) mmap cold start) while
        the old one keeps serving; new batches are then atomically
        redirected, in-flight batches drain on the old generation, and
        only then is the old snapshot closed — no request is dropped and
        no batch mixes generations.  On load failure
        (:class:`IndexIntegrityError`, ``FileNotFoundError``) the old
        snapshot keeps serving untouched.
        """
        self._require_running()
        if self._swap_lock is None or self._loop is None:
            raise RuntimeError("server not started")
        async with self._swap_lock:
            old = self._snapshot
            if old is None:
                raise RuntimeError("server has no live snapshot")
            new = await self._load_snapshot(str(path), old.generation + 1)
            self._snapshot = new
            self._path = str(path)
            self._metrics["swaps"] += 1
            old.retire()
            await old.drained.wait()
            if self._executor is not None:
                await self._loop.run_in_executor(
                    self._executor, _close_handle, old.index
                )
            return {"generation": new.generation, "path": new.path}

    async def _load_snapshot(self, path: str, generation: int) -> _Snapshot:
        if self._loop is None or self._executor is None:
            raise RuntimeError("server not started")
        index = await self._loop.run_in_executor(
            self._executor, _load_handle, path, self._options
        )
        return _Snapshot(generation, path, index)

    def metrics(self) -> dict[str, Any]:
        """Server-wide counters: ``admitted`` / ``served`` / ``shed`` /
        ``failed`` / ``batches`` / ``swaps``, the running
        ``max_batch_size``, the derived ``mean_batch``, plus the live
        ``pending`` depth and current ``generation``."""
        out: dict[str, Any] = dict(self._metrics)
        coalesced = out.pop("coalesced")
        out["mean_batch"] = coalesced / out["batches"] if out["batches"] else 0.0
        out["pending"] = self._pending
        out["generation"] = (
            self._snapshot.generation if self._snapshot is not None else None
        )
        return out

    @property
    def options(self) -> ServingOptions:
        """The frozen :class:`ServingOptions` snapshots are loaded with."""
        return self._options


# -- synchronous facade ---------------------------------------------------


class ServerHandle:
    """Synchronous, thread-safe facade over an :class:`AsyncIndexServer`
    whose event loop runs in a daemon thread (:func:`serve_in_thread`).

    Satisfies the same :class:`~repro.index.queryable.Queryable`
    protocol as every local index: ``query`` returns a
    :class:`ServedResult` (``.stats``-carrying), ``batch_query`` submits
    each row as its own concurrent request — so a batch *demonstrates*
    server-side coalescing — and returns one result per row, exactness
    guaranteed by the coalescing invariant.  Close via
    :meth:`close` or the context manager.
    """

    def __init__(
        self,
        server: AsyncIndexServer,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ) -> None:
        self._server = server
        self._loop = loop
        self._thread = thread
        self._closed = False

    def _submit(self, coro: Any) -> Any:
        return asyncio.run_coroutine_threadsafe(coro, self._loop)

    def query(
        self, query: np.ndarray, max_retrieved: int | None = None
    ) -> ServedResult:
        """Blocking single-query call; see
        :meth:`AsyncIndexServer.query` for semantics (including the
        :class:`ServerOverloadedError` shed and propagated execution
        failures)."""
        return self._submit(  # type: ignore[no-any-return]
            self._server.query(query, max_retrieved)
        ).result()

    def batch_query(
        self, queries: np.ndarray, max_retrieved: int | None = None
    ) -> list[ServedResult]:
        """Submit every row as its own concurrent request (they coalesce
        server-side) and block for all results, in row order.  Failure
        semantics per row match :meth:`query` (shed requests raise
        :class:`ServerOverloadedError`, execution failures propagate)."""
        block = np.atleast_2d(np.asarray(queries))
        futures = [
            self._submit(self._server.query(row, max_retrieved))
            for row in block
        ]
        return [future.result() for future in futures]

    def swap(self, path: str) -> dict[str, Any]:
        """Blocking :meth:`AsyncIndexServer.swap` (may raise
        :class:`IndexIntegrityError` for a damaged new snapshot; the old
        one keeps serving)."""
        return self._submit(  # type: ignore[no-any-return]
            self._server.swap(path)
        ).result()

    def check_health(self) -> dict[str, Any]:
        """Blocking :meth:`AsyncIndexServer.check_health`."""
        return self._submit(  # type: ignore[no-any-return]
            self._server.check_health()
        ).result()

    def metrics(self) -> dict[str, Any]:
        """Current :meth:`AsyncIndexServer.metrics` counters."""
        return self._server.metrics()

    def close(self) -> None:
        """Drain and close the server, stop its event loop, and join the
        serving thread.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        try:
            self._submit(self._server.close()).result()
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join()

    def __enter__(self) -> "ServerHandle":
        """Context-manager entry (the handle is already serving)."""
        return self

    def __exit__(self, *exc: object) -> None:
        """Context-manager exit: :meth:`close`."""
        self.close()


def serve_in_thread(
    path: str,
    *,
    replicas: int = 1,
    max_batch: int = DEFAULT_MAX_BATCH,
    max_wait_us: int = DEFAULT_MAX_WAIT_US,
    max_pending: int = DEFAULT_MAX_PENDING,
    options: ServingOptions | None = None,
) -> ServerHandle:
    """Start an :class:`AsyncIndexServer` on a fresh event loop in a
    daemon thread and return the synchronous :class:`ServerHandle`.

    Parameters match :class:`AsyncIndexServer`.  Start-time failures
    (:class:`IndexIntegrityError`, ``FileNotFoundError``) propagate to
    the caller after the thread is torn back down.
    """
    server = AsyncIndexServer(
        path,
        replicas=replicas,
        max_batch=max_batch,
        max_wait_us=max_wait_us,
        max_pending=max_pending,
        options=options,
    )
    ready = threading.Event()
    box: dict[str, asyncio.AbstractEventLoop] = {}

    def _run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        box["loop"] = loop
        ready.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    thread = threading.Thread(
        target=_run, name="repro-async-server", daemon=True
    )
    thread.start()
    ready.wait()
    loop = box["loop"]
    future = asyncio.run_coroutine_threadsafe(server.start(), loop)
    try:
        future.result()
    except BaseException:
        loop.call_soon_threadsafe(loop.stop)
        thread.join()
        raise
    return ServerHandle(server, loop, thread)

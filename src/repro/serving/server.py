"""The hardened asyncio serving tier over the versioned bounded-evaluation core.

:class:`BoundedServer` is an admission / retry / degradation shell around
:meth:`ServingCore.execute <repro.core.engine.ServingCore.execute>` and
``apply_updates``.  Serving a read, it prepares nothing and validates
nothing itself (only cost-budget admission asks ``engine.prepare`` for a
plan's bound): that a read saw **one epoch** of its dependencies is decided
in exactly one place, the core's snapshot contract (snapshot → probe /
execute → re-validate → re-run, then a typed
:class:`~repro.core.errors.TransientFault`).  The tier adds only what makes
that sufficient under concurrency: every engine call runs on the event-loop
thread with no ``await`` inside it, and **writes serialize** through the
engine's batched :meth:`~repro.core.engine.BoundedEngine.apply_updates`
path — so no reader ever observes a half-applied batch, and a write batch
costs one version bump plus one cache settlement no matter its size (what
the settlement repaired or dropped is in
``stats()["caches"]["result_cache"]``).

**Admit, probe, queue the rest.**  The queue is for requests that cost
something.  A read whose answer the result cache holds at the current
snapshot costs a fingerprint and three lookups, so :meth:`BoundedServer.
submit` answers it on the caller's turn — after every admission check, via
:meth:`ServingCore.probe <repro.core.engine.ServingCore.probe>` — with no
future, no queue slot and no suspension; only misses, uncovered reads,
retries and writes reach the workers.  A hit is served whatever is queued:
it is validated against the snapshot of that instant, and a write that is
queued but not started has been acknowledged to nobody, so serving ahead of
it is serializable.

What makes the tier *hardened* rather than hopeful is that the paper's
central guarantee — a covered query touches at most ``access_bound()``
tuples regardless of ``|D|`` — turns per-request cost into a number known
**before execution**.  Admission control can therefore be sound instead of
heuristic:

* **Bounded queue + load shedding** — requests arriving at a queue
  ``max_queue_depth`` deep, or whose plan's ``access_bound()`` exceeds
  ``max_access_bound``, are shed immediately with
  :class:`~repro.core.errors.OverloadedError` instead of queueing
  unboundedly.  What fills the queue is work: misses, fallbacks and writes.
* **Per-request deadlines** — a request that expires in the queue (or
  arrives expired) or between retry attempts fails with
  :class:`~repro.core.errors.DeadlineExceededError`; queue time is never
  hidden inside service time.
* **Retries with decorrelated jitter** — only
  :class:`~repro.core.errors.TransientFault` is retried (an abandoned epoch
  guard included), at most :data:`MAX_ATTEMPTS` attempts and never beyond
  the deadline.  A retry runs on the worker that holds the request, so
  retries never raise the offered load: the bounded queue caps it.
* **A circuit breaker around the unbounded conventional fallback** —
  installed on the engine itself (``fallback_breaker``), so an
  uncovered-query stampede fails fast with
  :class:`~repro.core.errors.CircuitOpenError` instead of starving the
  covered hot path.

Every read walks the **graceful-degradation ladder** and records each rung
on its response: result-cache hit → bounded plan execution →
(breaker-permitting) conventional fallback → typed rejection.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..core.engine import BoundedEngine, EngineResult
from ..core.errors import (
    CircuitOpenError,
    ConstraintViolation,
    DeadlineExceededError,
    MaintenanceError,
    NotCoveredError,
    OverloadedError,
    ReproError,
    TransientFault,
)
from ..core.query import Query
from .metrics import ServingMetrics
from .policy import Backoff, CircuitBreaker, Deadline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..discovery.maintenance import MaintenanceReport, Update


#: attempts a read gets at a transient fault, the first one included
MAX_ATTEMPTS = 3
#: the decorrelated-jitter backoff between attempts: first delay, cap (seconds)
BACKOFF_BASE = 0.001
BACKOFF_CAP = 0.05
#: the fallback breaker: consecutive failures that open it, seconds it stays open
BREAKER_FAILURE_THRESHOLD = 3
BREAKER_COOLDOWN = 0.25


@dataclass(frozen=True)
class ServerConfig:
    """Knobs of one :class:`BoundedServer`.

    ``max_access_bound`` is the per-request cost budget in tuples: covered
    queries whose plan's ``access_bound()`` exceeds it are shed at admission
    (``None`` disables the check).  ``default_timeout`` applies when a
    request carries no timeout of its own (``None``: no deadline).  Retries
    and the fallback breaker are not configured here: :data:`MAX_ATTEMPTS`,
    the backoff bounds, :data:`BREAKER_FAILURE_THRESHOLD` and
    :data:`BREAKER_COOLDOWN` are module constants.  ``seed`` seeds the
    backoff's jitter.
    """

    max_queue_depth: int = 64
    workers: int = 4
    default_timeout: float | None = 2.0
    max_access_bound: int | None = None
    seed: int = 0


@dataclass(frozen=True)
class ReadRequest:
    """Answer ``query``; ``timeout`` (seconds) overrides the server default."""

    query: Query
    timeout: float | None = None


@dataclass(frozen=True)
class WriteRequest:
    """Apply an update batch through the engine's maintenance path."""

    updates: tuple["Update", ...]
    timeout: float | None = None


@dataclass
class ServeResponse:
    """One request's outcome, including the degradation ladder it walked.

    ``ladder`` lists every rung attempted in order (e.g. ``("bounded:fault",
    "bounded")`` for a read that hit a transient fault and succeeded on
    retry); ``strategy`` is the terminal rung.  ``elapsed`` is engine
    *service* time summed over attempts — queue wait, retry sleeps, and any
    ``post_check`` audit are excluded, so latency quantiles measure the
    serving cost itself.  ``snapshot_valid`` is always ``True``: rows are
    only ever returned by the core's epoch guard, which raises instead of
    serving a torn read; the field is kept solely because
    ``benchmarks/layered/workloads.py`` reads it.
    For writes, ``report`` is the (possibly partial) maintenance report and
    ``ok`` is ``False`` when the batch aborted part-way — the applied prefix
    is kept and all caches were settled over it — or was rejected
    (``write_rejected``: ``error`` names the bound it broke; nothing is left).
    """

    ok: bool
    strategy: str
    ladder: tuple[str, ...]
    rows: frozenset[tuple] = frozenset()
    columns: tuple[str, ...] = ()
    attempts: int = 1
    elapsed: float = 0.0
    snapshot_valid: bool = True
    error: ReproError | None = None
    report: "MaintenanceReport | None" = None


class BoundedServer:
    """Concurrent request serving over one :class:`BoundedEngine`.

    ``engine`` may be any object with the engine's serving surface —
    ``prepare`` / ``probe`` / ``execute`` / ``apply_updates`` /
    ``cache_stats`` / ``fallback_breaker``; in particular a
    :class:`~repro.sharding.router.ShardRouter` drops in unchanged, putting
    the whole admission/retry/degradation machinery in front of a federated
    shard topology.

    All engine calls run on the event-loop thread (the engine is not
    thread-safe); concurrency comes from interleaving requests at await
    points, which is exactly where the robustness machinery lives: queueing,
    retry sleeps, and deadline checks.  ``post_check`` (if given) is called
    synchronously as ``post_check(query, result)`` immediately after every
    successful read — with no awaits in between, so the database state it
    sees is precisely the state the rows were computed from (for a hit
    answered inside ``submit`` too); the fault-injection soak uses it to
    cross-check served rows against the uncached reference evaluator.
    """

    def __init__(
        self,
        engine: BoundedEngine,
        config: ServerConfig | None = None,
        *,
        clock: Callable[[], float] = time.monotonic,
        post_check: Callable[[Query, EngineResult], None] | None = None,
    ):
        self.engine = engine
        self.config = config if config is not None else ServerConfig()
        self.clock = clock
        self.post_check = post_check
        self.metrics = ServingMetrics()
        self.breaker = CircuitBreaker(
            failure_threshold=BREAKER_FAILURE_THRESHOLD,
            cooldown=BREAKER_COOLDOWN,
            clock=clock,
        )
        # Mount the breaker on the engine: the gate lives where the unbounded
        # work happens, so even direct engine callers are protected.
        engine.fallback_breaker = self.breaker
        self._rng = random.Random(self.config.seed)
        self._queue: asyncio.Queue | None = None
        self._workers: list[asyncio.Task] = []

    # -- lifecycle -------------------------------------------------------------
    async def start(self) -> None:
        if self._queue is not None:
            return
        self._queue = asyncio.Queue()
        self._workers = [
            asyncio.create_task(self._worker(self._queue), name=f"bounded-serve-{i}")
            for i in range(max(1, self.config.workers))
        ]

    async def stop(self) -> None:
        """Serve what is queued, then retire the workers; ``submit`` refuses from here on."""
        if self._queue is None:
            return
        # Detach the queue first: a submit arriving while the workers drain
        # would land behind their sentinels, where nobody reads.
        queue, self._queue = self._queue, None
        workers, self._workers = self._workers, []
        for _ in workers:
            queue.put_nowait(None)
        await asyncio.gather(*workers, return_exceptions=True)

    async def __aenter__(self) -> "BoundedServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- admission -------------------------------------------------------------
    async def submit(self, request: ReadRequest | WriteRequest) -> ServeResponse:
        """Admit one request; answer a result-cache hit at once, queue anything else.

        Admission is the same for every request and comes first: the
        queue-depth check, the cost budget, the deadline.  An admitted read
        is then probed (:meth:`_serve_hit`); a hit returns from here without
        suspending, and everything else — misses, uncovered reads, reads
        whose probe faulted, reads that arrived expired, writes — is queued
        for the workers.

        A hit therefore never yields to the event loop: a caller that loops
        on hot reads and awaits nothing else starves the workers and every
        other task; such a loop must yield itself (``await
        asyncio.sleep(0)``).

        Raises :class:`OverloadedError` (queue full / cost budget),
        :class:`DeadlineExceededError`, :class:`CircuitOpenError`, the
        terminal :class:`TransientFault` once retries are exhausted, or
        whatever else the engine raised serving it.
        """
        if self._queue is None:
            raise ReproError("server is not started; use `async with BoundedServer(...)`")
        self.metrics.submitted += 1
        if self._queue.qsize() >= self.config.max_queue_depth:
            self.metrics.shed("queue_full")
            raise OverloadedError(
                f"request queue is full ({self.config.max_queue_depth} deep); "
                "retry with backoff"
            )
        if isinstance(request, ReadRequest):
            self._admit_cost(request.query)
        timeout = (
            request.timeout if request.timeout is not None else self.config.default_timeout
        )
        deadline = Deadline.after(timeout, self.clock) if timeout is not None else None
        self.metrics.admitted += 1
        if isinstance(request, ReadRequest):
            try:
                response = self._serve_hit(request.query, deadline)
            except Exception:
                # Counted as the worker counts it (a bug in the probe, a
                # failing audit): every admitted request ends in
                # ``completed`` or ``failed``, whichever path it took.
                self.metrics.failed += 1
                raise
            if response is not None:
                return response
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._queue.put_nowait((request, deadline, future))
        self.metrics.enqueued()
        return await future

    def _serve_hit(self, query: Query, deadline: Deadline | None) -> ServeResponse | None:
        """The response to an admitted read the result cache answers, else ``None``.

        The top rung of the ladder, walked on the caller's turn: one timed
        ``engine.probe`` and the audit, in the same await-free window as
        :meth:`_execute_checked`.  ``None`` leaves no trace — no rung, no
        latency sample, no cache miss — so the queued :meth:`_serve_read` is
        the read's first recorded attempt.  That includes a federated
        snapshot scatter that faulted (the worker's retry loop owns faults)
        and a read that arrived expired (:meth:`_handle` refuses it like any
        other, never serving it however hot its query).
        """
        if deadline is not None and deadline.expired:
            return None
        started = self.clock()
        try:
            result = self.engine.probe(query)
        except TransientFault:
            return None
        spent = self.clock() - started
        if result is None:
            return None
        if self.post_check is not None:
            self.post_check(query, result)
        self.metrics.inline_hits += 1
        self.metrics.finished("result_cache", spent)
        self.metrics.completed += 1
        return ServeResponse(
            ok=True,
            strategy="result_cache",
            ladder=("result_cache",),
            rows=result.rows,
            columns=result.columns,
            elapsed=spent,
        )

    def _admit_cost(self, query: Query) -> None:
        """Shed covered queries whose static cost bound exceeds the budget.

        This is the paper's guarantee put to operational use: for a covered
        query the plan's ``access_bound()`` caps data access *regardless of
        database size*, so the check is exact, not an estimate.  Uncovered
        queries have no bound; they pass here and face the fallback breaker
        instead.
        """
        budget = self.config.max_access_bound
        if budget is None:
            return
        prepared = self.engine.prepare(query)
        if prepared.covered and prepared.plan is not None:
            bound = prepared.plan.access_bound()
            if bound > budget:
                self.metrics.shed("cost")
                raise OverloadedError(
                    f"query's access bound ({bound} tuples) exceeds the "
                    f"per-request budget ({budget}); narrow the query or "
                    "raise the budget"
                )

    # -- the serve loop ----------------------------------------------------------
    async def _worker(self, queue: asyncio.Queue) -> None:
        while True:
            item = await queue.get()
            if item is None:
                queue.task_done()
                return
            request, deadline, future = item
            self.metrics.dequeued()
            try:
                if future.done():  # caller vanished (cancelled) while queued
                    continue
                try:
                    response = await self._handle(request, deadline)
                except Exception as error:
                    # Not only ReproError: a bug below (a KeyError in a
                    # kernel) must reach its caller and leave the worker
                    # serving, not strand the future and retire the task.
                    self.metrics.failed += 1
                    if not future.done():  # caller may have been cancelled mid-serve
                        future.set_exception(error)
                else:
                    self.metrics.completed += 1
                    if not future.done():
                        future.set_result(response)
            finally:
                queue.task_done()

    async def _handle(
        self, request: ReadRequest | WriteRequest, deadline: Deadline | None
    ) -> ServeResponse:
        if deadline is not None and deadline.expired:
            self.metrics.shed("deadline")
            raise DeadlineExceededError("deadline expired while queued")
        if isinstance(request, WriteRequest):
            return self._serve_write(request)
        return await self._serve_read(request, deadline)

    # -- reads: the degradation ladder -------------------------------------------
    async def _serve_read(
        self, request: ReadRequest, deadline: Deadline | None
    ) -> ServeResponse:
        ladder: list[str] = []
        backoff: Backoff | None = None  # built by the first fault: most reads see none
        attempts = 0
        service = 0.0  # engine time across attempts; excludes sleeps + audits

        # Rungs 1+2 are one engine call (result cache, then bounded plan; the
        # result's ``result_cached`` says which).  ``NotCoveredError`` flips
        # the same loop to rung 3, the breaker-gated conventional fallback.
        fallback = False
        while True:
            attempts += 1
            if fallback and deadline is not None and deadline.expired:
                self.metrics.shed("deadline")
                raise DeadlineExceededError("deadline expired before fallback")
            try:
                result, spent = self._execute_checked(request.query, fallback=fallback)
            except NotCoveredError:
                ladder.append("uncovered")
                fallback = True
                continue
            except CircuitOpenError:
                # Rung 4: typed rejection — the ladder's floor.
                ladder.append("rejected:breaker_open")
                self.metrics.shed("breaker")
                self.metrics.finished("rejected", service)
                raise
            except TransientFault:
                rung = "fallback" if fallback else "bounded"
                ladder.append(f"{rung}:fault")
                if backoff is None:
                    backoff = Backoff(BACKOFF_BASE, BACKOFF_CAP, self._rng)
                if not await self._retry_permitted(attempts, backoff, deadline):
                    self.metrics.finished(f"{rung}_failed", service)
                    raise
                continue
            service += spent
            break

        if fallback:
            strategy = "conventional"
        else:
            strategy = "result_cache" if result.result_cached else "bounded"
        ladder.append(strategy)
        self.metrics.finished(strategy, service)
        return ServeResponse(
            ok=True,
            strategy=strategy,
            ladder=tuple(ladder),
            rows=result.rows,
            columns=result.columns,
            attempts=attempts,
            elapsed=service,
        )

    def _execute_checked(
        self, query: Query, *, fallback: bool
    ) -> tuple[EngineResult, float]:
        """One timed ``engine.execute``, then the audit; returns ``(result, seconds)``.

        The server neither prepares the query nor snapshots a clock: the
        core's ``execute`` fingerprints once and epoch-guards the execution
        (re-validate → re-run → :class:`~repro.core.errors.TransientFault`,
        which :meth:`_serve_read` retries as ``bounded:fault``), so rows that
        come back are one epoch's by construction.  ``post_check`` (the
        soak's reference cross-check) runs in the same no-await window — the
        database it reads is the one the rows were computed from — but
        *after* the service-time measurement: the audit must not pollute the
        latency quantiles it exists to validate.
        """
        started = self.clock()
        result = self.engine.execute(query, fallback=fallback)
        spent = self.clock() - started
        if self.post_check is not None:
            self.post_check(query, result)
        return result, spent

    async def _retry_permitted(
        self, attempts: int, backoff: Backoff, deadline: Deadline | None
    ) -> bool:
        """Whether a transient fault may be retried; sleeps the backoff if so."""
        if attempts >= MAX_ATTEMPTS:
            return False
        delay = backoff.next_delay()
        if deadline is not None and deadline.remaining() <= delay:
            return False
        self.metrics.retries += 1
        await asyncio.sleep(delay)
        return True

    # -- writes: serialized through the batched maintenance path -------------------
    def _serve_write(self, request: WriteRequest) -> ServeResponse:
        # Not a coroutine: on the one event-loop thread the batch is applied
        # and settled before any other request runs — writes need no lock.
        started = self.clock()
        try:
            report = self.engine.apply_updates(request.updates)
        except ConstraintViolation as error:
            # undone before it returned: the data still satisfies A
            elapsed = self.clock() - started
            self.metrics.finished("write_rejected", elapsed)
            return ServeResponse(
                ok=False,
                strategy="write_rejected",
                ladder=("write:rejected",),
                elapsed=elapsed,
                error=error,
            )
        except MaintenanceError as error:
            # The applied prefix is kept and the engine has already settled
            # the clock + caches over it (conservatively — failed batches
            # sweep, never repair), so readers can never see pre-batch
            # cached rows: surface the partial outcome.
            self.metrics.write_failures += 1
            self.metrics.finished("write_failed", self.clock() - started)
            return ServeResponse(
                ok=False,
                strategy="write_failed",
                ladder=("write:partial_failure",),
                elapsed=self.clock() - started,
                error=error,
                report=error.report,
            )
        self.metrics.writes_applied += 1
        elapsed = self.clock() - started
        self.metrics.finished("write", elapsed)
        return ServeResponse(
            ok=True,
            strategy="write",
            ladder=("write",),
            elapsed=elapsed,
            report=report,
        )

    # -- reporting ---------------------------------------------------------------
    def stats(self) -> dict:
        """Serving metrics + breaker + engine cache stats, JSON-ready."""
        return {
            "serving": self.metrics.snapshot(),
            "breaker": self.breaker.stats(),
            "caches": self.engine.cache_stats(),
        }

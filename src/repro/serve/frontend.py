"""Transport-agnostic serving front-end: admission control, deadlines, drain, hot-reload.

:class:`ServingFrontend` is the robustness layer between a network transport (the HTTP
server in :mod:`repro.serve.http`, or anything else that can await a coroutine) and the
batched :class:`~repro.serve.engine.LinkPredictionEngine`:

- **Admission control.**  Requests enter a bounded queue; once the queue is full every
  new request is *shed* immediately with :class:`OverloadedError` (the HTTP layer turns
  this into ``503`` + ``Retry-After``) instead of growing memory without bound.
- **Deadlines.**  Every request carries a deadline.  A request that expires while
  queued is cancelled *before* scoring — it never occupies a batch slot — and the
  caller gets :class:`DeadlineExceededError` (HTTP ``504``).
- **Continuous batching.**  A background loop scores as soon as the scorer is idle:
  it waits for the first request, takes whatever else is already queued (at most
  ``max_batch_size``) and hands the batch to one ``engine.predict`` call.  Requests
  gather only while a batch is scoring, so trickle traffic never waits for stragglers
  and bursts are still scored together.
- **Graceful drain.**  :meth:`ServingFrontend.drain` stops admitting, answers every
  already-accepted request, then tears the loops down — the SIGTERM path.
- **Hot-reload with rollback.**  An :class:`EngineReloader` polls the artifact registry
  for new model versions, loads and smoke-tests them *off* the serving path, and
  atomically swaps the engine only after validation passes.  A version that fails
  checksum or smoke queries is rolled back (the previous engine keeps serving, zero
  in-flight requests fail), retried with exponential backoff, and circuit-broken after
  ``max_attempts`` failures so a persistently bad artifact cannot flap the server.
- **Streaming graph deltas.**  With a :class:`~repro.stream.MutableGraphView` attached,
  :meth:`ServingFrontend.apply_graph_delta` validates a delta off the event loop,
  produces the next graph snapshot (incremental filter-index merge, bumped
  ``graph_version``) and swaps in a successor engine through the same
  validate-first single-assignment path as hot reload -- in-flight batches finish on
  the snapshot they started with, and a rejected delta provably changes nothing.
"""

from __future__ import annotations

import asyncio
import itertools
import logging
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.bench.reporting import summarize_latencies
from repro.serve.artifacts import ModelArtifactRegistry, manifest_vocabularies
from repro.serve.engine import LinkPredictionEngine, LinkQuery, TopKResult
from repro.serve.service import LATENCY_WINDOW, ServiceStats
from repro.stream.delta import GraphDelta, MutableGraphView

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------- errors
class FrontendError(RuntimeError):
    """Base class of the serving front-end's request-rejection errors."""


class OverloadedError(FrontendError):
    """The admission queue is full; retry after ``retry_after_s`` seconds (HTTP 503)."""

    def __init__(self, message: str, retry_after_s: float) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class DrainingError(FrontendError):
    """The server is draining for shutdown and admits no new requests (HTTP 503)."""


class DeadlineExceededError(FrontendError):
    """The request's deadline expired before a result was produced (HTTP 504)."""


# ---------------------------------------------------------------------------- configs
@dataclass
class FrontendConfig:
    """Admission, deadline and batching tunables of :class:`ServingFrontend`.

    ``max_queue_depth`` (default 256, positive) bounds how many accepted requests may
    wait for scoring; arrivals beyond it are shed with :class:`OverloadedError`.
    ``high_water`` (default ``None`` = three quarters of ``max_queue_depth``, at most
    ``max_queue_depth``) is the queue depth at which readiness degrades — ``/readyz``
    reports not-ready so a load balancer steers traffic away *before* shedding starts.
    ``default_deadline_s`` (default 5.0, positive) applies to requests that name no
    deadline, and ``max_deadline_s`` (default 30.0, at least ``default_deadline_s``)
    caps client-supplied deadlines so one caller cannot park work forever.
    ``max_batch_size`` (default 64, positive) bounds one scoring batch; the batch loop
    never waits to fill it.  ``retry_after_s`` (default 1.0, positive) is the back-off
    hint attached to shed responses.
    """

    max_queue_depth: int = 256
    high_water: Optional[int] = None
    default_deadline_s: float = 5.0
    max_deadline_s: float = 30.0
    max_batch_size: int = 64
    retry_after_s: float = 1.0

    def __post_init__(self) -> None:
        if self.max_queue_depth <= 0:
            raise ValueError("max_queue_depth must be positive")
        if self.high_water is None:
            self.high_water = max(1, (self.max_queue_depth * 3) // 4)
        if not 0 < self.high_water <= self.max_queue_depth:
            raise ValueError("high_water must be in (0, max_queue_depth]")
        if self.default_deadline_s <= 0:
            raise ValueError("default_deadline_s must be positive")
        if self.max_deadline_s < self.default_deadline_s:
            raise ValueError("max_deadline_s must be at least default_deadline_s")
        if self.max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if self.retry_after_s <= 0:
            raise ValueError("retry_after_s must be positive")


@dataclass
class ReloadConfig:
    """Polling, validation, backoff and circuit-breaker tunables of :class:`EngineReloader`.

    ``poll_interval_s`` (default 2.0, non-negative; 0 disables the background poll so
    reloads only happen on explicit request) is how often the registry is checked for a
    newer version.  ``smoke_queries`` (default 4, non-negative) and ``smoke_k`` (default
    5, positive) shape the validation traffic run against a candidate engine before it
    may serve.  A version that fails validation is retried after an exponential backoff
    starting at ``backoff_initial_s`` (default 0.5, non-negative), multiplied by
    ``backoff_multiplier`` (default 2.0, at least 1) per failure and capped at
    ``backoff_max_s`` (default 30.0, at least the initial backoff); after
    ``max_attempts`` (default 3, positive) failures the version's circuit breaker opens
    and it is never tried again (a newer version resets the process).
    """

    poll_interval_s: float = 2.0
    smoke_queries: int = 4
    smoke_k: int = 5
    max_attempts: int = 3
    backoff_initial_s: float = 0.5
    backoff_multiplier: float = 2.0
    backoff_max_s: float = 30.0

    def __post_init__(self) -> None:
        if self.poll_interval_s < 0:
            raise ValueError("poll_interval_s must be non-negative")
        if self.smoke_queries < 0:
            raise ValueError("smoke_queries must be non-negative")
        if self.smoke_k <= 0:
            raise ValueError("smoke_k must be positive")
        if self.max_attempts <= 0:
            raise ValueError("max_attempts must be positive")
        if self.backoff_initial_s < 0:
            raise ValueError("backoff_initial_s must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be at least 1")
        if self.backoff_max_s < self.backoff_initial_s:
            raise ValueError("backoff_max_s must be at least backoff_initial_s")


# ---------------------------------------------------------------------------- reloader
class EngineReloader:
    """Validated hot-reload of a registry model with rollback, backoff and circuit breaking.

    The reloader never touches the live engine until a candidate version has been fully
    loaded (checksum-verified by the registry), wrapped in a fresh engine, and answered
    ``smoke_queries`` finite-scored smoke queries.  Only then is ``on_swap`` invoked —
    so "rollback" is simply *not swapping*: the previous engine was never unplugged and
    no in-flight request can fail because of a bad artifact.

    :meth:`check_once` is synchronous and thread-safe; callers decide where it runs
    (the front-end uses a dedicated background executor).  Outcomes:

    - ``"up-to-date"``  — no version newer than the active one.
    - ``"swapped"``     — a newer version validated and is now serving.
    - ``"rolled-back"`` — a newer version failed validation; the previous version
      keeps serving and a retry is scheduled with exponential backoff.
    - ``"backing-off"`` — a retry is scheduled but its backoff has not elapsed yet.
    - ``"circuit-open"``— the newest version exhausted ``max_attempts``; it is
      blacklisted until an even newer version appears.
    """

    def __init__(
        self,
        registry: ModelArtifactRegistry,
        name: str,
        build_engine: Callable[..., LinkPredictionEngine],
        on_swap: Callable[[LinkPredictionEngine, int], None],
        active_version: int,
        config: Optional[ReloadConfig] = None,
        clock: Callable[[], float] = time.monotonic,
        mmap: bool = False,
    ) -> None:
        self.registry = registry
        self.name = name
        self.mmap = mmap
        self.build_engine = build_engine
        self.on_swap = on_swap
        self.config = config or ReloadConfig()
        self.clock = clock
        self.active_version = active_version
        self.previous_version: Optional[int] = None
        self.swaps = 0
        self.rollbacks = 0
        self.last_outcome = "up-to-date"
        self.last_error: Optional[str] = None
        self._attempts: Dict[int, int] = {}
        self._next_retry_at = 0.0
        self._broken: set = set()
        self._lock = threading.Lock()

    def check_once(self) -> str:
        """Poll the registry once; swap, roll back, back off, or do nothing."""
        with self._lock:
            outcome = self._check_locked()
            self.last_outcome = outcome
            return outcome

    def _check_locked(self) -> str:
        latest = self.registry.latest_version(self.name)
        if latest <= self.active_version:
            return "up-to-date"
        if latest in self._broken:
            return "circuit-open"
        if self._attempts.get(latest, 0) > 0 and self.clock() < self._next_retry_at:
            return "backing-off"
        try:
            engine = self._load_and_validate(latest)
        except Exception as error:  # noqa: BLE001 - any load/validation failure rolls back
            self.last_error = f"v{latest}: {error}"
            self.rollbacks += 1
            attempts = self._attempts.get(latest, 0) + 1
            self._attempts[latest] = attempts
            if attempts >= self.config.max_attempts:
                self._broken.add(latest)
            else:
                backoff = min(
                    self.config.backoff_initial_s * self.config.backoff_multiplier ** (attempts - 1),
                    self.config.backoff_max_s,
                )
                self._next_retry_at = self.clock() + backoff
            return "rolled-back"
        self.on_swap(engine, latest)
        self.previous_version = self.active_version
        self.active_version = latest
        self.swaps += 1
        self.last_error = None
        self._attempts.pop(latest, None)
        self._next_retry_at = 0.0
        return "swapped"

    def _load_and_validate(self, version: int) -> LinkPredictionEngine:
        # registry.load verifies the weights checksum against the manifest.
        model, manifest = self.registry.load(self.name, version, mmap=self.mmap)
        engine = self.build_engine(model=model, manifest=manifest, version=version)
        self._smoke_test(engine)
        return engine

    def _smoke_test(self, engine: LinkPredictionEngine) -> None:
        """Deterministic canary queries; any exception or non-finite score fails the swap.

        Non-finite scores are dropped by the engine's top-k, so a model whose weights
        degenerated to NaN answers every query with *zero* candidates — an all-empty
        smoke run therefore also fails the swap.
        """
        num_entities = engine.model.num_entities
        num_relations = engine.model.num_relations
        total_results = 0
        for index in range(self.config.smoke_queries):
            relation = index % num_relations
            entity = index % num_entities
            query = (
                LinkQuery(relation=relation, head=entity, k=self.config.smoke_k)
                if index % 2 == 0
                else LinkQuery(relation=relation, tail=entity, k=self.config.smoke_k)
            )
            result = engine.predict([query])[0]
            if not np.all(np.isfinite(result.scores)):
                raise RuntimeError(f"smoke query {query} produced non-finite scores")
            total_results += len(result)
        if self.config.smoke_queries > 0 and total_results == 0:
            raise RuntimeError(
                f"all {self.config.smoke_queries} smoke queries returned zero candidates"
            )

    def stats(self) -> Dict[str, object]:
        """Counters and state for the metrics endpoint."""
        with self._lock:
            return {
                "active_version": self.active_version,
                "previous_version": self.previous_version,
                "swaps": self.swaps,
                "rollbacks": self.rollbacks,
                "broken_versions": sorted(self._broken),
                "last_outcome": self.last_outcome,
                "last_error": self.last_error,
            }


# ---------------------------------------------------------------------------- frontend
@dataclass
class _PendingRequest:
    """One admitted query waiting for (or undergoing) scoring."""

    query: LinkQuery
    future: "asyncio.Future[TopKResult]"
    enqueued_at: float
    deadline_at: float


class ServingFrontend:
    """Admission-controlled, deadline-aware async façade over the prediction engine.

    Lifecycle::

        frontend = ServingFrontend(engine, model_name="wn", version=1)
        await frontend.start()          # inside a running event loop
        result = await frontend.handle(LinkQuery(relation=0, head=1, k=5))
        await frontend.drain()          # answer everything accepted, then stop

    The scoring executor is a single thread, so batches are serialized and the event
    loop stays free to accept, shed and time out requests while a batch scores.
    """

    def __init__(
        self,
        engine: LinkPredictionEngine,
        model_name: str = "model",
        version: int = 0,
        config: Optional[FrontendConfig] = None,
        reloader: Optional[EngineReloader] = None,
        graph_view: Optional[MutableGraphView] = None,
    ) -> None:
        self.config = config or FrontendConfig()
        self.model_name = model_name
        self.version = version
        self.reloader = reloader
        #: The live-graph mutation point; ``None`` means delta requests are refused.
        self.graph_view = graph_view
        self.deltas_accepted = 0
        self.deltas_rejected = 0
        self._engine = engine
        # Scoring-batch wall times; lives outside the engine, so it survives swaps.
        self._stats = ServiceStats()
        self._queue: Optional["asyncio.Queue[_PendingRequest]"] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._batch_task: Optional["asyncio.Task[None]"] = None
        self._reload_task: Optional["asyncio.Task[None]"] = None
        self._stop_batching: Optional[asyncio.Event] = None
        self._score_executor: Optional[ThreadPoolExecutor] = None
        self._reload_executor: Optional[ThreadPoolExecutor] = None
        self._started = False
        self._draining = False
        self._in_flight = 0
        # Counters for /metrics; mutated only on the event loop thread.
        self.accepted = 0
        self.completed = 0
        self.shed = 0
        self.deadline_timeouts = 0
        self.cancelled_before_scoring = 0
        self.errors = 0
        self.reload_poll_errors = 0
        self._latencies_ms: Deque[float] = deque(maxlen=LATENCY_WINDOW)

    # ------------------------------------------------------------------ lifecycle
    async def start(self) -> None:
        """Create the queue and background loops inside the running event loop."""
        if self._started:
            return
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self._stop_batching = asyncio.Event()
        self._score_executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix="score")
        self._reload_executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix="reload")
        self._batch_task = self._loop.create_task(self._batch_loop())
        if self.reloader is not None and self.reloader.config.poll_interval_s > 0:
            self._reload_task = self._loop.create_task(self._reload_loop())
        self._started = True
        self._draining = False

    async def drain(self) -> None:
        """Stop admitting, answer every accepted request, then stop the loops."""
        if not self._started:
            return
        self._draining = True
        await self._queue.join()
        self._stop_batching.set()
        if self._batch_task is not None:
            await self._batch_task
        if self._reload_task is not None:
            self._reload_task.cancel()
            try:
                await self._reload_task
            except asyncio.CancelledError:
                pass
        self._score_executor.shutdown(wait=True)
        self._reload_executor.shutdown(wait=True)
        self._started = False

    @property
    def draining(self) -> bool:
        """Whether the front-end is refusing new work while finishing accepted work."""
        return self._draining

    # ------------------------------------------------------------------ request path
    async def handle(self, query: LinkQuery, deadline_s: Optional[float] = None) -> TopKResult:
        """Admit, batch and score one query; raises the typed rejection errors.

        Raises :class:`DrainingError` during shutdown, :class:`OverloadedError` when
        the admission queue is full, :class:`DeadlineExceededError` when the deadline
        expires first, and whatever scoring raised (e.g. ``ValueError`` for ids out of
        range) otherwise.
        """
        if not self._started:
            raise FrontendError("frontend is not started")
        if self._draining:
            raise DrainingError("server is draining; no new requests are admitted")
        if self._queue.qsize() >= self.config.max_queue_depth:
            self.shed += 1
            raise OverloadedError(
                f"admission queue is full ({self.config.max_queue_depth} pending)",
                retry_after_s=self.config.retry_after_s,
            )
        deadline_s = min(
            deadline_s if deadline_s is not None else self.config.default_deadline_s,
            self.config.max_deadline_s,
        )
        if deadline_s <= 0:
            raise ValueError("deadline must be positive")
        now = time.monotonic()
        request = _PendingRequest(
            query=query,
            future=self._loop.create_future(),
            enqueued_at=now,
            deadline_at=now + deadline_s,
        )
        self.accepted += 1
        self._in_flight += 1
        self._queue.put_nowait(request)
        try:
            result = await asyncio.wait_for(request.future, timeout=deadline_s)
        except asyncio.TimeoutError:
            self.deadline_timeouts += 1
            raise DeadlineExceededError(
                f"deadline of {deadline_s * 1000:.0f} ms expired before scoring finished"
            ) from None
        finally:
            self._in_flight -= 1
        self.completed += 1
        self._latencies_ms.append((time.monotonic() - request.enqueued_at) * 1000.0)
        return result

    # ------------------------------------------------------------------ batching loop
    async def _batch_loop(self) -> None:
        while True:
            try:
                first = await asyncio.wait_for(self._queue.get(), timeout=0.05)
            except asyncio.TimeoutError:
                if self._stop_batching.is_set():
                    return
                continue
            # Continuous batching: never wait for stragglers.  Whatever queued up while
            # the previous batch was scoring joins this one.
            batch = [first]
            while len(batch) < self.config.max_batch_size and not self._queue.empty():
                batch.append(self._queue.get_nowait())
            await self._run_batch(batch)

    async def _run_batch(self, batch: List[_PendingRequest]) -> None:
        # A future already done here was cancelled by its deadline while queued: skip
        # it so expired work never occupies a batch slot.
        live = []
        for request in batch:
            if request.future.done():
                self.cancelled_before_scoring += 1
                self._queue.task_done()
            else:
                live.append(request)
        if not live:
            return
        engine = self._engine  # snapshot: a hot swap mid-batch must not mix engines
        try:
            outcomes = await self._loop.run_in_executor(
                self._score_executor, self._score_batch, engine, [r.query for r in live]
            )
        except Exception as error:  # noqa: BLE001 - fail the batch, not the server
            outcomes = [error] * len(live)
        for request, outcome in zip(live, outcomes):
            if request.future.done():
                # Timed out while the batch was scoring; the result is discarded.
                self.cancelled_before_scoring += 1
            elif isinstance(outcome, Exception):
                self.errors += 1
                request.future.set_exception(outcome)
            else:
                request.future.set_result(outcome)
            self._queue.task_done()

    def _score_batch(self, engine: LinkPredictionEngine, queries: List[LinkQuery]) -> List[object]:
        """Score one batch on the executor thread; one outcome per query.

        Each query is validated on its own, so a malformed one fails alone and never
        joins the ``engine.predict`` call of its batchmates.  A failure of that call is
        returned as the outcome of every valid query in the batch.
        """
        outcomes: List[object] = []
        for query in queries:
            try:
                engine.validate_query(query)
                outcomes.append(query)
            except Exception as error:  # noqa: BLE001 - reported per request
                outcomes.append(error)
        valid = [outcome for outcome in outcomes if isinstance(outcome, LinkQuery)]
        if not valid:
            return outcomes
        try:
            results = iter(self._stats.timed_predict(engine, valid))
        except Exception as error:  # noqa: BLE001 - reported per request
            results = itertools.repeat(error)
        return [next(results) if isinstance(o, LinkQuery) else o for o in outcomes]

    # ------------------------------------------------------------------ hot reload
    async def reload_now(self) -> str:
        """Run one reload check off the event loop; returns the reloader outcome."""
        if self.reloader is None:
            return "disabled"
        return await self._loop.run_in_executor(self._reload_executor, self.reloader.check_once)

    async def _reload_loop(self) -> None:
        interval = self.reloader.config.poll_interval_s
        while True:
            await asyncio.sleep(interval)
            try:
                await self.reload_now()
            except Exception:  # noqa: BLE001 - polling must survive transient registry errors
                self.reload_poll_errors += 1
                logger.exception("registry poll for %r failed", self.model_name)

    def _on_swap(self, engine: LinkPredictionEngine, version: int) -> None:
        """Atomically put a validated engine into service (called by the reloader).

        The engine is fully built and validated before the single reference
        assignment, and the batch loop snapshots ``self._engine`` per batch, so
        in-flight batches finish on the engine they started with.
        """
        self._engine = engine
        self.version = version

    # ------------------------------------------------------------------ graph deltas
    async def apply_graph_delta(self, delta: GraphDelta) -> Dict[str, object]:
        """Apply a validated graph delta and swap in the successor engine.

        Runs on the reload executor (serialised with hot reloads, off the event loop).
        Validation failures raise :class:`~repro.stream.DeltaValidationError` *before*
        any state changes: the graph view, the serving engine, its caches and
        ``graph_version`` all remain exactly as they were.  On success the successor
        engine (selectively invalidated caches, merged filter index) replaces the
        current one through the same single-assignment path as a hot reload, and the
        returned summary carries the new ``graph_version``.
        """
        if not self._started:
            raise FrontendError("frontend is not started")
        if self.graph_view is None:
            raise FrontendError("no graph attached; the server cannot accept deltas")
        try:
            return await self._loop.run_in_executor(
                self._reload_executor, self._apply_delta_sync, delta
            )
        except Exception:
            self.deltas_rejected += 1
            raise

    def _apply_delta_sync(self, delta: GraphDelta) -> Dict[str, object]:
        new_graph = self.graph_view.apply(delta)  # raises before any published change
        successor = self._engine.apply_delta(new_graph, delta)
        # Same swap discipline as _on_swap: build fully, then one reference assignment.
        self._engine = successor
        self.deltas_accepted += 1
        summary = delta.describe()
        summary.update(
            {
                "graph_version": new_graph.graph_version,
                "deltas_applied": successor.stats.deltas_applied,
                "cache_entries_invalidated": successor.stats.cache_entries_invalidated,
            }
        )
        return summary

    # ------------------------------------------------------------------ introspection
    @property
    def engine(self) -> LinkPredictionEngine:
        """The currently-serving engine (changes after a hot swap)."""
        return self._engine

    def queue_depth(self) -> int:
        """Requests admitted but not yet handed to the scorer."""
        return self._queue.qsize() if self._queue is not None else 0

    def ready(self) -> Tuple[bool, str]:
        """Readiness with a reason: started, not draining, queue below high water."""
        if not self._started:
            return False, "not started"
        if self._draining:
            return False, "draining"
        depth = self.queue_depth()
        if depth >= self.config.high_water:
            return False, f"queue depth {depth} at or above high-water mark {self.config.high_water}"
        return True, "ok"

    def metrics(self) -> Dict[str, object]:
        """Queue, counter, latency, service and reload state for ``GET /metrics``."""
        ready, reason = self.ready()
        payload: Dict[str, object] = {
            "model": {"name": self.model_name, "version": self.version},
            "ready": ready,
            "ready_reason": reason,
            "draining": self._draining,
            "queue": {
                "depth": self.queue_depth(),
                "high_water": self.config.high_water,
                "max_depth": self.config.max_queue_depth,
                "in_flight": self._in_flight,
            },
            "counters": {
                "accepted": self.accepted,
                "completed": self.completed,
                "shed": self.shed,
                "deadline_timeouts": self.deadline_timeouts,
                "cancelled_before_scoring": self.cancelled_before_scoring,
                "errors": self.errors,
            },
            "latency": summarize_latencies(list(self._latencies_ms)),
            "service": self._stats.as_row(),
            "engine": self._engine.stats.as_row(),
            "graph": {
                "version": self.graph_view.version
                if self.graph_view is not None
                else self._engine.graph_version,
                "attached": self.graph_view is not None,
                "deltas_accepted": self.deltas_accepted,
                "deltas_rejected": self.deltas_rejected,
            },
        }
        if self.reloader is not None:
            payload["reload"] = {**self.reloader.stats(), "poll_errors": self.reload_poll_errors}
        return payload

    # ------------------------------------------------------------------ constructors
    @classmethod
    def from_registry(
        cls,
        registry: ModelArtifactRegistry,
        name: str,
        version: Optional[int] = None,
        graph=None,
        config: Optional[FrontendConfig] = None,
        reload_config: Optional[ReloadConfig] = None,
        mmap: bool = False,
        **engine_kwargs,
    ) -> "ServingFrontend":
        """Load a registry model and wrap it with hot-reload wired up.

        With ``version=None`` the frontend serves the latest version and follows new
        ones via an :class:`EngineReloader`; a pinned explicit version never reloads.
        ``graph`` (optional) supplies the filter index and fallback vocabularies, the
        same way :meth:`LinkPredictionEngine.from_artifact` uses it, and is wrapped in
        a :class:`~repro.stream.MutableGraphView` so ``POST /v1/graph/delta`` works;
        hot reloads always build against the view's *current* snapshot, never the
        boot-time graph.  ``mmap=True`` memory-maps the artifact weights (boot load
        and every hot reload); remaining keyword arguments go to the
        :class:`LinkPredictionEngine` constructor (e.g. ``entity_chunk_size``).
        """
        resolved = registry.resolve(name, version)
        graph_view = MutableGraphView(graph) if graph is not None else None

        def build_engine(model, manifest, version) -> LinkPredictionEngine:
            entity_vocab, relation_vocab = manifest_vocabularies(manifest)
            kwargs = dict(engine_kwargs)
            if graph_view is not None:
                current = graph_view.graph
                entity_vocab = entity_vocab or current.entity_vocab
                relation_vocab = relation_vocab or current.relation_vocab
                kwargs.setdefault("filter_index", current.filter_index())
                kwargs.setdefault("graph_version", current.graph_version)
            kwargs.setdefault("entity_vocab", entity_vocab)
            kwargs.setdefault("relation_vocab", relation_vocab)
            return LinkPredictionEngine(model, **kwargs)

        model, manifest = registry.load(name, resolved.version, mmap=mmap)
        engine = build_engine(model, manifest, resolved.version)
        frontend = cls(
            engine,
            model_name=name,
            version=resolved.version,
            config=config,
            graph_view=graph_view,
        )
        if version is None:
            frontend.reloader = EngineReloader(
                registry,
                name,
                build_engine=lambda model, manifest, version: build_engine(model, manifest, version),
                on_swap=frontend._on_swap,
                active_version=resolved.version,
                config=reload_config,
                mmap=mmap,
            )
        return frontend

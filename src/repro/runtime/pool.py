"""The persistent warm-worker pool behind parallel candidate evaluation.

The original :class:`~repro.runtime.evaluation.EvaluationPool` forked a fresh
``multiprocessing.Pool`` on **every** ``map`` call and shipped the shared payload to
every worker through the pool initializer -- for evaluations in the tens of
milliseconds, the committed baselines showed that overhead eating the entire parallel
win (``parallel_speedup`` 0.84/0.66).  :class:`WarmPool` replaces that with processes
that outlive any single map call:

- **spawn once, reuse forever** -- workers start lazily on the first parallel map and
  stay warm; later maps pay only queue traffic.  :func:`get_warm_pool` hands out one
  process-wide pool per ``(start_method, n_workers)``, so every search in a process
  (and every shard of an in-process sweep) shares the same warm workers;
- **install once per payload** -- the shared payload travels to each worker at most
  once per ``payload_key`` (an ``install`` message), and with the shm-backed payloads
  of :mod:`repro.runtime.evaluation` that message is a few hundred bytes of segment
  names.  Workers keep an LRU of installed payloads (:data:`INSTALL_LRU`), which
  bounds their RSS no matter how many searches run;
- **batched dispatch** -- tasks go out as contiguous chunks instead of per-item
  pickles, cutting queue round-trips by ``CHUNKS_PER_WORKER``×;
- **crash recovery** -- the parent polls worker liveness while waiting for results;
  a dead worker (OOM-killed, SIGKILLed by a fault-injection test) is respawned, its
  installed payloads are re-sent and its unfinished chunks re-dispatched.  Results
  are deduplicated by chunk id, so a worker that died *after* finishing a chunk can
  never produce a duplicate.  Because worker functions are pure, a re-executed chunk
  returns bit-identical values and determinism survives any number of crashes.

Results are reassembled by task index, so the outcome is independent of chunking,
worker count and scheduling -- the bit-identity contract of
``tests/test_runtime.py`` holds through this pool exactly as it does for the serial
path.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import queue as queue_module
import traceback
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.runtime.blas import cap_worker_blas_threads
from repro.utils.logging import get_logger

logger = get_logger("runtime.pool")

#: Upper bound on shared payloads a worker keeps installed; the oldest is dropped
#: first.  Four covers a sweep alternating between one-shot and stand-alone payloads
#: on two datasets without ever re-installing.
INSTALL_LRU = 4

#: Target number of chunks per worker per map call: small enough to amortise queue
#: traffic, large enough that an uneven task mix still load-balances.
CHUNKS_PER_WORKER = 4

#: Seconds between liveness polls while waiting for results.
POLL_INTERVAL = 0.2


class WarmPoolError(RuntimeError):
    """A worker raised, or the pool lost workers beyond recovery."""


def _worker_main(worker_id: int, n_workers: int, task_queue, result_queue) -> None:
    """Worker loop: install payloads, execute chunks, report results.

    Payloads arrive once per key and are memoised (LRU-bounded); chunk messages then
    carry only the key plus the per-task payloads.  Exceptions are caught and
    reported per chunk, so one bad candidate cannot take the worker down.  BLAS is
    first capped to this worker's share of the cores, so ``n_workers`` workers do not
    oversubscribe the host.
    """
    cap_worker_blas_threads(n_workers)
    installed: "OrderedDict[str, Tuple[Callable, object]]" = OrderedDict()
    while True:
        message = task_queue.get()
        kind = message[0]
        if kind == "stop":
            return
        if kind == "install":
            _, key, fn, shared = message
            installed[key] = (fn, shared)
            installed.move_to_end(key)
            while len(installed) > INSTALL_LRU:
                installed.popitem(last=False)
            continue
        if kind == "forget":
            installed.pop(message[1], None)
            continue
        # ("chunk", chunk_id, payload_key, [(task_index, payload), ...])
        _, chunk_id, key, items = message
        try:
            entry = installed.get(key)
            if entry is None:
                raise WarmPoolError(f"worker {worker_id} has no installed payload {key!r}")
            installed.move_to_end(key)
            fn, shared = entry
            values = [(task_index, fn(shared, payload)) for task_index, payload in items]
        except BaseException as error:  # noqa: BLE001 - reported to the parent verbatim
            if isinstance(error, (KeyboardInterrupt, SystemExit)):
                raise
            result_queue.put(("error", worker_id, chunk_id, f"{error!r}\n{traceback.format_exc()}"))
            continue
        result_queue.put(("done", worker_id, chunk_id, values))


class _WorkerSlot:
    """Parent-side record of one worker: process, private queue, installed keys."""

    def __init__(self, process, task_queue) -> None:
        self.process = process
        self.task_queue = task_queue
        self.keys: Set[str] = set()


class WarmPool:
    """Persistent workers with install-once payloads and batched, crash-safe dispatch.

    Workers spawn lazily on the first :meth:`run` and persist until :meth:`close`
    (registered via ``atexit`` for the process-wide pools of :func:`get_warm_pool`).
    Each worker owns a private task queue -- the parent always knows which chunks a
    worker holds, so a crash loses nothing: the slot is respawned, its payloads
    re-installed and its pending chunks re-dispatched.
    """

    def __init__(self, n_workers: int, start_method: Optional[str] = None) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be positive, got {n_workers}")
        self.n_workers = n_workers
        self._context = (
            multiprocessing.get_context(start_method) if start_method else multiprocessing.get_context()
        )
        self._slots: List[_WorkerSlot] = []
        self._result_queue = None
        self._installed: "OrderedDict[str, Tuple[Callable, object]]" = OrderedDict()
        self._chunk_ids = itertools.count()
        self._closed = False
        self.respawns = 0  # total workers respawned after a crash (test observability)

    # ------------------------------------------------------------------ lifecycle
    @property
    def started(self) -> bool:
        """Whether worker processes exist yet (they spawn on first :meth:`run`)."""
        return bool(self._slots)

    def _ensure_started(self) -> None:
        if self._closed:
            raise WarmPoolError("pool is closed")
        if self._slots:
            return
        self._result_queue = self._context.Queue()
        for worker_id in range(self.n_workers):
            self._slots.append(self._spawn(worker_id))

    def _spawn(self, worker_id: int) -> _WorkerSlot:
        task_queue = self._context.Queue()
        process = self._context.Process(
            target=_worker_main,
            args=(worker_id, self.n_workers, task_queue, self._result_queue),
            name=f"repro-warm-{worker_id}",
            daemon=True,
        )
        process.start()
        return _WorkerSlot(process, task_queue)

    def close(self) -> None:
        """Stop every worker (politely, then by force) and drop all queues."""
        self._closed = True
        for slot in self._slots:
            try:
                slot.task_queue.put(("stop",))
            except (OSError, ValueError):  # pragma: no cover - queue already torn down
                pass
        for slot in self._slots:
            slot.process.join(timeout=2.0)
            if slot.process.is_alive():  # pragma: no cover - stuck worker
                slot.process.terminate()
                slot.process.join(timeout=1.0)
            slot.task_queue.close()
        if self._result_queue is not None:
            self._result_queue.close()
            self._result_queue = None
        self._slots = []
        self._installed.clear()

    # ------------------------------------------------------------------ payloads
    def install(self, key: str, fn: Callable, shared: object) -> None:
        """Register a shared payload; it reaches each worker at most once per key."""
        self._installed[key] = (fn, shared)
        self._installed.move_to_end(key)
        while len(self._installed) > INSTALL_LRU:
            evicted, _ = self._installed.popitem(last=False)
            self.forget(evicted)
        for slot in self._slots:
            if key not in slot.keys:
                slot.task_queue.put(("install", key, fn, shared))
                slot.keys.add(key)

    def forget(self, key: str) -> None:
        """Drop a payload from the parent registry and every worker's memo."""
        self._installed.pop(key, None)
        for slot in self._slots:
            if key in slot.keys:
                try:
                    slot.task_queue.put(("forget", key))
                except (OSError, ValueError):  # pragma: no cover - queue torn down
                    pass
                slot.keys.discard(key)

    def installed_keys(self) -> List[str]:
        """Currently registered payload keys, oldest first (test observability)."""
        return list(self._installed)

    # ------------------------------------------------------------------ dispatch
    def run(self, payload_key: str, fn: Callable, shared: object, payloads: Sequence[object]) -> List:
        """Evaluate ``fn(shared, payload)`` for every payload; results in input order.

        The payload is installed under ``payload_key`` (sent only to workers that do
        not have it yet), tasks ship as contiguous chunks, and lost chunks are
        re-dispatched to respawned workers until every task has reported.
        """
        if not payloads:
            return []
        self._ensure_started()
        self.install(payload_key, fn, shared)

        chunk_size = max(1, -(-len(payloads) // (self.n_workers * CHUNKS_PER_WORKER)))
        # chunk_id -> (slot index, payload key, chunk items); the payload key rides
        # along so a re-dispatch after a crash can rebuild the exact chunk message.
        pending: Dict[int, Tuple[int, str, List[Tuple[int, object]]]] = {}
        for offset, start in enumerate(range(0, len(payloads), chunk_size)):
            items = [(index, payloads[index]) for index in range(start, min(start + chunk_size, len(payloads)))]
            chunk_id = next(self._chunk_ids)
            slot_index = offset % len(self._slots)
            pending[chunk_id] = (slot_index, payload_key, items)
            self._slots[slot_index].task_queue.put(("chunk", chunk_id, payload_key, items))

        results: List = [None] * len(payloads)
        while pending:
            try:
                message = self._result_queue.get(timeout=POLL_INTERVAL)
            except queue_module.Empty:
                self._recover_dead_workers(pending)
                continue
            kind, _, chunk_id, body = message
            if chunk_id not in pending:
                continue  # stale: an aborted run, or a chunk already re-dispatched and served
            if kind == "error":
                raise WarmPoolError(f"worker evaluation failed: {body}")
            del pending[chunk_id]
            for task_index, value in body:
                results[task_index] = value
        return results

    def _recover_dead_workers(self, pending: Dict[int, Tuple[int, str, List]]) -> None:
        """Respawn any dead worker and re-dispatch the chunks it was holding."""
        for slot_index, slot in enumerate(self._slots):
            if slot.process.is_alive():
                continue
            self.respawns += 1
            logger.warning(
                "warm worker %d died (exitcode %s); respawning and re-dispatching",
                slot_index,
                slot.process.exitcode,
            )
            # A fresh queue: messages buffered for the dead worker are unreachable
            # anyway, and the replacement must see installs before any chunk.
            slot.task_queue.close()
            replacement = self._spawn(slot_index)
            self._slots[slot_index] = replacement
            for key, (fn, shared) in self._installed.items():
                replacement.task_queue.put(("install", key, fn, shared))
                replacement.keys.add(key)
            for chunk_id, (owner, chunk_key, items) in pending.items():
                if owner == slot_index:
                    # Same chunk id: if the dead worker did manage to report it, the
                    # first result wins and the duplicate is dropped as stale.
                    replacement.task_queue.put(("chunk", chunk_id, chunk_key, items))

    def __repr__(self) -> str:
        state = "closed" if self._closed else ("warm" if self._slots else "cold")
        return f"WarmPool(n_workers={self.n_workers}, {state}, respawns={self.respawns})"


# ------------------------------------------------------------------ process registry
_POOLS: Dict[Tuple[Optional[str], int], WarmPool] = {}


def get_warm_pool(n_workers: int, start_method: Optional[str] = None) -> WarmPool:
    """The process-wide :class:`WarmPool` for ``(start_method, n_workers)``.

    Sharing pools across :class:`~repro.runtime.evaluation.EvaluationPool` instances
    is what makes workers *warm*: the second search of a sweep finds the workers (and
    their attached shared-memory segments and model memos) already in place.
    """
    key = (start_method, n_workers)
    pool = _POOLS.get(key)
    if pool is None or pool._closed:
        pool = WarmPool(n_workers, start_method=start_method)
        _POOLS[key] = pool
    return pool


def shutdown_warm_pools() -> None:
    """Close every process-wide pool (``atexit``; also used by test teardown)."""
    for pool in list(_POOLS.values()):
        pool.close()
    _POOLS.clear()


atexit.register(shutdown_warm_pools)

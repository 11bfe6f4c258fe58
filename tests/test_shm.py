"""Tests of the shared-memory transport (:mod:`repro.runtime.shm`) and the warm
pool (:mod:`repro.runtime.pool`): publish/attach round-trip fidelity, refcounted
lifecycle, owner ``atexit`` cleanup, graph payload resolution in real workers, and
the SIGKILLed-worker fault injection proving a hard-killed attacher leaks no
``/dev/shm`` segments and loses no results."""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import signal
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.runtime import blas, shm
from repro.runtime.pool import INSTALL_LRU, WarmPool, WarmPoolError, get_warm_pool

pytestmark = pytest.mark.shm

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _sample_arrays() -> dict:
    """A dtype/shape-diverse bundle: every array family the runtime actually ships."""
    rng = np.random.default_rng(7)
    return {
        "floats64": rng.standard_normal((17, 5)),
        "floats32": rng.standard_normal((3, 4, 2)).astype(np.float32),
        "ints64": rng.integers(-1000, 1000, size=(64, 3)),
        "ints32": rng.integers(0, 7, size=11).astype(np.int32),
        "empty": np.zeros((0, 3), dtype=np.int64),
        "scalarish": np.array([42.5]),
    }


def _fingerprint(arrays: dict) -> dict:
    return {
        key: (str(a.dtype), tuple(a.shape), hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest())
        for key, a in arrays.items()
    }


def _filter_fingerprint(index, sample: np.ndarray) -> str:
    """Digest of the flattened tail-filter exclusions of ``sample`` under ``index``."""
    rows, cols = index.flat_filter_indices(sample, "tail")
    flat = np.concatenate([np.asarray(rows, dtype=np.int64).ravel(), np.asarray(cols, dtype=np.int64).ravel()])
    return hashlib.sha256(flat.tobytes()).hexdigest()


# Module-level worker functions (must be picklable by qualified name).
def _bundle_fingerprint(shared, payload):
    """Attach the shared bundle and fingerprint every view (round-trip fidelity)."""
    return _fingerprint(shm.attach_arrays(shared["handle"]))


def _attach_or_die(shared, payload):
    """Fault injection: the first worker to see the ``die`` payload SIGKILLs itself.

    The O_EXCL marker file makes the kill fire exactly once (the orchestrator's
    injected-kill pattern): after the chunk is re-dispatched to the respawned
    worker, the marker already exists and the task completes normally.
    """
    if payload["die"]:
        try:
            fd = os.open(shared["marker"], os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            pass
        else:
            os.close(fd)
            os.kill(os.getpid(), signal.SIGKILL)
    views = shm.attach_arrays(shared["handle"])
    return float(np.asarray(views["floats64"], dtype=np.float64).sum()) + float(payload["index"])


def _graph_reconstruct_probe(shared, payload):
    """Resolve the graph payload through the *shm reconstruction* path.

    A fork worker inherits the publisher's ``_GRAPH_BY_TOKEN`` registry and would
    resolve to the inherited original object; dropping the memo entries first forces
    the code path a ``spawn`` worker (or a cross-process attacher) takes: attach the
    segments and rebuild the graph plus its CSR filter index from views.
    """
    graph_payload = shared["graph_payload"]
    shm._GRAPH_BY_TOKEN.pop(graph_payload.token, None)
    shm._RESOLVED_GRAPHS.pop(graph_payload.token, None)
    graph = graph_payload.resolve()
    index = graph.filter_index()
    sample = np.ascontiguousarray(graph.valid.array[: min(8, len(graph.valid.array))])
    return {
        "name": graph.name,
        "num_entities": graph.num_entities,
        "num_relations": graph.num_relations,
        "splits": _fingerprint(
            {"train": graph.train.array, "valid": graph.valid.array, "test": graph.test.array}
        ),
        "tail_filter": _filter_fingerprint(index, sample),
        "resolved_twice_is_memoised": graph_payload.resolve() is graph,
    }


def _publisher_child(conn):
    """Child process owning a bundle, kept alive until the parent finishes attaching."""
    handle = shm.publish_arrays({"x": np.arange(512, dtype=np.int64), "y": np.ones((4, 4))})
    conn.send(handle)
    conn.recv()
    shm.unpublish(handle.token)
    conn.send("done")
    conn.close()


# ---------------------------------------------------------------------------- publish/attach
class TestPublishAttach:
    def test_owner_views_round_trip_and_are_read_only(self):
        arrays = _sample_arrays()
        handle = shm.publish_arrays(arrays)
        try:
            views = shm.attach_arrays(handle)  # owner short-circuit
            assert _fingerprint(views) == _fingerprint(arrays)
            for view in views.values():
                assert not view.flags.writeable
            with pytest.raises(ValueError):
                views["floats64"][0, 0] = 1.0
            # Owner-side release is a no-op; the views stay valid until unpublish.
            shm.release_arrays(handle)
            assert views["ints64"][0, 0] == arrays["ints64"][0, 0]
        finally:
            shm.unpublish(handle.token)

    def test_handle_is_small_and_picklable(self):
        import pickle

        arrays = {"big": np.zeros((1000, 100))}
        handle = shm.publish_arrays(arrays)
        try:
            blob = pickle.dumps(handle)
            assert len(blob) < 1024  # the point of the design: handles, not arrays
            assert pickle.loads(blob) == handle
            assert handle.total_bytes == 1000 * 100 * 8
        finally:
            shm.unpublish(handle.token)

    def test_publish_same_token_is_idempotent(self):
        arrays = {"x": np.arange(10)}
        first = shm.publish_arrays(arrays, token="idempotency-test")
        second = shm.publish_arrays({"ignored": np.zeros(99)}, token="idempotency-test")
        try:
            assert first is second or first == second
            assert shm.owned_tokens().count("idempotency-test") == 1
        finally:
            shm.unpublish("idempotency-test")

    def test_unpublish_removes_segments_and_is_idempotent(self):
        handle = shm.publish_arrays(_sample_arrays())
        names = [spec.name for _, spec in handle.segments]
        present = shm.leaked_segments()
        assert all(name in present for name in names if shm.SHM_PREFIX in name)
        shm.unpublish(handle.token)
        shm.unpublish(handle.token)  # idempotent
        remaining = shm.leaked_segments()
        assert not any(name in remaining for name in names)
        with pytest.raises(shm.ShmError):
            # The owner registry entry is gone, so this takes the attach path and
            # must report the unlinked segments instead of returning stale views.
            shm.attach_arrays(handle)

    def test_worker_side_attach_round_trip(self):
        """Real fork workers attach via shm_open+mmap and see byte-identical arrays."""
        arrays = _sample_arrays()
        handle = shm.publish_arrays(arrays)
        pool = WarmPool(2)
        try:
            fingerprints = pool.run("fidelity", _bundle_fingerprint, {"handle": handle}, list(range(8)))
            expected = _fingerprint(arrays)
            assert all(fp == expected for fp in fingerprints)
        finally:
            pool.close()
            shm.unpublish(handle.token)

    def test_owner_atexit_unlinks_on_normal_exit(self):
        """A publisher that exits without explicit cleanup still unlinks (atexit)."""
        script = (
            "import numpy as np\n"
            "from repro.runtime import shm\n"
            "handle = shm.publish_arrays({'x': np.arange(256)})\n"
            "print(handle.segments[0][1].name)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        name = result.stdout.strip().splitlines()[-1]
        assert name.startswith(shm.SHM_PREFIX)
        assert name not in shm.leaked_segments()


# ---------------------------------------------------------------------------- refcounts
class TestRefcountedAttachment:
    def test_cross_process_attach_is_refcounted(self):
        """Attach a bundle owned by another live process: memoised, refcounted, and
        unmapped exactly when the last release drops the count to zero."""
        parent_conn, child_conn = multiprocessing.Pipe()
        process = multiprocessing.Process(target=_publisher_child, args=(child_conn,))
        process.start()
        try:
            handle = parent_conn.recv()
            assert handle.owner_pid == process.pid
            first = shm.attach_arrays(handle)
            second = shm.attach_arrays(handle)  # refcount bump, same views
            assert first["x"] is second["x"]
            assert np.array_equal(first["x"], np.arange(512))
            assert handle.token in shm._ATTACHED
            assert shm._ATTACHED[handle.token].refcount == 2
            shm.release_arrays(handle)
            assert handle.token in shm._ATTACHED  # one reference still out
            shm.release_arrays(handle)
            assert handle.token not in shm._ATTACHED
            shm.release_arrays(handle)  # over-release is a no-op
        finally:
            parent_conn.send("finish")
            assert parent_conn.recv() == "done"
            process.join(timeout=10)
        assert process.exitcode == 0
        assert not any(spec.name in shm.leaked_segments() for _, spec in handle.segments)


# ---------------------------------------------------------------------------- crash safety
class TestWorkerCrash:
    def test_sigkilled_worker_leaks_no_segments_and_loses_no_results(self, tmp_path):
        """The ISSUE's fault injection: a worker SIGKILLs itself mid-map while holding
        zero-copy attachments.  The pool must respawn it, re-dispatch its chunks and
        return complete, correct results -- and because attachers are never known to
        the resource tracker, the hard kill must leave ``/dev/shm`` byte-for-byte as
        the publisher left it."""
        before = set(shm.leaked_segments())
        arrays = _sample_arrays()
        handle = shm.publish_arrays(arrays)
        expected_base = float(np.asarray(arrays["floats64"], dtype=np.float64).sum())
        marker = tmp_path / "kill-once.marker"
        pool = WarmPool(2)
        payloads = [{"index": index, "die": index == 3} for index in range(24)]
        try:
            results = pool.run(
                "crash-test", _attach_or_die, {"handle": handle, "marker": str(marker)}, payloads
            )
            assert results == [expected_base + index for index in range(24)]
            assert pool.respawns >= 1
            assert marker.exists()
            # The killed worker attached segments but owned none: nothing new may
            # appear in /dev/shm beyond what the (still live) publisher owns.
            during = set(shm.leaked_segments())
            published = {spec.name for _, spec in handle.segments}
            assert during - before == published
        finally:
            pool.close()
            shm.unpublish(handle.token)
        assert set(shm.leaked_segments()) - before == set()

    def test_worker_exception_surfaces_as_warm_pool_error(self):
        pool = WarmPool(1)
        try:
            with pytest.raises(WarmPoolError, match="boom"):
                pool.run("error-test", _raise_boom, None, [1, 2, 3])
        finally:
            pool.close()


def _raise_boom(shared, payload):
    raise ValueError(f"boom on {payload}")


# ---------------------------------------------------------------------------- warm pool
class TestWarmPool:
    def test_install_once_per_key_and_lru_bound(self):
        pool = WarmPool(1)
        try:
            for index in range(INSTALL_LRU + 2):
                pool.run(f"key-{index}", _echo_payload, index, [1, 2])
            assert len(pool.installed_keys()) == INSTALL_LRU
            assert pool.installed_keys()[-1] == f"key-{INSTALL_LRU + 1}"  # newest kept
            assert pool.installed_keys()[0] == "key-2"  # oldest two evicted
        finally:
            pool.close()

    def test_results_in_input_order_regardless_of_chunking(self):
        pool = WarmPool(3)
        try:
            payloads = list(range(50))
            assert pool.run("order-test", _echo_payload, None, payloads) == payloads
        finally:
            pool.close()

    def test_process_wide_pool_is_shared_and_survives_closure(self):
        first = get_warm_pool(2)
        assert get_warm_pool(2) is first
        first.close()
        replacement = get_warm_pool(2)
        assert replacement is not first
        assert replacement.run("revival-test", _echo_payload, None, [7]) == [7]

    def test_closed_pool_rejects_work(self):
        pool = WarmPool(1)
        pool.close()
        with pytest.raises(WarmPoolError):
            pool.run("closed-test", _echo_payload, None, [1])


def _echo_payload(shared, payload):
    return payload


def _worker_blas_threads(shared, payload):
    return blas.blas_threads()


def _native_threads_after_one_thread_cap(results) -> None:
    """Child process: cap BLAS to one thread, use it, report non-Python OS threads."""
    capped = blas.cap_worker_blas_threads(blas.available_cores())
    matrix = np.arange(40000, dtype=np.float64).reshape(200, 200)
    matrix @ matrix
    native = len(os.listdir("/proc/self/task")) - threading.active_count()
    results.put((capped, native))


class TestBlasThreadCap:
    def test_set_and_get_round_trip(self):
        original = blas.blas_threads()
        if original is None:  # no OpenBLAS loaded: the cap must be a reported no-op
            assert not blas.set_blas_threads(1)
            return
        try:
            assert blas.set_blas_threads(1)
            assert blas.blas_threads() == 1
        finally:
            blas.set_blas_threads(original)
        assert blas.blas_threads() == original

    def test_warm_pool_workers_share_the_cores(self):
        """Two workers each get half the cores, so together they never oversubscribe."""
        pool = WarmPool(2)
        try:
            threads = pool.run("blas-cap-test", _worker_blas_threads, None, list(range(8)))
        finally:
            pool.close()
        if blas.blas_threads() is None:
            assert threads == [None] * 8
        else:
            assert set(threads) == {max(1, blas.available_cores() // 2)}

    def test_one_thread_cap_leaves_no_busy_waiting_helpers(self):
        """A worker capped to one BLAS thread keeps no OpenBLAS helper thread.

        Setting the thread count in a forked child starts OpenBLAS's helpers, and an
        idle helper busy-waits before it sleeps; a one-thread worker never uses them.
        """
        context = multiprocessing.get_context("fork")
        results = context.Queue()
        child = context.Process(target=_native_threads_after_one_thread_cap, args=(results,))
        child.start()
        capped, native = results.get(timeout=30)
        child.join(timeout=30)
        assert child.exitcode == 0
        if blas.blas_threads() is None:  # no OpenBLAS loaded: the cap is a reported no-op
            assert not capped
        else:
            assert capped
            assert native == 0


# ---------------------------------------------------------------------------- graph payloads
class TestSharedGraphPayload:
    def test_publish_is_idempotent_and_resolves_to_original_in_owner(self, tiny_graph):
        payload = shm.publish_graph(tiny_graph)
        again = shm.publish_graph(tiny_graph)
        assert payload.token == again.token == shm.graph_digest(tiny_graph)
        assert payload.resolve() is tiny_graph

    def test_digest_tracks_content_not_identity(self, tiny_graph):
        from repro.kg.graph import KnowledgeGraph
        from repro.kg.triples import TripleSet

        reordered = KnowledgeGraph(
            name=tiny_graph.name,
            num_entities=tiny_graph.num_entities,
            num_relations=tiny_graph.num_relations,
            train=TripleSet(tiny_graph.train.array[::-1].copy()),
            valid=tiny_graph.valid,
            test=tiny_graph.test,
        )
        assert shm.graph_digest(reordered) != shm.graph_digest(tiny_graph)

    def test_worker_reconstruction_is_byte_identical(self, tiny_graph):
        """A worker that cannot see the original object rebuilds the graph (and its
        CSR filter index) from shared memory, byte-identical to the publisher's."""
        payload = shm.publish_graph(tiny_graph)
        expected_splits = _fingerprint(
            {"train": tiny_graph.train.array, "valid": tiny_graph.valid.array, "test": tiny_graph.test.array}
        )
        sample = np.ascontiguousarray(tiny_graph.valid.array[: min(8, len(tiny_graph.valid.array))])
        expected_filter = _filter_fingerprint(tiny_graph.filter_index(), sample)
        pool = WarmPool(2)
        try:
            probes = pool.run(
                "graph-reconstruct", _graph_reconstruct_probe, {"graph_payload": payload}, list(range(4))
            )
        finally:
            pool.close()
        for probe in probes:
            assert probe["name"] == tiny_graph.name
            assert probe["num_entities"] == tiny_graph.num_entities
            assert probe["num_relations"] == tiny_graph.num_relations
            assert probe["splits"] == expected_splits
            assert probe["tail_filter"] == expected_filter
            assert probe["resolved_twice_is_memoised"]


# ---------------------------------------------------------------------------- soak
@pytest.mark.slow
class TestWarmPoolSoak:
    def test_soak_mixed_payloads_with_injected_crash_and_stable_rss(self, tmp_path):
        """The ISSUE's stress test: 200 mixed tasks over a 4-worker pool with one
        injected SIGKILL mid-run.  No deadlock (bounded wall clock via the liveness
        poll), no duplicate or missing results, and worker RSS stays flat across the
        second half of the run (the install LRU bounds per-worker memory)."""
        arrays = _sample_arrays()
        handle = shm.publish_arrays(arrays)
        base = float(np.asarray(arrays["floats64"], dtype=np.float64).sum())
        marker = tmp_path / "soak-kill.marker"
        pool = WarmPool(4)
        rss_after_warmup = {}
        try:
            completed = 0
            for batch in range(10):
                payloads = [
                    {"index": completed + offset, "die": (completed + offset) == 57}
                    for offset in range(20)
                ]
                # Rotate payload keys beyond the LRU bound so installs keep cycling.
                key = f"soak-{batch % (INSTALL_LRU + 2)}"
                results = pool.run(key, _attach_or_die, {"handle": handle, "marker": str(marker)}, payloads)
                assert results == [base + float(completed + offset) for offset in range(20)]
                completed += 20
                if batch == 4:
                    rss_after_warmup = _worker_rss(pool)
            assert completed == 200
            assert pool.respawns >= 1 and marker.exists()
            rss_final = _worker_rss(pool)
            for pid, final_kb in rss_final.items():
                start_kb = rss_after_warmup.get(pid)
                if start_kb is None:
                    continue  # respawned after the measurement point
                assert final_kb - start_kb < 64 * 1024, (
                    f"worker {pid} RSS grew {final_kb - start_kb} kB across the soak"
                )
        finally:
            pool.close()
            shm.unpublish(handle.token)


def _worker_rss(pool: WarmPool) -> dict:
    """``VmRSS`` in kB per live worker pid (empty off-Linux: the assertion degrades)."""
    rss = {}
    for slot in pool._slots:
        status = f"/proc/{slot.process.pid}/status"
        if not os.path.exists(status):  # pragma: no cover - non-Linux
            continue
        for line in open(status, encoding="utf-8"):
            if line.startswith("VmRSS:"):
                rss[slot.process.pid] = int(line.split()[1])
                break
    return rss


# ---------------------------------------------------------------------------- timing helper
def test_leaked_segments_scopes_to_our_prefix(tmp_path):
    """The leak scanner must never report foreign /dev/shm entries."""
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        pytest.skip("/dev/shm unavailable")
    foreign = "/dev/shm/repro-unrelated-segment"
    with open(foreign, "w", encoding="utf-8") as stream:
        stream.write("not ours")
    try:
        assert "repro-unrelated-segment" not in shm.leaked_segments()
    finally:
        os.unlink(foreign)
    handle = shm.publish_arrays({"x": np.arange(4)})
    try:
        assert all(name.startswith(shm.SHM_PREFIX) for name in shm.leaked_segments())
    finally:
        shm.unpublish(handle.token)

"""Streaming workload: live graph deltas interleaved with link-prediction queries.

Two phases share one ``BENCH_streaming.json`` row:

- **merge**: :func:`repro.runtime.profiling.time_streaming_updates` applies a stream
  of random deltas through :class:`~repro.stream.MutableGraphView` and the engine's
  cache-preserving :meth:`~repro.serve.engine.LinkPredictionEngine.apply_delta` swap,
  timing the incremental CSR merge against the full ``FilterIndex`` rebuild a
  non-incremental server would pay per delta.  The gate asserts the merged index is
  bit-identical to the rebuild and that the merge wins by at least
  ``MIN_MERGE_SPEEDUP`` for deltas under 1% of the graph.
- **serving**: a real :class:`~repro.serve.http.BackgroundHttpServer` takes a fleet
  of keep-alive predict clients while an updater client posts deltas to
  ``POST /v1/graph/delta``.  Every response carries the ``graph_version`` it was
  computed against, so the clients measure staleness directly: a response is *stale*
  when its version is older than the newest version the updater had already been
  acked when the request started.  The gate asserts zero failed requests and a
  staleness lag bounded by one version (the one in-flight micro-batch the frontend's
  snapshot-per-batch swap discipline allows).

``scripts/check_bench_regression.py`` gates the committed baseline automatically:
``merge_speedup`` higher-is-better, the ``*_seconds`` and ``*p50_ms``/``*p95_ms``
fields lower-is-better.
"""

import http.client
import json
import threading
import time

from repro.bench import bench_graph, summarize_latencies, train_structure, write_bench_json
from repro.bench.reporting import TableReport
from repro.runtime.profiling import _random_graph_delta, time_streaming_updates
from repro.scoring import named_structure
from repro.serve import (
    BackgroundHttpServer,
    FrontendConfig,
    LinkPredictionEngine,
    ServingFrontend,
)
from repro.stream import MutableGraphView
from repro.utils.rng import new_rng

from benchmarks.conftest import BENCH_SEED, run_once

# Merge phase: a larger graph so the rebuild cost is meaningful, deltas under 1%.
MERGE_SCALE = 6.0
MERGE_DELTAS = 12
MERGE_DELTA_TRIPLES = 32
MIN_MERGE_SPEEDUP = 5.0

# Serving phase: the http-benchmark serving setup plus one updater client.
STREAM_CLIENTS = 6
STREAM_REQUESTS_PER_CLIENT = 24
HTTP_DELTAS = 8
HTTP_DELTA_TRIPLES = 16
# Far above any sane single-core number; the committed baseline is the real gate.
MAX_SANE_P95_MS = 5000.0


def _post_json(conn, path, document):
    conn.request(
        "POST", path, body=json.dumps(document), headers={"Content-Type": "application/json"}
    )
    response = conn.getresponse()
    return response.status, json.loads(response.read().decode("utf-8"))


def _updater_loop(address, frontend, acked, lock, statuses, latencies_ms, delay_s):
    """One client streaming deltas at the server, recording each acked version."""
    rng = new_rng(BENCH_SEED + 1)
    conn = http.client.HTTPConnection(address[0], address[1], timeout=60.0)
    try:
        for _ in range(HTTP_DELTAS):
            # Deltas are generated against the live snapshot; the updater is the only
            # mutator, so each one is valid by construction when it arrives.
            delta = _random_graph_delta(frontend.graph_view.graph, HTTP_DELTA_TRIPLES, rng)
            document = {
                "adds": {split: array.tolist() for split, array in delta.adds.items()},
                "removes": {split: array.tolist() for split, array in delta.removes.items()},
            }
            started = time.perf_counter()
            status, body = _post_json(conn, "/v1/graph/delta", document)
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            with lock:
                statuses.append(status)
                latencies_ms.append(elapsed_ms)
                if status == 200:
                    acked["version"] = int(body["graph_version"])
            time.sleep(delay_s)
    finally:
        conn.close()


def _query_loop(address, graph, seed, count, acked, lock, records, latencies_ms):
    """One keep-alive predict client; records the staleness of every response."""
    rng = new_rng(seed)
    conn = http.client.HTTPConnection(address[0], address[1], timeout=60.0)
    try:
        for index in range(count):
            body = {"relation": int(rng.integers(graph.num_relations)), "k": 10}
            body["head" if index % 2 == 0 else "tail"] = int(rng.integers(graph.num_entities))
            with lock:
                acked_at_start = acked["version"]
            started = time.perf_counter()
            status, payload = _post_json(conn, "/v1/predict", body)
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            with lock:
                records.append((status, payload.get("graph_version", -1), acked_at_start))
                latencies_ms.append(elapsed_ms)
    finally:
        conn.close()


def _run_serving_phase():
    graph = bench_graph("wn18rr_like", scale=0.35, seed=BENCH_SEED)
    model, _ = train_structure(graph, named_structure("distmult"), dim=32, epochs=8, seed=BENCH_SEED)
    engine = LinkPredictionEngine.from_graph(model, graph)
    frontend = ServingFrontend(
        engine, model_name="bench", version=1,
        graph_view=MutableGraphView(graph),
        config=FrontendConfig(max_queue_depth=256, max_batch_size=32),
    )

    lock = threading.Lock()
    acked = {"version": 0}
    delta_statuses, update_ms = [], []
    records, query_ms = [], []
    with BackgroundHttpServer(frontend) as server:
        updater = threading.Thread(
            target=_updater_loop,
            args=(server.address, frontend, acked, lock, delta_statuses, update_ms, 0.02),
        )
        clients = [
            threading.Thread(
                target=_query_loop,
                args=(
                    server.address, graph, BENCH_SEED + 10 + index,
                    STREAM_REQUESTS_PER_CLIENT, acked, lock, records, query_ms,
                ),
            )
            for index in range(STREAM_CLIENTS)
        ]
        started = time.perf_counter()
        for thread in (updater, *clients):
            thread.start()
        for thread in (updater, *clients):
            thread.join(timeout=120.0)
        elapsed_s = time.perf_counter() - started
        assert not updater.is_alive() and not any(t.is_alive() for t in clients), "a client hung"
        metrics = frontend.metrics()

    stale_lags = [
        acked_at_start - version
        for status, version, acked_at_start in records
        if status == 200 and version < acked_at_start
    ]
    latency = summarize_latencies(query_ms)
    update_latency = summarize_latencies(update_ms)
    total = STREAM_CLIENTS * STREAM_REQUESTS_PER_CLIENT
    row = {
        "stream_requests": total,
        "stream_clients": STREAM_CLIENTS,
        "stream_qps": round(total / elapsed_s, 1),
        "stream_p50_ms": latency["p50_ms"],
        "stream_p95_ms": latency["p95_ms"],
        "http_deltas": HTTP_DELTAS,
        "delta_post_p50_ms": update_latency["p50_ms"],
        "delta_post_p95_ms": update_latency["p95_ms"],
        "stream_stale_results": len(stale_lags),
        "stream_max_stale_lag": max(stale_lags, default=0),
        "stream_failed": sum(1 for status, _, _ in records if status != 200),
    }
    return row, delta_statuses, records, metrics


def _run_workload():
    merge_graph = bench_graph("fb15k_like", scale=MERGE_SCALE, seed=BENCH_SEED)
    merge_row = time_streaming_updates(
        merge_graph,
        num_deltas=MERGE_DELTAS,
        delta_triples=MERGE_DELTA_TRIPLES,
        queries_per_delta=16,
        seed=BENCH_SEED,
    )
    serving_row, delta_statuses, records, metrics = _run_serving_phase()
    return {**merge_row, **serving_row}, delta_statuses, records, metrics


def test_streaming_updates(benchmark):
    row, delta_statuses, records, metrics = run_once(benchmark, _run_workload)
    report = TableReport("streaming -- incremental merge and live update/query serving")
    report.add_row(**row)
    report.show()
    path = write_bench_json("streaming", row)
    print(f"perf trajectory written to {path}")

    # Merge phase: bit-identical incremental merge, winning by the required factor
    # for deltas well under 1% of the graph.
    assert row["merge_matches_rebuild"] is True
    assert row["delta_fraction"] <= 0.01
    assert row["merge_speedup"] >= MIN_MERGE_SPEEDUP
    assert row["stale_results"] == 0 and row["failed_queries"] == 0

    # Serving phase: every delta accepted, every query answered, bounded staleness.
    assert delta_statuses == [200] * HTTP_DELTAS
    assert row["stream_failed"] == 0
    assert len(records) == row["stream_requests"]
    # The snapshot-per-batch swap allows at most one in-flight batch at the old
    # version; anything further behind means invalidation is broken.
    assert row["stream_max_stale_lag"] <= 1
    assert 0 < row["stream_p50_ms"] <= row["stream_p95_ms"] <= MAX_SANE_P95_MS
    # The server ended at the version the updater was last acked.
    assert metrics["graph"]["version"] == HTTP_DELTAS
    assert metrics["graph"]["deltas_accepted"] == HTTP_DELTAS
    assert metrics["graph"]["deltas_rejected"] == 0
    assert metrics["engine"]["deltas_applied"] == HTTP_DELTAS

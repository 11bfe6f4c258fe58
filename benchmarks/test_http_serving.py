"""HTTP serving workload: end-to-end latency, throughput and overload shedding.

Drives the full network stack -- real sockets, HTTP parsing, admission queue,
continuous batching, scoring -- with concurrent keep-alive clients against a
:class:`~repro.serve.http.BackgroundHttpServer`, in two phases:

- **steady**: a closed-loop fleet of clients issues seeded link-prediction requests
  and records client-observed latencies; the row reports p50/p95 and end-to-end qps.
- **overload**: a deliberately slow engine behind a tiny admission queue is hammered
  with more concurrency than it can absorb; the row reports the shed rate and the
  gate asserts every request was answered (200 or 503 + ``Retry-After``) -- overload
  must degrade into fast rejections, never into hangs.

``BENCH_http.json`` extends the perf trajectory: the committed baseline pins
``predict_p50_ms`` / ``predict_p95_ms``, which ``scripts/check_bench_regression.py``
gates lower-is-better with the same noise floor as the wall-clock fields.
"""

import http.client
import json
import threading
import time

from repro.bench import bench_graph, summarize_latencies, train_structure, write_bench_json
from repro.bench.reporting import TableReport
from repro.scoring import named_structure
from repro.serve import (
    BackgroundHttpServer,
    FrontendConfig,
    LinkPredictionEngine,
    ServingFrontend,
)
from repro.utils.rng import new_rng

from benchmarks.conftest import BENCH_SEED, run_once

STEADY_CLIENTS = 8
STEADY_REQUESTS_PER_CLIENT = 20
OVERLOAD_CLIENTS = 8
OVERLOAD_REQUESTS_PER_CLIENT = 6
# Worst acceptable client-observed p95 for the tiny steady workload; far above the
# expected single-core number, so only a pathological stall trips it here (the real
# regression gate is the committed BENCH_http.json baseline).
MAX_SANE_P95_MS = 5000.0


class _SlowEngine:
    """Delays every batch so the admission queue actually fills under load."""

    def __init__(self, inner, delay_s):
        self.inner = inner
        self.delay_s = delay_s

    def validate_query(self, query):
        self.inner.validate_query(query)

    def predict(self, queries):
        time.sleep(self.delay_s)
        return self.inner.predict(queries)


def _client_loop(address, requests, statuses, latencies_ms, lock):
    """One keep-alive client issuing sequential predict requests."""
    conn = http.client.HTTPConnection(address[0], address[1], timeout=60.0)
    try:
        for body in requests:
            started = time.perf_counter()
            conn.request("POST", "/v1/predict", body=json.dumps(body),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            response.read()
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            with lock:
                statuses.append(response.status)
                latencies_ms.append(elapsed_ms)
            if response.status == 503:
                # shed responses may close the connection; reconnect for the next try
                conn.close()
                conn = http.client.HTTPConnection(address[0], address[1], timeout=60.0)
    finally:
        conn.close()


def _fire_clients(address, per_client_requests):
    statuses, latencies_ms, lock = [], [], threading.Lock()
    threads = [
        threading.Thread(target=_client_loop, args=(address, requests, statuses, latencies_ms, lock))
        for requests in per_client_requests
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    assert not any(thread.is_alive() for thread in threads), "a benchmark client hung"
    return statuses, latencies_ms, time.perf_counter() - started


def _request_stream(graph, rng, count):
    stream = []
    for index in range(count):
        body = {"relation": int(rng.integers(graph.num_relations)), "k": 10}
        body["head" if index % 2 == 0 else "tail"] = int(rng.integers(graph.num_entities))
        stream.append(body)
    return stream


def _run_workload():
    graph = bench_graph("wn18rr_like", scale=0.35, seed=BENCH_SEED)
    model, _ = train_structure(graph, named_structure("distmult"), dim=32, epochs=8, seed=BENCH_SEED)
    engine = LinkPredictionEngine.from_graph(model, graph, cache_size=0)
    rng = new_rng(BENCH_SEED)

    # -------------------------------------------------------------- steady phase
    frontend = ServingFrontend(
        engine, model_name="bench", version=1,
        config=FrontendConfig(max_queue_depth=256, max_batch_size=32),
    )
    with BackgroundHttpServer(frontend) as server:
        streams = [
            _request_stream(graph, rng, STEADY_REQUESTS_PER_CLIENT) for _ in range(STEADY_CLIENTS)
        ]
        statuses, latencies_ms, elapsed_s = _fire_clients(server.address, streams)
    steady_total = STEADY_CLIENTS * STEADY_REQUESTS_PER_CLIENT
    assert statuses.count(200) == steady_total, f"steady phase saw non-200s: {set(statuses)}"
    latency = summarize_latencies(latencies_ms)
    qps = steady_total / elapsed_s

    # -------------------------------------------------------------- overload phase
    slow_frontend = ServingFrontend(
        _SlowEngine(engine, delay_s=0.05), model_name="bench", version=1,
        config=FrontendConfig(
            max_queue_depth=4, max_batch_size=1,
            default_deadline_s=25.0, max_deadline_s=30.0,
        ),
    )
    with BackgroundHttpServer(slow_frontend) as server:
        streams = [
            _request_stream(graph, rng, OVERLOAD_REQUESTS_PER_CLIENT)
            for _ in range(OVERLOAD_CLIENTS)
        ]
        overload_statuses, _, _ = _fire_clients(server.address, streams)
    overload_total = OVERLOAD_CLIENTS * OVERLOAD_REQUESTS_PER_CLIENT
    shed = overload_statuses.count(503)
    answered_ok = overload_statuses.count(200)

    row = {
        "requests": steady_total,
        "clients": STEADY_CLIENTS,
        "qps": round(qps, 1),
        "predict_p50_ms": latency["p50_ms"],
        "predict_p95_ms": latency["p95_ms"],
        "predict_max_ms": latency["max_ms"],
        "overload_requests": overload_total,
        "overload_ok": answered_ok,
        "shed": shed,
        "shed_rate": round(shed / overload_total, 3),
    }
    return row, statuses, overload_statuses


def test_http_serving_load(benchmark):
    row, steady_statuses, overload_statuses = run_once(benchmark, _run_workload)
    report = TableReport("HTTP serving -- steady latency and overload shedding")
    report.add_row(**row)
    report.show()
    path = write_bench_json("http", row)
    print(f"perf trajectory written to {path}")

    # Steady traffic is all answered, with sane client-observed tail latency.
    assert set(steady_statuses) == {200}
    assert row["qps"] > 0
    assert 0 < row["predict_p50_ms"] <= row["predict_p95_ms"] <= MAX_SANE_P95_MS
    # Overload degrades into fast shedding, never hangs: every request got an answer,
    # some were shed with 503, and everything admitted was eventually served.
    assert set(overload_statuses) <= {200, 503}
    assert len(overload_statuses) == row["overload_requests"]
    assert row["shed"] > 0, "overload phase never shed -- queue bound not exercised"
    assert row["overload_ok"] + row["shed"] == row["overload_requests"]

"""Fault-injection tests for the HTTP serving stack, against a real localhost server.

Every scenario drives actual sockets: overload (shedding with ``Retry-After``, never a
hang), deadline expiry (504, cancelled before scoring), readiness degradation under
backlog, mid-flight artifact corruption with rollback (zero failed in-flight requests),
circuit breaking, and SIGTERM drain of a real ``python -m repro serve --http``
subprocess.  Timing margins are generous because CI may have a single core.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro.models import KGEModel
from repro.scoring import named_structure
from repro.serve import (
    BackgroundHttpServer,
    FrontendConfig,
    LinkPredictionEngine,
    ModelArtifactRegistry,
    ReloadConfig,
    ServingFrontend,
)
from repro.serve.frontend import EngineReloader
from repro.serve.http import parse_address
from repro.stream import MutableGraphView

REPO_ROOT = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------- helpers
class SlowEngine:
    """Engine wrapper that delays (or gates) scoring and records every ``predict`` call."""

    def __init__(self, inner, delay_s: float = 0.0, gate: threading.Event = None) -> None:
        self.inner = inner
        self.delay_s = delay_s
        self.gate = gate
        self.calls = []
        self._lock = threading.Lock()

    @property
    def scored(self):
        """Every query scored so far, in call order."""
        with self._lock:
            return [query for call in self.calls for query in call]

    def validate_query(self, query) -> None:
        self.inner.validate_query(query)

    def predict(self, queries):
        with self._lock:
            self.calls.append(list(queries))
        if self.gate is not None:
            assert self.gate.wait(timeout=30.0), "test gate was never released"
        if self.delay_s:
            time.sleep(self.delay_s)
        return self.inner.predict(queries)


def _request(address, method, path, body=None, timeout=15.0):
    """One HTTP request; returns (status, parsed JSON payload, headers dict)."""
    conn = http.client.HTTPConnection(address[0], address[1], timeout=timeout)
    try:
        payload = json.dumps(body) if body is not None else None
        conn.request(method, path, body=payload, headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        raw = response.read()
        return response.status, json.loads(raw) if raw else {}, dict(response.getheaders())
    finally:
        conn.close()


def _predict(address, relation=0, head=None, tail=None, k=3, deadline_ms=None, timeout=15.0):
    body = {"relation": relation, "k": k}
    if head is not None:
        body["head"] = head
    if tail is not None:
        body["tail"] = tail
    if deadline_ms is not None:
        body["deadline_ms"] = deadline_ms
    return _request(address, "POST", "/v1/predict", body=body, timeout=timeout)


@contextmanager
def serving(engine, config=None, **kwargs):
    frontend = ServingFrontend(engine, model_name="m", version=1, config=config, **kwargs)
    with BackgroundHttpServer(frontend) as server:
        yield server.address, frontend


def _wait_until(condition, timeout=10.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if condition():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {message}")


@pytest.fixture()
def engine(tiny_graph, trained_tiny_model):
    return LinkPredictionEngine.from_graph(trained_tiny_model, tiny_graph)


# ---------------------------------------------------------------------------- endpoints
class TestEndpoints:
    def test_predict_matches_engine(self, engine):
        expected = engine.top_k(relation=1, head=3, k=4)
        with serving(engine) as (address, _):
            status, payload, _ = _predict(address, relation=1, head=3, k=4)
        assert status == 200
        assert payload["model"] == {"name": "m", "version": 1}
        assert payload["direction"] == "tail"
        got = [(r["entity"], r["score"]) for r in payload["results"]]
        assert got == [(int(e), float(s)) for e, s in expected.pairs()]
        assert [r["label"] for r in payload["results"]] == list(expected.labels)

    def test_head_completion_and_keep_alive(self, engine):
        with serving(engine) as (address, _):
            conn = http.client.HTTPConnection(address[0], address[1], timeout=15.0)
            try:
                for _ in range(3):  # several requests over one keep-alive connection
                    conn.request("POST", "/v1/predict", body=json.dumps({"relation": 0, "tail": 5}))
                    response = conn.getresponse()
                    payload = json.loads(response.read())
                    assert response.status == 200
                    assert payload["direction"] == "head"
            finally:
                conn.close()

    def test_health_ready_metrics(self, engine):
        with serving(engine) as (address, _):
            assert _request(address, "GET", "/healthz")[0] == 200
            status, payload, _ = _request(address, "GET", "/readyz")
            assert (status, payload["ready"]) == (200, True)
            _predict(address, relation=0, head=1)
            status, metrics, _ = _request(address, "GET", "/metrics")
            assert status == 200
            assert metrics["model"] == {"name": "m", "version": 1}
            assert metrics["counters"]["completed"] == 1
            assert metrics["latency"]["count"] == 1
            assert metrics["service"]["queries"] == 1

    def test_malformed_requests(self, engine):
        with serving(engine) as (address, _):
            status, payload, _ = _request(address, "POST", "/v1/predict", body={"k": 3})
            assert status == 400 and "relation" in payload["error"]
            # both head and tail, neither, bad types, bad JSON, bad routes
            assert _predict(address, relation=0, head=1, tail=2)[0] == 400
            assert _request(address, "POST", "/v1/predict", body={"relation": 0})[0] == 400
            assert _request(address, "POST", "/v1/predict", body=[1, 2])[0] == 400
            assert _predict(address, relation=10_000, head=1)[0] == 400
            assert _predict(address, relation=0, head=10_000)[0] == 400
            assert _request(address, "GET", "/v1/predict")[0] == 405
            assert _request(address, "POST", "/healthz")[0] == 405
            assert _request(address, "GET", "/nowhere")[0] == 404
            conn = http.client.HTTPConnection(address[0], address[1], timeout=15.0)
            try:
                conn.request("POST", "/v1/predict", body=b"{not json")
                assert conn.getresponse().status == 400
            finally:
                conn.close()
            # the server survived all of it
            assert _request(address, "GET", "/healthz")[0] == 200

    def test_reload_endpoint_without_reloader(self, engine):
        with serving(engine) as (address, _):
            status, payload, _ = _request(address, "POST", "/v1/reload")
            assert status == 409
            assert "disabled" in payload["error"]


# ---------------------------------------------------------------------------- live graph deltas
def _fresh_triple(graph, relation):
    """Some ``[head, relation, tail]`` absent from every split of ``graph``."""
    index = graph.filter_index()
    for head in range(graph.num_entities):
        for tail in range(graph.num_entities):
            if not index.contains(head, relation, tail):
                return [head, relation, tail]
    raise AssertionError("graph is complete; no fresh triple exists")


class TestGraphDelta:
    """``POST /v1/graph/delta``: versioned swaps, selective invalidation, fault isolation."""

    def test_delta_swaps_version_and_invalidates_only_touched_relations(
        self, tiny_graph, trained_tiny_model
    ):
        engine = LinkPredictionEngine.from_graph(trained_tiny_model, tiny_graph)
        view = MutableGraphView(tiny_graph)
        with serving(engine, graph_view=view) as (address, frontend):
            # Warm one LRU entry per relation; results carry the boot version.
            assert _predict(address, relation=0, head=1)[1]["graph_version"] == 0
            assert _predict(address, relation=1, head=1)[1]["graph_version"] == 0

            triple = _fresh_triple(view.graph, relation=0)
            status, payload, _ = _request(
                address, "POST", "/v1/graph/delta", body={"adds": {"train": [triple]}}
            )
            assert status == 200
            assert payload["ok"] is True
            assert payload["graph_version"] == 1
            assert payload["added"] == 1 and payload["removed"] == 0
            assert payload["relations_touched"] == 1

            # The swapped-in engine dropped only the touched relation's cache entry.
            live = frontend.engine
            assert live.graph_version == 1
            assert [key[2] for key in live._lru] == [1]
            assert live.stats.deltas_applied == 1
            assert live.stats.cache_entries_invalidated == 1

            # New results are stamped with the new version -- including the surviving
            # relation-1 entry, which is re-stamped on its next cache hit.
            assert _predict(address, relation=0, head=1)[1]["graph_version"] == 1
            assert _predict(address, relation=1, head=1)[1]["graph_version"] == 1

            status, metrics, _ = _request(address, "GET", "/metrics")
            assert status == 200
            assert metrics["graph"]["version"] == 1
            assert metrics["graph"]["attached"] is True
            assert metrics["graph"]["deltas_accepted"] == 1
            assert metrics["graph"]["deltas_rejected"] == 0
            assert metrics["engine"]["deltas_applied"] == 1

    def test_invalid_delta_rejected_engine_and_caches_intact(
        self, tiny_graph, trained_tiny_model
    ):
        engine = LinkPredictionEngine.from_graph(trained_tiny_model, tiny_graph)
        view = MutableGraphView(tiny_graph)
        with serving(engine, graph_view=view) as (address, frontend):
            _predict(address, relation=0, head=1)
            _predict(address, relation=1, head=2)
            live = frontend.engine
            cached_before = live.cache_info()["lru_entries"]
            assert cached_before == 2

            # Out-of-vocab entity: rejected against the live snapshot, version echoed.
            status, payload, _ = _request(
                address, "POST", "/v1/graph/delta",
                body={"adds": {"train": [[10_000, 0, 0]]}},
            )
            assert status == 400 and "out of range" in payload["error"]
            assert payload["graph_version"] == 0
            # Remove of a triple that does not exist.
            status, payload, _ = _request(
                address, "POST", "/v1/graph/delta",
                body={"removes": {"train": [_fresh_triple(view.graph, relation=0)]}},
            )
            assert status == 400 and "not present" in payload["error"]
            # Malformed payloads and methods.
            assert _request(address, "POST", "/v1/graph/delta", body={"bogus": 1})[0] == 400
            conn = http.client.HTTPConnection(address[0], address[1], timeout=15.0)
            try:
                conn.request("POST", "/v1/graph/delta", body=b"{not json")
                assert conn.getresponse().status == 400
            finally:
                conn.close()
            assert _request(address, "GET", "/v1/graph/delta")[0] == 405

            # The engine is provably still the old one: same object, old version,
            # caches untouched, and the view never advanced.
            assert frontend.engine is live
            assert live.graph_version == 0
            assert view.version == 0
            assert live.cache_info()["lru_entries"] == cached_before
            assert live.stats.deltas_applied == 0

            status, metrics, _ = _request(address, "GET", "/metrics")
            assert metrics["graph"]["version"] == 0
            assert metrics["graph"]["deltas_accepted"] == 0
            assert metrics["graph"]["deltas_rejected"] == 4
            # Serving still answers at the old version.
            assert _predict(address, relation=0, head=1)[1]["graph_version"] == 0

    def test_delta_without_graph_view_is_409(self, engine):
        with serving(engine) as (address, _):
            status, payload, _ = _request(
                address, "POST", "/v1/graph/delta", body={"adds": {}}
            )
            assert status == 409
            assert "no graph" in payload["error"]


# ---------------------------------------------------------------------------- overload
class TestOverload:
    def test_overload_sheds_with_retry_after_and_never_hangs(self, engine):
        slow = SlowEngine(engine, delay_s=0.15)
        config = FrontendConfig(
            max_queue_depth=2, max_batch_size=1, default_deadline_s=20.0, max_deadline_s=30.0
        )
        outcomes = []
        lock = threading.Lock()

        def fire():
            result = _predict(address, relation=0, head=1, timeout=30.0)
            with lock:
                outcomes.append(result)

        with serving(slow, config=config) as (address, frontend):
            threads = [threading.Thread(target=fire) for _ in range(12)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=45.0)
            assert not any(thread.is_alive() for thread in threads), "a request hung"

            statuses = [status for status, _, _ in outcomes]
            assert len(statuses) == 12
            assert set(statuses) <= {200, 503}
            assert statuses.count(200) >= 1
            assert statuses.count(503) >= 1, "overload never shed"
            for status, payload, headers in outcomes:
                if status == 503:
                    assert "Retry-After" in headers
                    assert "full" in payload["error"]
            assert frontend.shed == statuses.count(503)
            assert frontend.completed == statuses.count(200)
        # after load passes, the server still answers
        assert frontend.accepted == frontend.completed

    def test_readyz_degrades_under_backlog_and_recovers(self, engine):
        gate = threading.Event()
        gated = SlowEngine(engine, gate=gate)
        config = FrontendConfig(
            max_queue_depth=8, high_water=2, max_batch_size=1,
            default_deadline_s=25.0, max_deadline_s=30.0,
        )
        statuses = []
        lock = threading.Lock()

        def fire():
            status, _, _ = _predict(address, relation=0, head=1, timeout=40.0)
            with lock:
                statuses.append(status)

        with serving(gated, config=config) as (address, frontend):
            threads = [threading.Thread(target=fire) for _ in range(4)]
            for thread in threads:
                thread.start()
            try:
                # one request blocks in scoring, the rest pile up past high water
                _wait_until(lambda: frontend.queue_depth() >= 2, message="backlog to build")
                status, payload, _ = _request(address, "GET", "/readyz")
                assert status == 503
                assert payload["ready"] is False
                assert "high-water" in payload["reason"]
            finally:
                gate.set()
            for thread in threads:
                thread.join(timeout=45.0)
            assert statuses == [200, 200, 200, 200]
            status, payload, _ = _request(address, "GET", "/readyz")
            assert (status, payload["ready"]) == (200, True)


# ---------------------------------------------------------------------------- deadlines
class TestDeadlines:
    def test_expired_deadline_returns_504_and_never_scores(self, engine):
        slow = SlowEngine(engine, delay_s=0.5)
        config = FrontendConfig(
            max_queue_depth=8, max_batch_size=1, default_deadline_s=20.0, max_deadline_s=30.0
        )
        first_result = {}

        def fire_first():
            first_result["outcome"] = _predict(address, relation=0, head=1, timeout=30.0)

        with serving(slow, config=config) as (address, frontend):
            thread = threading.Thread(target=fire_first)
            thread.start()
            # let the first request reach the scorer, then queue one with a tiny deadline
            _wait_until(lambda: len(slow.scored) >= 1, message="first request to reach scoring")
            status, payload, _ = _predict(address, relation=0, head=2, deadline_ms=100, timeout=30.0)
            assert status == 504
            assert "deadline" in payload["error"]
            thread.join(timeout=30.0)
            assert first_result["outcome"][0] == 200
            # the expired request was cancelled before it could occupy a batch slot
            _wait_until(
                lambda: frontend.cancelled_before_scoring >= 1,
                message="cancellation to be recorded",
            )
            assert all(query.anchor != 2 for query in slow.scored)
            assert frontend.deadline_timeouts == 1


# ---------------------------------------------------------------------------- batching
def _fire(address, outcomes, key, **query):
    """Send one predict on its own thread; ``outcomes[key]`` receives its reply."""

    def send():
        outcomes[key] = _predict(address, timeout=30.0, **query)

    thread = threading.Thread(target=send)
    thread.start()
    return thread


class TestContinuousBatching:
    def test_backlog_batches_and_bad_query_fails_alone(self, engine):
        gate = threading.Event()
        gated = SlowEngine(engine, gate=gate)
        config = FrontendConfig(max_batch_size=64, default_deadline_s=25.0, max_deadline_s=30.0)
        outcomes = {}
        with serving(gated, config=config) as (address, frontend):
            threads = [_fire(address, outcomes, "a", relation=0, head=1)]
            try:
                # A is scored alone as soon as it arrives: the scorer was idle.
                _wait_until(lambda: len(gated.calls) == 1, message="batch A to reach scoring")
                threads.append(_fire(address, outcomes, "b", relation=1, head=2))
                threads.append(_fire(address, outcomes, "c", relation=10_000, head=2))
                _wait_until(lambda: frontend.queue_depth() == 2, message="B and C to queue behind A")
            finally:
                gate.set()
            for thread in threads:
                thread.join(timeout=30.0)
        assert outcomes["a"][0] == 200
        assert outcomes["b"][0] == 200
        assert outcomes["c"][0] == 400 and "relation id" in outcomes["c"][1]["error"]
        # B and C gathered while A scored; C was rejected on its own and B was scored
        # in one predict call without it.
        assert [[(q.relation, q.anchor) for q in call] for call in gated.calls] == [[(0, 1)], [(1, 2)]]

    def test_batch_never_exceeds_max_batch_size(self, engine):
        gate = threading.Event()
        gated = SlowEngine(engine, gate=gate)
        config = FrontendConfig(max_batch_size=2, default_deadline_s=25.0, max_deadline_s=30.0)
        outcomes = {}
        with serving(gated, config=config) as (address, frontend):
            threads = [_fire(address, outcomes, "first", relation=0, head=0)]
            try:
                _wait_until(lambda: len(gated.calls) == 1, message="the first batch to reach scoring")
                threads += [_fire(address, outcomes, head, relation=0, head=head) for head in (1, 2, 3)]
                _wait_until(lambda: frontend.queue_depth() == 3, message="three requests to queue")
            finally:
                gate.set()
            for thread in threads:
                thread.join(timeout=30.0)
        assert {status for status, _, _ in outcomes.values()} == {200}
        assert [len(call) for call in gated.calls] == [1, 2, 1]

    def test_failed_predict_fails_only_its_own_batch(self, engine):
        class FailsFirstCall(SlowEngine):
            def predict(self, queries):
                results = super().predict(queries)
                if len(self.calls) == 1:
                    raise RuntimeError("transient scoring failure")
                return results

        with serving(FailsFirstCall(engine)) as (address, frontend):
            status, payload, _ = _predict(address, relation=0, head=1)
            assert status == 500 and "transient scoring failure" in payload["error"]
            # Nothing of the failed batch lingers: the next request scores alone.
            assert _predict(address, relation=0, head=1)[0] == 200
            assert [len(call) for call in frontend.engine.calls] == [1, 1]
            assert frontend.errors == 1


# ---------------------------------------------------------------------------- hot reload
def _fresh_model(graph, seed):
    return KGEModel(
        num_entities=graph.num_entities,
        num_relations=graph.num_relations,
        dim=16,
        scorers=named_structure("distmult"),
        seed=seed,
    )


def _corrupt_weights(registry, name, version):
    weights = registry.resolve(name, version).weights_path
    payload = weights.read_bytes()
    weights.write_bytes(payload[:-1] + bytes([payload[-1] ^ 0xFF]))


class TestHotReload:
    def test_rollback_then_circuit_open_then_swap(self, tiny_graph, trained_tiny_model, tmp_path):
        registry = ModelArtifactRegistry(tmp_path / "registry")
        registry.save("m", trained_tiny_model)
        frontend = ServingFrontend.from_registry(
            registry, "m", graph=tiny_graph,
            reload_config=ReloadConfig(
                poll_interval_s=0.0, backoff_initial_s=0.0, max_attempts=2, smoke_queries=2
            ),
        )
        assert frontend.version == 1

        stop = threading.Event()
        statuses = []

        def hammer():
            while not stop.is_set():
                status, _, _ = _predict(address, relation=0, head=1, timeout=20.0)
                statuses.append(status)
                time.sleep(0.01)

        with BackgroundHttpServer(frontend) as server:
            address = server.address
            client = threading.Thread(target=hammer)
            client.start()
            try:
                # v2 exists but its weights are corrupted mid-flight
                registry.save("m", _fresh_model(tiny_graph, seed=7))
                _corrupt_weights(registry, "m", 2)

                status, payload, _ = _request(address, "POST", "/v1/reload")
                assert (status, payload["outcome"]) == (200, "rolled-back")
                assert payload["active_version"] == 1
                assert "integrity" in payload["last_error"]

                # second failure exhausts max_attempts=2 and opens the circuit
                assert _request(address, "POST", "/v1/reload")[1]["outcome"] == "rolled-back"
                payload = _request(address, "POST", "/v1/reload")[1]
                assert payload["outcome"] == "circuit-open"
                assert payload["broken_versions"] == [2]

                # a good v3 supersedes the broken v2 and swaps in
                registry.save("m", _fresh_model(tiny_graph, seed=8))
                payload = _request(address, "POST", "/v1/reload")[1]
                assert payload["outcome"] == "swapped"
                assert payload["active_version"] == 3

                status, predict_payload, _ = _predict(address, relation=0, head=1)
                assert status == 200
                assert predict_payload["model"]["version"] == 3
                metrics = _request(address, "GET", "/metrics")[1]
                assert metrics["reload"]["swaps"] == 1
                assert metrics["reload"]["rollbacks"] == 2
            finally:
                stop.set()
                client.join(timeout=30.0)
        # zero failed in-flight requests across two rollbacks and a swap
        assert statuses and set(statuses) == {200}

    def test_background_poll_swaps_without_client_action(self, tiny_graph, trained_tiny_model, tmp_path):
        registry = ModelArtifactRegistry(tmp_path / "registry")
        registry.save("m", trained_tiny_model)
        frontend = ServingFrontend.from_registry(
            registry, "m", graph=tiny_graph,
            reload_config=ReloadConfig(poll_interval_s=0.05, smoke_queries=2),
        )
        with BackgroundHttpServer(frontend) as server:
            address = server.address
            registry.save("m", _fresh_model(tiny_graph, seed=9))
            _wait_until(lambda: frontend.version == 2, message="background reload to swap")
            assert _predict(address, relation=0, head=1)[1]["model"]["version"] == 2

    def test_failed_poll_is_counted_logged_and_survived(
        self, tiny_graph, trained_tiny_model, tmp_path, caplog, monkeypatch
    ):
        registry = ModelArtifactRegistry(tmp_path / "registry")
        registry.save("m", trained_tiny_model)
        frontend = ServingFrontend.from_registry(
            registry, "m", graph=tiny_graph,
            reload_config=ReloadConfig(poll_interval_s=0.05, smoke_queries=2),
        )
        healthy_latest = registry.latest_version
        calls = {"n": 0}

        def latest_version_failing_once(name):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("registry volume unavailable")
            return healthy_latest(name)

        monkeypatch.setattr(registry, "latest_version", latest_version_failing_once)
        with caplog.at_level("ERROR", logger="repro.serve.frontend"):
            with BackgroundHttpServer(frontend) as server:
                address = server.address
                _wait_until(lambda: frontend.reload_poll_errors == 1, message="the failed poll")
                registry.save("m", _fresh_model(tiny_graph, seed=10))
                _wait_until(lambda: frontend.version == 2, message="a later poll to swap")
                metrics = _request(address, "GET", "/metrics")[1]
        assert metrics["reload"]["poll_errors"] == 1
        assert metrics["reload"]["swaps"] == 1
        logged = [record.exc_info[1] for record in caplog.records if record.exc_info]
        assert [str(error) for error in logged] == ["registry volume unavailable"]

    def test_pinned_version_never_reloads(self, tiny_graph, trained_tiny_model, tmp_path):
        registry = ModelArtifactRegistry(tmp_path / "registry")
        registry.save("m", trained_tiny_model)
        frontend = ServingFrontend.from_registry(registry, "m", version=1, graph=tiny_graph)
        assert frontend.reloader is None


class TestEngineReloader:
    """Unit tests of the backoff / circuit-breaker state machine with a fake clock."""

    @pytest.fixture()
    def setup(self, tiny_graph, trained_tiny_model, tmp_path):
        registry = ModelArtifactRegistry(tmp_path / "registry")
        registry.save("m", trained_tiny_model)
        clock = {"now": 0.0}
        swapped = []
        reloader = EngineReloader(
            registry,
            "m",
            build_engine=lambda model, manifest, version: LinkPredictionEngine(model),
            on_swap=lambda engine, version: swapped.append(version),
            active_version=1,
            config=ReloadConfig(
                poll_interval_s=0.0, smoke_queries=2, max_attempts=3,
                backoff_initial_s=1.0, backoff_multiplier=2.0, backoff_max_s=10.0,
            ),
            clock=lambda: clock["now"],
        )
        return registry, reloader, clock, swapped

    def test_up_to_date(self, setup):
        _, reloader, _, swapped = setup
        assert reloader.check_once() == "up-to-date"
        assert swapped == []

    def test_backoff_schedule_and_circuit_breaker(self, setup, tiny_graph):
        registry, reloader, clock, swapped = setup
        registry.save("m", _fresh_model(tiny_graph, seed=3))
        _corrupt_weights(registry, "m", 2)

        assert reloader.check_once() == "rolled-back"     # attempt 1, retry at t=1
        clock["now"] = 0.5
        assert reloader.check_once() == "backing-off"
        clock["now"] = 1.5
        assert reloader.check_once() == "rolled-back"     # attempt 2, retry at t=3.5
        clock["now"] = 3.0
        assert reloader.check_once() == "backing-off"
        clock["now"] = 4.0
        assert reloader.check_once() == "rolled-back"     # attempt 3 of 3: circuit opens
        clock["now"] = 100.0
        assert reloader.check_once() == "circuit-open"
        assert reloader.rollbacks == 3
        assert swapped == []

        # a newer good version resets the process
        registry.save("m", _fresh_model(tiny_graph, seed=4))
        assert reloader.check_once() == "swapped"
        assert swapped == [3]
        assert reloader.active_version == 3
        assert reloader.previous_version == 1

    def test_nan_model_fails_smoke_validation(self, setup, tiny_graph):
        registry, reloader, _, swapped = setup
        broken = _fresh_model(tiny_graph, seed=5)
        # poison every parameter with NaN: the checksum still passes, only smoke fails
        state = {name: np.full_like(array, np.nan) for name, array in broken.state_dict().items()}
        broken.load_state_dict(state)
        registry.save("m", broken)
        assert reloader.check_once() == "rolled-back"
        assert "smoke" in reloader.last_error or "zero candidates" in reloader.last_error
        assert swapped == []


# ---------------------------------------------------------------------------- drain
class TestSigtermDrain:
    def test_sigterm_drains_and_answers_accepted_requests(self, tiny_graph, trained_tiny_model, tmp_path):
        registry = ModelArtifactRegistry(tmp_path / "registry")
        registry.save("m", trained_tiny_model)

        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--http", "--port", "0",
                "--registry", str(tmp_path / "registry"), "--model", "m",
                "--no-reload", "--max-queue-depth", "64",
            ],
            cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, bufsize=1,
        )
        lines = []

        def read_output():
            for line in process.stdout:
                lines.append(line.rstrip("\n"))

        reader = threading.Thread(target=read_output, daemon=True)
        reader.start()
        try:
            _wait_until(
                lambda: any(line.startswith("serving on http://") for line in lines),
                timeout=60.0, message="server banner",
            )
            address = parse_address(lines)

            stop = threading.Event()
            statuses = []
            lock = threading.Lock()

            def client():
                while not stop.is_set():
                    try:
                        status, _, _ = _predict(address, relation=0, head=1, timeout=15.0)
                    except (OSError, http.client.HTTPException):
                        break  # listener closed mid-drain: acceptable for *unsent* work
                    with lock:
                        statuses.append(status)

            clients = [threading.Thread(target=client) for _ in range(4)]
            for thread in clients:
                thread.start()
            _wait_until(lambda: len(statuses) >= 8, timeout=30.0, message="steady traffic")

            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30.0) == 0, "\n".join(lines)
            stop.set()
            for thread in clients:
                thread.join(timeout=30.0)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10.0)
        reader.join(timeout=10.0)

        drained = [line for line in lines if line.startswith("drained:")]
        assert drained, "\n".join(lines)
        completed = int(drained[0].split("drained:")[1].split("completed")[0].strip())
        ok = [status for status in statuses if status == 200]
        # every request a client saw answered was a real completion, none were dropped
        assert set(statuses) <= {200, 503}
        assert len(ok) >= 8
        assert len(ok) <= completed

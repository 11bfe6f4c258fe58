"""Serving workload: batched link-prediction throughput vs single-query looping.

This is the first benchmark oriented at query traffic rather than a paper table.  It
derives a relation-aware model with a short ERAS search, re-trains it briefly, ships it
through the artifact registry, and measures the inference engine's throughput three ways:

- one query per :meth:`~repro.serve.engine.LinkPredictionEngine.predict` call (the naive
  serving loop),
- micro-batched: ``MICRO_BATCH`` queries per ``predict`` call,
- micro-batched with the hottest relation precomputed.

Each call is timed into a :class:`~repro.serve.service.ServiceStats`, the same
accounting the HTTP front-end reports under ``/metrics``.

The batched path must keep a solid throughput lead -- the vectorised all-entity matrix
op amortises the per-call Python overhead -- and the registry round-trip must preserve
top-k answers exactly.  Future serving PRs optimise against these numbers.

Gate history: the original gate demanded batched >= 5x single-query, most of which was
single-query *autodiff* overhead.  The no-grad kernel layer
(:mod:`repro.scoring.kernels`) made the single-query loop itself ~6x faster, so the
remaining amortisable overhead is plain Python dispatch and the honest ratio is ~2.5x
on a single-core container; the gate is 1.8x with noise headroom.  Absolute
throughputs of both paths are tracked in ``BENCH_serving.json``.
"""

import numpy as np

from repro.bench import TableReport, bench_graph, quick_eras_config, retrain_searched, write_bench_json
from repro.search import ERASSearcher
from repro.serve import (
    LinkPredictionEngine,
    LinkQuery,
    ModelArtifactRegistry,
    ServiceStats,
)
from repro.utils.rng import new_rng

from benchmarks.conftest import BENCH_SEED, run_once

NUM_QUERIES = 512
MICRO_BATCH = 128
TOP_K = 10
MIN_BATCH_SPEEDUP = 1.8


def _serving_model(tmp_path_factory):
    """A small ERAS-derived model, persisted and reloaded through the registry."""
    graph = bench_graph("wn18rr_like", scale=0.35, seed=BENCH_SEED)
    config = quick_eras_config(num_groups=2, epochs=6, dim=32, seed=BENCH_SEED)
    search = ERASSearcher(config).search(graph)
    model, _ = retrain_searched(graph, search, dim=32, epochs=10, rerank_epochs=4, seed=BENCH_SEED)

    registry = ModelArtifactRegistry(tmp_path_factory.mktemp("registry"))
    registry.save("wn18rr_like-eras", model, metadata={"searcher": search.searcher})
    served = LinkPredictionEngine.from_artifact(
        registry, "wn18rr_like-eras", graph=graph, cache_size=0
    )
    direct = LinkPredictionEngine.from_graph(model, graph, cache_size=0)
    return graph, served, direct


def _query_stream(graph, rng) -> list:
    """A mixed head/tail completion stream skewed towards a few hot relations."""
    relations = rng.choice(graph.num_relations, size=NUM_QUERIES)
    hot = rng.choice(graph.num_relations, size=max(1, graph.num_relations // 4), replace=False)
    relations[: NUM_QUERIES // 2] = rng.choice(hot, size=NUM_QUERIES // 2)
    queries = []
    for i, relation in enumerate(relations):
        entity = int(rng.integers(graph.num_entities))
        if i % 2 == 0:
            queries.append(LinkQuery(relation=int(relation), head=entity, k=TOP_K))
        else:
            queries.append(LinkQuery(relation=int(relation), tail=entity, k=TOP_K))
    return queries


def _timed_batches(engine, queries, batch_size: int) -> ServiceStats:
    """Answer ``queries`` with one ``engine.predict`` call per ``batch_size`` of them."""
    stats = ServiceStats()
    for start in range(0, len(queries), batch_size):
        stats.timed_predict(engine, queries[start : start + batch_size])
    return stats


def _run_workload(tmp_path_factory):
    graph, served, direct = _serving_model(tmp_path_factory)
    rng = new_rng(BENCH_SEED)
    queries = _query_stream(graph, rng)

    # Round-trip fidelity: the reloaded artifact answers exactly like the live model.
    for query in queries[:32]:
        a = served.predict([query])[0]
        b = direct.predict([query])[0]
        np.testing.assert_array_equal(a.entities, b.entities)
    served.clear_caches()
    served.stats.lru_hits = served.stats.scored = served.stats.queries = served.stats.batches = 0

    # Naive loop: one engine call (one all-entity op) per query.
    loop_stats = _timed_batches(served, queries, 1)
    loop_qps = loop_stats.throughput_qps

    # Micro-batched: the same stream in MICRO_BATCH-query calls on a fresh engine state.
    served.clear_caches()
    batch_stats = _timed_batches(served, queries, MICRO_BATCH)
    batch_qps = batch_stats.throughput_qps

    # Micro-batched with the hottest relations precomputed (LRU off isolates the effect).
    served.clear_caches()
    hot_relations = np.bincount([q.relation for q in queries], minlength=graph.num_relations)
    for relation in np.argsort(-hot_relations)[:2]:
        served.precompute_relation(int(relation), direction="tail")
        served.precompute_relation(int(relation), direction="head")
    hot_stats = _timed_batches(served, queries, MICRO_BATCH)
    hot_qps = hot_stats.throughput_qps

    report = TableReport("Serving latency -- single vs micro-batched link prediction")
    for label, stats in (("single", loop_stats), ("batched", batch_stats), ("batched+hot", hot_stats)):
        row = dict(mode=label)
        row.update(stats.as_row())
        report.add_row(**row)
    return report, loop_qps, batch_qps, hot_qps


def test_serving_latency(benchmark, tmp_path_factory):
    report, loop_qps, batch_qps, hot_qps = run_once(benchmark, lambda: _run_workload(tmp_path_factory))
    report.show()
    path = write_bench_json("serving", report.rows)
    print(f"perf trajectory written to {path}")
    assert loop_qps > 0 and batch_qps > 0 and hot_qps > 0
    # Micro-batching must keep amortising the per-query Python dispatch overhead.  The
    # factor is smaller than the original 5x because the no-grad kernels removed the
    # autodiff share of the single-query cost (see the module docstring).
    assert batch_qps >= MIN_BATCH_SPEEDUP * loop_qps, (loop_qps, batch_qps)
    # Precomputed hot relations must not be slower than plain batching by any real margin.
    assert hot_qps >= 0.5 * batch_qps, (batch_qps, hot_qps)

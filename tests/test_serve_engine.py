"""Tests for the link-prediction engine and its batch statistics."""

import threading
from collections import OrderedDict

import numpy as np
import pytest

from repro.autodiff import no_grad
from repro.kg import FilterIndex, Vocabulary
from repro.serve import (
    LinkPredictionEngine,
    LinkQuery,
    ModelArtifactRegistry,
    ServiceStats,
    serving_tables,
)
from repro.stream import GraphDelta, MutableGraphView


def _raw_scores(model, query):
    triples = np.array([[query.anchor if query.direction == "tail" else 0,
                         query.relation,
                         query.anchor if query.direction == "head" else 0]], dtype=np.int64)
    with no_grad():
        if query.direction == "tail":
            return model.score_all_tails(triples).data[0]
        return model.score_all_heads(triples).data[0]


class TestLinkQuery:
    def test_requires_exactly_one_anchor(self):
        with pytest.raises(ValueError):
            LinkQuery(relation=0)
        with pytest.raises(ValueError):
            LinkQuery(relation=0, head=1, tail=2)
        with pytest.raises(ValueError):
            LinkQuery(relation=0, head=1, k=0)

    def test_direction_and_anchor(self):
        tail_query = LinkQuery(relation=1, head=3)
        head_query = LinkQuery(relation=1, tail=4)
        assert (tail_query.direction, tail_query.anchor) == ("tail", 3)
        assert (head_query.direction, head_query.anchor) == ("head", 4)


class TestLinkPredictionEngine:
    def test_unfiltered_top_k_matches_direct_scoring(self, tiny_graph, trained_tiny_model):
        engine = LinkPredictionEngine(trained_tiny_model, filtered=False)
        for query in (LinkQuery(relation=2, head=5, k=7), LinkQuery(relation=1, tail=8, k=7)):
            result = engine.top_k(relation=query.relation, head=query.head, tail=query.tail, k=query.k)
            scores = _raw_scores(trained_tiny_model, query)
            expected = np.argsort(-scores, kind="stable")[: query.k]
            np.testing.assert_array_equal(np.sort(result.entities), np.sort(expected))
            np.testing.assert_allclose(result.scores, np.sort(scores)[::-1][: query.k])
            # Best-first ordering.
            assert list(result.scores) == sorted(result.scores, reverse=True)

    def test_filtered_excludes_known_triples(self, tiny_graph, trained_tiny_model):
        index = FilterIndex.from_graph(tiny_graph)
        engine = LinkPredictionEngine(trained_tiny_model, filter_index=index)
        head, relation = int(tiny_graph.train.heads[0]), int(tiny_graph.train.relations[0])
        known = index.known_tails(head, relation)
        assert known  # the triple itself is known
        result = engine.top_k(relation=relation, head=head, k=tiny_graph.num_entities)
        assert known.isdisjoint(set(result.entities.tolist()))
        assert len(result) == tiny_graph.num_entities - len(known)

    def test_batched_predict_matches_individual_queries(self, tiny_graph, trained_tiny_model):
        queries = [
            LinkQuery(relation=0, head=1, k=5),
            LinkQuery(relation=2, tail=3, k=4),
            LinkQuery(relation=1, head=7, k=6),
            LinkQuery(relation=1, tail=7, k=6),
        ]
        batched = LinkPredictionEngine(trained_tiny_model, filtered=False, cache_size=0).predict(queries)
        for query, result in zip(queries, batched):
            single = LinkPredictionEngine(trained_tiny_model, filtered=False, cache_size=0).top_k(
                relation=query.relation, head=query.head, tail=query.tail, k=query.k
            )
            np.testing.assert_array_equal(result.entities, single.entities)
            np.testing.assert_allclose(result.scores, single.scores)

    def test_small_score_batch_size_chunks_consistently(self, tiny_graph, trained_tiny_model):
        queries = [LinkQuery(relation=r % tiny_graph.num_relations, head=e % tiny_graph.num_entities, k=3)
                   for r, e in zip(range(9), range(3, 12))]
        small = LinkPredictionEngine(trained_tiny_model, filtered=False, score_batch_size=2, cache_size=0)
        large = LinkPredictionEngine(trained_tiny_model, filtered=False, cache_size=0)
        for a, b in zip(small.predict(queries), large.predict(queries)):
            np.testing.assert_array_equal(a.entities, b.entities)
        assert small.stats.batches > large.stats.batches

    def test_lru_cache_hits(self, trained_tiny_model):
        engine = LinkPredictionEngine(trained_tiny_model, filtered=False, cache_size=8)
        first = engine.top_k(relation=0, head=2, k=5)
        second = engine.top_k(relation=0, head=2, k=5)
        assert engine.stats.lru_hits == 1
        assert engine.stats.scored == 1
        np.testing.assert_array_equal(first.entities, second.entities)
        # A different k is a different cache entry.
        engine.top_k(relation=0, head=2, k=3)
        assert engine.stats.scored == 2

    def test_lru_eviction(self, trained_tiny_model):
        engine = LinkPredictionEngine(trained_tiny_model, filtered=False, cache_size=2)
        for head in (0, 1, 2):
            engine.top_k(relation=0, head=head, k=3)
        assert engine.cache_info()["lru_entries"] == 2
        engine.top_k(relation=0, head=0, k=3)  # evicted -> re-scored
        assert engine.stats.scored == 4

    def test_precomputed_relation_cache(self, tiny_graph, trained_tiny_model):
        engine = LinkPredictionEngine(trained_tiny_model, filtered=False, cache_size=0)
        engine.precompute_relation(1, direction="tail")
        cold = LinkPredictionEngine(trained_tiny_model, filtered=False, cache_size=0)
        for head in range(0, tiny_graph.num_entities, 5):
            hot = engine.top_k(relation=1, head=head, k=4)
            reference = cold.top_k(relation=1, head=head, k=4)
            np.testing.assert_array_equal(hot.entities, reference.entities)
            np.testing.assert_allclose(hot.scores, reference.scores)
        assert engine.stats.precomputed_hits > 0
        assert engine.stats.scored == 0

    def test_precompute_respects_entity_limit(self, trained_tiny_model):
        engine = LinkPredictionEngine(trained_tiny_model, filtered=False, max_precompute_entities=10)
        with pytest.raises(ValueError, match="refusing to precompute"):
            engine.precompute_relation(0)

    def test_query_validation(self, trained_tiny_model):
        engine = LinkPredictionEngine(trained_tiny_model, filtered=False)
        with pytest.raises(ValueError, match="relation id"):
            engine.top_k(relation=10_000, head=0)
        with pytest.raises(ValueError, match="entity id"):
            engine.top_k(relation=0, head=10_000)

    def test_invalid_k_rejected_not_defaulted(self, trained_tiny_model):
        engine = LinkPredictionEngine(trained_tiny_model, filtered=False)
        with pytest.raises(ValueError, match="k must be positive"):
            engine.top_k(relation=0, head=0, k=0)

    def test_delta_lru_copy_while_scoring_thread_runs(self, tiny_graph, trained_tiny_model):
        """``apply_delta`` copies the LRU on one thread while another thread scores."""
        engine = LinkPredictionEngine.from_graph(trained_tiny_model, tiny_graph)
        for head in (1, 2):
            engine.top_k(relation=0, head=head, k=3)
        scored = threading.Event()
        errors = []

        def score():
            try:
                engine.top_k(relation=1, head=3, k=3)  # a miss: inserts into the LRU
            except Exception as error:  # noqa: BLE001 - surfaced by the assert below
                errors.append(error)
            scored.set()

        class InterleavingLRU(OrderedDict):
            """Runs the scoring thread in the middle of the first ``items()`` iteration."""

            def items(self):
                for index, pair in enumerate(super().items()):
                    yield pair
                    if index == 0:
                        threading.Thread(target=score).start()
                        # Without the engine's lock the scorer finishes at once and
                        # mutates the dict under the iteration; with it, it waits.
                        scored.wait(timeout=1.0)

        engine._lru = InterleavingLRU(engine._lru)
        delta = GraphDelta.from_arrays()
        successor = engine.apply_delta(MutableGraphView(tiny_graph).apply(delta), delta)
        assert scored.wait(timeout=10.0)
        assert errors == []
        assert successor.cache_info()["lru_entries"] == 2
        assert engine.cache_info()["lru_entries"] == 3

    def test_labels_from_vocab(self, tiny_graph, trained_tiny_model):
        vocab = Vocabulary.from_ids(tiny_graph.num_entities, "entity")
        relation_vocab = Vocabulary.from_ids(tiny_graph.num_relations, "rel")
        engine = LinkPredictionEngine(
            trained_tiny_model, filtered=False, entity_vocab=vocab, relation_vocab=relation_vocab
        )
        result = engine.predict_symbols(relation="rel_1", head="entity_4", k=3)
        assert result.labels == tuple(f"entity_{e}" for e in result.entities)
        assert engine.label(int(result.entities[0])) == result.labels[0]

    def test_from_artifact_falls_back_to_graph_vocabularies(self, tiny_graph, trained_tiny_model, tmp_path):
        # A graph clone that definitely carries vocabularies: when the manifest stores
        # none, from_artifact(graph=...) must pick these up for labelling.
        from repro.kg import KnowledgeGraph

        graph = KnowledgeGraph(
            name=tiny_graph.name,
            num_entities=tiny_graph.num_entities,
            num_relations=tiny_graph.num_relations,
            train=tiny_graph.train,
            valid=tiny_graph.valid,
            test=tiny_graph.test,
            entity_vocab=Vocabulary.from_ids(tiny_graph.num_entities, "entity"),
            relation_vocab=Vocabulary.from_ids(tiny_graph.num_relations, "rel"),
        )
        registry = ModelArtifactRegistry(tmp_path / "registry")
        registry.save("plain", trained_tiny_model)  # manifest stores no vocabularies
        engine = LinkPredictionEngine.from_artifact(registry, "plain", graph=graph)
        result = engine.top_k(relation=0, head=1, k=3)
        assert result.labels == tuple(f"entity_{e}" for e in result.entities)

    def test_round_trip_through_registry_preserves_top_k(self, tiny_graph, trained_tiny_model, tmp_path):
        """Acceptance: saved + reloaded model answers exactly like the in-memory one."""
        registry = ModelArtifactRegistry(tmp_path / "registry")
        registry.save("tiny", trained_tiny_model)
        served = LinkPredictionEngine.from_artifact(registry, "tiny", graph=tiny_graph)
        direct = LinkPredictionEngine.from_graph(trained_tiny_model, tiny_graph)
        for relation in range(tiny_graph.num_relations):
            for head in range(0, tiny_graph.num_entities, 7):
                a = served.top_k(relation=relation, head=head, k=10)
                b = direct.top_k(relation=relation, head=head, k=10)
                np.testing.assert_array_equal(a.entities, b.entities)
                np.testing.assert_allclose(a.scores, b.scores)


class TestTopKDeterminism:
    def test_ties_across_partition_boundary_break_by_entity_id(self):
        from repro.serve.engine import _top_k

        entities, scores = _top_k(np.array([1.0, 0.5, 1.0, 0.5, 0.5]), k=3)
        np.testing.assert_array_equal(entities, [0, 2, 1])
        np.testing.assert_array_equal(scores, [1.0, 1.0, 0.5])
        # All-equal scores: the surviving subset must be the lowest entity ids.
        entities, _ = _top_k(np.zeros(6), k=2)
        np.testing.assert_array_equal(entities, [0, 1])

    def test_filtered_candidates_dropped(self):
        from repro.serve.engine import _top_k

        entities, scores = _top_k(np.array([-np.inf, 2.0, -np.inf, 1.0]), k=4)
        np.testing.assert_array_equal(entities, [1, 3])
        np.testing.assert_array_equal(scores, [2.0, 1.0])


class TestServiceStats:
    def test_timed_predict_records_one_batch(self, trained_tiny_model):
        engine = LinkPredictionEngine(trained_tiny_model, filtered=False)
        stats = ServiceStats()
        queries = [LinkQuery(relation=0, head=h, k=3) for h in range(5)]
        results = stats.timed_predict(engine, queries)
        assert [len(r) for r in results] == [3] * 5
        for query, result in zip(queries, results):
            assert result.query is query
        assert stats.total_queries == 5
        assert stats.total_batches == 1
        assert stats.mean_batch_size == 5.0

    def test_stats_and_cache_tables(self, trained_tiny_model):
        engine = LinkPredictionEngine(trained_tiny_model, filtered=False)
        stats = ServiceStats()
        stats.timed_predict(engine, [LinkQuery(relation=0, head=h % 5, k=3) for h in range(20)])
        service_table, cache_table = serving_tables(stats, engine)
        row = service_table.rows[0]
        assert row["queries"] == 20
        assert row["qps"] > 0
        assert row["p95_ms"] >= row["p50_ms"] >= 0
        cache_row = cache_table.rows[0]
        assert cache_row["lru_entries"] == 5  # five distinct queries
        assert "serving statistics" in service_table.render()
        assert "engine caches" in cache_table.render()

"""Batched link-prediction inference over a trained :class:`~repro.models.kge.KGEModel`.

The engine answers *completion queries*: given ``(head, relation, ?)`` return the top-k
candidate tails (and symmetrically ``(?, relation, tail)`` for heads).  Scoring is fully
vectorised -- a batch of queries becomes one all-entity scoring matrix op per direction,
the same kernel the 1-vs-all training loss uses -- and results are optionally *filtered*
against a :class:`~repro.kg.filter_index.FilterIndex` so that already-known true triples
do not crowd out novel predictions.

Two caches sit in front of the scorer:

- an LRU cache of finished top-k results keyed by ``(direction, entity, relation, k)``,
  which absorbs repeated queries, and
- optional per-relation score caches (:meth:`LinkPredictionEngine.precompute_relation`)
  holding the full ``num_entities x num_entities`` score matrix of a hot relation, which
  turns every query against that relation into a row lookup.

Graph deltas version the engine: :meth:`LinkPredictionEngine.apply_delta` derives a new
engine for an updated graph snapshot, carrying over every cache entry whose relation is
untouched by the delta and dropping the rest (the invalidation set is exactly the
relations appearing in the delta -- filtered results of other relations cannot change).
Results are stamped with the serving ``graph_version`` so staleness is observable.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.kg.filter_index import FilterIndex
from repro.kg.graph import KnowledgeGraph
from repro.kg.vocab import Vocabulary
from repro.models.kge import KGEModel
from repro.scoring.kernels import normalize_chunk_size
from repro.utils.serialization import PathLike


@dataclass(frozen=True)
class LinkQuery:
    """One completion query: exactly one of ``head`` / ``tail`` must be given.

    ``head`` set means "complete the tail of (head, relation, ?)"; ``tail`` set means
    "complete the head of (?, relation, tail)".
    """

    relation: int
    head: Optional[int] = None
    tail: Optional[int] = None
    k: int = 10

    def __post_init__(self) -> None:
        if (self.head is None) == (self.tail is None):
            raise ValueError("exactly one of head / tail must be provided")
        if self.k <= 0:
            raise ValueError("k must be positive")

    @property
    def direction(self) -> str:
        """``'tail'`` when predicting tails, ``'head'`` when predicting heads."""
        return "tail" if self.head is not None else "head"

    @property
    def anchor(self) -> int:
        """The known entity of the query."""
        return self.head if self.head is not None else self.tail


@dataclass(frozen=True, eq=False)
class TopKResult:
    """Ranked completion candidates for one query (best first).

    Field-wise equality is disabled: the array payloads make the generated ``__eq__``
    ambiguous, so results compare by identity.
    """

    query: LinkQuery
    entities: np.ndarray
    scores: np.ndarray
    labels: Optional[Tuple[str, ...]] = None
    #: ``graph_version`` of the snapshot this result is valid for.  Cached results that
    #: survive a delta (their relation untouched) are re-stamped to the new version on
    #: their next hit, because selective invalidation proves them still current.
    graph_version: int = 0

    def pairs(self) -> List[Tuple[int, float]]:
        """``(entity_id, score)`` tuples, best first."""
        return [(int(e), float(s)) for e, s in zip(self.entities, self.scores)]

    def __len__(self) -> int:
        return len(self.entities)


@dataclass
class EngineStats:
    """Counters describing how queries were answered.

    ``deltas_applied`` / ``cache_entries_invalidated`` / ``graph_version`` track the
    streaming-update lifecycle; the stats object is shared across the engine lineage
    produced by :meth:`LinkPredictionEngine.apply_delta`, so the counters are
    cumulative over all snapshots of one served model.
    """

    queries: int = 0
    scored: int = 0
    lru_hits: int = 0
    precomputed_hits: int = 0
    batches: int = 0
    deltas_applied: int = 0
    cache_entries_invalidated: int = 0
    graph_version: int = 0

    def as_row(self) -> Dict[str, object]:
        return {
            "queries": self.queries,
            "scored": self.scored,
            "lru_hits": self.lru_hits,
            "precomputed_hits": self.precomputed_hits,
            "batches": self.batches,
            "deltas_applied": self.deltas_applied,
            "cache_entries_invalidated": self.cache_entries_invalidated,
            "graph_version": self.graph_version,
        }


class LinkPredictionEngine:
    """Answers batched head/tail completion queries against a trained model.

    Parameters
    ----------
    model:
        The trained KGE model (any mix of scoring functions / relation groups).
    filter_index:
        Known-true triples to exclude from candidates when ``filtered`` is on.  Without
        an index the engine silently serves unfiltered results.
    entity_vocab, relation_vocab:
        Optional symbol tables; when present, results can be labelled and queries can be
        issued by symbol.
    filtered:
        Whether known true completions are removed from the candidate list (default on:
        a serving system should surface *novel* links).
    cache_size:
        Capacity of the LRU result cache (0 disables it).
    score_batch_size:
        Maximum number of queries scored in one all-entity matrix op (bounds memory).
    entity_chunk_size:
        When set, all-entity scoring streams the candidate axis in chunks of (at
        most) this many entities and keeps a running top-k per query, bounding peak
        memory at ``O(score_batch_size * entity_chunk_size)`` instead of
        ``O(score_batch_size * num_entities)``.  The chunk grid sits on the absolute
        kernel tile grid, so streamed answers are bit-identical to unchunked ones.
    """

    def __init__(
        self,
        model: KGEModel,
        filter_index: Optional[FilterIndex] = None,
        entity_vocab: Optional[Vocabulary] = None,
        relation_vocab: Optional[Vocabulary] = None,
        filtered: bool = True,
        cache_size: int = 2048,
        score_batch_size: int = 256,
        max_precompute_entities: int = 4096,
        graph_version: int = 0,
        entity_chunk_size: Optional[int] = None,
    ) -> None:
        if cache_size < 0:
            raise ValueError("cache_size must be non-negative")
        if score_batch_size <= 0:
            raise ValueError("score_batch_size must be positive")
        self.model = model
        self.filter_index = filter_index
        self.entity_vocab = entity_vocab
        self.relation_vocab = relation_vocab
        self.filtered = filtered and filter_index is not None
        self.cache_size = cache_size
        self.score_batch_size = score_batch_size
        self.max_precompute_entities = max_precompute_entities
        self.entity_chunk_size = (
            None if entity_chunk_size is None else normalize_chunk_size(entity_chunk_size)
        )
        self.graph_version = int(graph_version)
        self.stats = EngineStats(graph_version=self.graph_version)
        self._lru: "OrderedDict[Tuple[str, int, int, int], TopKResult]" = OrderedDict()
        # The scoring thread reorders the LRU on every hit and put, while a delta copies
        # it from another thread; every mutation and iteration of ``_lru`` holds this lock.
        self._lru_lock = threading.Lock()
        self._relation_scores: Dict[Tuple[int, str], np.ndarray] = {}

    # ------------------------------------------------------------------ constructors
    @classmethod
    def from_graph(cls, model: KGEModel, graph: KnowledgeGraph, **kwargs) -> "LinkPredictionEngine":
        """Engine with the graph's filter index and vocabularies attached."""
        kwargs.setdefault("filter_index", graph.filter_index())
        kwargs.setdefault("entity_vocab", graph.entity_vocab)
        kwargs.setdefault("relation_vocab", graph.relation_vocab)
        kwargs.setdefault("graph_version", graph.graph_version)
        return cls(model, **kwargs)

    @classmethod
    def from_artifact(
        cls,
        source: Union["ModelArtifactRegistry", PathLike],
        name: Optional[str] = None,
        version: Optional[int] = None,
        graph: Optional[KnowledgeGraph] = None,
        mmap: bool = False,
        **kwargs,
    ) -> "LinkPredictionEngine":
        """Load a stored model and wrap it in an engine.

        ``source`` is either a :class:`~repro.serve.artifacts.ModelArtifactRegistry`
        (then ``name`` / ``version`` select the artifact) or a path to one artifact
        directory.  When ``graph`` is given its filter index backs filtered serving;
        vocabularies default to the ones stored in the manifest.  ``mmap=True`` serves
        the embedding tables straight off disk (see
        :func:`~repro.serve.artifacts.load_model_artifact`); scores are bit-identical
        to an in-memory load.
        """
        from repro.serve.artifacts import (
            ModelArtifactRegistry,
            load_model_artifact,
            manifest_vocabularies,
        )

        if isinstance(source, ModelArtifactRegistry):
            if name is None:
                raise ValueError("an artifact name is required when loading from a registry")
            model, manifest = source.load(name, version=version, mmap=mmap)
        else:
            model, manifest = load_model_artifact(source, mmap=mmap)
        entity_vocab, relation_vocab = manifest_vocabularies(manifest)
        if graph is not None:
            # The manifest wins; the graph fills in whatever it did not store.
            entity_vocab = entity_vocab or graph.entity_vocab
            relation_vocab = relation_vocab or graph.relation_vocab
            kwargs.setdefault("filter_index", graph.filter_index())
            kwargs.setdefault("graph_version", graph.graph_version)
        kwargs.setdefault("entity_vocab", entity_vocab)
        kwargs.setdefault("relation_vocab", relation_vocab)
        return cls(model, **kwargs)

    # ------------------------------------------------------------------ public API
    def top_k(
        self,
        relation: int,
        head: Optional[int] = None,
        tail: Optional[int] = None,
        k: int = 10,
    ) -> TopKResult:
        """Answer a single completion query (convenience wrapper over :meth:`predict`)."""
        return self.predict([LinkQuery(relation=relation, head=head, tail=tail, k=k)])[0]

    def predict(self, queries: Sequence[LinkQuery]) -> List[TopKResult]:
        """Answer a batch of queries; uncached ones share one matrix op per direction."""
        queries = list(queries)
        self._validate(queries)
        self.stats.queries += len(queries)
        results: List[Optional[TopKResult]] = [None] * len(queries)
        pending: List[Tuple[int, LinkQuery]] = []

        for index, query in enumerate(queries):
            cached = self._lru_get(query)
            if cached is not None:
                self.stats.lru_hits += 1
                results[index] = cached
                continue
            row = self._precomputed_row(query)
            if row is not None:
                self.stats.precomputed_hits += 1
                results[index] = self._finish(query, row)
                continue
            pending.append((index, query))

        streamed = (
            self.entity_chunk_size is not None
            and self.entity_chunk_size < self.model.num_entities
        )
        for direction in ("tail", "head"):
            group = [(i, q) for i, q in pending if q.direction == direction]
            for start in range(0, len(group), self.score_batch_size):
                chunk = group[start : start + self.score_batch_size]
                self.stats.batches += 1
                self.stats.scored += len(chunk)
                if streamed:
                    for result, (index, query) in zip(self._predict_streamed(chunk, direction), chunk):
                        results[index] = result
                    continue
                scores = self._score_chunk([q for _, q in chunk], direction)
                for row_scores, (index, query) in zip(scores, chunk):
                    results[index] = self._finish(query, row_scores)

        return results  # type: ignore[return-value]

    def predict_symbols(
        self,
        relation: str,
        head: Optional[str] = None,
        tail: Optional[str] = None,
        k: int = 10,
    ) -> TopKResult:
        """Query by symbol instead of id (requires the vocabularies)."""
        if self.relation_vocab is None or self.entity_vocab is None:
            raise ValueError("symbol queries require entity and relation vocabularies")
        if (head is None) == (tail is None):
            raise ValueError("exactly one of head / tail must be provided")
        return self.top_k(
            relation=self.relation_vocab.id_of(relation),
            head=self.entity_vocab.id_of(head) if head is not None else None,
            tail=self.entity_vocab.id_of(tail) if tail is not None else None,
            k=k,
        )

    # ------------------------------------------------------------------ streaming updates
    def apply_delta(self, graph: KnowledgeGraph, delta) -> "LinkPredictionEngine":
        """A successor engine serving an updated graph snapshot, with selective invalidation.

        ``graph`` is the *new* snapshot (typically produced by
        :meth:`repro.stream.MutableGraphView.apply`) and ``delta`` the
        :class:`~repro.stream.GraphDelta` that produced it.  The successor shares the
        model, vocabularies, configuration and the cumulative :class:`EngineStats`
        object; its filter index is the snapshot's (incrementally merged) index.  Cache
        entries keyed by a relation in ``delta.touched_relations()`` are dropped --
        their filtered results may have changed -- while every other LRU result and
        precomputed relation matrix carries over untouched.  ``self`` keeps serving the
        old snapshot unmodified, so an atomic swap has no blackout window.
        """
        touched = set(int(r) for r in delta.touched_relations())
        successor = self.__class__(
            model=self.model,
            filter_index=graph.filter_index(),
            entity_vocab=self.entity_vocab,
            relation_vocab=self.relation_vocab,
            filtered=self.filtered,
            cache_size=self.cache_size,
            score_batch_size=self.score_batch_size,
            max_precompute_entities=self.max_precompute_entities,
            graph_version=graph.graph_version,
            entity_chunk_size=self.entity_chunk_size,
        )
        invalidated = 0
        with self._lru_lock:
            lru_items = list(self._lru.items())
        for key, result in lru_items:
            if key[2] in touched:
                invalidated += 1
            else:
                successor._lru[key] = result
        for key, matrix in self._relation_scores.items():
            if key[0] in touched:
                invalidated += 1
            else:
                successor._relation_scores[key] = matrix
        successor.stats = self.stats
        successor.stats.deltas_applied += 1
        successor.stats.cache_entries_invalidated += invalidated
        successor.stats.graph_version = graph.graph_version
        return successor

    # ------------------------------------------------------------------ caches
    def precompute_relation(self, relation: int, direction: str = "tail") -> np.ndarray:
        """Materialise the full score matrix of one relation for ``direction``.

        Row ``e`` of the returned ``(num_entities, num_entities)`` matrix holds the raw
        (unfiltered) scores of every candidate for the query anchored at entity ``e``.
        Subsequent queries against this relation become row lookups.
        """
        self._validate_relation(relation)
        if direction not in ("tail", "head"):
            raise ValueError(f"direction must be 'tail' or 'head', got {direction!r}")
        if self.model.num_entities > self.max_precompute_entities:
            raise ValueError(
                f"refusing to precompute {self.model.num_entities}^2 scores "
                f"(max_precompute_entities={self.max_precompute_entities})"
            )
        key = (int(relation), direction)
        if key not in self._relation_scores:
            anchors = np.arange(self.model.num_entities, dtype=np.int64)
            matrix = np.empty((self.model.num_entities, self.model.num_entities), dtype=np.float64)
            for start in range(0, len(anchors), self.score_batch_size):
                chunk = anchors[start : start + self.score_batch_size]
                triples = np.zeros((len(chunk), 3), dtype=np.int64)
                triples[:, 1] = relation
                triples[:, 0 if direction == "tail" else 2] = chunk
                matrix[start : start + len(chunk)] = self.model.score_all_arrays(triples, direction)
            self._relation_scores[key] = matrix
        return self._relation_scores[key]

    def clear_caches(self) -> None:
        """Drop the LRU result cache and all precomputed relation matrices."""
        with self._lru_lock:
            self._lru.clear()
        self._relation_scores.clear()

    def cache_info(self) -> Dict[str, object]:
        """Sizes and hit counters of both cache layers."""
        return {
            "lru_entries": len(self._lru),
            "lru_capacity": self.cache_size,
            "lru_hits": self.stats.lru_hits,
            "precomputed_relations": len(self._relation_scores),
            "precomputed_hits": self.stats.precomputed_hits,
        }

    def label(self, entity_id: int) -> str:
        """Symbol of an entity id (falls back to the numeric id without a vocabulary)."""
        if self.entity_vocab is not None:
            return self.entity_vocab.symbol_of(int(entity_id))
        return str(int(entity_id))

    def validate_query(self, query: LinkQuery) -> None:
        """Raise ``ValueError`` when the query's ids are out of range for the model.

        The HTTP front-end calls this per request so a malformed query is rejected
        before it can join (and poison) a batch.
        """
        self._validate_relation(query.relation)
        if not 0 <= query.anchor < self.model.num_entities:
            raise ValueError(
                f"entity id {query.anchor} out of range [0, {self.model.num_entities})"
            )

    # ------------------------------------------------------------------ internals
    def _validate(self, queries: Sequence[LinkQuery]) -> None:
        for query in queries:
            self.validate_query(query)

    def _validate_relation(self, relation: int) -> None:
        if not 0 <= relation < self.model.num_relations:
            raise ValueError(
                f"relation id {relation} out of range [0, {self.model.num_relations})"
            )

    def _score_chunk(self, queries: Sequence[LinkQuery], direction: str) -> np.ndarray:
        triples = np.zeros((len(queries), 3), dtype=np.int64)
        triples[:, 1] = [q.relation for q in queries]
        triples[:, 0 if direction == "tail" else 2] = [q.anchor for q in queries]
        # Compiled no-grad kernels: one matmul batch, no autodiff Tensor construction.
        return self.model.score_all_arrays(triples, direction)

    def _predict_streamed(
        self, chunk: Sequence[Tuple[int, LinkQuery]], direction: str
    ) -> List[TopKResult]:
        """Answer one score batch while streaming the candidate axis in chunks.

        Each chunk's scores are bit-identical to the corresponding columns of the full
        matrix (absolute tile grid), per-chunk top-k candidates are a superset of the
        global winners within the chunk, and the final merge uses the same
        (score desc, entity asc) ordering as :func:`_top_k` -- so the emitted results
        match the unchunked path exactly, at ``O(batch * entity_chunk_size)`` peak
        memory.
        """
        queries = [query for _, query in chunk]
        triples = np.zeros((len(queries), 3), dtype=np.int64)
        triples[:, 1] = [q.relation for q in queries]
        triples[:, 0 if direction == "tail" else 2] = [q.anchor for q in queries]
        known: List[Optional[np.ndarray]] = [None] * len(queries)
        if self.filtered:
            for i, query in enumerate(queries):
                if direction == "tail":
                    known[i] = self.filter_index.known_tails_array(query.head, query.relation)
                else:
                    known[i] = self.filter_index.known_heads_array(query.relation, query.tail)
        candidate_ids: List[List[np.ndarray]] = [[] for _ in queries]
        candidate_scores: List[List[np.ndarray]] = [[] for _ in queries]
        num_entities = self.model.num_entities
        step = self.entity_chunk_size
        for a in range(0, num_entities, step):
            b = min(a + step, num_entities)
            scores = self.model.score_chunk_entities(triples, direction, a, b)
            for i, query in enumerate(queries):
                row = scores[i]
                if known[i] is not None and known[i].size:
                    local = known[i][(known[i] >= a) & (known[i] < b)] - a
                    if local.size:
                        row[local] = -np.inf
                entities, values = _top_k(row, query.k)
                if entities.size:
                    candidate_ids[i].append(entities + a)
                    candidate_scores[i].append(values)
        results = []
        for i, query in enumerate(queries):
            if candidate_ids[i]:
                entities = np.concatenate(candidate_ids[i])
                values = np.concatenate(candidate_scores[i])
                order = np.lexsort((entities, -values))[: min(query.k, len(entities))]
                entities, values = entities[order], values[order]
            else:
                entities = np.empty(0, dtype=np.int64)
                values = np.empty(0, dtype=np.float64)
            results.append(self._emit(query, entities, values))
        return results

    def _precomputed_row(self, query: LinkQuery) -> Optional[np.ndarray]:
        # A view into the cached matrix; _finish copies before its only mutation.
        matrix = self._relation_scores.get((query.relation, query.direction))
        if matrix is None:
            return None
        return matrix[query.anchor]

    def _finish(self, query: LinkQuery, scores: np.ndarray) -> TopKResult:
        if self.filtered:
            scores = scores.copy()
            if query.direction == "tail":
                known = self.filter_index.known_tails_array(query.head, query.relation)
            else:
                known = self.filter_index.known_heads_array(query.relation, query.tail)
            if known.size:
                scores[known] = -np.inf
        entities, top_scores = _top_k(scores, query.k)
        return self._emit(query, entities, top_scores)

    def _emit(self, query: LinkQuery, entities: np.ndarray, scores: np.ndarray) -> TopKResult:
        labels = None
        if self.entity_vocab is not None:
            labels = tuple(self.entity_vocab.symbol_of(int(e)) for e in entities)
        result = TopKResult(
            query=query,
            entities=entities,
            scores=scores,
            labels=labels,
            graph_version=self.graph_version,
        )
        self._lru_put(query, result)
        return result

    # ------------------------------------------------------------------ LRU plumbing
    @staticmethod
    def _lru_key(query: LinkQuery) -> Tuple[str, int, int, int]:
        return (query.direction, query.anchor, query.relation, query.k)

    def _lru_get(self, query: LinkQuery) -> Optional[TopKResult]:
        if self.cache_size == 0:
            return None
        key = self._lru_key(query)
        with self._lru_lock:
            result = self._lru.get(key)
            if result is not None:
                if result.graph_version != self.graph_version:
                    # The entry survived a delta swap, which proves its relation was
                    # untouched -- the result is still current, so re-stamp it.
                    result = dataclasses.replace(result, graph_version=self.graph_version)
                    self._lru[key] = result
                self._lru.move_to_end(key)
        return result

    def _lru_put(self, query: LinkQuery, result: TopKResult) -> None:
        if self.cache_size == 0:
            return
        key = self._lru_key(query)
        with self._lru_lock:
            self._lru[key] = result
            self._lru.move_to_end(key)
            while len(self._lru) > self.cache_size:
                self._lru.popitem(last=False)

    def __repr__(self) -> str:
        return (
            f"LinkPredictionEngine(entities={self.model.num_entities}, "
            f"relations={self.model.num_relations}, filtered={self.filtered}, "
            f"cache_size={self.cache_size})"
        )


def _top_k(scores: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Indices and values of the ``k`` best scores, sorted best-first.

    Ties are broken by entity id (ascending) so results are deterministic — including
    ties that straddle the selection boundary, where a bare ``argpartition`` would pick
    an arbitrary subset.  Fully filtered candidates (``-inf``) are dropped even if
    fewer than ``k`` remain.
    """
    k = min(int(k), len(scores))
    if k < len(scores):
        # argpartition chooses *which* tied candidates survive arbitrarily, so widen
        # the candidate set to everything scoring at least the k-th value and let the
        # deterministic sort below settle the boundary.
        kth = scores[np.argpartition(-scores, k - 1)[k - 1]]
        candidates = np.where(scores >= kth)[0]
    else:
        candidates = np.arange(len(scores))
    order = candidates[np.lexsort((candidates, -scores[candidates]))][:k]
    keep = np.isfinite(scores[order])
    order = order[keep]
    return order.astype(np.int64), scores[order]

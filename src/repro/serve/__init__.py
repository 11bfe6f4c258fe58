"""Serving subsystem: persist trained models and answer link-prediction queries.

The reproduction pipeline ends at a trained :class:`~repro.models.kge.KGEModel`; this
package turns that artifact into a queryable service:

- :mod:`repro.serve.artifacts` -- a versioned on-disk registry that saves/loads model
  weights, scoring structures, relation-group assignments and vocabularies as an
  ``.npz`` archive plus a JSON manifest.
- :mod:`repro.serve.engine` -- :class:`LinkPredictionEngine`, batched head/tail
  completion with fully vectorised all-entity scoring, filtered top-k against known
  triples, an LRU result cache and optional precomputed per-relation score caches.
- :mod:`repro.serve.service` -- :class:`ServiceStats`, latency/throughput accounting of
  scoring batches, reported through :mod:`repro.bench.reporting`.
- :mod:`repro.serve.frontend` -- :class:`ServingFrontend`, the robustness layer and the
  only request batcher: bounded admission queue with load shedding, per-request
  deadlines, continuous batching straight into ``engine.predict``, graceful drain, and
  validated hot-reload with rollback via :class:`EngineReloader`.
- :mod:`repro.serve.http` -- :class:`HttpFrontendServer`, a stdlib-only asyncio
  HTTP/1.1 transport (``/v1/predict``, ``/healthz``, ``/readyz``, ``/metrics``,
  ``/v1/reload``, ``/v1/graph/delta``) behind ``python -m repro serve --http``.

Live graphs: with a :class:`~repro.stream.MutableGraphView` attached, the frontend
accepts streaming :class:`~repro.stream.GraphDelta` updates -- the filter index is
merged incrementally, caches are invalidated per touched relation, and every result
is stamped with the serving ``graph_version`` (see ``docs/STREAMING.md``).
"""

from repro.serve.artifacts import (
    ArtifactError,
    ArtifactRef,
    ModelArtifactRegistry,
    load_model_artifact,
    save_model_artifact,
)
from repro.serve.engine import LinkPredictionEngine, LinkQuery, TopKResult
from repro.serve.frontend import (
    DeadlineExceededError,
    DrainingError,
    EngineReloader,
    FrontendConfig,
    FrontendError,
    OverloadedError,
    ReloadConfig,
    ServingFrontend,
)
from repro.serve.http import BackgroundHttpServer, HttpFrontendServer
from repro.serve.service import ServiceStats, serving_tables

__all__ = [
    "ArtifactError",
    "ArtifactRef",
    "ModelArtifactRegistry",
    "save_model_artifact",
    "load_model_artifact",
    "LinkPredictionEngine",
    "LinkQuery",
    "TopKResult",
    "ServiceStats",
    "serving_tables",
    "ServingFrontend",
    "FrontendConfig",
    "FrontendError",
    "OverloadedError",
    "DrainingError",
    "DeadlineExceededError",
    "EngineReloader",
    "ReloadConfig",
    "HttpFrontendServer",
    "BackgroundHttpServer",
]

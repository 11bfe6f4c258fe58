"""Serving: persist a trained model and answer link-prediction queries against it.

Run with::

    python examples/serve_queries.py

The example trains a small model, stores it in a versioned artifact registry, reloads it
into a :class:`~repro.serve.engine.LinkPredictionEngine`, and answers a stream of
head/tail completion queries with one batched ``engine.predict`` call, printing the top
completions, the latency/throughput statistics and the engine's cache counters.
"""

import tempfile

import numpy as np

from repro.datasets import load_benchmark
from repro.models import KGEModel, Trainer, TrainerConfig
from repro.scoring import named_structure
from repro.serve import (
    LinkPredictionEngine,
    LinkQuery,
    ModelArtifactRegistry,
    ServiceStats,
    serving_tables,
)


def main() -> None:
    # 1. Train a model (any scoring structure works; see examples/quickstart.py).
    graph = load_benchmark("wn18rr_like", scale=0.5, seed=0)
    model = KGEModel(
        num_entities=graph.num_entities,
        num_relations=graph.num_relations,
        dim=32,
        scorers=named_structure("complex"),
        seed=0,
    )
    result = Trainer(TrainerConfig(epochs=15, valid_every=5, patience=2, seed=0)).fit(model, graph)
    print(f"trained model: best validation MRR {result.best_valid_mrr:.3f}")

    with tempfile.TemporaryDirectory() as scratch:
        # 2. Publish the trained model into a versioned registry.
        registry = ModelArtifactRegistry(scratch)
        ref = registry.save(
            "wn18rr_like-complex",
            model,
            entity_vocab=graph.entity_vocab,
            relation_vocab=graph.relation_vocab,
            metadata={"valid_mrr": result.best_valid_mrr},
        )
        print(f"published artifact {ref.name} v{ref.version} at {ref.path}")

        # 3. Load it back into an inference engine with filtered candidates.
        engine = LinkPredictionEngine.from_artifact(registry, ref.name, graph=graph)
        engine.precompute_relation(0, direction="tail")  # warm one hot relation

        # 4. Answer a query stream; the engine scores it in batches of score_batch_size.
        stats = ServiceStats()
        rng = np.random.default_rng(0)
        queries = [
            LinkQuery(
                relation=int(rng.integers(graph.num_relations)),
                head=int(rng.integers(graph.num_entities)),
                k=5,
            )
            for _ in range(256)
        ]
        responses = stats.timed_predict(engine, queries)

        sample = responses[0]
        completions = ", ".join(f"{engine.label(e)} ({s:.2f})" for e, s in sample.pairs())
        print(f"\n(head={sample.query.head}, relation={sample.query.relation}, ?) -> {completions}")

        for table in serving_tables(stats, engine):
            table.show()


if __name__ == "__main__":
    main()

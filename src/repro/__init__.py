"""Reproduction of ERAS: Efficient Relation-aware Scoring Function Search for KG Embedding.

The package is organised as a stack of subsystems:

- :mod:`repro.autodiff` -- reverse-mode automatic differentiation over NumPy arrays.
- :mod:`repro.nn` -- neural-network layers, losses and optimisers built on the autodiff engine.
- :mod:`repro.kg` -- knowledge-graph data structures, loaders, sampling and relation-pattern
  analysis.
- :mod:`repro.datasets` -- pattern-controlled synthetic generators standing in for the public
  benchmarks (WN18, WN18RR, FB15k, FB15k-237, YAGO3-10).
- :mod:`repro.scoring` -- bilinear block-structure scoring functions (the AutoSF/ERAS search
  space) plus classic hand-designed scoring functions.
- :mod:`repro.models` -- KG embedding models and trainers.
- :mod:`repro.eval` -- filtered link-prediction ranking, relation-pattern metrics, triplet
  classification and correlation analyses.
- :mod:`repro.search` -- the paper's contribution: the ERAS relation-aware one-shot search,
  together with AutoSF, random and Bayesian search baselines and the ablation variants.
- :mod:`repro.bench` -- helpers used by the ``benchmarks/`` harness to regenerate every table
  and figure of the paper.
- :mod:`repro.stream` -- live-graph streaming: validated :class:`~repro.stream.GraphDelta`
  mutations producing versioned immutable snapshots with an incremental filter-index merge.
- :mod:`repro.serve` -- the serving subsystem: a versioned model artifact registry, a
  batched link-prediction inference engine with result caches, and an HTTP front-end
  that batches requests continuously into it.
- :mod:`repro.runtime` -- the runtime layer on top of everything: the parallel
  :class:`~repro.runtime.evaluation.EvaluationPool` with its structure-keyed cache, JSON
  checkpoint/resume of searches, the :class:`~repro.runtime.runner.SearchRunner` pipeline
  facade and the ``python -m repro`` CLI (see ``docs/CLI.md``).
"""

from repro.version import __version__

__all__ = ["__version__"]

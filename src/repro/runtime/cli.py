"""The argparse layer behind ``python -m repro``.

Five subcommands drive the :class:`~repro.runtime.runner.SearchRunner` facade, the
sweep orchestrator and the serving subsystem:

- ``search`` -- run any registered scoring-function search (``--list-searchers``),
  optionally under a budget (``--budget-steps/evals/seconds``), with step-level
  checkpoint/resume, and re-train / evaluate / publish the winner.
- ``sweep``  -- run a sharded (searcher x seed x dataset) grid on a fault-tolerant
  worker pool (:mod:`repro.runtime.orchestrator`), resumable with ``--resume``, and
  aggregate a per-searcher fair-comparison report.
- ``train``  -- train a classic structure or a saved search result from scratch and
  evaluate it.
- ``serve``  -- answer link-prediction queries against a model stored in the artifact
  registry, optionally memory-mapped (``--mmap``) and memory-bounded
  (``--entity-chunk``).
- ``bench``  -- run the runtime timing workloads (derive-phase scaling, serving
  latency, filtered-ranking throughput, per-searcher step latency, sweep
  orchestration, streaming graph updates, the out-of-core scale curve), writing
  ``BENCH_*.json`` files into ``--out`` (default ``./bench-out/``) so the committed
  baselines in the repository root stay intact.

``--dataset`` (and the sweep's ``--datasets``) accepts either a registry benchmark
name or a directory containing ``train.txt``/``valid.txt``/``test.txt`` -- see
:func:`repro.datasets.resolve_dataset` and ``docs/DATASETS.md``.

Every invocation documented in ``docs/CLI.md`` is checked against these parsers by
``tests/test_docs.py``, so the documentation cannot drift from the implementation.
:func:`build_parser` and :func:`subcommand_parsers` are the public introspection
points that the test uses.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Dict, List, Optional

from repro.datasets import DatasetResolutionError
from repro.datasets.registry import BENCHMARK_NAMES
from repro.search.registry import available_searchers

from repro.runtime.runner import RunConfig, SearchRunner

CLASSIC_NAMES = ("distmult", "complex", "simple", "analogy")


# ---------------------------------------------------------------------------- parser
def build_parser() -> argparse.ArgumentParser:
    """The full ``python -m repro`` parser with all four subcommands attached."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="ERAS reproduction runtime: search, train, serve and benchmark "
        "relation-aware scoring functions for knowledge-graph embedding.",
    )
    subparsers = parser.add_subparsers(dest="command", metavar="command")
    _add_search_parser(subparsers)
    _add_sweep_parser(subparsers)
    _add_train_parser(subparsers)
    _add_serve_parser(subparsers)
    _add_bench_parser(subparsers)
    return parser


def subcommand_parsers(parser: Optional[argparse.ArgumentParser] = None) -> Dict[str, argparse.ArgumentParser]:
    """Map of subcommand name to its parser (used by the doc-consistency tests)."""
    parser = parser or build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return dict(action.choices)


def _add_dataset_arguments(parser: argparse.ArgumentParser, default: Optional[str] = "wn18rr_like") -> None:
    parser.add_argument(
        "--dataset", default=default, metavar="NAME_OR_DIR",
        help=f"synthetic benchmark name ({', '.join(BENCHMARK_NAMES)}) or a directory "
        f"containing train.txt/valid.txt/test.txt (default: {default})",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="dataset scale factor; synthetic benchmarks only (default: 1.0)",
    )
    parser.add_argument("--data-seed", type=int, default=0, help="dataset generator seed (default: 0)")


def _add_search_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "search",
        help="run a scoring-function search and optionally re-train / publish the winner",
        description="Search relation-aware scoring functions with ERAS or one of the "
        "baselines; candidate evaluations are cached and fanned out over --workers "
        "processes (any worker count returns a bit-identical winner).",
    )
    _add_dataset_arguments(parser)
    parser.add_argument(
        "--searcher", choices=available_searchers(), default="eras",
        help="search algorithm from the plugin registry (default: eras)",
    )
    parser.add_argument(
        "--list-searchers", action="store_true",
        help="print every registered searcher name and exit",
    )
    parser.add_argument("--groups", type=int, default=3, help="N, relation groups for ERAS (default: 3)")
    parser.add_argument("--blocks", type=int, default=4, help="M, structure block count (default: 4)")
    parser.add_argument("--epochs", type=int, default=15, help="ERAS search epochs (default: 15)")
    parser.add_argument(
        "--candidates", type=int, default=8,
        help="candidate budget of the random/bayes searchers (default: 8)",
    )
    parser.add_argument(
        "--derive-samples", type=int, default=16,
        help="K, candidates sampled in the ERAS derive phase (default: 16)",
    )
    parser.add_argument("--dim", type=int, default=48, help="embedding dimension (default: 48)")
    parser.add_argument("--seed", type=int, default=0, help="search seed (default: 0)")
    parser.add_argument(
        "--workers", type=int, default=1,
        help="evaluation-pool processes; 1 = serial, 0 = all cores (default: 1)",
    )
    parser.add_argument(
        "--proxy-epochs", type=int, default=None,
        help="per-candidate training epochs of the autosf/random/bayes proxy "
        "(default: each algorithm's benchmark budget)",
    )
    parser.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="JSON checkpoint file; any searcher resumes from it when it exists",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=1,
        help="write the checkpoint every this many steps (default: 1)",
    )
    parser.add_argument(
        "--budget-steps", type=int, default=None,
        help="stop the search after this many steps (default: unlimited)",
    )
    parser.add_argument(
        "--budget-evals", type=int, default=None,
        help="stop the search after this many candidate evaluations (default: unlimited)",
    )
    parser.add_argument(
        "--budget-seconds", type=float, default=None,
        help="stop the search after this much cumulative wall clock (default: unlimited)",
    )
    parser.add_argument("--output", metavar="PATH", default=None, help="write the search result as JSON")
    parser.add_argument(
        "--train", action="store_true",
        help="re-train the winning candidate from scratch and evaluate it",
    )
    parser.add_argument("--train-epochs", type=int, default=30, help="final training epochs (default: 30)")
    parser.add_argument(
        "--no-rerank", action="store_true",
        help="skip re-ranking the top candidates before the final training",
    )
    parser.add_argument(
        "--eval-split", choices=("valid", "test"), default="test",
        help="split of the final evaluation (default: test)",
    )
    parser.add_argument("--registry", metavar="PATH", default=None, help="model artifact registry root")
    parser.add_argument(
        "--publish", metavar="NAME", default=None,
        help="publish the re-trained model under this registry name (implies --train)",
    )
    parser.set_defaults(handler=cmd_search)


def _add_sweep_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "sweep",
        help="run a sharded (searcher x seed x dataset) grid and aggregate a fair comparison",
        description="Expand a grid of (searcher, seed, dataset) combinations into shards, "
        "run them on a bounded fault-tolerant worker pool (crashed shards are requeued and "
        "resume from their checkpoints), and aggregate per-searcher mean/std metrics into "
        "report.json / report.md inside the sweep directory.",
    )
    parser.add_argument(
        "--sweep-dir", metavar="PATH", default=None,
        help="directory receiving the manifest, shard checkpoints/results and the report "
        "(required unless --resume)",
    )
    parser.add_argument(
        "--resume", metavar="PATH", default=None,
        help="resume the sweep in this directory: finished shards are skipped, partial "
        "shards continue from their checkpoints (the grid comes from the manifest, so "
        "no grid flags are needed)",
    )
    parser.add_argument(
        "--searchers", nargs="+", choices=available_searchers(), default=["eras"],
        metavar="NAME",
        help="grid axis: searcher names from the plugin registry (default: eras)",
    )
    parser.add_argument(
        "--seeds", nargs="+", type=int, default=[0], metavar="SEED",
        help="grid axis: one shard per search seed (default: 0)",
    )
    parser.add_argument(
        "--datasets", nargs="+", default=["wn18rr_like"],
        metavar="NAME_OR_DIR",
        help="grid axis: synthetic benchmark names and/or dataset directories to "
        "sweep over (default: wn18rr_like)",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="dataset scale factor; synthetic benchmarks only (default: 1.0)",
    )
    parser.add_argument("--data-seed", type=int, default=0, help="dataset generator seed (default: 0)")
    parser.add_argument(
        "--max-workers", type=int, default=2,
        help="shard worker processes; 1 = serial in-process, 0 = all cores (default: 2)",
    )
    parser.add_argument(
        "--max-shard-retries", type=int, default=1,
        help="retry a crashed or failed shard this many times (resuming from its "
        "checkpoint) before reporting it failed (default: 1)",
    )
    parser.add_argument("--groups", type=int, default=3, help="N, relation groups for ERAS (default: 3)")
    parser.add_argument("--blocks", type=int, default=4, help="M, structure block count (default: 4)")
    parser.add_argument("--epochs", type=int, default=15, help="ERAS search epochs per shard (default: 15)")
    parser.add_argument(
        "--candidates", type=int, default=8,
        help="candidate budget of the random/bayes shards (default: 8)",
    )
    parser.add_argument(
        "--derive-samples", type=int, default=16,
        help="K, candidates sampled in the ERAS derive phase (default: 16)",
    )
    parser.add_argument("--dim", type=int, default=48, help="embedding dimension (default: 48)")
    parser.add_argument(
        "--proxy-epochs", type=int, default=None,
        help="per-candidate training epochs of the autosf/random/bayes proxy "
        "(default: each algorithm's benchmark budget)",
    )
    parser.add_argument(
        "--budget-steps", type=int, default=None,
        help="uniform per-shard step budget (default: unlimited)",
    )
    parser.add_argument(
        "--budget-evals", type=int, default=None,
        help="uniform per-shard candidate-evaluation budget (default: unlimited)",
    )
    parser.add_argument(
        "--budget-seconds", type=float, default=None,
        help="uniform per-shard wall-clock budget; makes shard outcomes host-dependent "
        "(default: unlimited)",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=1,
        help="write each shard's checkpoint every this many steps (default: 1)",
    )
    parser.add_argument(
        "--no-train", action="store_true",
        help="search-only shards: skip the final re-training/evaluation and aggregate "
        "the searchers' validation-proxy MRR",
    )
    parser.add_argument("--train-epochs", type=int, default=30, help="final training epochs (default: 30)")
    parser.add_argument(
        "--no-rerank", action="store_true",
        help="skip re-ranking each shard's top candidates before the final training",
    )
    parser.add_argument(
        "--eval-split", choices=("valid", "test"), default="test",
        help="split of the final evaluation (default: test)",
    )
    parser.add_argument(
        "--registry", metavar="PATH", default=None,
        help="publish every trained shard winner into this model artifact registry",
    )
    parser.set_defaults(handler=cmd_sweep)


def _add_train_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "train",
        help="train a scoring function from scratch and evaluate it",
        description="Train either a classic literature structure (--structure) or the "
        "winner of a saved search (--from-result) and report filtered ranking metrics.",
    )
    _add_dataset_arguments(parser)
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--structure", choices=CLASSIC_NAMES,
        help="classic scoring function to train",
    )
    source.add_argument(
        "--from-result", metavar="PATH",
        help="JSON search result written by `python -m repro search --output`",
    )
    parser.add_argument("--dim", type=int, default=48, help="embedding dimension (default: 48)")
    parser.add_argument("--epochs", type=int, default=30, help="training epochs (default: 30)")
    parser.add_argument("--seed", type=int, default=0, help="training seed (default: 0)")
    parser.add_argument(
        "--eval-split", choices=("valid", "test"), default="test",
        help="split of the evaluation (default: test)",
    )
    parser.add_argument("--registry", metavar="PATH", default=None, help="model artifact registry root")
    parser.add_argument(
        "--publish", metavar="NAME", default=None,
        help="publish the trained model under this registry name (requires --registry)",
    )
    parser.set_defaults(handler=cmd_train)


def _add_serve_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "serve",
        help="answer link-prediction queries against a registered model",
        description="Load a model from the artifact registry and answer head/tail "
        "completion queries with the batched prediction engine.",
    )
    parser.add_argument("--registry", metavar="PATH", required=True, help="model artifact registry root")
    parser.add_argument("--model", metavar="NAME", required=True, help="artifact name in the registry")
    parser.add_argument("--version", type=int, default=None, help="artifact version (default: latest)")
    _add_dataset_arguments(parser, default=None)
    parser.add_argument(
        "--query", action="append", default=[], metavar="H,R,T",
        help="completion query 'head,relation,?' (predict tail) or '?,relation,tail' "
        "(predict head); ids or vocabulary symbols; repeatable",
    )
    parser.add_argument(
        "--demo", type=int, default=0, metavar="N",
        help="additionally answer N random seeded demo queries",
    )
    parser.add_argument("--top-k", type=int, default=5, help="completions per query (default: 5)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the demo queries (default: 0)")
    parser.add_argument(
        "--mmap", action="store_true",
        help="memory-map the artifact weights instead of loading them resident "
        "(applies to hot reloads too)",
    )
    parser.add_argument(
        "--entity-chunk", type=int, default=None, metavar="N",
        help="score candidates in entity chunks of about this size, bounding the "
        "peak score-matrix memory (default: unchunked; results are bit-identical)",
    )
    parser.add_argument(
        "--http", action="store_true",
        help="serve over HTTP instead of answering --query/--demo and exiting: "
        "POST /v1/predict plus /healthz, /readyz, /metrics and /v1/reload, with "
        "admission control, per-request deadlines, graceful drain on SIGTERM and "
        "hot-reload of new registry versions (disabled when --version pins one)",
    )
    parser.add_argument("--host", default="127.0.0.1", help="HTTP bind address (default: 127.0.0.1)")
    parser.add_argument(
        "--port", type=int, default=8080,
        help="HTTP port; 0 picks an ephemeral port (default: 8080)",
    )
    parser.add_argument(
        "--max-queue-depth", type=int, default=256,
        help="admitted requests waiting for scoring before new ones are shed with "
        "503 + Retry-After (default: 256)",
    )
    parser.add_argument(
        "--deadline-ms", type=float, default=5000.0,
        help="default per-request deadline in milliseconds; expired requests get 504 "
        "and never occupy a batch slot (default: 5000)",
    )
    parser.add_argument(
        "--reload-poll-s", type=float, default=2.0,
        help="seconds between registry polls for a newer model version (default: 2)",
    )
    parser.add_argument(
        "--no-reload", action="store_true",
        help="never hot-reload, even when --version is not pinned",
    )
    parser.set_defaults(handler=cmd_serve)


def _add_bench_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "bench",
        help="run a runtime timing workload",
        description="Benchmark the runtime layer: 'derive' times serial vs parallel vs "
        "cached derive-phase scoring, 'serving' times the engine's batched "
        "latency and throughput, 'ranking' times vectorized filtered ranking against "
        "the retained naive reference, 'search' times one budgeted step of every "
        "registered searcher and writes BENCH_search.json, 'sweep' times serial vs "
        "pooled execution of a sweep grid and writes BENCH_sweep.json, 'shm' times "
        "shared-memory publish/attach against the pickle round-trip and writes "
        "BENCH_shm.json, 'streaming' interleaves live graph deltas with queries "
        "(incremental merge vs rebuild) and writes BENCH_streaming.json, 'scale' "
        "evaluates one model at growing dataset scales with chunked vs unchunked "
        "scoring (recording peak RSS next to throughput) and writes BENCH_scale.json.",
    )
    parser.add_argument(
        "--workload",
        choices=("derive", "serving", "ranking", "search", "sweep", "shm", "streaming", "scale"),
        default="derive",
        help="which workload to run (default: derive)",
    )
    _add_dataset_arguments(parser, default="fb15k_like")
    parser.add_argument("--candidates", type=int, default=64, help="derive-phase candidates (default: 64)")
    parser.add_argument("--workers", type=int, default=2, help="evaluation-pool processes (default: 2)")
    parser.add_argument("--dim", type=int, default=64, help="embedding dimension (default: 64)")
    parser.add_argument("--queries", type=int, default=256, help="serving workload queries (default: 256)")
    parser.add_argument("--top-k", type=int, default=10, help="completions per serving query (default: 10)")
    parser.add_argument(
        "--deltas", type=int, default=12,
        help="streaming workload: graph deltas to apply (default: 12); --queries is "
        "spread evenly across the update stream",
    )
    parser.add_argument(
        "--delta-triples", type=int, default=32,
        help="streaming workload: triples per delta, half adds / half removes (default: 32)",
    )
    parser.add_argument(
        "--scales", nargs="+", type=float, default=[0.5, 1.0, 2.0], metavar="S",
        help="scale workload: dataset scale factors of the curve's tiers, smallest "
        "first (default: 0.5 1.0 2.0)",
    )
    parser.add_argument(
        "--chunk-entities", type=int, default=2048, metavar="N",
        help="scale workload: entity chunk size of the memory-bounded tier "
        "(default: 2048)",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default: 0)")
    parser.add_argument("--output", metavar="PATH", default=None, help="write the result row as JSON")
    parser.add_argument(
        "--out", metavar="DIR", default=None,
        help="directory receiving the BENCH_*.json perf-trajectory files "
        "(default: $BENCH_OUTPUT_DIR or ./bench-out/; the committed repository-root "
        "copies are the regression baselines and are never overwritten)",
    )
    parser.set_defaults(handler=cmd_bench)


# ---------------------------------------------------------------------------- commands
def cmd_search(args: argparse.Namespace) -> int:
    """``python -m repro search``: search, optionally train/evaluate/publish."""
    from repro.runtime.checkpoint import save_search_result
    from repro.scoring.render import render_relation_aware

    if args.list_searchers:
        for name in available_searchers():
            print(name)
        return 0
    if args.publish and not args.registry:
        print("--publish requires --registry", file=sys.stderr)
        return 2
    config = RunConfig(
        dataset=args.dataset,
        scale=args.scale,
        data_seed=args.data_seed,
        searcher=args.searcher,
        num_groups=args.groups,
        num_blocks=args.blocks,
        search_epochs=args.epochs,
        num_candidates=args.candidates,
        derive_samples=args.derive_samples,
        dim=args.dim,
        seed=args.seed,
        workers=args.workers,
        proxy_epochs=args.proxy_epochs,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        budget_steps=args.budget_steps,
        budget_evals=args.budget_evals,
        budget_seconds=args.budget_seconds,
        train_final=bool(args.train or args.publish),
        train_epochs=args.train_epochs,
        rerank=not args.no_rerank,
        eval_split=args.eval_split,
        registry_root=args.registry,
        model_name=args.publish,
    )
    from repro.runtime.checkpoint import CheckpointError

    runner = SearchRunner(config)
    try:
        report = runner.run()
    except CheckpointError as error:
        print(str(error), file=sys.stderr)
        return 2
    result = report.search_result

    if "budget" in result.extras:
        print(f"search stopped early: {result.extras['budget']['stopped']}")
    print(f"winning candidate (signature): {result.best_candidate.signature()}")
    if runner.graph.relation_vocab is not None:
        group_relations = {
            group: [runner.graph.relation_vocab.symbol_of(r) for r in relations]
            for group, relations in result.relations_per_group().items()
        }
        print(render_relation_aware(result.best_structures(), group_relations))
    if args.output:
        # Record the data provenance so `train --from-result` can refuse a mismatched
        # --dataset/--scale/--data-seed instead of training against the wrong graph.
        result.extras["run"] = {"dataset": args.dataset, "scale": args.scale, "data_seed": args.data_seed}
        save_search_result(result, args.output)
        print(f"search result written to {args.output}")
    print(json.dumps(report.summary(), indent=2, sort_keys=True))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """``python -m repro sweep``: sharded grid execution + aggregated comparison."""
    from repro.runtime.orchestrator import SweepConfig, SweepError, SweepOrchestrator
    from repro.search.base import SearchBudget

    try:
        if args.resume:
            if args.sweep_dir:
                print("pass either --sweep-dir (fresh sweep) or --resume, not both", file=sys.stderr)
                return 2
            # A resumed sweep runs under the manifest's configuration, full stop --
            # silently ignoring grid/shard flags would let a user believe they
            # extended the grid.  Reject anything that differs from its default.
            overridden = [
                option
                for option, action in subcommand_parsers()["sweep"]._option_string_actions.items()
                if option.startswith("--")
                and action.dest not in ("resume", "sweep_dir", "help")
                and getattr(args, action.dest) != action.default
            ]
            if overridden:
                print(
                    f"--resume runs the sweep exactly as its manifest describes; drop "
                    f"{', '.join(sorted(set(overridden)))} (to change the grid, start a "
                    "fresh sweep directory)",
                    file=sys.stderr,
                )
                return 2
            orchestrator = SweepOrchestrator.from_directory(args.resume)
            report = orchestrator.run(resume=True)
        else:
            if not args.sweep_dir:
                print("a fresh sweep needs --sweep-dir (or --resume an existing one)", file=sys.stderr)
                return 2
            budget = None
            if (
                args.budget_steps is not None
                or args.budget_evals is not None
                or args.budget_seconds is not None
            ):
                budget = SearchBudget(
                    max_steps=args.budget_steps,
                    max_evaluations=args.budget_evals,
                    max_seconds=args.budget_seconds,
                )
            config = SweepConfig(
                searchers=tuple(args.searchers),
                seeds=tuple(args.seeds),
                datasets=tuple(args.datasets),
                budgets=(budget,),
                scale=args.scale,
                data_seed=args.data_seed,
                num_groups=args.groups,
                num_blocks=args.blocks,
                search_epochs=args.epochs,
                num_candidates=args.candidates,
                derive_samples=args.derive_samples,
                dim=args.dim,
                proxy_epochs=args.proxy_epochs,
                train_final=not args.no_train,
                train_epochs=args.train_epochs,
                rerank=not args.no_rerank,
                eval_split=args.eval_split,
                registry_root=args.registry,
                max_workers=args.max_workers,
                checkpoint_every=args.checkpoint_every,
                max_shard_retries=args.max_shard_retries,
            )
            report = SweepOrchestrator(config, args.sweep_dir).run()
    except SweepError as error:
        print(str(error), file=sys.stderr)
        return 2

    print(report.markdown_path.read_text(encoding="utf-8"))
    print(f"aggregated report written to {report.path} (markdown: {report.markdown_path})")
    if not report.ok:
        print(
            f"{len(report.failed)} shard(s) failed: {', '.join(report.failed)}; "
            f"re-run with --resume {report.path.parent} to retry them",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    """``python -m repro train``: stand-alone training of a structure or search winner."""
    from repro.bench.workloads import train_structure
    from repro.runtime.checkpoint import load_search_result
    from repro.scoring.classics import named_structure

    from repro.datasets import dataset_label

    if args.publish and not args.registry:
        print("--publish requires --registry", file=sys.stderr)
        return 2
    default_name = args.structure or "searched"
    config = RunConfig(
        dataset=args.dataset,
        scale=args.scale,
        data_seed=args.data_seed,
        dim=args.dim,
        seed=args.seed,
        train_epochs=args.epochs,
        eval_split=args.eval_split,
        registry_root=args.registry,
        model_name=args.publish or f"{default_name}-{dataset_label(args.dataset)}",
    )
    runner = SearchRunner(config)
    result = None
    if args.from_result:
        result = load_search_result(args.from_result)
        # Directory datasets record the graph's name in the result, so accept a
        # spec that resolves to the same graph, not only the identical string.
        if result.dataset not in (args.dataset, runner.graph.name):
            print(
                f"search result {args.from_result} was produced on dataset "
                f"{result.dataset!r}; pass --dataset {result.dataset}",
                file=sys.stderr,
            )
            return 2
        provenance = result.extras.get("run")
        requested = {"dataset": args.dataset, "scale": args.scale, "data_seed": args.data_seed}
        if provenance is not None and provenance != requested:
            print(
                f"search result {args.from_result} was produced on {provenance}; "
                f"requested {requested} -- pass the matching --dataset/--scale/--data-seed",
                file=sys.stderr,
            )
            return 2
        if len(result.best_assignment) != runner.graph.num_relations:
            print(
                f"search result {args.from_result} has an assignment for "
                f"{len(result.best_assignment)} relations but the loaded graph has "
                f"{runner.graph.num_relations}; the dataset scale or seed differs",
                file=sys.stderr,
            )
            return 2
        model, training = runner.train(result)
    else:
        model, training = train_structure(
            runner.graph, named_structure(args.structure), dim=args.dim, epochs=args.epochs, seed=args.seed
        )
    metrics = runner.evaluate(model)
    row = {"model": args.structure or result.searcher, **metrics.as_row()}
    print(json.dumps({"training_epochs": training.epochs_run, **row}, indent=2, sort_keys=True))
    if args.publish:
        ref = runner.publish(model, result, metrics, source=args.structure)
        print(f"published {ref.name}/v{ref.version} to {args.registry}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``python -m repro serve``: batched link-prediction against a stored model."""
    from repro.datasets import resolve_dataset
    from repro.serve.artifacts import ModelArtifactRegistry
    from repro.serve.engine import LinkPredictionEngine, LinkQuery
    from repro.serve.service import ServiceStats, serving_tables
    from repro.utils.rng import new_rng

    if args.http and (args.query or args.demo):
        print("--http runs a server; drop --query/--demo", file=sys.stderr)
        return 2
    if not args.http and not args.query and not args.demo:
        print("nothing to do: pass --query and/or --demo N, or --http", file=sys.stderr)
        return 2
    registry = ModelArtifactRegistry(args.registry)
    graph = (
        resolve_dataset(args.dataset, scale=args.scale, seed=args.data_seed)
        if args.dataset
        else None
    )
    if args.http:
        return _serve_http(args, registry, graph)
    engine = LinkPredictionEngine.from_artifact(
        registry,
        name=args.model,
        version=args.version,
        graph=graph,
        mmap=args.mmap,
        entity_chunk_size=args.entity_chunk,
    )
    stats = ServiceStats()

    queries: List[LinkQuery] = [_parse_query(text, engine, args.top_k) for text in args.query]
    queries += _random_queries(
        new_rng(args.seed), args.demo, engine.model.num_relations, engine.model.num_entities, args.top_k
    )

    for query, result in zip(queries, stats.timed_predict(engine, queries)):
        anchor = engine.label(query.anchor)
        print(f"\n({anchor}, r{query.relation}, ?)" if query.direction == "tail" else f"\n(?, r{query.relation}, {anchor})")
        for entity, score in result.pairs():
            print(f"  {engine.label(entity):<24} {score:+.4f}")
    print()
    for table in serving_tables(stats, engine):
        print(table.render())
    return 0


def _serve_http(args: argparse.Namespace, registry, graph) -> int:
    """The ``serve --http`` branch: run the asyncio front-end until SIGTERM/SIGINT."""
    import asyncio

    from repro.serve.frontend import FrontendConfig, ReloadConfig, ServingFrontend
    from repro.serve.http import HttpFrontendServer

    config = FrontendConfig(
        max_queue_depth=args.max_queue_depth,
        default_deadline_s=args.deadline_ms / 1000.0,
        max_deadline_s=max(args.deadline_ms / 1000.0, 30.0),
    )
    frontend = ServingFrontend.from_registry(
        registry,
        args.model,
        version=args.version,
        graph=graph,
        config=config,
        reload_config=ReloadConfig(poll_interval_s=0.0 if args.no_reload else args.reload_poll_s),
        mmap=args.mmap,
        entity_chunk_size=args.entity_chunk,
    )
    if args.no_reload:
        frontend.reloader = None
    server = HttpFrontendServer(frontend, host=args.host, port=args.port)
    asyncio.run(server.run())
    return 0


def _random_queries(rng, count: int, num_relations: int, num_entities: int, k: int) -> List["LinkQuery"]:
    """Seeded demo traffic: alternating tail/head completions over random ids."""
    from repro.serve.engine import LinkQuery

    queries: List[LinkQuery] = []
    for index in range(count):
        relation = int(rng.integers(num_relations))
        entity = int(rng.integers(num_entities))
        if index % 2 == 0:
            queries.append(LinkQuery(relation=relation, head=entity, k=k))
        else:
            queries.append(LinkQuery(relation=relation, tail=entity, k=k))
    return queries


def _parse_query(text: str, engine, k: int):
    """Parse ``head,relation,tail`` where exactly one of head/tail is ``?``."""
    from repro.serve.engine import LinkQuery

    parts = [part.strip() for part in text.split(",")]
    if len(parts) != 3:
        raise SystemExit(f"malformed --query {text!r}: expected 'head,relation,tail' with one '?'")

    def resolve(token: str, vocab) -> Optional[int]:
        if token == "?":
            return None
        if re.fullmatch(r"-?\d+", token):
            return int(token)
        if vocab is None:
            raise SystemExit(f"cannot resolve symbol {token!r}: the artifact stores no vocabulary")
        try:
            return vocab.id_of(token)
        except KeyError:
            raise SystemExit(f"cannot resolve symbol {token!r}: not in the artifact's vocabulary") from None

    head = resolve(parts[0], engine.entity_vocab)
    relation = resolve(parts[1], engine.relation_vocab)
    tail = resolve(parts[2], engine.entity_vocab)
    if relation is None:
        raise SystemExit(f"malformed --query {text!r}: the relation cannot be '?'")
    try:
        query = LinkQuery(relation=relation, head=head, tail=tail, k=k)
        engine.validate_query(query)
    except ValueError as error:
        raise SystemExit(f"malformed --query {text!r}: {error}") from error
    return query


def cmd_bench(args: argparse.Namespace) -> int:
    """``python -m repro bench``: runtime timing workloads (derive/serving/ranking/search/sweep)."""
    from repro.bench.reporting import TableReport, write_bench_json
    from repro.bench.workloads import train_structure
    from repro.datasets import is_directory_spec, resolve_dataset
    from repro.runtime.profiling import (
        time_derive_phase,
        time_filtered_ranking,
        time_scale_curve,
        time_search_steps,
        time_shm_transport,
        time_streaming_updates,
        time_sweep,
    )
    from repro.scoring.classics import named_structure
    from repro.serve.engine import LinkPredictionEngine
    from repro.serve.service import ServiceStats, serving_tables
    from repro.utils.rng import new_rng
    from repro.utils.serialization import save_json

    if args.workload == "scale":
        # The curve grows one synthetic benchmark through --scales; a fixed-size
        # directory dataset has no scale axis to sweep.
        if is_directory_spec(args.dataset):
            print("the scale workload needs a synthetic registry benchmark, not a directory", file=sys.stderr)
            return 2
        rows = time_scale_curve(
            dataset=args.dataset,
            scales=args.scales,
            chunk_entities=args.chunk_entities,
            dim=min(args.dim, 48),
            data_seed=args.data_seed,
            seed=args.seed,
        )
        report = TableReport("scale curve: chunked vs unchunked scoring at growing dataset scales")
        for tier_row in rows:
            report.add_row(**tier_row)
        print(report.render())
        path = write_bench_json("scale", rows, directory=args.out)
        print(f"perf trajectory written to {path}")
        # One row per tier, so --output writes the list (like the search workload).
        if args.output:
            save_json(rows, args.output)
            print(f"result rows written to {args.output}")
        if not all(row["scores_match"] and row["ranks_match"] for row in rows):
            print("chunked scoring diverged from the unchunked reference", file=sys.stderr)
            return 1
        return 0

    graph = resolve_dataset(args.dataset, scale=args.scale, seed=args.data_seed)
    if args.workload == "derive":
        row = time_derive_phase(
            graph,
            num_candidates=args.candidates,
            workers=args.workers,
            dim=args.dim,
            seed=args.seed,
        )
        report = TableReport("derive-phase timing: serial vs parallel vs cached")
        report.add_row(**row)
        print(report.render())
    elif args.workload == "ranking":
        row = time_filtered_ranking(graph, dim=args.dim, seed=args.seed)
        report = TableReport("filtered ranking: naive reference vs vectorized")
        report.add_row(**row)
        print(report.render())
        if not row["ranks_match"]:
            print("vectorized ranks diverge from the naive reference", file=sys.stderr)
            write_bench_json(args.workload, row, directory=args.out)
            return 1
    elif args.workload == "search":
        rows = time_search_steps(graph, workers=args.workers, dim=min(args.dim, 32), seed=args.seed)
        report = TableReport("search workload: one budgeted step per registered searcher")
        for searcher_row in rows:
            report.add_row(**searcher_row)
        print(report.render())
        path = write_bench_json("search", rows, directory=args.out)
        print(f"perf trajectory written to {path}")
        # One row per searcher, so --output writes the list (unlike the single-row workloads).
        if args.output:
            save_json(rows, args.output)
            print(f"result rows written to {args.output}")
        return 0
    elif args.workload == "sweep":
        row = time_sweep(
            dataset=args.dataset,
            scale=args.scale,
            workers=args.workers,
            dim=min(args.dim, 32),
            data_seed=args.data_seed,
        )
        report = TableReport("sweep workload: serial vs pooled shard execution")
        report.add_row(**row)
        print(report.render())
        path = write_bench_json("sweep", row, directory=args.out)
        print(f"perf trajectory written to {path}")
        if not row["reports_match"]:
            print("pooled sweep report diverges from the serial report", file=sys.stderr)
            return 1
    elif args.workload == "streaming":
        row = time_streaming_updates(
            graph,
            num_deltas=args.deltas,
            delta_triples=args.delta_triples,
            queries_per_delta=max(1, args.queries // max(args.deltas, 1)),
            dim=min(args.dim, 32),
            k=args.top_k,
            seed=args.seed,
        )
        report = TableReport("streaming workload: interleaved graph updates and queries")
        report.add_row(**row)
        print(report.render())
        if not row["merge_matches_rebuild"] or row["failed_queries"] or row["stale_results"]:
            print(
                "streaming workload failed fidelity checks (merge/rebuild divergence, "
                "failed queries, or stale results)",
                file=sys.stderr,
            )
            write_bench_json(args.workload, row, directory=args.out)
            return 1
    elif args.workload == "shm":
        row = time_shm_transport(graph, workers=args.workers, seed=args.seed)
        report = TableReport("shared-memory transport: publish/attach vs pickle round-trip")
        report.add_row(**row)
        print(report.render())
        path = write_bench_json("shm", row, directory=args.out)
        print(f"perf trajectory written to {path}")
        if not (row["views_match"] and row["segments_released"]):
            print("shared-memory transport failed fidelity or cleanup checks", file=sys.stderr)
            return 1
    else:
        model, _ = train_structure(graph, named_structure("distmult"), dim=min(args.dim, 32), epochs=8, seed=args.seed)
        engine = LinkPredictionEngine.from_graph(model, graph)
        stats = ServiceStats()
        queries = _random_queries(
            new_rng(args.seed), args.queries, graph.num_relations, graph.num_entities, args.top_k
        )
        stats.timed_predict(engine, queries)
        for table in serving_tables(stats, engine):
            print(table.render())
        row = stats.as_row()
    # Every workload contributes to the perf trajectory in --out, so regenerating a
    # baseline is the same one-liner regardless of workload.
    path = write_bench_json(args.workload, row, directory=args.out)
    print(f"perf trajectory written to {path}")
    if args.output:
        save_json(row, args.output)
        print(f"result row written to {args.output}")
    return 0


# ---------------------------------------------------------------------------- entry
def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``python -m repro``; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "handler", None) is None:
        parser.print_help()
        return 1
    try:
        return int(args.handler(args) or 0)
    except DatasetResolutionError as error:
        # A bad --dataset/--datasets spec is a usage error, not a crash: exit 2 with
        # the resolver's message (which names the registry and the ./name escape).
        print(f"error: {error}", file=sys.stderr)
        return 2

"""Sharded search sweeps: the fault-tolerant multi-run orchestrator.

One :class:`~repro.runtime.runner.SearchRunner` executes exactly one
``(searcher, seed, dataset, budget)`` combination.  The paper's headline comparison
(ERAS vs AutoSF vs random vs Bayes search across seeds -- the Figure 2 / Table IX
axes) needs a *grid* of those combinations, run with crash recovery and aggregated
fairly.  This module provides that layer on top of the PR-4 stepwise
:class:`~repro.search.base.Searcher` protocol:

- :class:`SweepConfig` declares the grid (searchers x seeds x datasets x budgets)
  plus the knobs every shard shares (scale, dim, proxy epochs, final training, ...).
- :class:`SweepOrchestrator` expands the grid into deduplicated :class:`ShardSpec`
  shards, dispatches them to a bounded ``multiprocessing`` worker pool with
  work-stealing (idle workers pull the next pending shard from a shared queue), and
  writes every artifact into one **sweep directory**::

      <sweep_dir>/sweep.json                   the manifest (config, format version)
      <sweep_dir>/shards/<id>/checkpoint.json  the shard's format-v2 search envelope
      <sweep_dir>/shards/<id>/result.json      the shard's finished report
      <sweep_dir>/report.json                  the aggregated fair-comparison report
      <sweep_dir>/report.md                    the same report rendered as markdown

- **Fault tolerance**: a worker that dies mid-shard is detected by the orchestrator,
  the shard is requeued (up to ``max_shard_retries`` times) and the next worker
  resumes it from its last checkpoint -- bit-identical to an uninterrupted run, the
  same guarantee ``tests/test_runtime.py`` establishes per searcher.  A killed
  *orchestrator* recovers the same way: re-running with ``resume=True`` (CLI:
  ``python -m repro sweep --resume <sweep-dir>``) skips finished shards and resumes
  partial ones from their checkpoints.
- **Aggregation**: finished shards are reduced to a per-searcher fair-comparison
  report (mean/std MRR, Hit@1, evaluations used, wall clock) emitted as JSON and
  rendered markdown.  Wall-clock fields live under ``timing`` keys;
  :func:`strip_timing` removes them, and the remaining payload is **bit-identical**
  across crash/resume cycles and worker counts (enforced by
  ``tests/test_orchestrator.py``).

Workers execute shards with ``RunConfig(workers=1)`` -- sweep-level parallelism
replaces shard-level parallelism, so the pool is never oversubscribed.  Before the
pool spawns, the orchestrator publishes every dataset of the grid into shared memory
(:func:`repro.runtime.shm.publish_graph`: splits plus the pre-built CSR filter
index); workers receive the picklable handles and attach zero-copy views, so no
worker ever regenerates, re-parses or re-indexes a dataset -- one graph per digest in
physical memory no matter how many workers or shards touch it.
"""

from __future__ import annotations

import dataclasses
import os
import queue as queue_module
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets import DatasetResolutionError, check_dataset_spec, dataset_label
from repro.search.base import SearchBudget
from repro.search.registry import available_searchers
from repro.utils.logging import get_logger
from repro.utils.serialization import PathLike, load_json, save_json, to_jsonable

from repro.runtime.blas import cap_worker_blas_threads
from repro.runtime.runner import RunConfig, SearchRunner

logger = get_logger("runtime.orchestrator")

#: Version of the sweep manifest / shard result / report layout.
SWEEP_FORMAT_VERSION = 1

#: Exit code a worker uses for the injected mid-step kill (tests and drills).
KILL_EXIT_CODE = 75

#: Environment variable enabling one injected worker kill: ``"<shard_id>@<step>"``
#: makes the worker running that shard die right after checkpointing that step, once
#: (a marker file inside the shard directory keeps it from firing again).
KILL_ENV_VAR = "REPRO_SWEEP_KILL"

#: Keys that carry host-dependent wall clock; :func:`strip_timing` removes them so
#: reports can be compared bit-for-bit across crash/resume cycles and worker counts.
TIMING_KEYS = frozenset({"timing", "search_seconds", "elapsed_seconds", "wall_seconds", "attempt"})


class SweepError(RuntimeError):
    """A sweep cannot start, resume or finish (bad grid, manifest mismatch, dead shards)."""


# ---------------------------------------------------------------------------- config
@dataclass(frozen=True)
class SweepConfig:
    """The declarative description of one sweep: the grid plus shared shard knobs.

    Fields
    ------
    searchers:
        Grid axis: registered searcher names to compare (default ``("eras",)``,
        non-empty; unknown names raise listing
        :func:`~repro.search.registry.available_searchers`).
    seeds:
        Grid axis: search/training seeds, one shard per seed (default ``(0,)``).
    datasets:
        Grid axis: dataset specs accepted by :func:`repro.datasets.resolve_dataset`
        -- registry benchmark names or ``train.txt``/``valid.txt``/``test.txt``
        directories (default ``("wn18rr_like",)``, non-empty).
    budgets:
        Grid axis: one optional :class:`~repro.search.base.SearchBudget` per entry
        (default ``(None,)`` = a single unbudgeted axis point).  Budgets with
        ``max_seconds`` make shard outcomes host-dependent, so prefer step/evaluation
        budgets for comparable sweeps.
    scale:
        Dataset scale factor shared by every shard (default 1.0, > 0).
    data_seed:
        Seed of the synthetic dataset generator (default 0).
    num_groups:
        N, relation groups of the ERAS-family shards (default 3, >= 1).
    num_blocks:
        M, structure block count shared by every searcher (default 4, >= 2).
    search_epochs:
        ERAS search epochs per shard (default 15, >= 1).
    num_candidates:
        Candidate budget of the random/Bayes shards (default 8, >= 1).
    derive_samples:
        K, ERAS derive-phase samples (default 16, >= 1).
    dim:
        Embedding dimension of every shard (default 48, > 0).
    proxy_epochs:
        Override of the stand-alone per-candidate training epochs of the
        AutoSF/random/Bayes proxy (default None: each algorithm's benchmark budget).
    train_final:
        Re-train each shard's winner from scratch and evaluate it on ``eval_split``
        (default True; False stops shards after the search, and the report
        aggregates the searchers' validation-proxy MRR only).
    train_epochs:
        Epochs of the final from-scratch training (default 30, >= 1).
    rerank:
        Re-rank each shard's top candidates before the final training (default True).
    eval_split:
        Split of the final ranking evaluation, ``"valid"`` or ``"test"``
        (default ``"test"``).
    registry_root:
        Optional model artifact registry root; when set, every trained shard winner
        is published as ``<searcher>-<dataset>-seed<seed>`` (default None).
    max_workers:
        Worker processes of the shard pool; 1 runs shards serially in-process,
        0 means all cores (default 2).
    checkpoint_every:
        Write each shard's checkpoint every this many steps (default 1, >= 1).
    max_shard_retries:
        How many times a crashed or failed shard is retried before the sweep reports
        it as failed (default 1, >= 0) -- the same attempt budget whether the shard
        died with its worker process or raised a Python exception, and whether it
        ran in-process or on the pool.  Each retry resumes from the shard's
        checkpoint.
    """

    searchers: Tuple[str, ...] = ("eras",)
    seeds: Tuple[int, ...] = (0,)
    datasets: Tuple[str, ...] = ("wn18rr_like",)
    budgets: Tuple[Optional[SearchBudget], ...] = (None,)
    scale: float = 1.0
    data_seed: int = 0
    num_groups: int = 3
    num_blocks: int = 4
    search_epochs: int = 15
    num_candidates: int = 8
    derive_samples: int = 16
    dim: int = 48
    proxy_epochs: Optional[int] = None
    train_final: bool = True
    train_epochs: int = 30
    rerank: bool = True
    eval_split: str = "test"
    registry_root: Optional[str] = None
    max_workers: int = 2
    checkpoint_every: int = 1
    max_shard_retries: int = 1

    def __post_init__(self) -> None:
        if not self.searchers or not self.seeds or not self.datasets or not self.budgets:
            raise SweepError(
                "empty sweep grid: searchers, seeds, datasets and budgets must each "
                "have at least one entry"
            )
        unknown = [name for name in self.searchers if name not in available_searchers()]
        if unknown:
            raise SweepError(
                f"unknown searcher(s) {unknown}; choose from: {', '.join(available_searchers())}"
            )
        for name in self.datasets:
            try:
                check_dataset_spec(name, scale=self.scale)
            except DatasetResolutionError as error:
                raise SweepError(str(error)) from error
        if self.max_workers < 0:
            raise SweepError("max_workers must be >= 0 (0 means all cores)")
        if self.max_shard_retries < 0:
            raise SweepError("max_shard_retries must be >= 0")
        # Delegate the per-shard knob validation to RunConfig by building one probe
        # config; this keeps the two validation rule sets from drifting apart.
        self.shard_run_config(self.expand_shards()[0], checkpoint_path=None)

    # ------------------------------------------------------------------ grid
    def expand_shards(self) -> List["ShardSpec"]:
        """The grid as deduplicated :class:`ShardSpec` entries, in deterministic order.

        Duplicate combinations (e.g. a searcher listed twice) collapse to one shard;
        order follows the axis declaration order, so the same config always produces
        the same shard list.
        """
        seen: Dict[str, ShardSpec] = {}
        for dataset in self.datasets:
            for searcher in self.searchers:
                for seed in self.seeds:
                    for budget_index, budget in enumerate(self.budgets):
                        spec = ShardSpec(
                            searcher=searcher,
                            seed=int(seed),
                            dataset=dataset,
                            budget_index=budget_index,
                            budget=budget,
                        )
                        seen.setdefault(spec.shard_id, spec)
        return list(seen.values())

    def shard_run_config(self, shard: "ShardSpec", checkpoint_path: Optional[str]) -> RunConfig:
        """The :class:`~repro.runtime.runner.RunConfig` executing one shard.

        Shards always run with ``workers=1``: the sweep parallelises across shards,
        not inside them, so a ``max_workers`` pool never oversubscribes the host.
        """
        budget = shard.budget
        return RunConfig(
            dataset=shard.dataset,
            scale=self.scale,
            data_seed=self.data_seed,
            searcher=shard.searcher,
            num_groups=self.num_groups,
            num_blocks=self.num_blocks,
            search_epochs=self.search_epochs,
            num_candidates=self.num_candidates,
            derive_samples=self.derive_samples,
            dim=self.dim,
            seed=shard.seed,
            workers=1,
            proxy_epochs=self.proxy_epochs,
            checkpoint_path=checkpoint_path,
            checkpoint_every=self.checkpoint_every,
            budget_steps=None if budget is None else budget.max_steps,
            budget_evals=None if budget is None else budget.max_evaluations,
            budget_seconds=None if budget is None else budget.max_seconds,
            train_final=self.train_final,
            train_epochs=self.train_epochs,
            rerank=self.rerank,
            eval_split=self.eval_split,
            registry_root=self.registry_root,
            model_name=f"{shard.searcher}-{dataset_label(shard.dataset)}-seed{shard.seed}",
        )


@dataclass(frozen=True)
class ShardSpec:
    """One grid point of a sweep: a single (searcher, seed, dataset, budget) run.

    Fields
    ------
    searcher:
        Registered searcher name this shard runs.
    seed:
        Search/training seed of the shard.
    dataset:
        Synthetic benchmark name the shard searches on.
    budget_index:
        Index into :attr:`SweepConfig.budgets` (keeps shard ids stable when several
        budget axis points are swept).
    budget:
        The shard's optional :class:`~repro.search.base.SearchBudget` (None = the
        searcher's own schedule decides when to stop).
    """

    searcher: str
    seed: int
    dataset: str
    budget_index: int = 0
    budget: Optional[SearchBudget] = None

    @property
    def shard_id(self) -> str:
        """Stable, filesystem-safe identity used for directories and dedup.

        Directory datasets contribute their :func:`repro.datasets.dataset_label`
        (basename + path digest) instead of the raw path, so the id stays one flat
        path component.
        """
        return f"{self.searcher}-{dataset_label(self.dataset)}-seed{self.seed}-b{self.budget_index}"

    def to_jsonable(self) -> Dict[str, object]:
        """The spec as plain JSON structures (the manifest/result representation)."""
        return {
            "id": self.shard_id,
            "searcher": self.searcher,
            "seed": self.seed,
            "dataset": self.dataset,
            "budget_index": self.budget_index,
            "budget": budget_to_jsonable(self.budget),
        }

    @classmethod
    def from_jsonable(cls, data: Dict[str, object]) -> "ShardSpec":
        """Rebuild a spec serialised by :meth:`to_jsonable`."""
        return cls(
            searcher=str(data["searcher"]),
            seed=int(data["seed"]),
            dataset=str(data["dataset"]),
            budget_index=int(data["budget_index"]),
            budget=budget_from_jsonable(data.get("budget")),
        )


# ---------------------------------------------------------------------------- JSON
def budget_to_jsonable(budget: Optional[SearchBudget]) -> Optional[Dict[str, object]]:
    """A :class:`~repro.search.base.SearchBudget` as a plain dict (None stays None)."""
    return None if budget is None else to_jsonable(dataclasses.asdict(budget))


def budget_from_jsonable(data: Optional[Dict[str, object]]) -> Optional[SearchBudget]:
    """Rebuild a budget serialised by :func:`budget_to_jsonable`."""
    return None if data is None else SearchBudget(**data)


def sweep_config_to_jsonable(config: SweepConfig) -> Dict[str, object]:
    """A :class:`SweepConfig` as plain JSON structures (the manifest representation)."""
    payload = to_jsonable(dataclasses.asdict(config))
    payload["budgets"] = [budget_to_jsonable(budget) for budget in config.budgets]
    return payload


def sweep_config_from_jsonable(data: Dict[str, object]) -> SweepConfig:
    """Rebuild a config serialised by :func:`sweep_config_to_jsonable`."""
    payload = dict(data)
    payload["budgets"] = tuple(budget_from_jsonable(entry) for entry in payload.get("budgets", [None]))
    for axis in ("searchers", "seeds", "datasets"):
        if axis in payload:
            payload[axis] = tuple(payload[axis])
    return SweepConfig(**payload)


def strip_timing(payload: object) -> object:
    """``payload`` with every host-dependent timing key removed, recursively.

    Shard results and sweep reports carry wall-clock numbers (under the keys of
    :data:`TIMING_KEYS`) next to deterministic search outcomes.  Stripping the former
    leaves a payload that is bit-identical between an uninterrupted sweep and any
    crash/requeue/resume history of the same grid -- the property the fault-tolerance
    tests assert.
    """
    if isinstance(payload, dict):
        return {
            key: strip_timing(value) for key, value in payload.items() if key not in TIMING_KEYS
        }
    if isinstance(payload, list):
        return [strip_timing(value) for value in payload]
    return payload


# ---------------------------------------------------------------------------- report
@dataclass
class SweepReport:
    """Outcome of one :meth:`SweepOrchestrator.run`.

    Fields
    ------
    payload:
        The aggregated report as plain JSON structures (what ``report.json`` holds):
        grid axes, per-shard statuses, per-searcher aggregates and a ``timing``
        section.
    path:
        Where ``report.json`` was written.
    markdown_path:
        Where the rendered ``report.md`` was written.
    failed:
        Shard ids that exhausted their retries (empty for a fully successful sweep).
    """

    payload: Dict[str, object]
    path: Path
    markdown_path: Path
    failed: Tuple[str, ...] = ()

    def deterministic(self) -> Dict[str, object]:
        """The report without timing fields -- comparable bit-for-bit across runs."""
        return strip_timing(self.payload)

    @property
    def ok(self) -> bool:
        """True when every shard of the grid completed."""
        return not self.failed


def _mean_std(values: Sequence[float]) -> Tuple[float, float]:
    array = np.asarray(values, dtype=np.float64)
    return round(float(array.mean()), 6), round(float(array.std()), 6)


def aggregate_shards(
    config: SweepConfig, results: Dict[str, Dict[str, object]], failures: Dict[str, str]
) -> Dict[str, object]:
    """Reduce finished shard results to the fair-comparison report payload.

    ``results`` maps shard id to the shard's ``result.json`` payload; aggregation
    iterates shards in sorted-id order, so the report never depends on completion
    order (and therefore not on worker count or crash history).
    """
    per_searcher: List[Dict[str, object]] = []
    timing_rows: Dict[str, Dict[str, object]] = {}
    for searcher in dict.fromkeys(config.searchers):
        rows = [results[sid] for sid in sorted(results) if results[sid]["shard"]["searcher"] == searcher]
        if not rows:
            continue
        valid_mrrs = [row["search"]["best_valid_mrr"] for row in rows]
        evaluations = [row["search"]["evaluations"] for row in rows]
        entry: Dict[str, object] = {
            "searcher": searcher,
            "shards": len(rows),
            "datasets": sorted({row["shard"]["dataset"] for row in rows}),
            "mean_valid_mrr": _mean_std(valid_mrrs)[0],
            "std_valid_mrr": _mean_std(valid_mrrs)[1],
            "mean_evaluations": _mean_std(evaluations)[0],
            "total_evaluations": int(sum(evaluations)),
        }
        metric_rows = [row["metrics"] for row in rows if row.get("metrics")]
        if metric_rows:
            # Deliberately split-agnostic key names: with eval_split="valid" a
            # f"mean_{split}_mrr" key would collide with (and clobber) the search
            # proxy's mean_valid_mrr above.  The report-level "eval_split" field
            # says which split these final-model numbers come from.
            final_mrrs = [row["MRR"] for row in metric_rows]
            hit1s = [row["Hit@1"] for row in metric_rows]
            entry.update(
                {
                    "mean_eval_mrr": _mean_std(final_mrrs)[0],
                    "std_eval_mrr": _mean_std(final_mrrs)[1],
                    "mean_eval_hit1": _mean_std(hit1s)[0],
                    "std_eval_hit1": _mean_std(hit1s)[1],
                }
            )
        per_searcher.append(entry)
        search_seconds = [row["search"]["search_seconds"] for row in rows]
        wall_seconds = [row["timing"]["wall_seconds"] for row in rows]
        timing_rows[searcher] = {
            "mean_search_seconds": _mean_std(search_seconds)[0],
            "total_search_seconds": round(float(sum(search_seconds)), 4),
            "mean_shard_wall_seconds": _mean_std(wall_seconds)[0],
            "total_shard_wall_seconds": round(float(sum(wall_seconds)), 4),
        }

    shards = {
        sid: {"status": "completed", "attempt": results[sid].get("attempt", 1)} for sid in sorted(results)
    }
    shards.update(
        {sid: {"status": "failed", "error": error} for sid, error in sorted(failures.items())}
    )
    return {
        "format_version": SWEEP_FORMAT_VERSION,
        "grid": {
            "searchers": list(config.searchers),
            "seeds": [int(seed) for seed in config.seeds],
            "datasets": list(config.datasets),
            "budgets": [budget_to_jsonable(budget) for budget in config.budgets],
        },
        "eval_split": config.eval_split,
        "train_final": config.train_final,
        "shards": shards,
        "per_searcher": per_searcher,
        "timing": {"per_searcher": timing_rows},
    }


def render_report_markdown(payload: Dict[str, object]) -> str:
    """The aggregated report as a markdown document (what ``report.md`` holds)."""
    grid = payload["grid"]
    eval_split = payload.get("eval_split", "test")
    completed = sum(1 for entry in payload["shards"].values() if entry["status"] == "completed")
    failed = [sid for sid, entry in payload["shards"].items() if entry["status"] == "failed"]
    lines = [
        "# Sweep report",
        "",
        f"Grid: searchers {grid['searchers']} x seeds {grid['seeds']} x "
        f"datasets {grid['datasets']} x {len(grid['budgets'])} budget(s) -- "
        f"{completed}/{len(payload['shards'])} shards completed.",
        "",
    ]
    if failed:
        lines += [f"**Failed shards:** {', '.join(failed)}", ""]
    mrr_column = f"{eval_split} MRR" if payload.get("train_final") else "valid MRR (proxy)"
    hit_column = f"{eval_split} Hit@1"
    lines += [
        f"| searcher | shards | {mrr_column} | {hit_column} | evaluations | search s (mean) |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    timing = payload["timing"]["per_searcher"]
    for entry in payload["per_searcher"]:
        name = entry["searcher"]
        if payload.get("train_final") and "mean_eval_mrr" in entry:
            mrr = f"{entry['mean_eval_mrr']:.4f} +/- {entry['std_eval_mrr']:.4f}"
            hit1 = f"{entry['mean_eval_hit1']:.1f} +/- {entry['std_eval_hit1']:.1f}"
        else:
            mrr = f"{entry['mean_valid_mrr']:.4f} +/- {entry['std_valid_mrr']:.4f}"
            hit1 = "-"
        lines.append(
            f"| {name} | {entry['shards']} | {mrr} | {hit1} | "
            f"{entry['mean_evaluations']:.1f} | {timing[name]['mean_search_seconds']:.2f} |"
        )
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------- shard execution
def _maybe_inject_kill(shard_id: str, shard_dir: Path, steps_completed: int) -> None:
    """Honour the :data:`KILL_ENV_VAR` fault injection (used by tests and drills).

    Fires at most once per shard directory: the first worker to reach the target step
    claims a marker file with ``O_EXCL`` and dies hard (``os._exit``), skipping every
    ``finally``/``atexit`` path exactly like a real crash; any later attempt sees the
    marker and keeps running.
    """
    target = os.environ.get(KILL_ENV_VAR)
    if not target:
        return
    wanted_id, _, step_text = target.partition("@")
    if wanted_id != shard_id or not step_text.isdigit() or steps_completed != int(step_text):
        return
    try:
        handle = os.open(shard_dir / "kill.fired", os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return
    os.close(handle)
    os._exit(KILL_EXIT_CODE)


def run_shard(
    config: SweepConfig,
    shard: ShardSpec,
    sweep_dir: PathLike,
    attempt: int = 1,
    graph=None,
) -> Dict[str, object]:
    """Execute (or resume) one shard and write its ``result.json``; returns the payload.

    The shard checkpoints between steps through the universal format-v2 envelope, so
    a crashed attempt resumes from its last completed step.  The result file is
    written atomically (write-then-rename), which is what lets ``resume`` trust any
    existing, parseable ``result.json``.  ``graph`` optionally injects a pre-loaded
    :class:`~repro.kg.graph.KnowledgeGraph` for the shard's dataset (the pool path
    resolves it from the orchestrator's shared-memory publication); None loads it
    through the dataset registry as before.
    """
    from repro.runtime.checkpoint import search_result_to_jsonable

    shard_dir = Path(sweep_dir) / "shards" / shard.shard_id
    shard_dir.mkdir(parents=True, exist_ok=True)
    # Sweep away scratch files orphaned by killed writers (their PID suffix makes
    # them unique per attempt, so crash cycles would otherwise accumulate them).
    # A concurrently writing duplicate may lose its scratch here; its rename then
    # fails and the ordinary retry path covers it.
    for stale in shard_dir.glob("*.tmp"):
        try:
            stale.unlink()
        except OSError:
            pass
    run_config = config.shard_run_config(shard, checkpoint_path=str(shard_dir / "checkpoint.json"))
    runner = SearchRunner(run_config, graph=graph)

    started = time.perf_counter()
    search_result = runner.search(
        on_step=lambda state: _maybe_inject_kill(shard.shard_id, shard_dir, state.steps_completed)
    )
    payload: Dict[str, object] = {
        "format_version": SWEEP_FORMAT_VERSION,
        "shard": shard.to_jsonable(),
        "attempt": int(attempt),
        "search": search_result_to_jsonable(search_result),
        "training": None,
        "metrics": None,
        "artifact": None,
    }
    if config.train_final:
        model, training = runner.train(search_result)
        metrics = runner.evaluate(model)
        payload["training"] = {
            "epochs_run": int(training.epochs_run),
            "best_valid_mrr": float(training.best_valid_mrr),
        }
        payload["metrics"] = metrics.as_row()
        if config.registry_root:
            ref = runner.publish(model, search_result, metrics)
            payload["artifact"] = f"{ref.name}/v{ref.version}"
    payload["timing"] = {"wall_seconds": round(time.perf_counter() - started, 4)}

    path = shard_dir / "result.json"
    # PID-suffixed scratch: duplicate executions of a shard (stall-path requeues) may
    # write concurrently, and a shared scratch name would let one rename promote the
    # other's half-written file.  Distinct scratches + atomic rename = last writer
    # wins with identical deterministic content.
    scratch = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    save_json(payload, scratch)
    scratch.replace(path)
    # Return the re-parsed file, not the in-memory payload: aggregation must see the
    # identical representation (tuples as lists, JSON float round-trip) whether the
    # shard ran in-process, in a pool worker, or in an earlier resumed invocation.
    return load_json(path)


def _pool_worker(worker_id, tasks, events, config_payload, sweep_dir, graph_handles=None) -> None:
    """Worker-process loop: steal pending shards off the shared queue until sentinel.

    Crash semantics are the point: this function posts ``claimed`` *before* executing
    a shard, so if the process dies mid-shard the orchestrator knows exactly which
    shard to requeue.  A Python-level exception is not a crash -- it is reported as a
    ``failed`` event (the orchestrator applies the same retry budget it uses for
    crashes) and the worker keeps serving shards.

    ``graph_handles`` maps dataset name to the orchestrator's
    :class:`~repro.runtime.shm.SharedGraphPayload`; each resolves (once per worker,
    memoised per digest) to a zero-copy view of the parent's published graph, so the
    worker never regenerates a dataset regardless of how many shards it executes.
    BLAS is capped to this worker's share of the cores, so ``max_workers`` workers
    do not oversubscribe the host.
    """
    config = sweep_config_from_jsonable(config_payload)
    cap_worker_blas_threads(config.max_workers)
    graph_handles = graph_handles or {}
    while True:
        task = tasks.get()
        if task is None:
            events.put({"kind": "exit", "worker": worker_id})
            return
        shard = ShardSpec.from_jsonable(task["shard"])
        events.put({"kind": "claimed", "worker": worker_id, "shard": shard.shard_id})
        try:
            handle = graph_handles.get(shard.dataset)
            graph = handle.resolve() if handle is not None else None
            run_shard(config, shard, sweep_dir, attempt=task["attempt"], graph=graph)
        except Exception as error:  # noqa: BLE001 -- a shard failure must not kill the pool
            events.put(
                {
                    "kind": "failed",
                    "worker": worker_id,
                    "shard": shard.shard_id,
                    "error": f"{type(error).__name__}: {error}",
                }
            )
        else:
            events.put({"kind": "done", "worker": worker_id, "shard": shard.shard_id})


# ---------------------------------------------------------------------------- orchestrator
class SweepOrchestrator:
    """Expands a :class:`SweepConfig` grid into shards and runs them fault-tolerantly."""

    def __init__(self, config: SweepConfig, sweep_dir: PathLike) -> None:
        self.config = config
        self.sweep_dir = Path(sweep_dir)
        self.shards = config.expand_shards()

    # ------------------------------------------------------------------ manifest
    @property
    def manifest_path(self) -> Path:
        """Location of the sweep manifest (``sweep.json``)."""
        return self.sweep_dir / "sweep.json"

    @classmethod
    def from_directory(cls, sweep_dir: PathLike) -> "SweepOrchestrator":
        """Rebuild an orchestrator from an existing sweep directory's manifest.

        This is what ``python -m repro sweep --resume <sweep-dir>`` uses: the grid
        and every shared knob come from the manifest, so a resumed sweep can never
        silently run under different settings.
        """
        manifest_path = Path(sweep_dir) / "sweep.json"
        if not manifest_path.is_file():
            raise SweepError(f"no sweep manifest at {manifest_path}; is this a sweep directory?")
        manifest = load_json(manifest_path)
        declared = manifest.get("format_version")
        if declared != SWEEP_FORMAT_VERSION:
            raise SweepError(
                f"unsupported sweep format version {declared!r} "
                f"(this library reads version {SWEEP_FORMAT_VERSION})"
            )
        return cls(sweep_config_from_jsonable(manifest["config"]), sweep_dir)

    def _write_manifest(self) -> None:
        self.sweep_dir.mkdir(parents=True, exist_ok=True)
        save_json(
            {
                "format_version": SWEEP_FORMAT_VERSION,
                "config": sweep_config_to_jsonable(self.config),
                "shards": [shard.to_jsonable() for shard in self.shards],
            },
            self.manifest_path,
        )

    def _check_manifest(self, resume: bool) -> None:
        if not self.manifest_path.exists():
            if resume:
                raise SweepError(
                    f"cannot resume: no sweep manifest at {self.manifest_path} -- "
                    "check the directory path (a fresh sweep would recompute every shard)"
                )
            self._write_manifest()
            return
        manifest = load_json(self.manifest_path)
        if manifest.get("config") != sweep_config_to_jsonable(self.config):
            raise SweepError(
                f"sweep directory {self.sweep_dir} was initialised with a different "
                "configuration; resume with the original settings or use a fresh directory"
            )
        if not resume:
            raise SweepError(
                f"sweep directory {self.sweep_dir} already holds a sweep; pass resume=True "
                "(CLI: --resume) to continue it, or use a fresh directory"
            )

    # ------------------------------------------------------------------ shard bookkeeping
    def _shard_dir(self, shard: ShardSpec) -> Path:
        return self.sweep_dir / "shards" / shard.shard_id

    def _load_completed(self) -> Dict[str, Dict[str, object]]:
        """Results of shards that already finished (used to resume and to aggregate)."""
        completed: Dict[str, Dict[str, object]] = {}
        for shard in self.shards:
            path = self._shard_dir(shard) / "result.json"
            if not path.is_file():
                continue
            try:
                payload = load_json(path)
            except ValueError:
                logger.warning("discarding unreadable shard result %s", path)
                path.unlink()
                continue
            if payload.get("shard", {}).get("id") == shard.shard_id:
                completed[shard.shard_id] = payload
        return completed

    # ------------------------------------------------------------------ run
    def run(self, resume: bool = False) -> SweepReport:
        """Run every pending shard, aggregate, and write ``report.json``/``report.md``.

        ``resume=False`` requires a fresh (or config-identical, never-started) sweep
        directory; ``resume=True`` skips shards with a finished ``result.json`` and
        resumes partial shards from their checkpoints.  Either way the aggregated
        deterministic payload is the same as an uninterrupted run's.
        """
        self._check_manifest(resume)
        results = self._load_completed() if resume else {}
        pending = [shard for shard in self.shards if shard.shard_id not in results]
        failures: Dict[str, str] = {}

        if pending:
            workers = self.config.max_workers
            if workers == 0:
                workers = max(1, os.cpu_count() or 1)
            if workers <= 1 or len(pending) == 1:
                self._run_serial(pending, results, failures)
            else:
                self._run_pool(pending, results, failures, workers)

        payload = aggregate_shards(self.config, results, failures)
        report_path = save_json(payload, self.sweep_dir / "report.json")
        markdown_path = self.sweep_dir / "report.md"
        markdown_path.write_text(render_report_markdown(payload), encoding="utf-8")
        report = SweepReport(
            payload=payload,
            path=report_path,
            markdown_path=markdown_path,
            failed=tuple(sorted(failures)),
        )
        if failures:
            logger.warning("sweep finished with failed shards: %s", ", ".join(report.failed))
        return report

    def _run_serial(
        self,
        pending: Sequence[ShardSpec],
        results: Dict[str, Dict[str, object]],
        failures: Dict[str, str],
    ) -> None:
        """In-process execution (``max_workers=1``): same shards, same artifacts.

        Python-level shard failures are retried in place (each retry resumes from the
        shard checkpoint, like a requeue would); a hard crash kills the sweep process
        itself, which the ``resume`` path then recovers.  Failure records use the
        exact format of the pool path, so a deterministically failing sweep produces
        the same report for any ``max_workers``.
        """
        for shard in pending:
            error_text: Optional[str] = None
            for attempt in range(1, self.config.max_shard_retries + 2):
                try:
                    results[shard.shard_id] = run_shard(
                        self.config, shard, self.sweep_dir, attempt=attempt
                    )
                    error_text = None
                    break
                except Exception as error:  # noqa: BLE001 -- isolate shard failures
                    error_text = f"shard failed: {type(error).__name__}: {error}"
                    logger.warning("shard %s attempt %d failed: %s", shard.shard_id, attempt, error)
            if error_text is not None:
                failures[shard.shard_id] = (
                    f"{error_text}; the shard exhausted its "
                    f"{self.config.max_shard_retries} retry/retries"
                )

    def _run_pool(
        self,
        pending: Sequence[ShardSpec],
        results: Dict[str, Dict[str, object]],
        failures: Dict[str, str],
        max_workers: int,
    ) -> None:
        """Bounded worker pool with work-stealing dispatch and crash requeue."""
        import multiprocessing

        from repro.datasets import resolve_dataset
        from repro.runtime import shm

        # ``fork`` keeps parent-process state (dataset memos, third-party searcher
        # registrations) visible to the workers for free; fall back to the platform
        # default where fork does not exist.
        method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        context = multiprocessing.get_context(method)
        tasks = context.Queue()
        events = context.Queue()
        config_payload = sweep_config_to_jsonable(self.config)

        # Publish every dataset of the pending grid into shared memory once; the
        # workers get the picklable handles and attach zero-copy views (including the
        # pre-built CSR filter index), so a respawned worker warms up by attaching
        # instead of regenerating.  Tokens this call newly published are unlinked when
        # the pool drains; a SIGKILLed orchestrator leaves the cleanup to its resource
        # tracker.
        graph_handles = {}
        published_tokens: List[str] = []
        if shm.HAVE_SHARED_MEMORY:
            for dataset in dict.fromkeys(shard.dataset for shard in pending):
                graph = resolve_dataset(dataset, scale=self.config.scale, seed=self.config.data_seed)
                already_owned = shm.graph_digest(graph) in shm.owned_tokens()
                payload = shm.publish_graph(graph)
                graph_handles[dataset] = payload
                if not already_owned:
                    published_tokens.append(payload.token)

        attempts: Dict[str, int] = {}
        spec_by_id = {shard.shard_id: shard for shard in pending}
        for shard in pending:
            attempts[shard.shard_id] = 1
            tasks.put({"shard": shard.to_jsonable(), "attempt": 1})

        workers: Dict[int, multiprocessing.Process] = {}
        in_flight: Dict[int, str] = {}
        next_worker_id = 0
        # A hard ceiling on respawns: enough for every shard to use every retry plus a
        # replacement per pool slot.  Beyond it the pool is crash-looping (e.g. the
        # environment kills every worker), and raising beats spawning forever.
        spawn_limit = 2 * max_workers + len(pending) * (self.config.max_shard_retries + 1) + 4

        def spawn_worker() -> None:
            nonlocal next_worker_id
            if next_worker_id >= spawn_limit:
                raise SweepError(
                    f"worker pool is crash-looping: spawned {next_worker_id} workers for "
                    f"{len(pending)} shards; check the host for OOM kills or resource limits"
                )
            worker = context.Process(
                target=_pool_worker,
                args=(next_worker_id, tasks, events, config_payload, str(self.sweep_dir), graph_handles),
                daemon=True,
            )
            worker.start()
            workers[next_worker_id] = worker
            next_worker_id += 1

        for _ in range(min(max_workers, len(pending))):
            spawn_worker()

        outstanding = len(pending)

        def retry_or_fail(shard_id: str, error: str) -> None:
            """Shared retry policy for crashes AND Python-level shard failures, so
            ``--max-workers`` can never change how many attempts a shard gets (serial
            mode applies the identical ``max_shard_retries + 1`` attempt budget)."""
            nonlocal outstanding
            if shard_id in results or shard_id in failures:
                return  # a duplicate execution of an already-counted shard
            if attempts[shard_id] > self.config.max_shard_retries:
                failures[shard_id] = (
                    f"{error}; the shard exhausted its "
                    f"{self.config.max_shard_retries} retry/retries"
                )
                outstanding -= 1
                return
            attempts[shard_id] += 1
            logger.warning("%s; requeueing shard %s (attempt %d)", error, shard_id, attempts[shard_id])
            tasks.put({"shard": spec_by_id[shard_id].to_jsonable(), "attempt": attempts[shard_id]})

        stalled_timeouts = 0
        while outstanding > 0:
            try:
                event = events.get(timeout=0.2)
            except queue_module.Empty:
                stalled_timeouts += 1
                for worker_id, worker in list(workers.items()):
                    if worker.is_alive():
                        continue
                    worker.join()
                    del workers[worker_id]
                    crashed_shard = in_flight.pop(worker_id, None)
                    if crashed_shard is not None:
                        retry_or_fail(crashed_shard, f"worker crashed (exit code {worker.exitcode})")
                    if outstanding > 0 and len(workers) < min(max_workers, outstanding):
                        spawn_worker()
                if not workers and outstanding > 0:
                    spawn_worker()
                # Lost-task reconciliation: a worker killed between stealing a task
                # and flushing its 'claimed' event (the put happens on a feeder
                # thread) leaves a shard that is neither in flight nor queued.  The
                # orchestrator cannot tell lost from queued-but-unclaimed, so after
                # a long stall with nothing in flight it requeues every unaccounted
                # shard.  Duplicates this creates are harmless -- shards are
                # deterministic, every write uses a private PID-suffixed scratch
                # before its atomic rename, and completion is deduplicated below --
                # they only cost redundant compute in this already-pathological case.
                if stalled_timeouts >= 50 and not in_flight:
                    for shard in pending:
                        sid = shard.shard_id
                        if sid not in results and sid not in failures:
                            logger.warning("requeueing unaccounted shard %s after stall", sid)
                            tasks.put({"shard": shard.to_jsonable(), "attempt": attempts[sid]})
                    stalled_timeouts = 0
                continue

            stalled_timeouts = 0
            kind = event["kind"]
            shard_id = event.get("shard")
            already_counted = shard_id in results or shard_id in failures
            if kind == "claimed":
                in_flight[event["worker"]] = shard_id
            elif kind == "done":
                in_flight.pop(event["worker"], None)
                if not already_counted:
                    path = self._shard_dir(spec_by_id[shard_id]) / "result.json"
                    results[shard_id] = load_json(path)
                    outstanding -= 1
            elif kind == "failed":
                in_flight.pop(event["worker"], None)
                retry_or_fail(shard_id, f"shard failed: {event['error']}")

        # Scoop any leftover duplicate tasks (stall-path requeues of shards that
        # finished anyway) so idle workers see the sentinels, not redundant work.
        while True:
            try:
                tasks.get_nowait()
            except queue_module.Empty:
                break
        for _ in workers:
            tasks.put(None)
        for worker in workers.values():
            worker.join(timeout=10.0)
            if worker.is_alive():
                worker.terminate()
                worker.join()
        tasks.close()
        events.close()
        # The workers are gone; unlink the graph segments this sweep published.  (If
        # the sweep aborts before this point the atexit hook of repro.runtime.shm
        # unlinks them at interpreter exit instead.)
        for token in published_tokens:
            shm.unpublish(token)

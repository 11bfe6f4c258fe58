"""Documentation gates.

Three invariants keep the docs honest:

1. every module under ``repro`` carries a module docstring;
2. the audited public dataclasses document every one of their fields (the class
   docstring must mention each field by name — paper symbol, default and valid range
   live there);
3. every ``python -m repro`` invocation inside fenced code blocks of ``docs/*.md`` and
   ``README.md`` uses only subcommands and flags that exist in the argparse parsers.

CI runs this module in its docs job, so documentation drift fails the build.
"""

from __future__ import annotations

import dataclasses
import importlib
import pkgutil
import shlex
from pathlib import Path
from typing import Iterator, List, Tuple

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parents[1]
DOC_FILES = sorted((REPO_ROOT / "docs").glob("*.md")) + [REPO_ROOT / "README.md"]


# ---------------------------------------------------------------------------- docstrings
def _iter_module_names() -> Iterator[str]:
    yield "repro"
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield info.name


@pytest.mark.parametrize("module_name", sorted(_iter_module_names()))
def test_every_module_has_a_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), f"{module_name} lacks a module docstring"


def _audited_dataclasses():
    from repro.kg.cache import DatasetCacheMeta
    from repro.models.trainer import TrainerConfig
    from repro.runtime.orchestrator import ShardSpec, SweepConfig, SweepReport
    from repro.runtime.runner import RunConfig, RunReport
    from repro.search.autosf import AutoSFConfig, AutoSFSearchState
    from repro.search.base import SearchBudget
    from repro.search.bayes_search import BayesSearchConfig, BayesSearchState
    from repro.search.controller import ControllerConfig
    from repro.search.eras import ERASConfig, ERASSearchState
    from repro.search.random_search import RandomSearchConfig, RandomSearchState
    from repro.search.registry import SearcherOptions
    from repro.search.result import Candidate, SearchResult, TracePoint
    from repro.search.supernet import SupernetConfig
    from repro.search.variants import DifferentiableSearchState
    from repro.runtime.shm import BundleHandle, SegmentSpec
    from repro.serve.frontend import FrontendConfig, ReloadConfig
    from repro.stream.delta import GraphDelta

    return [
        DatasetCacheMeta,
        FrontendConfig,
        ReloadConfig,
        GraphDelta,
        SegmentSpec,
        BundleHandle,
        SearchBudget,
        SearcherOptions,
        ERASConfig,
        ERASSearchState,
        ControllerConfig,
        SupernetConfig,
        AutoSFConfig,
        AutoSFSearchState,
        RandomSearchConfig,
        RandomSearchState,
        BayesSearchConfig,
        BayesSearchState,
        DifferentiableSearchState,
        TrainerConfig,
        Candidate,
        TracePoint,
        SearchResult,
        RunConfig,
        RunReport,
        SweepConfig,
        ShardSpec,
        SweepReport,
    ]


@pytest.mark.parametrize("cls", _audited_dataclasses(), ids=lambda cls: cls.__name__)
def test_public_dataclass_documents_every_field(cls):
    doc = cls.__doc__ or ""
    assert doc.strip(), f"{cls.__name__} lacks a class docstring"
    undocumented = [field.name for field in dataclasses.fields(cls) if field.name not in doc]
    assert not undocumented, (
        f"{cls.__name__} docstring does not mention field(s) {undocumented}; document "
        "each field's meaning (paper symbol), default and valid range"
    )


# ---------------------------------------------------------------------------- docs files
def test_docs_exist_and_are_linked_from_readme():
    architecture = REPO_ROOT / "docs" / "ARCHITECTURE.md"
    cli = REPO_ROOT / "docs" / "CLI.md"
    datasets = REPO_ROOT / "docs" / "DATASETS.md"
    assert architecture.is_file() and cli.is_file() and datasets.is_file()
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "docs/ARCHITECTURE.md" in readme, "README must link docs/ARCHITECTURE.md"
    assert "docs/CLI.md" in readme, "README must link docs/CLI.md"
    assert "docs/DATASETS.md" in readme, "README must link docs/DATASETS.md"
    assert "DATASETS.md" in architecture.read_text(encoding="utf-8"), (
        "ARCHITECTURE must link DATASETS.md"
    )


def _fenced_code_lines(text: str) -> List[str]:
    """Lines inside ``` fenced blocks, with backslash continuations joined."""
    lines: List[str] = []
    in_fence = False
    for raw in text.splitlines():
        stripped = raw.strip()
        if stripped.startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            if lines and lines[-1].endswith("\\"):
                lines[-1] = lines[-1][:-1] + " " + stripped
            else:
                lines.append(stripped)
    return lines


def _documented_invocations() -> List[Tuple[str, str, List[str]]]:
    """Every ``python -m repro`` command line in the docs: (file, line, tokens)."""
    invocations = []
    for path in DOC_FILES:
        for line in _fenced_code_lines(path.read_text(encoding="utf-8")):
            marker = "python -m repro"
            position = line.find(marker)
            if position < 0:
                continue
            # Inline mentions inside diagrams may close with a backtick; cut there.
            rest = line[position + len(marker):].split("`")[0].strip()
            invocations.append((path.name, line, shlex.split(rest)))
    return invocations


def test_docs_reference_at_least_one_invocation_per_subcommand():
    commands = {tokens[0] for _, _, tokens in _documented_invocations() if tokens and not tokens[0].startswith("-")}
    assert {"search", "sweep", "train", "serve", "bench"} <= commands, (
        f"docs must show every subcommand at least once, found only {sorted(commands)}"
    )


def test_docs_show_the_scale_workload_and_directory_datasets():
    """The out-of-core additions must be demonstrated, not just implemented."""
    bench_lines = [
        tokens
        for _, _, tokens in _documented_invocations()
        if tokens and tokens[0] == "bench"
    ]
    assert any("scale" in tokens for tokens in bench_lines), (
        "docs must show `python -m repro bench --workload scale` at least once"
    )
    datasets_doc = (REPO_ROOT / "docs" / "DATASETS.md").read_text(encoding="utf-8")
    for needle in (".repro-cache", "train.txt", "resolve_dataset", "--mmap"):
        assert needle in datasets_doc, f"docs/DATASETS.md must cover {needle!r}"


def test_documented_cli_invocations_use_real_flags():
    from repro.runtime.cli import subcommand_parsers

    parsers = subcommand_parsers()
    problems = []
    for file_name, line, tokens in _documented_invocations():
        if not tokens:
            continue
        command = tokens[0]
        if command.startswith("-"):
            continue  # `python -m repro --help`
        if command not in parsers:
            problems.append(f"{file_name}: unknown subcommand {command!r} in: {line}")
            continue
        known = set(parsers[command]._option_string_actions)
        for token in tokens[1:]:
            if not token.startswith("--"):
                continue
            flag = token.split("=", 1)[0]
            if flag not in known:
                problems.append(f"{file_name}: {command} has no flag {flag!r} in: {line}")
    assert not problems, "\n".join(problems)


def test_cli_help_mentions_every_subcommand():
    from repro.runtime.cli import build_parser

    help_text = build_parser().format_help()
    for command in ("search", "sweep", "train", "serve", "bench"):
        assert command in help_text

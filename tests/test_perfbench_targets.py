"""Every program attribute the benchmark in perfbench/ wraps exists where it
looks for it.

perfbench swaps each traced entry point for a wrapper through
`vars(owner)[attr]`, so renaming or dropping one of those names makes the
benchmark die with a KeyError. This finds the name without running it.
"""

from __future__ import annotations

import ast
import importlib.util
import os
import sys
from pathlib import Path
from unittest import mock

import gar
import gar.cli  # as perfbench's run.py imports it

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
CLI_SOURCE = Path(gar.cli.__file__)


def load_run_module():
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    # run.py pins the BLAS thread counts for its own process on import
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(module)
    return module


class RecordingPatches:
    """Stands in for perfbench's `Patches`: records each (owner, attr) it is asked to wrap."""

    def __init__(self) -> None:
        self.targets: list[tuple[object, str]] = []

    def wrap(self, owner, attr, make) -> None:
        self.targets.append((owner, attr))


def wrapped_targets(tmp_path) -> list[tuple[object, str]]:
    """Every (owner, attr) that perfbench wraps, over all of its workloads."""
    run = load_run_module()
    patches = RecordingPatches()
    for workload_class in run.WORKLOADS.values():
        workload = workload_class(gar, tmp_path, 0)
        workload.install(patches)
        # span_targets(gar), cli.main and the workload's install_traced
        run.install_spans(patches, run.Tracer(), gar, workload)
    return patches.targets


def test_every_attribute_perfbench_wraps_exists(tmp_path):
    targets = wrapped_targets(tmp_path)
    missing = sorted({f"{owner.__name__}.{attr}" for owner, attr in targets if attr not in vars(owner)})
    assert missing == []
    wrapped = {(owner.__name__, attr) for owner, attr in targets}
    assert {("gar.cli", "dense_topk"), ("gar.cli", "build_graph"), ("gar.cli", "bm25_doc_topk")} <= wrapped


def test_cli_imports_nothing_unused_but_what_perfbench_wraps(tmp_path):
    # the project runs no linter; an import gar.cli never uses must be one that
    # perfbench looks up by name in gar.cli
    tree = ast.parse(CLI_SOURCE.read_text(encoding="utf-8"))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    wrapped_on_cli = {attr for owner, attr in wrapped_targets(tmp_path) if owner is gar.cli}
    unused = imported - used
    assert unused <= wrapped_on_cli

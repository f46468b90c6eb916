from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import gar

SOURCE = Path(gar.__file__).parent

# A change that grows or shrinks the public API edits this list and says why.
# 43 names: the pipeline's own parts (graph, re-ranker, scorers, metrics,
# readers and writers); record types, constants, file helpers and the CLI's
# report writers are imported from their modules (MOVED below).
PUBLIC_NAMES = [
    "Bm25Params", "Bm25Scorer", "CorpusGraph", "DenseVectors", "DocMap", "InvertedIndex", "MetricValues",
    "OracleScorer", "Ranking", "ReRankConfig", "RecordingScorer", "ScoreCache", "Scorer", "bm25_doc_topk",
    "bm25_retrieve", "build_graph", "cluster_matrix", "dense_topk", "gar_rerank", "ils", "index_corpus",
    "judged_at", "latency_bench", "map_at", "metric_fn", "ndcg", "precompute_cache", "read_corpus", "read_qrels",
    "read_queries", "read_run", "read_trace", "recall_at", "rerank_run", "rr_at", "sweep_parameter", "tokenize",
    "typical_rerank", "write_corpus", "write_qrels", "write_queries", "write_run", "write_trace",
]

# names the package root no longer re-exports, by the module that defines them
MOVED = {
    "gar.bench": ["BudgetStats", "LatencyReport", "write_latency_report"],
    "gar.sweep": ["SweepRow", "write_sweep_table"],
    "gar.formats": ["TraceRow", "write_metric_report", "write_cluster_matrix"],
    "gar.ranking": ["RankEntry", "PROV_INITIAL", "PROV_FRONTIER"],
    "gar.graph": ["DEFAULT_K", "SENTINEL", "docmap_path", "graph_file_size"],
    "gar.rerank": ["BACKFILL_EPSILON"],
}


def test_public_api_is_pinned():
    assert len(gar.__all__) == len(set(gar.__all__)), "a name appears twice in gar.__all__"
    missing = [name for name in gar.__all__ if not hasattr(gar, name)]
    assert not missing, f"names in gar.__all__ that do not resolve: {missing}"
    assert len(gar.__all__) == len(PUBLIC_NAMES) == 43
    assert sorted(gar.__all__) == PUBLIC_NAMES


@pytest.mark.parametrize("module", sorted(MOVED))
def test_names_off_the_root_import_from_their_module(module):
    for name in MOVED[module]:
        assert name not in gar.__all__ and not hasattr(gar, name), name
        assert name in vars(importlib.import_module(module)), name


def imported_names(tree: ast.Module) -> set[str]:
    return {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }


# gar.cli keeps imports that only perfbench reads, so tests/test_perfbench_targets.py checks it
@pytest.mark.parametrize("path", sorted(p.name for p in SOURCE.glob("*.py") if p.name not in ("__init__.py", "cli.py")))
def test_module_imports_nothing_unused(path):
    # the project runs no linter
    tree = ast.parse((SOURCE / path).read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported_names(tree) - used) == []


def test_package_root_imports_only_what_it_exports():
    tree = ast.parse((SOURCE / "__init__.py").read_text(encoding="utf-8"))
    assert imported_names(tree) == set(gar.__all__)


def private_definitions(tree: ast.Module) -> list[str]:
    """Module-level private names that a def, class or assignment binds."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(target.id for target in targets if isinstance(target, ast.Name))
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def test_every_private_name_is_used():
    # a helper or constant left behind by a rewrite is read nowhere
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCE.glob("*.py")}
    used = set()  # (module, name): read in the module, imported from it, or read as module.name
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add((module, node.id))
            elif isinstance(node, ast.ImportFrom):
                used.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                used.add((node.value.id, node.attr))
    unused = [f"{module}.{name}" for module, tree in trees.items() for name in private_definitions(tree) if (module, name) not in used]
    assert unused == []

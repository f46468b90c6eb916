"""Corpus-graph adaptive re-ranking toolkit.

Builds compact k-NN similarity graphs over a document corpus and uses them
at query time to pull promising neighbours of high-scoring docs into a
budgeted re-ranking pool, alongside the evaluation and benchmarking tools
needed to study the behaviour.
"""

from .bench import latency_bench, precompute_cache
from .docmap import DocMap
from .formats import (
    read_corpus,
    read_qrels,
    read_queries,
    read_run,
    read_trace,
    write_corpus,
    write_qrels,
    write_queries,
    write_run,
    write_trace,
)
from .evaluate import (
    MetricValues,
    cluster_matrix,
    ils,
    judged_at,
    map_at,
    metric_fn,
    ndcg,
    recall_at,
    rr_at,
)
from .graph import CorpusGraph, build_graph
from .lexical import (
    Bm25Params,
    DenseVectors,
    InvertedIndex,
    bm25_doc_topk,
    bm25_retrieve,
    dense_topk,
    index_corpus,
    tokenize,
)
from .ranking import Ranking
from .rerank import (
    Bm25Scorer,
    OracleScorer,
    RecordingScorer,
    ReRankConfig,
    ScoreCache,
    Scorer,
    gar_rerank,
    rerank_run,
    typical_rerank,
)
from .sweep import sweep_parameter

__version__ = "0.1.0"

__all__ = [
    "Bm25Params",
    "Bm25Scorer",
    "CorpusGraph",
    "DenseVectors",
    "DocMap",
    "InvertedIndex",
    "MetricValues",
    "OracleScorer",
    "Ranking",
    "RecordingScorer",
    "ReRankConfig",
    "ScoreCache",
    "Scorer",
    "bm25_doc_topk",
    "bm25_retrieve",
    "build_graph",
    "cluster_matrix",
    "dense_topk",
    "gar_rerank",
    "ils",
    "index_corpus",
    "judged_at",
    "latency_bench",
    "map_at",
    "metric_fn",
    "ndcg",
    "precompute_cache",
    "read_corpus",
    "read_qrels",
    "read_queries",
    "read_run",
    "read_trace",
    "recall_at",
    "rerank_run",
    "rr_at",
    "sweep_parameter",
    "tokenize",
    "typical_rerank",
    "write_corpus",
    "write_qrels",
    "write_queries",
    "write_run",
    "write_trace",
]

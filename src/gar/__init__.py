"""Corpus-graph adaptive re-ranking toolkit.

Builds compact k-NN similarity graphs over a document corpus and uses them
at query time to pull promising neighbours of high-scoring docs into a
budgeted re-ranking pool, alongside the evaluation and benchmarking tools
needed to study the behaviour.
"""

from .bench import (
    BudgetStats,
    LatencyReport,
    latency_bench,
    precompute_cache,
    write_latency_report,
)
from .docmap import DocMap
from .formats import (
    TraceRow,
    read_corpus,
    read_qrels,
    read_queries,
    read_run,
    read_trace,
    write_cluster_matrix,
    write_corpus,
    write_metric_report,
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
from .graph import (
    DEFAULT_K,
    SENTINEL,
    CorpusGraph,
    build_graph,
    docmap_path,
    graph_file_size,
)
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
from .ranking import PROV_FRONTIER, PROV_INITIAL, RankEntry, Ranking
from .rerank import (
    BACKFILL_EPSILON,
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
from .sweep import SweepRow, sweep_parameter, write_sweep_table

__version__ = "0.1.0"

__all__ = [
    "BACKFILL_EPSILON",
    "Bm25Params",
    "Bm25Scorer",
    "BudgetStats",
    "CorpusGraph",
    "DEFAULT_K",
    "DenseVectors",
    "DocMap",
    "InvertedIndex",
    "LatencyReport",
    "MetricValues",
    "OracleScorer",
    "PROV_FRONTIER",
    "PROV_INITIAL",
    "RankEntry",
    "Ranking",
    "RecordingScorer",
    "ReRankConfig",
    "SENTINEL",
    "ScoreCache",
    "Scorer",
    "SweepRow",
    "TraceRow",
    "bm25_doc_topk",
    "bm25_retrieve",
    "build_graph",
    "cluster_matrix",
    "dense_topk",
    "docmap_path",
    "gar_rerank",
    "graph_file_size",
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
    "write_cluster_matrix",
    "write_corpus",
    "write_latency_report",
    "write_metric_report",
    "write_qrels",
    "write_queries",
    "write_run",
    "write_sweep_table",
    "write_trace",
]

"""Command-line interface for the corpus-graph re-ranking pipeline.

Subcommands cover the full workflow: graph construction, first-stage
retrieval, budgeted re-ranking with provenance traces, evaluation,
cluster diagnostics, parameter sweeps, and latency benchmarks. Every
subcommand is deterministic given identical inputs and seed.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Callable, Sequence

from . import bench as bench_mod
from . import evaluate as eval_mod
from . import formats
from . import sweep as sweep_mod
from .docmap import DocMap
from .graph import DEFAULT_K, CorpusGraph, build_graph, graph_file_size
from .lexical import Bm25BlockTopk, Bm25Params, DenseVectors, InvertedIndex, bm25_doc_scores, bm25_retrieve, build_dense_graph, index_corpus
# Unused in this module: kept only so that perfbench's traced pass, which
# wraps each by its name here, finds them. The graph builds call both from
# gar.lexical, so those wraps count nothing on any workload.
from .lexical import bm25_doc_topk, dense_topk  # noqa: F401
from .ranking import Ranking
from .rerank import Bm25Scorer, OracleScorer, ReRankConfig, ScoreCache, Scorer, rerank_run

DEFAULT_METRICS = "ndcg,ndcg@10,map,recall@1000,rr@10,judged@10"


def _int_list(raw: str) -> list[int]:
    try:
        return [int(part) for part in raw.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {raw!r}") from None


def _bm25_params(args: argparse.Namespace) -> Bm25Params:
    return Bm25Params(k1=args.bm25_k1, b=args.bm25_b)


def _load_index(args: argparse.Namespace) -> InvertedIndex:
    if not args.corpus:
        raise ValueError("this operation needs --corpus")
    return index_corpus(formats.read_corpus(args.corpus))


def _make_scorer(args: argparse.Namespace) -> Scorer:
    spec = args.scorer
    if spec.startswith("cache:"):
        return ScoreCache.load(spec[len("cache:"):])
    if spec.startswith("oracle:"):
        qrels = formats.read_qrels(spec[len("oracle:"):])
        if args.noise_sd > 0 and args.seed is None:
            raise ValueError("--seed is required when --noise-sd > 0")
        return OracleScorer(qrels, args.noise_sd, args.seed)
    if spec == "bm25":
        return Bm25Scorer(_load_index(args), _bm25_params(args))
    raise ValueError(f"unknown scorer {spec!r}; use cache:<path>, bm25, or oracle:<qrels>")


def _read_pools(path: str) -> dict[str, Ranking]:
    """The initial `Ranking` of every query in a run file."""
    return {qid: Ranking.from_pairs(qid, pairs) for qid, pairs in formats.read_run(path).items()}


def _query_texts(args: argparse.Namespace, pools: dict) -> dict[str, str]:
    if not args.queries:
        if args.scorer == "bm25":
            raise ValueError("scorer bm25 needs --queries for the query texts")
        return {}
    texts = formats.read_queries(args.queries)
    if args.scorer == "bm25":
        for qid in pools:
            if qid not in texts:
                raise ValueError(f"no query text for query {qid!r}")
    return texts


# --- subcommands ------------------------------------------------------------


def cmd_build_graph(args: argparse.Namespace) -> int:
    if args.method == "bm25":
        index = _load_index(args)
        graph = build_graph(index.docmap, Bm25BlockTopk(index, _bm25_params(args)), args.k)
    else:
        if not args.vectors:
            raise ValueError("method dense needs --vectors")
        graph = build_dense_graph(DenseVectors.load(args.vectors), args.k)
    graph.save(args.out)
    size = graph_file_size(graph.n_docs, graph.k)
    print(f"built graph: {graph.n_docs} docs, k={graph.k}, {size} bytes -> {args.out}")
    return 0


def cmd_retrieve(args: argparse.Namespace) -> int:
    index = _load_index(args)
    params = _bm25_params(args)
    queries = formats.read_queries(args.queries)
    rankings = {
        qid: bm25_retrieve(index, params, qid, text, args.top_n)
        for qid, text in queries.items()
    }
    formats.write_run(args.out, rankings, args.tag)
    print(f"retrieved {len(rankings)} queries -> {args.out}")
    return 0


def cmd_rerank(args: argparse.Namespace) -> int:
    pools = _read_pools(args.run_in)
    scorer = _make_scorer(args)
    texts = _query_texts(args, pools)
    config = ReRankConfig(batch_size=args.batch_size, budget=args.budget)
    graph = None
    if args.mode == "gar":
        if not args.graph:
            raise ValueError("mode gar needs --graph")
        graph = CorpusGraph.load(args.graph)
    rankings = rerank_run(pools, scorer, config, graph, texts)
    formats.write_run(args.run_out, rankings, args.tag)
    if args.trace:
        formats.write_trace(args.trace, pools, rankings)
    print(f"re-ranked {len(rankings)} queries ({args.mode}, budget {args.budget}) -> {args.run_out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    run = formats.read_run(args.run)
    qrels = formats.read_qrels(args.qrels)
    results: dict[str, eval_mod.MetricValues] = {}
    for spec in args.metrics.split(","):
        spec = spec.strip()
        if not spec:
            continue
        if spec == "ils":
            if not args.vectors:
                raise ValueError("metric ils needs --vectors")
            vectors = DenseVectors.load(args.vectors)
            results[spec] = eval_mod.ils(run, qrels, vectors)
        else:
            results[spec] = eval_mod.metric_fn(spec, args.gain)(run, qrels)
    for spec in sorted(results):
        print(f"{spec}\t{results[spec].mean:.4f}")
    if args.out:
        formats.write_metric_report(args.out, results)
    return 0


def cmd_cluster_test(args: argparse.Namespace) -> int:
    qrels = formats.read_qrels(args.qrels)
    if args.method == "bm25":
        index = _load_index(args)
        params = _bm25_params(args)
        internal = _judged_internal(index.docmap, qrels)

        # cluster_matrix asks for every pair of one probe in a row
        @functools.lru_cache(maxsize=1)
        def probe_scores(probe: str):
            return bm25_doc_scores(index, params, internal(probe))

        def similarity(probe: str, other: str) -> float:
            return float(probe_scores(probe)[internal(other)])

    else:
        if not args.vectors:
            raise ValueError("method dense needs --vectors")
        vectors = DenseVectors.load(args.vectors)
        internal = _judged_internal(vectors.docmap, qrels)

        def similarity(probe: str, other: str) -> float:
            return vectors.similarity(internal(probe), internal(other))

    matrix = eval_mod.cluster_matrix(qrels, similarity)
    sys.stdout.write(formats.format_cluster_matrix(matrix))
    if args.out:
        formats.write_cluster_matrix(args.out, matrix)
    return 0


def _judged_internal(docmap: DocMap, qrels: eval_mod.Qrels) -> Callable[[str], int]:
    """docid -> internal id, with every judged docid mapped in one batch; an
    unknown docid raises the docmap's KeyError."""
    judged = sorted({docid for labels in qrels.values() for docid in labels})
    known = {docid: doc for docid, doc in zip(judged, docmap.lookup(judged)) if doc is not None}

    def internal(docid: str) -> int:
        return known[docid] if docid in known else docmap.internal(docid)

    return internal


def cmd_sweep(args: argparse.Namespace) -> int:
    pools = _read_pools(args.run_in)
    qrels = formats.read_qrels(args.qrels)
    scorer = _make_scorer(args)
    texts = _query_texts(args, pools)
    graph = CorpusGraph.load(args.graph)
    config = ReRankConfig(batch_size=args.batch_size, budget=args.budget)
    metrics = [spec.strip() for spec in args.metrics.split(",") if spec.strip()]
    rows = sweep_mod.sweep_parameter(
        args.vary, args.values, pools, scorer, graph, qrels, metrics, config, texts, args.gain
    )
    print(args.vary + "\t" + "\t".join(metrics))
    for row in rows:
        print(f"{row.value}\t" + "\t".join(f"{row.means[m]:.4f}" for m in metrics))
    if args.out:
        sweep_mod.write_sweep_table(args.out, args.vary, rows, metrics)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    pools = _read_pools(args.run_in)
    cache = ScoreCache.load(args.cache)
    graph = CorpusGraph.load(args.graph)
    report = bench_mod.latency_bench(
        pools, cache, graph, args.budgets, args.batch_size, args.repeats
    )
    print("budget\ttypical_us\tgar_us\toverhead_us\tci95_lo\tci95_hi")
    for s in report.stats:
        print(
            f"{s.budget}\t{s.typical_mean_us:.1f}\t{s.gar_mean_us:.1f}"
            f"\t{s.overhead_mean_us:.1f}\t{s.ci95_lo_us:.1f}\t{s.ci95_hi_us:.1f}"
        )
    if args.out:
        bench_mod.write_latency_report(args.out, report)
    return 0


# --- parser -----------------------------------------------------------------


def _add_bm25_opts(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--bm25-k1", type=float, default=0.9, help="BM25 k1 (default 0.9)")
    sub.add_argument("--bm25-b", type=float, default=0.4, help="BM25 b (default 0.4)")


def _add_scorer_opts(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--scorer",
        required=True,
        help="scoring backend: cache:<path>, bm25, or oracle:<qrels>",
    )
    sub.add_argument("--queries", help="qid<TAB>text file (needed by scorer bm25)")
    sub.add_argument("--corpus", help="docid<TAB>text corpus (needed by scorer bm25)")
    sub.add_argument("--noise-sd", type=float, default=0.0, help="oracle noise std dev")
    sub.add_argument("--seed", type=int, help="seed for stochastic scorers")
    _add_bm25_opts(sub)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gar", description="corpus-graph adaptive re-ranking pipeline"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = subparsers.add_parser("build-graph", help="build a k-NN corpus graph")
    sub.add_argument("--method", choices=("bm25", "dense"), required=True)
    sub.add_argument("--corpus", help="docid<TAB>text corpus (method bm25)")
    sub.add_argument("--vectors", help="embedding file (method dense)")
    sub.add_argument("--k", type=int, default=DEFAULT_K, help=f"neighbours per doc (default {DEFAULT_K})")
    sub.add_argument("--out", required=True, help="output graph path")
    _add_bm25_opts(sub)
    sub.set_defaults(func=cmd_build_graph)

    sub = subparsers.add_parser("retrieve", help="first-stage BM25 retrieval")
    sub.add_argument("--corpus", required=True)
    sub.add_argument("--queries", required=True, help="qid<TAB>text file")
    sub.add_argument("--top-n", type=int, default=1000)
    sub.add_argument("--out", required=True, help="output run file")
    sub.add_argument("--tag", default="bm25")
    _add_bm25_opts(sub)
    sub.set_defaults(func=cmd_retrieve)

    sub = subparsers.add_parser("rerank", help="re-rank a run under a scoring budget")
    sub.add_argument("--run-in", required=True, help="input run file")
    sub.add_argument("--mode", choices=("typical", "gar"), default="gar")
    sub.add_argument("--graph", help="corpus graph (mode gar)")
    sub.add_argument("--batch-size", type=int, default=16)
    sub.add_argument("--budget", type=int, default=1000)
    sub.add_argument("--run-out", required=True, help="output run file")
    sub.add_argument("--tag", default="gar")
    sub.add_argument("--trace", help="write a provenance trace TSV here")
    _add_scorer_opts(sub)
    sub.set_defaults(func=cmd_rerank)

    sub = subparsers.add_parser("evaluate", help="score a run against qrels")
    sub.add_argument("--run", required=True)
    sub.add_argument("--qrels", required=True)
    sub.add_argument("--metrics", default=DEFAULT_METRICS)
    sub.add_argument("--gain", choices=("exp", "lin"), default="exp", help="ndcg gain function")
    sub.add_argument("--vectors", help="embedding file (metric ils)")
    sub.add_argument("--out", help="write per-query report TSV here")
    sub.set_defaults(func=cmd_evaluate)

    sub = subparsers.add_parser(
        "cluster-test", help="nearest judged neighbour relevance matrix"
    )
    sub.add_argument("--qrels", required=True)
    sub.add_argument("--method", choices=("bm25", "dense"), required=True)
    sub.add_argument("--corpus", help="docid<TAB>text corpus (method bm25)")
    sub.add_argument("--vectors", help="embedding file (method dense)")
    sub.add_argument("--out", help="write the matrix TSV here")
    _add_bm25_opts(sub)
    sub.set_defaults(func=cmd_cluster_test)

    sub = subparsers.add_parser("sweep", help="sweep graph degree or batch size")
    sub.add_argument("--vary", choices=(sweep_mod.VARY_K, sweep_mod.VARY_B), required=True)
    sub.add_argument("--values", type=_int_list, required=True, help="comma-separated values")
    sub.add_argument("--run-in", required=True)
    sub.add_argument("--graph", required=True)
    sub.add_argument("--qrels", required=True)
    sub.add_argument("--metrics", default="ndcg@10,recall@1000")
    sub.add_argument("--gain", choices=("exp", "lin"), default="exp")
    sub.add_argument("--batch-size", type=int, default=16)
    sub.add_argument("--budget", type=int, default=1000)
    sub.add_argument("--out", help="write the sweep table TSV here")
    _add_scorer_opts(sub)
    sub.set_defaults(func=cmd_sweep)

    sub = subparsers.add_parser("bench", help="latency overhead microbenchmark")
    sub.add_argument("--run-in", required=True)
    sub.add_argument("--cache", required=True, help="score cache TSV covering both modes")
    sub.add_argument("--graph", required=True)
    sub.add_argument(
        "--budgets",
        type=_int_list,
        default=list(bench_mod.DEFAULT_BUDGETS),
        help="comma-separated budgets",
    )
    sub.add_argument("--batch-size", type=int, default=16)
    sub.add_argument("--repeats", type=int, default=bench_mod.DEFAULT_REPEATS)
    sub.add_argument("--out", help="write the timing report TSV here")
    sub.set_defaults(func=cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, IndexError, OSError, RuntimeError) as exc:
        if isinstance(exc, OSError):
            message = f"{exc.strerror}: {exc.filename}"
        else:
            message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

from __future__ import annotations

import random
import sys
from unittest import mock

import numpy as np
import pytest

from gar import (
    Bm25Params,
    DenseVectors,
    DocMap,
    CorpusGraph,
    bm25_doc_topk,
    build_graph,
    cluster_matrix,
    index_corpus,
    precompute_cache,
    read_run,
    read_trace,
    write_corpus,
    write_qrels,
)
from gar.formats import write_cluster_matrix
from gar.graph import graph_file_size
from gar import cli, lexical
from gar.cli import main
from oracles import bm25_all_scores
from synthdata import random_corpus, run_pairs, write_garv

CORPUS = [
    ("d0", "apple fruit crisp"),
    ("d1", "apple orchard tree"),
    ("d2", "apple pie recipe"),
    ("d3", "banana bread recipe"),
    ("d4", "banana split dessert"),
    ("d5", "cherry tart dessert"),
    ("d6", "cherry tree orchard"),
    ("d7", "grape vine fruit"),
]

QUERIES = "q1\tapple\nq2\tbanana dessert\n"

QRELS = (
    "q1 0 d0 3\nq1 0 d1 2\nq1 0 d2 2\nq1 0 d7 0\n"
    "q2 0 d3 2\nq2 0 d4 3\nq2 0 d5 1\n"
)


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "corpus.tsv").write_text(
        "".join(f"{docid}\t{text}\n" for docid, text in CORPUS)
    )
    (tmp_path / "queries.tsv").write_text(QUERIES)
    (tmp_path / "qrels.txt").write_text(QRELS)
    return tmp_path


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_full_pipeline(workdir, capsys):
    corpus = workdir / "corpus.tsv"
    qrels = workdir / "qrels.txt"
    graph = workdir / "graph.bin"

    rc = run_cli("build-graph", "--method", "bm25", "--corpus", corpus, "--k", "3", "--out", graph)
    assert rc == 0
    out = capsys.readouterr().out
    assert "built graph: 8 docs, k=3" in out
    assert graph.stat().st_size == graph_file_size(8, 3)
    assert (workdir / "graph.bin.docs").exists()

    run0 = workdir / "run0.txt"
    rc = run_cli(
        "retrieve", "--corpus", corpus, "--queries", workdir / "queries.tsv",
        "--top-n", "10", "--out", run0,
    )
    assert rc == 0
    assert "retrieved 2 queries" in capsys.readouterr().out
    first = run_pairs(read_run(run0))
    assert list(first) == ["q1", "q2"]
    assert [d for d, _ in first["q1"]] == ["d0", "d1", "d2"]
    assert [d for d, _ in first["q2"]][0] == "d4"

    run1 = workdir / "run1.txt"
    trace = workdir / "trace.tsv"
    rerank_args = (
        "rerank", "--run-in", run0, "--mode", "gar", "--graph", graph,
        "--scorer", f"oracle:{qrels}", "--batch-size", "2", "--budget", "4",
        "--run-out", run1, "--trace", trace,
    )
    rc = run_cli(*rerank_args)
    assert rc == 0
    assert "re-ranked 2 queries (gar, budget 4)" in capsys.readouterr().out
    reranked = run_pairs(read_run(run1))
    docids = [d for d, _ in reranked["q1"]]
    assert docids[0] == "d0"
    assert set(docids[:3]) == {"d0", "d1", "d2"}
    rows = read_trace(trace)
    assert {r.provenance for r in rows} <= {"initial", "frontier"}
    assert any(r.provenance == "frontier" and r.source is not None for r in rows)
    assert all(r.source is None for r in rows if r.provenance == "initial")

    # byte-identical on repeat invocation
    run1_bytes = run1.read_bytes()
    trace_bytes = trace.read_bytes()
    assert run_cli(*rerank_args) == 0
    capsys.readouterr()
    assert run1.read_bytes() == run1_bytes
    assert trace.read_bytes() == trace_bytes

    report = workdir / "report.tsv"
    rc = run_cli(
        "evaluate", "--run", run1, "--qrels", qrels,
        "--metrics", "ndcg,recall@10,judged@10", "--out", report,
    )
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert [line.split("\t")[0] for line in lines] == ["judged@10", "ndcg", "recall@10"]
    for line in lines:
        float(line.split("\t")[1])
    report_lines = report.read_text().splitlines()
    assert sum(1 for line in report_lines if "\tall\t" in line) == 3

    matrix_out = workdir / "matrix.tsv"
    rc = run_cli(
        "cluster-test", "--qrels", qrels, "--method", "bm25",
        "--corpus", corpus, "--out", matrix_out,
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("rel\tnbr=0\tnbr=1\tnbr=2\tnbr=3")
    assert len(matrix_out.read_text().splitlines()) == 5

    sweep_out = workdir / "sweep.tsv"
    rc = run_cli(
        "sweep", "--vary", "k", "--values", "1,2,3", "--run-in", run0,
        "--graph", graph, "--qrels", qrels, "--scorer", f"oracle:{qrels}",
        "--metrics", "recall@10", "--batch-size", "2", "--budget", "6",
        "--out", sweep_out,
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "k\trecall@10"
    assert len(sweep_out.read_text().splitlines()) == 4

    cache_path = workdir / "cache.tsv"
    graph_obj = CorpusGraph.load(graph)
    from gar import OracleScorer

    pools = read_run(run0)
    cache = precompute_cache(
        pools, OracleScorer({}, 0.5, seed=3), graph_obj,
        batch_size=2, max_budget=8,
    )
    cache.save(cache_path)
    bench_out = workdir / "latency.tsv"
    rc = run_cli(
        "bench", "--run-in", run0, "--cache", cache_path, "--graph", graph,
        "--budgets", "2,4", "--batch-size", "2", "--repeats", "2",
        "--out", bench_out,
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "budget\ttypical_us\tgar_us\toverhead_us\tci95_lo\tci95_hi"
    assert len(out.splitlines()) == 3
    assert bench_out.exists()


def test_dense_route(workdir, capsys):
    rng = np.random.default_rng(2)
    vectors_path = workdir / "vectors.bin"
    DenseVectors(
        rng.normal(size=(8, 4)), DocMap([docid for docid, _ in CORPUS])
    ).save(vectors_path)

    graph = workdir / "dense-graph.bin"
    rc = run_cli("build-graph", "--method", "dense", "--vectors", vectors_path, "--k", "2", "--out", graph)
    assert rc == 0
    assert "built graph: 8 docs, k=2" in capsys.readouterr().out

    rc = run_cli(
        "cluster-test", "--qrels", workdir / "qrels.txt", "--method", "dense",
        "--vectors", vectors_path,
    )
    assert rc == 0
    capsys.readouterr()

    run0 = workdir / "run0.txt"
    rc = run_cli(
        "retrieve", "--corpus", workdir / "corpus.tsv",
        "--queries", workdir / "queries.tsv", "--out", run0,
    )
    assert rc == 0
    capsys.readouterr()
    rc = run_cli(
        "evaluate", "--run", run0, "--qrels", workdir / "qrels.txt",
        "--metrics", "ils", "--vectors", vectors_path,
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("ils\t")


@pytest.mark.parametrize("k1, b, block_rows", [(0.9, 0.4, None), (1.7, 0.95, None), (0.9, 0.4, 1)])
def test_bm25_build_writes_the_per_row_graph(tmp_path, monkeypatch, capsys, k1, b, block_rows):
    # copies of one text tie in each other's rows, which the per-row rule orders
    corpus = random_corpus(random.Random(61), 60, vocab_size=12, max_len=6)
    corpus += [(f"copy{i}", corpus[i % 3][1]) for i in range(9)]
    write_corpus(tmp_path / "corpus.tsv", corpus)
    if block_rows is not None:
        # blocks of one row, the size every block has past 8,192 docs
        monkeypatch.setattr(lexical, "_BM25_BLOCK_BYTES", 8 * len(corpus) * block_rows)
    # the CLI's graph must come back through gar.cli.build_graph
    real_build_graph = cli.build_graph
    built = []

    def capture(*args, **kwargs):
        built.append(real_build_graph(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cli, "build_graph", capture)
    with mock.patch.object(lexical, "bm25_doc_topk", wraps=lexical.bm25_doc_topk) as per_row_calls:
        rc = run_cli(
            "build-graph", "--method", "bm25", "--corpus", tmp_path / "corpus.tsv", "--k", "5",
            "--bm25-k1", k1, "--bm25-b", b, "--out", tmp_path / "block.bin",
        )
    assert rc == 0
    # the tied copies' rows fall back to the per-row rule; the rest are the blocks'
    assert 0 < per_row_calls.call_count < len(corpus)
    capsys.readouterr()
    index = index_corpus(corpus)
    params = Bm25Params(k1=k1, b=b)
    per_row = build_graph(index.docmap, lambda d, c: bm25_doc_topk(index, params, d, c), 5)
    per_row.save(tmp_path / "per_row.bin")
    assert len(built) == 1 and np.array_equal(built[0].edges, per_row.edges)
    for name in ("block.bin", "block.bin.docs"):
        assert (tmp_path / name).read_bytes() == (tmp_path / name.replace("block", "per_row")).read_bytes()


def test_dense_build_rejects_non_finite_vectors(workdir, capsys):
    vectors_path = workdir / "vectors.bin"
    matrix = np.eye(8, 4) + 1
    matrix[5, 2] = np.nan
    write_garv(vectors_path, matrix, [docid for docid, _ in CORPUS])
    graph = workdir / "dense-graph.bin"
    rc = run_cli("build-graph", "--method", "dense", "--vectors", vectors_path, "--k", "2", "--out", graph)
    assert rc == 2
    assert "row 5 ('d5') is not finite" in err(capsys)
    assert not graph.exists()


def cluster_fixture(tmp_path):
    """40 docs with text and vectors, and three queries of ten judged docs each."""
    rng = np.random.default_rng(8)
    words = [f"t{i}" for i in range(12)]
    docids = [f"c{i:02d}" for i in range(40)]
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("".join(f"{d}\t{' '.join(rng.choice(words, size=5))}\n" for d in docids))
    vectors = tmp_path / "vectors.bin"
    DenseVectors(rng.normal(size=(40, 6)), DocMap(docids)).save(vectors)
    qrels = {f"q{q}": {docids[d]: int(rng.integers(0, 4)) for d in rng.choice(40, size=10, replace=False)} for q in range(3)}
    qrels_path = tmp_path / "qrels.txt"
    write_qrels(qrels_path, qrels)
    return corpus, vectors, qrels, qrels_path


def test_cluster_test_matrices_match_reference(tmp_path, capsys):
    corpus, vectors_path, qrels, qrels_path = cluster_fixture(tmp_path)
    vectors = DenseVectors.load(vectors_path)
    internal = vectors.docmap.internal

    # dense: one dot product per pair gives the matrix the full similarity row gave
    m64 = vectors.matrix.astype(np.float64)

    def full_row(probe, other):
        return float(np.clip(m64 @ m64[internal(probe)], -1.0, 1.0)[internal(other)])

    want = cluster_matrix(qrels, full_row)
    assert np.array_equal(cluster_matrix(qrels, lambda p, o: vectors.similarity(internal(p), internal(o))), want)

    # bm25: doc-as-query scores of the probe, from the loop reference
    tokens = [line.split("\t")[1].split() for line in corpus.read_text().splitlines()]
    bm25 = {docid: bm25_all_scores(tokens, set(tokens[internal(docid)])) for docid in vectors.docmap}

    for method, source, matrix in [
        ("dense", ["--vectors", vectors_path], want),
        ("bm25", ["--corpus", corpus], cluster_matrix(qrels, lambda p, o: bm25[p][internal(o)])),
    ]:
        out, ref = tmp_path / f"{method}.tsv", tmp_path / f"{method}-ref.tsv"
        assert run_cli("cluster-test", "--qrels", qrels_path, "--method", method, *source, "--out", out) == 0
        write_cluster_matrix(ref, matrix)
        assert out.read_bytes() == ref.read_bytes(), method
    capsys.readouterr()


def test_cluster_test_prints_the_out_file(tmp_path, capsys):
    corpus, vectors, _, qrels_path = cluster_fixture(tmp_path)
    for method, source in [("dense", ["--vectors", vectors]), ("bm25", ["--corpus", corpus])]:
        out = tmp_path / f"{method}.tsv"
        assert run_cli("cluster-test", "--qrels", qrels_path, "--method", method, *source, "--out", out) == 0
        assert capsys.readouterr().out.encode("utf-8") == out.read_bytes(), method


def test_rerank_typical_mode_needs_no_graph(workdir, capsys):
    run0 = workdir / "run0.txt"
    run_cli(
        "retrieve", "--corpus", workdir / "corpus.tsv",
        "--queries", workdir / "queries.tsv", "--out", run0,
    )
    run1 = workdir / "run1.txt"
    rc = run_cli(
        "rerank", "--run-in", run0, "--mode", "typical",
        "--scorer", f"oracle:{workdir / 'qrels.txt'}", "--run-out", run1,
    )
    assert rc == 0
    capsys.readouterr()
    assert read_run(run1)


def test_rerank_bm25_scorer_uses_query_texts(workdir, capsys):
    run0 = workdir / "run0.txt"
    run_cli(
        "retrieve", "--corpus", workdir / "corpus.tsv",
        "--queries", workdir / "queries.tsv", "--out", run0,
    )
    run1 = workdir / "run1.txt"
    rc = run_cli(
        "rerank", "--run-in", run0, "--mode", "typical", "--scorer", "bm25",
        "--corpus", workdir / "corpus.tsv", "--queries", workdir / "queries.tsv",
        "--run-out", run1,
    )
    assert rc == 0
    capsys.readouterr()
    # re-scoring with the same model keeps the same winners
    assert [d for d, _ in run_pairs(read_run(run1))["q1"]][0] == "d0"


def err(capsys):
    return capsys.readouterr().err


def test_cli_error_paths(workdir, capsys):
    corpus = workdir / "corpus.tsv"
    qrels = workdir / "qrels.txt"
    run0 = workdir / "run0.txt"
    run_cli("retrieve", "--corpus", corpus, "--queries", workdir / "queries.tsv", "--out", run0)
    capsys.readouterr()

    rc = run_cli(
        "rerank", "--run-in", run0, "--mode", "gar",
        "--scorer", f"oracle:{qrels}", "--run-out", workdir / "x.txt",
    )
    assert rc == 2
    assert "mode gar needs --graph" in err(capsys)

    rc = run_cli(
        "rerank", "--run-in", run0, "--mode", "typical", "--scorer", "bm25",
        "--corpus", corpus, "--run-out", workdir / "x.txt",
    )
    assert rc == 2
    assert "needs --queries" in err(capsys)

    (workdir / "partial-queries.tsv").write_text("q1\tapple\n")
    rc = run_cli(
        "rerank", "--run-in", run0, "--mode", "typical", "--scorer", "bm25",
        "--corpus", corpus, "--queries", workdir / "partial-queries.tsv",
        "--run-out", workdir / "x.txt",
    )
    assert rc == 2
    assert "no query text for query 'q2'" in err(capsys)

    rc = run_cli(
        "rerank", "--run-in", run0, "--mode", "typical",
        "--scorer", f"oracle:{qrels}", "--noise-sd", "0.5",
        "--run-out", workdir / "x.txt",
    )
    assert rc == 2
    assert "--seed is required" in err(capsys)

    for noise_sd in ("nan", "inf"):
        rc = run_cli(
            "rerank", "--run-in", run0, "--mode", "typical",
            "--scorer", f"oracle:{qrels}", "--noise-sd", noise_sd, "--seed", "1",
            "--run-out", workdir / "x.txt",
        )
        assert rc == 2
        assert f"noise_sd must be finite, got {noise_sd}" in err(capsys)
    rc = run_cli(
        "rerank", "--run-in", run0, "--mode", "typical",
        "--scorer", f"oracle:{qrels}", "--noise-sd", "nan", "--run-out", workdir / "x.txt",
    )
    assert rc == 2
    assert "noise_sd must be finite, got nan" in err(capsys)
    assert not (workdir / "x.txt").exists()

    rc = run_cli(
        "rerank", "--run-in", run0, "--mode", "typical",
        "--scorer", "neural", "--run-out", workdir / "x.txt",
    )
    assert rc == 2
    assert "unknown scorer" in err(capsys)

    rc = run_cli("evaluate", "--run", run0, "--qrels", qrels, "--metrics", "ils")
    assert rc == 2
    assert "needs --vectors" in err(capsys)

    rc = run_cli("evaluate", "--run", run0, "--qrels", qrels, "--metrics", "recall")
    assert rc == 2
    assert "needs a cutoff" in err(capsys)

    report = workdir / "report.tsv"
    rc = run_cli("evaluate", "--run", run0, "--qrels", qrels, "--metrics", "ndcg@", "--out", report)
    assert rc == 2
    assert "bad metric cutoff in 'ndcg@'" in err(capsys)
    assert not report.exists()

    rc = run_cli("build-graph", "--method", "dense", "--out", workdir / "g.bin")
    assert rc == 2
    assert "needs --vectors" in err(capsys)

    rc = run_cli("build-graph", "--method", "bm25", "--out", workdir / "g.bin")
    assert rc == 2
    assert "needs --corpus" in err(capsys)

    rc = run_cli("evaluate", "--run", workdir / "missing.txt", "--qrels", qrels)
    assert rc == 2
    message = err(capsys)
    assert "error:" in message
    assert "missing.txt" in message

    rc = run_cli("evaluate", "--run", workdir, "--qrels", qrels)
    assert rc == 2
    assert err(capsys) == f"error: Is a directory: {workdir}\n"


def test_rerank_refuses_backfill_past_the_finite_range(tmp_path, capsys):
    # the cache scores only d0, at -max: no finite score is left for d1 and d2
    run0, cache, run1 = tmp_path / "run0.txt", tmp_path / "cache.tsv", tmp_path / "run1.txt"
    run0.write_text("q1 Q0 d0 1 3.0 t\nq1 Q0 d1 2 2.0 t\nq1 Q0 d2 3 1.0 t\n")
    cache.write_text(f"q1\td0\t{-sys.float_info.max!r}\n")
    rc = run_cli(
        "rerank", "--run-in", run0, "--mode", "typical", "--scorer", f"cache:{cache}",
        "--batch-size", "1", "--budget", "1", "--run-out", run1,
    )
    assert rc == 2
    message = err(capsys)
    assert "no room for 2 finite backfill scores" in message and "query 'q1'" in message
    assert not run1.exists()


def test_evaluate_refuses_a_query_named_all(workdir, capsys):
    # the query's rows would read as the 'all' rows of the means
    run, qrels, report = workdir / "run.txt", workdir / "qrels.txt", workdir / "report.tsv"
    run.write_text("all Q0 d0 1 2.0 t\nq1 Q0 d1 1 2.0 t\n")
    qrels.write_text("all 0 d0 3\nq1 0 d2 3\n")
    rc = run_cli("evaluate", "--run", run, "--qrels", qrels, "--metrics", "recall@10", "--out", report)
    assert rc == 2
    out, error = capsys.readouterr()
    assert "query id 'all'" in error
    assert out == ""
    assert not report.exists()


@pytest.mark.parametrize("metrics", ["", ",", " , ,"])
def test_evaluate_refuses_an_empty_metric_list(workdir, capsys, metrics):
    run0, report = workdir / "run0.txt", workdir / "report.tsv"
    run_cli("retrieve", "--corpus", workdir / "corpus.tsv", "--queries", workdir / "queries.tsv", "--out", run0)
    capsys.readouterr()
    rc = run_cli("evaluate", "--run", run0, "--qrels", workdir / "qrels.txt", "--metrics", metrics, "--out", report)
    assert rc == 2
    assert capsys.readouterr() == ("", "error: no metrics given\n")
    assert not report.exists()


@pytest.mark.parametrize("metrics", ["", ",", " , ,"])
def test_sweep_refuses_an_empty_metric_list(workdir, capsys, metrics):
    run0, graph, table = workdir / "run0.txt", workdir / "graph.bin", workdir / "sweep.tsv"
    run_cli("retrieve", "--corpus", workdir / "corpus.tsv", "--queries", workdir / "queries.tsv", "--out", run0)
    run_cli("build-graph", "--method", "bm25", "--corpus", workdir / "corpus.tsv", "--k", "2", "--out", graph)
    capsys.readouterr()
    qrels = workdir / "qrels.txt"
    with mock.patch("gar.sweep.rerank_run") as rerank_run:
        rc = run_cli(
            "sweep", "--vary", "k", "--values", "1,2", "--run-in", run0, "--graph", graph,
            "--qrels", qrels, "--scorer", f"oracle:{qrels}", "--metrics", metrics, "--out", table,
        )
    assert rc == 2
    assert capsys.readouterr() == ("", "error: no metrics given\n")
    assert not table.exists()
    rerank_run.assert_not_called()


def test_bm25_commands_reject_a_non_finite_k1(workdir, capsys):
    corpus = workdir / "corpus.tsv"
    out = workdir / "out.bin"
    for k1 in ("nan", "inf", "-inf"):
        for command in (
            ("retrieve", "--corpus", corpus, "--queries", workdir / "queries.tsv"),
            ("build-graph", "--method", "bm25", "--corpus", corpus, "--k", "2"),
        ):
            rc = run_cli(*command, f"--bm25-k1={k1}", "--out", out)
            assert rc == 2
            assert f"k1 must be finite and non-negative, got {k1}" in err(capsys)
            assert not out.exists()


def test_retrieve_refuses_what_the_run_reader_would_split(workdir, capsys):
    corpus = workdir / "corpus.tsv"
    out = workdir / "run.txt"
    (workdir / "spaced.tsv").write_text("q 1\tapple\n")
    rc = run_cli("retrieve", "--corpus", corpus, "--queries", workdir / "spaced.tsv", "--out", out)
    assert rc == 2
    assert "line 1: query id 'q 1' is empty or holds whitespace" in err(capsys)
    rc = run_cli("retrieve", "--corpus", corpus, "--queries", workdir / "queries.tsv", "--out", out, "--tag", "my tag")
    assert rc == 2
    assert "tag 'my tag' is empty or holds whitespace" in err(capsys)
    assert not out.exists()


@pytest.mark.parametrize("top_n", ["0", "-3"])
def test_retrieve_refuses_a_non_positive_top_n(workdir, capsys, top_n):
    out = workdir / "run.txt"
    rc = run_cli("retrieve", "--corpus", workdir / "corpus.tsv", "--queries", workdir / "queries.tsv", "--top-n", top_n, "--out", out)
    assert rc == 2
    assert f"top_n must be positive, got {top_n}" in err(capsys)
    assert not out.exists()


def test_cli_help_and_bad_command(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    assert "build-graph" in capsys.readouterr().out
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 2
    capsys.readouterr()

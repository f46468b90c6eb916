from __future__ import annotations

import numpy as np
import pytest

from gar import (
    MetricValues,
    Ranking,
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


# --- corpus ------------------------------------------------------------------


def test_corpus_round_trip(tmp_path):
    docs = [("d1", "plain text"), ("d2", ""), ("d3", "tab\tinside kept whole")]
    path = tmp_path / "corpus.tsv"
    write_corpus(path, docs)
    assert read_corpus(path) == docs


def test_corpus_skips_blank_lines(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_text("d1\talpha\n\nd2\tbeta\n\n")
    assert read_corpus(path) == [("d1", "alpha"), ("d2", "beta")]


def test_corpus_missing_tab(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_text("d1 no tab here\n")
    with pytest.raises(ValueError, match="line 1: expected docid<TAB>text"):
        read_corpus(path)


# --- queries -----------------------------------------------------------------


def test_queries_round_trip(tmp_path):
    queries = {"q2": "second query", "q1": "first"}
    path = tmp_path / "queries.tsv"
    write_queries(path, queries)
    assert read_queries(path) == queries
    # writer sorts by qid
    assert path.read_text().splitlines()[0].startswith("q1\t")


def test_queries_duplicate_qid(tmp_path):
    path = tmp_path / "queries.tsv"
    path.write_text("q1\ta\nq1\tb\n")
    with pytest.raises(ValueError, match="duplicate query id"):
        read_queries(path)


# --- qrels -------------------------------------------------------------------


def test_qrels_round_trip(tmp_path):
    qrels = {"q1": {"a": 3, "b": 0}, "q2": {"c": 2}}
    path = tmp_path / "qrels.txt"
    write_qrels(path, qrels)
    assert path.read_text() == "q1 0 a 3\nq1 0 b 0\nq2 0 c 2\n"
    assert read_qrels(path) == qrels


def test_qrels_errors(tmp_path):
    cases = [
        ("q1 0 a\n", "expected 'qid 0 docid label'"),
        ("q1 0 a x\n", "bad label"),
        ("q1 0 a 4\n", "label out of range"),
        ("q1 0 a -1\n", "label out of range"),
        ("q1 0 a 1\nq1 0 a 2\n", "duplicate judgment"),
    ]
    for content, message in cases:
        path = tmp_path / "qrels.txt"
        path.write_text(content)
        with pytest.raises(ValueError, match=message):
            read_qrels(path)


# --- runs --------------------------------------------------------------------


def test_run_round_trip(tmp_path):
    rankings = {
        "q2": Ranking.from_pairs("q2", [("a", 1.5), ("b", 0.25)]),
        "q1": [("c", 2.0)],
    }
    path = tmp_path / "run.txt"
    write_run(path, rankings, tag="mytag")
    text = path.read_text()
    assert text == "q1 Q0 c 1 2.000000 mytag\nq2 Q0 a 1 1.500000 mytag\nq2 Q0 b 2 0.250000 mytag\n"
    back = read_run(path)
    assert back == {"q1": [("c", 2.0)], "q2": [("a", 1.5), ("b", 0.25)]}


def test_run_default_tag(tmp_path):
    path = tmp_path / "run.txt"
    write_run(path, {"q": [("a", 1.0)]})
    assert path.read_text().split()[-1] == "gar"


def test_run_write_is_deterministic(tmp_path):
    rankings = {"q2": [("a", 1.0)], "q1": [("b", 0.5), ("a", 0.25)]}
    p1, p2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    write_run(p1, rankings)
    write_run(p2, dict(reversed(list(rankings.items()))))
    assert p1.read_bytes() == p2.read_bytes()


def test_run_read_errors(tmp_path):
    cases = [
        ("q1 Q0 a 1\n", "expected 'qid Q0 docid rank score tag'"),
        ("q1 Q0 a one 1.0 t\n", "bad rank or score"),
        ("q1 Q0 a 1 high t\n", "bad rank or score"),
        ("q1 Q0 a 1 1.0 t\nq1 Q0 b 1 0.9 t\n", "rank 1 out of order"),
        ("q1 Q0 a 2 1.0 t\nq1 Q0 b 1 0.9 t\n", "out of order"),
        ("q1 Q0 a 1 1.0 t\nq1 Q0 a 2 0.9 t\n", "duplicate doc"),
    ]
    for content, message in cases:
        path = tmp_path / "run.txt"
        path.write_text(content)
        with pytest.raises(ValueError, match=message):
            read_run(path)


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_run_read_rejects_non_finite_score(tmp_path, raw):
    path = tmp_path / "run.txt"
    path.write_text(f"q1 Q0 a 1 1.0 t\nq1 Q0 b 2 {raw} t\n")
    with pytest.raises(ValueError, match=r"line 2: non-finite score .* query 'q1' doc 'b'"):
        read_run(path)


def test_run_interleaved_qids_allowed(tmp_path):
    path = tmp_path / "run.txt"
    path.write_text(
        "q1 Q0 a 1 1.0 t\nq2 Q0 a 1 1.0 t\nq1 Q0 b 2 0.9 t\n"
    )
    assert read_run(path) == {"q1": [("a", 1.0), ("b", 0.9)], "q2": [("a", 1.0)]}


# --- trace -------------------------------------------------------------------


def test_trace_round_trip(tmp_path):
    rows = [
        TraceRow("q1", "d4", None, 1, "frontier", "d0"),
        TraceRow("q1", "d0", 1, 2, "initial", None),
    ]
    path = tmp_path / "trace.tsv"
    write_trace(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "qid\tdocid\tinitial_rank\tfinal_rank\tprovenance\tsource_docid"
    assert lines[1] == "q1\td4\tNA\t1\tfrontier\td0"
    assert lines[2] == "q1\td0\t1\t2\tinitial\tNA"
    assert read_trace(path) == rows


def test_trace_bad_header(tmp_path):
    path = tmp_path / "trace.tsv"
    path.write_text("nope\nq1\ta\t1\t1\tinitial\tNA\n")
    with pytest.raises(ValueError, match="bad trace header"):
        read_trace(path)


def test_trace_bad_field_count(tmp_path):
    path = tmp_path / "trace.tsv"
    write_trace(path, [])
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("q1\ta\t1\t1\tinitial\n")
    with pytest.raises(ValueError, match="expected 6 tab-separated fields"):
        read_trace(path)


# --- reports -----------------------------------------------------------------


def test_metric_report_layout(tmp_path):
    results = {
        "ndcg": MetricValues({"q2": 0.5, "q1": 0.25}, 0.375),
        "map": MetricValues({"q1": 1.0}, 1.0),
    }
    path = tmp_path / "report.tsv"
    write_metric_report(path, results)
    assert path.read_text() == (
        "map\tq1\t1.000000\n"
        "map\tall\t1.000000\n"
        "ndcg\tq1\t0.250000\n"
        "ndcg\tq2\t0.500000\n"
        "ndcg\tall\t0.375000\n"
    )


def test_cluster_matrix_layout(tmp_path):
    matrix = np.zeros((4, 4))
    matrix[3] = [0.0, 0.125, 0.375, 0.5]
    matrix[0] = [1.0, 0.0, 0.0, 0.0]
    path = tmp_path / "matrix.tsv"
    write_cluster_matrix(path, matrix)
    lines = path.read_text().splitlines()
    assert lines[0] == "rel\tnbr=0\tnbr=1\tnbr=2\tnbr=3"
    assert lines[1] == "0\t100.0\t0.0\t0.0\t0.0"
    assert lines[2] == "1\t0.0\t0.0\t0.0\t0.0"
    assert lines[4] == "3\t0.0\t12.5\t37.5\t50.0"

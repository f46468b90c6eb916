from __future__ import annotations

import io
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gar import (
    MetricValues,
    Ranking,
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
from gar import formats
from gar.formats import TraceRow, _read_run_columns, write_cluster_matrix, write_metric_report
from oracles import reference_read_run, reference_run_text, reference_trace_text
from synthdata import AWKWARD_TEXT, run_pairs, utf8_encodable, written_then_read


def is_token(value: str) -> bool:
    return value.split() == [value]


def breaks_line(value: str) -> bool:
    return "\n" in value or "\r" in value


# --- corpus ------------------------------------------------------------------


def test_corpus_round_trip(tmp_path):
    docs = [("d1", "plain text"), ("d2", ""), ("d3", "tab\tinside kept whole")]
    path = tmp_path / "corpus.tsv"
    write_corpus(path, docs)
    assert read_corpus(path) == docs


@given(st.lists(st.tuples(AWKWARD_TEXT, AWKWARD_TEXT), max_size=4))
@example([("d\t1", "x")])
@example([("", "\ud800")])
def test_corpus_written_or_refused(docs):
    got = written_then_read(write_corpus, read_corpus, docs)
    # a tab in a docid would move the rest of it into the text
    refused = any(
        "\t" in docid or breaks_line(docid) or breaks_line(text) or not utf8_encodable(docid + text)
        for docid, text in docs
    )
    assert got == (None if refused else docs)


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


@given(st.dictionaries(AWKWARD_TEXT, AWKWARD_TEXT, max_size=4))
@example({"q 1": "x"})
@example({"q": "\udfff"})
def test_queries_written_or_refused(queries):
    got = written_then_read(write_queries, read_queries, queries)
    refused = any(
        not is_token(qid) or breaks_line(text) or not utf8_encodable(qid + text) for qid, text in queries.items()
    )
    assert got == (None if refused else queries)


def test_queries_duplicate_qid(tmp_path):
    path = tmp_path / "queries.tsv"
    path.write_text("q1\ta\nq1\tb\n")
    with pytest.raises(ValueError, match="duplicate query id"):
        read_queries(path)


@pytest.mark.parametrize("qid", ["q 1", "", "q\xa01", "q\x1c", "q\u3000"])
def test_queries_reject_a_qid_a_run_file_would_split(tmp_path, qid):
    path = tmp_path / "queries.tsv"
    path.write_text(f"q0\tfine\n{qid}\ttext\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"line 2: query id {re.escape(repr(qid))} is empty or holds whitespace"):
        read_queries(path)


# --- qrels -------------------------------------------------------------------


def test_qrels_round_trip(tmp_path):
    qrels = {"q1": {"a": 3, "b": 0}, "q2": {"c": 2}}
    path = tmp_path / "qrels.txt"
    write_qrels(path, qrels)
    assert path.read_text() == "q1 0 a 3\nq1 0 b 0\nq2 0 c 2\n"
    assert read_qrels(path) == qrels


LABELS = st.integers(-1, 4) | st.booleans() | st.floats(0, 3) | st.builds(np.int64, st.integers(0, 3))


@given(st.dictionaries(AWKWARD_TEXT, st.dictionaries(AWKWARD_TEXT, LABELS, max_size=3), max_size=3))
@example({"q": {"d 1": 1}})
@example({"q": {"d": 7}})
@example({"q": {"\ud800": 1}})
def test_qrels_written_or_refused(qrels):
    got = written_then_read(write_qrels, read_qrels, qrels)
    refused = not all(is_token(qid) and utf8_encodable(qid) for qid in qrels) or any(
        not (is_token(docid) and utf8_encodable(docid)) or isinstance(label, float) or not 0 <= label <= 3
        for judged in qrels.values()
        for docid, label in judged.items()
    )
    # a query without judgments writes no line
    assert got == (None if refused else {qid: judged for qid, judged in qrels.items() if judged})


def trace_of(path, ranking):
    write_trace(path, {ranking.qid: ranking}, {ranking.qid: ranking})


def run_of(path, ranking):
    write_run(path, {ranking.qid: ranking})


def trace_of_pools(path, pools_and_rankings):
    write_trace(path, *pools_and_rankings)


@pytest.mark.parametrize(
    "write, value, message",
    [
        (write_corpus, [("d\t1", "x")], "docid 'd\\t1' holds a tab or a line break"),
        (write_corpus, [("d", "x\ry")], "text of doc 'd' holds a line break"),
        (write_queries, {"q 1": "x"}, "query id 'q 1' is empty or holds whitespace"),
        (write_queries, {"q": "x\ny"}, "text of query 'q' holds a line break"),
        (write_qrels, {"": {"d": 1}}, "query id '' is empty or holds whitespace"),
        (write_qrels, {"q": {"d 1": 1}}, "docid 'd 1' for query 'q' is empty or holds whitespace"),
        (write_qrels, {"q": {"d": 7}}, "label 7 for query 'q' doc 'd' is not an integer in 0..3"),
        (write_qrels, {"q": {"d": 1.0}}, "label 1.0 for query 'q' doc 'd' is not an integer in 0..3"),
        (trace_of, Ranking("q", ["a\tb"], [1.0]), "docid 'a\\tb' for query 'q' holds a tab or a line break"),
        (trace_of, Ranking("q", ["d"], [1.0], sources=["s\nt"]), "source 's\\nt' of docid 'd' for query 'q' holds a tab or a line break"),
        (trace_of, Ranking("q\r1", ["d"], [1.0]), "query id 'q\\r1' holds a tab or a line break"),
        (write_corpus, [("d", "\ud800")], "doc 'd' holds a surrogate, which UTF-8 cannot encode"),
        (write_queries, {"q\udc80": "x"}, "query 'q\\udc80' holds a surrogate, which UTF-8 cannot encode"),
        (write_qrels, {"q": {"d\udfff": 1}}, "docid 'd\\udfff' for query 'q' holds a surrogate, which UTF-8 cannot encode"),
        (run_of, Ranking("q", ["a", "\ud800"], [2.0, 1.0]), "query 'q' holds a surrogate, which UTF-8 cannot encode"),
        (trace_of, Ranking("q", ["d"], [1.0], sources=["\ud800"]), "query 'q' holds a surrogate, which UTF-8 cannot encode"),
        (write_metric_report, {"ndcg": MetricValues({"q\t1": 0.5}, 0.5)}, "query id 'q\\t1' holds a tab or a line break"),
        (write_metric_report, {"nd\ncg": MetricValues({"q": 0.5}, 0.5)}, "metric 'nd\\ncg' holds a tab or a line break"),
        (write_metric_report, {"ndcg": MetricValues({"q\ud800": 0.5}, 0.5)}, "query id 'q\\ud800' holds a surrogate, which UTF-8 cannot encode"),
        (write_run, {"x": Ranking("q1", ["a"], [1.0])}, "key 'x' holds the ranking of query 'q1'"),
        (trace_of_pools, ({}, {"x": Ranking("q1", ["a"], [1.0])}), "key 'x' holds the ranking of query 'q1'"),
        (trace_of_pools, ({}, {"q": Ranking("q", ["a"], [1.0])}), "query 'q' has no pool"),
    ],
    ids=[
        "corpus-docid", "corpus-text", "queries-qid", "queries-text", "qrels-qid", "qrels-docid", "qrels-label",
        "qrels-float-label", "trace-docid", "trace-source", "trace-qid", "corpus-surrogate", "queries-surrogate",
        "qrels-surrogate", "run-surrogate", "trace-surrogate", "report-qid", "report-metric", "report-surrogate",
        "run-key", "trace-key", "trace-no-pool",
    ],
)
def test_writers_name_what_they_refuse(tmp_path, write, value, message):
    path = tmp_path / "out.txt"
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        write(path, value)
    assert not path.exists()


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
        "q1": Ranking.from_pairs("q1", [("c", 2.0)]),
        "q3": Ranking("q3", [], []),
    }
    path = tmp_path / "run.txt"
    write_run(path, rankings, tag="mytag")
    text = path.read_text()
    assert text == "q1 Q0 c 1 2.000000 mytag\nq2 Q0 a 1 1.500000 mytag\nq2 Q0 b 2 0.250000 mytag\n"
    back = read_run(path)
    assert run_pairs(back) == {"q1": [("c", 2.0)], "q2": [("a", 1.5), ("b", 0.25)]}


def test_run_default_tag(tmp_path):
    path = tmp_path / "run.txt"
    write_run(path, {"q": Ranking.from_pairs("q", [("a", 1.0)])})
    assert path.read_text().split()[-1] == "gar"


def test_run_write_is_deterministic(tmp_path):
    rankings = {
        "q2": Ranking.from_pairs("q2", [("a", 1.0)]),
        "q1": Ranking.from_pairs("q1", [("b", 0.5), ("a", 0.25)]),
    }
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
    assert run_pairs(read_run(path)) == {"q1": [("a", 1.0), ("b", 0.9)], "q2": [("a", 1.0)]}


def test_run_read_errors_match_row_reference(tmp_path):
    # each malformed case of test_run_read_errors, alone and after a block of
    # well-formed lines, raises the row reader's message at the same line
    cases = [
        "q1 Q0 a 1\n",
        "q1 Q0 a one 1.0 t\n",
        "q1 Q0 a 1 high t\n",
        "q1 Q0 a 1 1.0 t\nq1 Q0 b 1 0.9 t\n",
        "q1 Q0 a 2 1.0 t\nq1 Q0 b 1 0.9 t\n",
        "q1 Q0 a 1 1.0 t\nq1 Q0 a 2 0.9 t\n",
        "q1 Q0 a 1 nan t\n",
        "q1 Q0 a 1 1.0 t\n \n",
    ]
    good = "".join(f"q0 Q0 d{i} {i + 1} {1.0 - i / 10} t\n" for i in range(5))
    for case in cases:
        for content in (case, good + case):
            path = tmp_path / "run.txt"
            path.write_text(content)
            with pytest.raises(ValueError) as want:
                reference_read_run(path)
            with pytest.raises(ValueError) as got:
                read_run(path)
            assert str(got.value) == str(want.value)


SEPARATORS = [" ", "\t", "   ", " \t ", "\x0b", "\x1f"]
RANK_FORMS = ["{}", "+{}", "0{}", "{}_0"]
SCORES = ["1.5", "1e-3", "-0.0", "+2", "0", "-7.25", "3.0000001", "1_0.5", "123456789.123456789"]
BAD_TOKENS = ["x", "nan", "inf", "-inf", "99999999999999999999", "1.5.5", "", "a\x1cb", "dé", "a\x00"]


@st.composite
def run_files(draw):
    """Run file text: per-query blocks of increasing ranks, optionally
    interleaved, with mixed separators, blank lines and line endings, and
    at times one corrupted line."""
    lines = []
    for qid in draw(st.lists(st.sampled_from(["q1", "q2", "q10"]), max_size=3, unique=True)):
        docids = draw(st.lists(st.sampled_from(["a", "b", "c10", "a\x00", "d%s"]), max_size=5, unique=True))
        rank = draw(st.integers(0, 4))
        for docid in docids:
            rank += draw(st.integers(1, 3))
            rank_text = draw(st.sampled_from(RANK_FORMS)).format(rank)
            lines.append([qid, "Q0", docid, rank_text, draw(st.sampled_from(SCORES)), "tag"])
    if draw(st.booleans()):
        lines = draw(st.permutations(lines))
    if lines and draw(st.booleans()):
        row = lines[draw(st.integers(0, len(lines) - 1))]
        action = draw(st.sampled_from(["field", "drop", "extra", "copy"]))
        if action == "field":
            row[draw(st.sampled_from([2, 3, 4]))] = draw(st.sampled_from(BAD_TOKENS))
        elif action == "drop":
            row.pop()
        elif action == "extra":
            row.append("more")
        else:
            lines.append(list(row))
    text = ""
    for row in lines:
        if draw(st.integers(0, 4)) == 0:
            text += draw(st.sampled_from(["\n", " \n", "\t\n"]))
        line = draw(st.sampled_from(SEPARATORS)).join(row)
        if draw(st.integers(0, 4)) == 0:
            line = " " + line + "\t"
        text += line + draw(st.sampled_from(["\n", "\n", "\r\n"]))
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


def _read_outcome(reader, path):
    try:
        return "ok", repr(reader(path))  # repr keeps the sign of -0.0
    except ValueError as exc:
        return "error", str(exc)


@settings(max_examples=250)
@given(run_files())
def test_read_run_matches_row_reference(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "read_run.txt"
    path.write_bytes(text.encode("utf-8"))
    want = _read_outcome(reference_read_run, path)
    assert _read_outcome(lambda path: run_pairs(read_run(path)), path) == want
    # the row reader, which the column route falls back to, on every file
    assert _read_outcome(lambda path: run_pairs(formats._read_run_rows(path)), path) == want


def test_read_run_parses_well_formed_files_by_column(tmp_path):
    # blank lines, tabs, runs of spaces, +1, 1e-3 and -0.0 stay on the column path
    text = "q2 Q0 b +1 1e-3 t\n\nq2\tQ0\ta  2   -0.0 t\r\nq1 Q0 a 010 2 tag\n"
    path = tmp_path / "run.txt"
    path.write_text(text)
    with open(path, encoding="utf-8") as fh:
        assert _read_run_columns(fh) is not None
    assert repr(run_pairs(read_run(path))) == repr(reference_read_run(path))
    interleaved = "q1 Q0 a 1 1.0 t\nq2 Q0 b 2 1.0 t\nq1 Q0 c 3 0.9 t\n"
    assert _read_run_columns(io.StringIO(interleaved)) is None


@pytest.mark.parametrize("block_chars", [1, 5, 17, 100, 1 << 16])
def test_read_run_column_blocks_may_end_anywhere(tmp_path, monkeypatch, block_chars):
    monkeypatch.setattr(formats, "_RUN_BLOCK_CHARS", block_chars)
    path = tmp_path / "run.txt"
    lines = [f"q{q} Q0 d{(7 * i) % 50} {i + 1} {1.0 - i / 64} t\n" for q in range(4) for i in range(50)]
    path.write_text("".join(lines))
    with open(path, encoding="utf-8") as fh:
        assert _read_run_columns(fh) is not None
    assert repr(run_pairs(read_run(path))) == repr(reference_read_run(path))
    path.write_text("".join(lines[:-1]) + "q3 Q0 d1 51 x t\n")
    with pytest.raises(ValueError, match="line 200: bad rank or score"):
        read_run(path)


def test_read_run_keeps_docids_that_differ_by_a_trailing_nul(tmp_path):
    path = tmp_path / "run.txt"
    path.write_text("q Q0 a\x00 1 2.0 t\nq Q0 a 2 1.0 t\n")
    assert run_pairs(read_run(path)) == {"q": [("a\x00", 2.0), ("a", 1.0)]}
    path.write_text("q Q0 a\x00 1 2.0 t\nq Q0 a\x00 2 1.0 t\n")
    with pytest.raises(ValueError, match=r"line 2: duplicate doc 'a\\x00'"):
        read_run(path)


def test_read_run_holds_no_pair_per_line(tmp_path):
    # 100 queries of 1,000 docs each, drawn from a million; a (docid, score)
    # tuple and a float per line took the peak to about 180 bytes a line
    rng = np.random.default_rng(20)
    path = tmp_path / "run.txt"
    rankings = {}
    for q in range(100):
        docids = [f"d{doc}" for doc in rng.choice(1_000_000, 1000, replace=False)]
        rankings[f"q{q}"] = Ranking(f"q{q}", docids, np.sort(rng.uniform(5.0, 30.0, 1000))[::-1])
    write_run(path, rankings, "bm25")
    del rankings
    tracemalloc.start()
    try:
        runs = read_run(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    lines = sum(map(len, runs.values()))
    assert lines == 100_000
    assert peak < 140 * lines, f"{peak / lines:.0f} bytes a line"


@pytest.mark.parametrize("score", [float("nan"), float("inf"), float("-inf")])
def test_write_run_rejects_non_finite_score(tmp_path, score):
    path = tmp_path / "run.txt"
    ranking = Ranking.from_pairs("q", [("a", 1.0), ("b", score)])
    with pytest.raises(ValueError, match=rf"non-finite score {score!r} for query 'q' doc 'b'"):
        write_run(path, {"q": ranking})
    assert not path.exists()


@pytest.mark.parametrize(
    "qid, docids, tag, message",
    [
        ("q 1", ["d1"], "gar", "query id 'q 1' is empty or holds whitespace"),
        ("", ["d1"], "gar", "query id '' is empty or holds whitespace"),
        ("q", ["d1", "", "d2"], "gar", "docid '' for query 'q' is empty or holds whitespace"),
        ("q", ["d1", "d 2", "d 3"], "gar", "docid 'd 2' for query 'q' is empty or holds whitespace"),
        ("q", ["\td1", "d2"], "gar", "docid '\\td1' for query 'q' is empty or holds whitespace"),
        ("q", ["d1", "d\u20282"], "gar", "docid 'd\\u20282' for query 'q' is empty or holds whitespace"),
        ("q", ["d1"], "my tag", "tag 'my tag' is empty or holds whitespace"),
        ("q", ["d1"], "", "tag '' is empty or holds whitespace"),
    ],
    ids=["spaced-qid", "empty-qid", "empty-docid", "spaced-docid", "leading-tab-docid", "line-separator-docid", "spaced-tag", "empty-tag"],
)
def test_write_run_rejects_tokens_read_run_would_split(tmp_path, qid, docids, tag, message):
    path = tmp_path / "run.txt"
    rankings = {"a": Ranking("a", ["x"], [1.0]), qid: Ranking(qid, docids, [1.0] * len(docids))}
    with pytest.raises(ValueError, match=re.escape(message)):
        write_run(path, rankings, tag)
    assert not path.exists()
    # the lines the check spares a reader: read_run refuses them or reads something else
    pairs = [(docid, 1.0) for docid in docids]
    path.write_text(reference_run_text({qid: pairs}, tag), encoding="utf-8")
    try:
        back = run_pairs(read_run(path))
    except ValueError:
        back = None
    assert back != {qid: pairs}


finite_scores = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 5e-7, -5e-7, 1e300])
names = st.text(st.sampled_from("ab9%{}é\x00"), min_size=1, max_size=3)


@settings(max_examples=150)
@given(
    st.dictionaries(names, st.lists(st.tuples(names, finite_scores), max_size=6, unique_by=lambda p: p[0]), max_size=4),
    names,
)
def test_write_run_matches_line_reference(tmp_path_factory, runs, tag):
    path = tmp_path_factory.getbasetemp() / "write_run.txt"
    rankings = {qid: Ranking.from_pairs(qid, pairs) for qid, pairs in runs.items()}
    write_run(path, rankings, tag)
    assert path.read_bytes() == reference_run_text(runs, tag).encode("utf-8")


@settings(max_examples=150)
@given(st.data())
def test_write_trace_matches_line_reference(tmp_path_factory, data):
    pools, rankings, outputs = {}, {}, {}
    for qid in data.draw(st.lists(names, max_size=4, unique=True)):
        pool = data.draw(st.lists(names, min_size=1, max_size=6, unique=True))
        extra = data.draw(st.lists(names.filter(lambda d: d not in pool), max_size=3, unique=True))
        order = data.draw(st.permutations(pool + extra))
        rows = [
            (docid, "initial", None)
            if docid in pool and data.draw(st.booleans())
            else (docid, "frontier", data.draw(names | st.just("NA")))
            for docid in order
        ]
        pools[qid] = Ranking.from_pairs(qid, [(docid, 0.0) for docid in pool])
        docids, _, sources = zip(*rows)
        rankings[qid] = Ranking(qid, docids, [1.0] * len(rows), sources=sources)
        outputs[qid] = rows
    path = tmp_path_factory.getbasetemp() / "write_trace.tsv"
    write_trace(path, pools, rankings)
    want = reference_trace_text({qid: ranking.docids() for qid, ranking in pools.items()}, outputs)
    assert path.read_bytes() == want.encode("utf-8")
    read_back = [(row.qid, row.docid, row.final_rank, row.provenance, row.source) for row in read_trace(path)]
    assert read_back == [
        (qid, docid, rank, provenance, source)
        for qid in sorted(outputs)
        for rank, (docid, provenance, source) in enumerate(outputs[qid], 1)
    ]


# --- trace -------------------------------------------------------------------


def test_trace_round_trip(tmp_path):
    # a frontier row keeps its source even when that docid is the NA marker
    for source in ("d0", "NA"):
        pools = {"q1": Ranking.from_pairs("q1", [(source, 2.0), ("d1", 1.0)])}
        rankings = {
            "q1": Ranking("q1", ["d4", source, "d1"], [3.0, 2.0, 1.0], sources=[source, None, None])
        }
        path = tmp_path / "trace.tsv"
        write_trace(path, pools, rankings)
        lines = path.read_text().splitlines()
        assert lines[0] == "qid\tdocid\tinitial_rank\tfinal_rank\tprovenance\tsource_docid"
        assert lines[1] == f"q1\td4\tNA\t1\tfrontier\t{source}"
        assert lines[2] == f"q1\t{source}\t1\t2\tinitial\tNA"
        rows = read_trace(path)
        assert rows == [
            TraceRow("q1", "d4", None, 1, source),
            TraceRow("q1", source, 1, 2, None),
            TraceRow("q1", "d1", 2, 3, None),
        ]
        assert [row.provenance for row in rows] == ["frontier", "initial", "initial"]


def test_trace_bad_header(tmp_path):
    path = tmp_path / "trace.tsv"
    path.write_text("nope\nq1\ta\t1\t1\tinitial\tNA\n")
    with pytest.raises(ValueError, match="bad trace header"):
        read_trace(path)


def test_trace_bad_field_count(tmp_path):
    path = tmp_path / "trace.tsv"
    write_trace(path, {}, {})
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("q1\ta\t1\t1\tinitial\n")
    with pytest.raises(ValueError, match="expected 6 tab-separated fields"):
        read_trace(path)


@pytest.mark.parametrize(
    "row",
    ["q1\ta\tx\t1\tinitial\tNA", "q1\ta\t1\tx\tinitial\tNA", "q1\ta\t1\t2.0\tinitial\tNA"],
)
def test_trace_bad_rank(tmp_path, row):
    path = tmp_path / "trace.tsv"
    write_trace(path, {}, {})
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(row + "\n")
    with pytest.raises(ValueError, match=r"trace.tsv: line 2: bad initial_rank or final_rank$"):
        read_trace(path)


def test_trace_initial_row_with_source(tmp_path):
    path = tmp_path / "trace.tsv"
    write_trace(path, {}, {})
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("q1\ta\t1\t1\tinitial\tNA\nq1\tb\t2\t2\tinitial\ta\n")
    with pytest.raises(ValueError, match="line 3: initial row with source 'a', expected NA"):
        read_trace(path)


def test_trace_bad_provenance(tmp_path):
    path = tmp_path / "trace.tsv"
    write_trace(path, {}, {})
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("q1\ta\t1\t1\tinitial\tNA\nq1\tb\tNA\t2\tgraph\tNA\n")
    with pytest.raises(ValueError, match="line 3: bad provenance 'graph'"):
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


def test_metric_report_refuses_a_query_named_all(tmp_path):
    # its row would read as the mean's
    results = {"map": MetricValues({"q1": 1.0}, 0.75), "ndcg": MetricValues({"all": 1.0, "q1": 0.0}, 0.5)}
    path = tmp_path / "report.tsv"
    with pytest.raises(ValueError, match="query id 'all'"):
        write_metric_report(path, results)
    assert not path.exists()


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

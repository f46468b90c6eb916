from __future__ import annotations

import itertools
import math
import random
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gar import (
    Bm25Params,
    Bm25Scorer,
    DenseVectors,
    DocMap,
    bm25_doc_topk,
    bm25_retrieve,
    build_graph,
    dense_topk,
    docmap_path,
    index_corpus,
    tokenize,
)
from gar import lexical
from gar.lexical import bm25_scores, build_dense_graph
from oracles import bm25_all_scores, knn_row, reference_index, reference_tokenize
from synthdata import random_corpus, write_garv


# --- tokenize ---------------------------------------------------------------


def test_tokenize_examples():
    assert tokenize("The Flea's life-cycle") == ["the", "flea", "s", "life", "cycle"]
    assert tokenize("foo_bar") == ["foo", "bar"]
    assert tokenize("  a  b\tc\n") == ["a", "b", "c"]
    assert tokenize("") == []
    assert tokenize("...!?") == []
    assert tokenize("x2 3y") == ["x2", "3y"]


@given(st.text(max_size=60))
def test_tokenize_output_shape(text):
    tokens = tokenize(text)
    for token in tokens:
        assert token
        assert token == token.lower()
        assert all(ch.isalnum() for ch in token)


# every ASCII code point, control characters (\x1c-\x1f among them) and DEL
# included, as each takes the byte table
@given(st.text(st.characters(min_codepoint=0, max_codepoint=127), max_size=60))
def test_tokenize_matches_reference_on_ascii(text):
    assert tokenize(text) == reference_tokenize(text)


@given(st.text(max_size=60))
@example("ÀB_c\x1cd\x7fİx ǅ٣4\u3000e\xa0f")
@example("AbC_d\x1ce\x1ff\x7fg9")
def test_tokenize_is_the_token_regex_on_any_text(text):
    # ASCII text takes the byte table, any other the regex itself
    assert tokenize(text) == lexical._TOKEN_RE.findall(text.lower())


# --- params and index -------------------------------------------------------


def test_default_params():
    params = Bm25Params()
    assert params.k1 == 0.9
    assert params.b == 0.4


def test_param_validation():
    with pytest.raises(ValueError, match="k1"):
        Bm25Params(k1=-0.1)
    with pytest.raises(ValueError, match="b must lie"):
        Bm25Params(b=1.5)


def test_index_shape():
    index = index_corpus([("d1", "red fox"), ("d2", ""), ("d3", "red red dog")])
    assert index.n_docs == 3
    assert index.doc_lengths == (2, 0, 3)
    assert index.avg_doc_length == pytest.approx(5 / 3)
    assert index.term_frequency("red", 0) == 1
    assert index.term_frequency("red", 2) == 2
    assert index.term_frequency("red", 1) == 0
    assert index.document_frequency("red") == 2
    assert index.document_frequency("missing") == 0
    assert index.doc_terms[2] == ("dog", "red")


def test_index_lookups_outside_the_corpus():
    # a doc past the last must not reach the next term's postings
    index = index_corpus([("d1", "a b"), ("d2", "b")])
    assert [index.term_frequency("a", doc) for doc in (-1, 2, 3)] == [0, 0, 0]
    assert [index.term_frequency("b", doc) for doc in (-1, 0, 1, 2)] == [0, 1, 1, 0]


def test_index_postings_in_corpus_order():
    index = index_corpus([(f"d{i}", "shared") for i in range(20)])
    assert list(index.postings["shared"]) == list(range(20))


# words that mix cases, digits and separators, ASCII or not, so docs share terms
INDEX_TEXT = st.one_of(
    st.just(""),
    st.text(st.sampled_from("aAbB1 _-.\x1c\x7f\t"), max_size=16),
    st.text(st.sampled_from("aAbB1 _ÀàİßǅǆΣσς٣\xa0\u3000"), max_size=16),
    st.text(max_size=8),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(INDEX_TEXT, min_size=1, max_size=12))
def test_index_matches_regex_token_index(texts):
    corpus = [(f"d{i}", text) for i, text in enumerate(texts)]
    index = index_corpus(corpus)
    vocab, lengths, doc_tfs, postings = reference_index(corpus)
    assert list(index.postings) == vocab
    assert index.doc_lengths == tuple(lengths)
    # doc-major: each doc's terms ascending, with their frequencies
    for doc, tfs in enumerate(doc_tfs):
        assert index.doc_terms[doc] == tuple(sorted(tfs))
        assert [index.term_frequency(term, doc) for term in sorted(tfs)] == [tfs[t] for t in sorted(tfs)]
    # term-major: each term's docs ascending, with their frequencies
    for term, rows in postings.items():
        assert index.postings[term].tolist() == [doc for doc, _ in rows]
        assert [index.term_frequency(term, doc) for doc, _ in rows] == [tf for _, tf in rows]
        assert index.document_frequency(term) == len(rows)


def test_index_empty_corpus_rejected():
    with pytest.raises(ValueError, match="empty"):
        index_corpus([])


def test_index_duplicate_docid_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        index_corpus([("d", "a"), ("d", "b")])


# --- scoring ----------------------------------------------------------------


def test_single_doc_single_term_score():
    index = index_corpus([("d", "x")])
    got = bm25_scores(index, Bm25Params(), ["x"])[0]
    # N=1, df=1, tf=1, len=avg: score reduces to the idf term
    assert got == math.log((1 - 1 + 0.5) / (1 + 0.5) + 1.0)


def test_repeated_query_terms_count_once():
    index = index_corpus([("d", "x y")])
    params = Bm25Params()
    assert bm25_scores(index, params, ["x", "x", "x"]).tolist() == bm25_scores(index, params, ["x"]).tolist()


def test_score_zero_without_overlap():
    index = index_corpus([("d1", "a b"), ("d2", "c")])
    assert bm25_scores(index, Bm25Params(), ["z"]).tolist() == [0.0, 0.0]
    assert bm25_scores(index, Bm25Params(), []).tolist() == [0.0, 0.0]


def test_score_all_empty_corpus():
    index = index_corpus([("d1", ""), ("d2", "")])
    assert bm25_scores(index, Bm25Params(), ["z"]).tolist() == [0.0, 0.0]


def test_scores_match_reference_on_random_corpora():
    rng = random.Random(11)
    params = Bm25Params()
    for trial in range(25):
        corpus = random_corpus(rng, rng.randint(1, 30), vocab_size=12, max_len=8)
        if all(not text for _, text in corpus):
            corpus[0] = (corpus[0][0], "w000")
        index = index_corpus(corpus)
        tokens = [reference_tokenize(text) for _, text in corpus]
        query = set(rng.choices([f"w{i:03d}" for i in range(14)], k=rng.randint(1, 4)))
        expected = bm25_all_scores(tokens, query)
        assert bm25_scores(index, params, query).tolist() == expected


def test_scoring_is_deterministic():
    rng = random.Random(3)
    corpus = random_corpus(rng, 40)
    index = index_corpus(corpus)
    params = Bm25Params()
    first = bm25_scores(index, params, {"w001", "w002", "w003"}).tolist()
    second = bm25_scores(index, params, ["w003", "w002", "w001"]).tolist()
    assert first == second


# --- retrieval --------------------------------------------------------------


def test_retrieve_orders_by_score_then_internal_id():
    corpus = [("low", "x y y y y y y y"), ("mid", "x x y y y y"), ("top", "x x x")]
    index = index_corpus(corpus)
    ranking = bm25_retrieve(index, Bm25Params(), "q1", "x", top_n=10)
    assert ranking.qid == "q1"
    assert ranking.docids() == ["top", "mid", "low"]
    scores = [entry.score for entry in ranking]
    assert scores == sorted(scores, reverse=True)


def test_retrieve_tie_breaks_by_corpus_position():
    corpus = [("b", "x"), ("a", "x"), ("c", "x")]
    ranking = bm25_retrieve(index_corpus(corpus), Bm25Params(), "q", "x")
    assert ranking.docids() == ["b", "a", "c"]


def test_retrieve_skips_docs_without_overlap():
    corpus = [("hit", "x"), ("miss", "y")]
    ranking = bm25_retrieve(index_corpus(corpus), Bm25Params(), "q", "x z")
    assert ranking.docids() == ["hit"]


def test_retrieve_honours_top_n():
    corpus = [(f"d{i}", "x") for i in range(30)]
    index = index_corpus(corpus)
    assert len(bm25_retrieve(index, Bm25Params(), "q", "x", top_n=7)) == 7
    for top_n in (0, -3):
        with pytest.raises(ValueError, match="top_n must be positive"):
            bm25_retrieve(index, Bm25Params(), "q", "x", top_n=top_n)


def test_retrieve_unknown_terms_empty():
    ranking = bm25_retrieve(index_corpus([("d", "a")]), Bm25Params(), "q", "zzz")
    assert len(ranking) == 0


# --- doc-as-query neighbours -------------------------------------------------


def test_doc_topk_excludes_self():
    corpus = [("d0", "x y"), ("d1", "x y"), ("d2", "x")]
    index = index_corpus(corpus)
    top = bm25_doc_topk(index, Bm25Params(), 0, 2)
    assert [doc for doc, _ in top] == [1, 2]


def test_doc_topk_empty_doc():
    index = index_corpus([("d0", ""), ("d1", "x")])
    assert bm25_doc_topk(index, Bm25Params(), 0, 3) == []


def test_doc_topk_matches_reference_rows():
    rng = random.Random(23)
    params = Bm25Params()
    for trial in range(15):
        corpus = random_corpus(rng, rng.randint(2, 25), vocab_size=10, max_len=6)
        if all(not text for _, text in corpus):
            corpus[0] = (corpus[0][0], "w000")
        index = index_corpus(corpus)
        tokens = [reference_tokenize(text) for _, text in corpus]
        k = rng.randint(1, 6)
        for doc in range(len(corpus)):
            scores = bm25_all_scores(tokens, set(tokens[doc]))
            want = [n for n in knn_row(scores, doc, k, positive_only=True) if n != 0xFFFFFFFF]
            got = [other for other, _ in bm25_doc_topk(index, params, doc, k)]
            assert got == want, f"trial {trial} doc {doc}"


# --- every BM25 route against the reference --------------------------------
#
# Retrieval, Bm25Scorer and doc-as-query share one cached weight table; each
# must equal the loop-based reference exactly, scores included.

SENTINEL_ID = 0xFFFFFFFF


def tied_corpus(rng, n_docs):
    """Small-vocabulary corpus in which about a quarter of the docs copy another."""
    corpus = random_corpus(rng, n_docs, vocab_size=8, max_len=6)
    for i in rng.sample(range(n_docs), n_docs // 4):
        corpus[i] = (corpus[i][0], corpus[rng.randrange(n_docs)][1])
    return corpus


def reference_order(scores, self_id=-1):
    """Every doc with a positive score, by (score desc, id asc)."""
    return [d for d in knn_row(scores, self_id, len(scores), positive_only=True) if d != SENTINEL_ID]


def tied_cut(rng, order, scores):
    """A cut inside a run of tied scores when there is one, else any cut."""
    cuts = [i for i in range(1, len(order)) if scores[order[i - 1]] == scores[order[i]]]
    return (rng.choice(cuts), True) if cuts else (rng.randint(1, len(scores)), False)


def random_query(rng):
    # repeated terms, and terms no doc contains
    return rng.choices([f"w{i:03d}" for i in range(8)] + ["zzz", "unseen"], k=rng.randint(1, 6))


def test_retrieve_matches_reference_at_tied_cuts():
    rng = random.Random(31)
    params = Bm25Params()
    tied = 0
    for trial in range(40):
        corpus = tied_corpus(rng, rng.randint(2, 30))
        index = index_corpus(corpus)
        tokens = [reference_tokenize(text) for _, text in corpus]
        words = random_query(rng)
        scores = bm25_all_scores(tokens, set(words))
        order = reference_order(scores)
        top_n, at_tie = tied_cut(rng, order, scores)
        tied += at_tie
        got = bm25_retrieve(index, params, "q", " ".join(words), top_n)
        assert got.pairs() == [(corpus[d][0], scores[d]) for d in order[:top_n]], f"trial {trial}"
    assert tied >= 10


def test_bm25_scorer_matches_reference():
    rng = random.Random(37)
    params = Bm25Params()
    for trial in range(40):
        corpus = tied_corpus(rng, rng.randint(1, 30))
        index = index_corpus(corpus)
        tokens = [reference_tokenize(text) for _, text in corpus]
        words = random_query(rng)
        scores = bm25_all_scores(tokens, set(words))
        batch = rng.sample(range(len(corpus)), rng.randint(1, len(corpus)))
        got = Bm25Scorer(index, params).score_batch("q", " ".join(words), [corpus[d][0] for d in batch])
        assert got == [scores[d] for d in batch], f"trial {trial}"


def test_doc_topk_matches_reference_at_tied_cuts():
    rng = random.Random(41)
    params = Bm25Params()
    tied = 0
    for trial in range(15):
        corpus = tied_corpus(rng, rng.randint(2, 25))
        index = index_corpus(corpus)
        tokens = [reference_tokenize(text) for _, text in corpus]
        for doc in range(len(corpus)):
            scores = bm25_all_scores(tokens, set(tokens[doc]))
            order = reference_order(scores, doc)
            k_plus, at_tie = tied_cut(rng, order, scores)
            tied += at_tie
            got = bm25_doc_topk(index, params, doc, k_plus)
            assert got == [(d, scores[d]) for d in order[:k_plus]], f"trial {trial} doc {doc}"
    assert tied >= 20


def test_all_empty_corpus_routes_do_not_divide_by_zero():
    index = index_corpus([("a", ""), ("b", "?!"), ("c", "")])
    assert index.avg_doc_length == 0
    params = Bm25Params()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert len(bm25_retrieve(index, params, "q", "x y")) == 0
        assert Bm25Scorer(index, params).score_batch("q", "x", ["c", "a"]) == [0.0, 0.0]
        assert bm25_doc_topk(index, params, 1, 3) == []


def test_two_parameter_sets_share_one_index():
    rng = random.Random(43)
    corpus = tied_corpus(rng, 30)
    index = index_corpus(corpus)
    tokens = [reference_tokenize(text) for _, text in corpus]
    docids = [docid for docid, _ in corpus]
    words = ["w001", "w002", "w005"]
    default, steep = Bm25Params(), Bm25Params(k1=1.7, b=0.95)
    want = {params: bm25_all_scores(tokens, set(words), params.k1, params.b) for params in (default, steep)}
    assert want[default] != want[steep]
    # alternate so each call finds the other parameter set's weights cached
    for params in (default, steep, default, steep):
        scores = want[params]
        assert Bm25Scorer(index, params).score_batch("q", " ".join(words), docids) == scores
        order = reference_order(scores)
        assert bm25_retrieve(index, params, "q", " ".join(words), 10).pairs() == [
            (docids[d], scores[d]) for d in order[:10]
        ]
        doc_scores = bm25_all_scores(tokens, set(tokens[3]), params.k1, params.b)
        assert bm25_doc_topk(index, params, 3, 5) == [(d, doc_scores[d]) for d in reference_order(doc_scores, 3)[:5]]


# --- blocked doc-as-query BM25 ------------------------------------------------


def block_topk_rows(index, params, k, block_rows, head_terms):
    """Every row of `Bm25BlockTopk` at `block_rows` rows per block with the
    `head_terms` highest-df terms scored by the product, and the number of
    rows it left to `bm25_doc_topk`."""
    n = index.n_docs
    with (
        mock.patch.object(lexical, "_BM25_BLOCK_BYTES", 8 * n * block_rows),
        mock.patch.object(lexical, "_BM25_HEAD_BYTES", 8 * n * head_terms),
        mock.patch.object(lexical, "bm25_doc_topk", wraps=lexical.bm25_doc_topk) as per_row,
    ):
        provider = lexical.Bm25BlockTopk(index, params)
        rows = [provider(doc, k) for doc in range(n)]
    return rows, per_row.call_count


def block_ways(index, block_rows):
    """(rows per block, head terms): the product and the bincount together,
    the bincount only, and the product only."""
    return [(block_rows, 2), (block_rows, 0), (block_rows, len(index.postings))]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from(["a", "b", "b", "c", "d", "e"]), max_size=5), min_size=1, max_size=9),
    st.lists(st.integers(0, 8), max_size=4),
    st.integers(1, 3),
)
@example([[]], [], 1)  # a lone empty doc
@example([["a", "b"]], [], 2)  # a lone doc
@example([[], [], []], [], 2)  # only empty docs
@example([["a", "b"], ["c"], ["a"]], [0, 0, 2], 1)  # three copies of one doc tie
def test_block_topk_ids_are_bm25_doc_topk_ids(docs, copies, block_rows):
    # docs from six words, some of them copies of another, so that exact
    # ties, which only the per-row rule may order, are common
    docs = docs + [docs[i] for i in copies if i < len(docs)]
    index = index_corpus([(f"d{i}", " ".join(words)) for i, words in enumerate(docs)])
    params = Bm25Params()
    n = len(docs)
    for k in range(1, n + 2):
        want = [bm25_doc_topk(index, params, doc, k) for doc in range(n)]
        # a row whose positive best k + 1 hold an exact tie must fall back
        tied = sum(
            any(a == b > 0 for a, b in itertools.pairwise(s for _, s in bm25_doc_topk(index, params, doc, k + 1)))
            for doc in range(n)
        )
        for way in block_ways(index, block_rows):
            rows, fallbacks = block_topk_rows(index, params, k, *way)
            assert [[d for d, _ in row] for row in rows] == [[d for d, _ in row] for row in want], way
            assert fallbacks >= tied, way
            # a kept row's scores lie within the rounding margin of the per-row scores
            for doc, (row, ref) in enumerate(zip(rows, want)):
                bound = 8 * len(index.doc_terms[doc]) * 2.0**-53
                assert all(abs(s - r) <= bound * r for (_, s), (_, r) in zip(row, ref))


def test_block_topk_falls_back_on_duplicate_docs():
    # d0, d1 and d2 are one text: each one's two copies tie in its row, and
    # all three tie in d3's row; the empty d4 has no row to certify
    corpus = [("d0", "x y"), ("d1", "x y"), ("d2", "x y"), ("d3", "x z z"), ("d4", "")]
    index = index_corpus(corpus)
    params = Bm25Params()
    want = [[d for d, _ in bm25_doc_topk(index, params, doc, 3)] for doc in range(5)]
    for way in block_ways(index, 2):
        rows, fallbacks = block_topk_rows(index, params, 3, *way)
        assert [[d for d, _ in row] for row in rows] == want
        assert fallbacks == 4, way


def test_block_topk_rows_are_served_in_any_order():
    rng = random.Random(47)
    corpus = tied_corpus(rng, 40)
    index = index_corpus(corpus)
    params = Bm25Params()
    with mock.patch.object(lexical, "_BM25_BLOCK_BYTES", 8 * 40 * 3):
        provider = lexical.Bm25BlockTopk(index, params)
        for doc, k in [(5, 4), (4, 4), (39, 2), (5, 7), (5, 0), (0, 41)]:
            assert [d for d, _ in provider(doc, k)] == [d for d, _ in bm25_doc_topk(index, params, doc, k)]
        with pytest.raises(IndexError, match="out of range"):
            provider(40, 3)
    graph = build_graph(index.docmap, provider, 5)
    assert graph.edges.tolist() == build_graph(index.docmap, lambda d, c: bm25_doc_topk(index, params, d, c), 5).edges.tolist()


def test_postings_order_past_16_bit_term_numbers():
    # 65,537 terms: the last term's number does not fit the 16-bit sort
    words = [f"w{i:05d}" for i in range(65537)]
    index = index_corpus([("a", " ".join(words[::2])), ("b", " ".join(words[1::2])), ("c", f"{words[-1]} {words[1]}")])
    assert list(index.postings[words[-1]]) == [0, 2]
    assert list(index.postings[words[1]]) == [1, 2]
    assert list(index.postings[words[0]]) == [0]
    assert index.doc_terms[2] == (words[1], words[-1])


# --- dense vectors ----------------------------------------------------------


def unit_square_vectors():
    matrix = np.array([[1, 0], [0, 1], [1, 1], [2, 0]], dtype=np.float64)
    return DenseVectors(matrix, DocMap(["a", "b", "c", "d"]))


def test_vectors_normalized():
    vectors = unit_square_vectors()
    assert vectors.n_docs == 4
    assert vectors.dim == 2
    norms = np.linalg.norm(vectors.matrix, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-6)
    assert vectors.matrix.dtype == np.float32


def test_vectors_matrix_immutable():
    vectors = unit_square_vectors()
    with pytest.raises(ValueError):
        vectors.matrix[0, 0] = 5.0


def test_zero_vector_rejected():
    matrix = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="row 1 .* zero vector"):
        DenseVectors(matrix, DocMap(["a", "b"]))


NON_FINITE_ROWS = [[np.nan, 1.0], [np.inf, 1.0], [1.0, -np.inf]]


@pytest.mark.parametrize("bad", NON_FINITE_ROWS + [[1e200, 1e200]])
def test_non_finite_vector_rejected(bad):
    # [1e200, 1e200] is finite, but its norm overflows float64 to inf
    matrix = np.array([[1.0, 0.0], bad, [0.0, 1.0]])
    with pytest.raises(ValueError, match=r"row 1 \('b'\) is not finite or its norm overflows"):
        DenseVectors(matrix, DocMap(["a", "b", "c"]))


@pytest.mark.parametrize("bad", NON_FINITE_ROWS)
def test_non_finite_vector_file_rejected(tmp_path, bad):
    # a float32 row cannot overflow the float64 norm, so only NaN and inf apply
    path = tmp_path / "vectors.bin"
    write_garv(path, [[1.0, 0.0], [0.0, 1.0], bad], ["a", "b", "c"])
    with pytest.raises(ValueError, match=r"row 2 \('c'\) is not finite"):
        DenseVectors.load(path)


def test_vector_shape_validation():
    with pytest.raises(ValueError, match="2-dimensional"):
        DenseVectors(np.ones(3), DocMap(["a", "b", "c"]))
    with pytest.raises(ValueError, match="rows"):
        DenseVectors(np.ones((2, 2)), DocMap(["a"]))
    with pytest.raises(ValueError, match="dimension"):
        DenseVectors(np.ones((1, 0)), DocMap(["a"]))


def test_similarities_clipped():
    vectors = unit_square_vectors()
    sims = vectors.similarities(0)
    assert sims.max() <= 1.0
    assert sims.min() >= -1.0
    assert sims[3] == 1.0


def test_dense_topk_ordering():
    vectors = unit_square_vectors()
    top = dense_topk(vectors, 0, 3)
    assert [doc for doc, _ in top] == [3, 2, 1]
    assert top[0][1] == pytest.approx(1.0)
    assert top[1][1] == pytest.approx(math.sqrt(2) / 2, abs=1e-6)


def test_dense_topk_tie_breaks_by_id():
    # rows a, b, d are all equidistant from c
    vectors = unit_square_vectors()
    top = dense_topk(vectors, 2, 3)
    assert [doc for doc, _ in top] == [0, 1, 3]


def test_dense_topk_short_when_corpus_small():
    vectors = unit_square_vectors()
    assert len(dense_topk(vectors, 0, 99)) == 3
    assert dense_topk(vectors, 0, 0) == []


@given(
    st.integers(2, 9).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(st.integers(-2, 2), min_size=2, max_size=2), min_size=n, max_size=n),
            st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
        )
    )
)
def test_dense_rows_match_reference_at_ties(drawn):
    # small integer rows, each replaced by a drawn row, so equal cosines are common
    rows, copy_of = drawn
    matrix = np.array([rows[i] if any(rows[i]) else [1, 0] for i in copy_of], dtype=np.float64)
    n = len(matrix)
    vectors = DenseVectors(matrix, DocMap([f"v{i}" for i in range(n)]))
    m64 = vectors.matrix.astype(np.float64)
    sims = [np.clip(m64 @ m64[doc], -1.0, 1.0).tolist() for doc in range(n)]
    # every k, so each run of tied cosines is cut inside and on both sides
    for k in range(1, n + 1):
        want = [knn_row(sims[doc], doc, k, positive_only=False) for doc in range(n)]
        for doc in range(n):
            got = dense_topk(vectors, doc, k)
            assert [d for d, _ in got] == [d for d in want[doc] if d != SENTINEL_ID]
            assert [s for _, s in got] == [sims[doc][d] for d, _ in got]
        graph = build_graph(vectors.docmap, lambda d, c: dense_topk(vectors, d, c), k)
        assert graph.edges.tolist() == want
        assert build_dense_graph(vectors, k).edges.tolist() == want


@settings(max_examples=200)
@given(
    st.tuples(st.integers(3, 70), st.integers(2, 40), st.integers(1, 7)).flatmap(
        lambda shape: st.tuples(
            st.lists(
                st.lists(st.integers(-2, 2), min_size=shape[0], max_size=shape[0]),
                min_size=1,
                max_size=max(1, shape[1] // 3),
            ),
            st.lists(st.integers(0, shape[1]), min_size=shape[1], max_size=shape[1]),
            st.just(shape[2]),
        )
    )
)
# nine copies of one row: the per-row products tie all nine cosines, but on an
# x86-64 OpenBLAS a two-row block product rounds the ninth copy's cosine a
# unit in the last place above the other eight, which only the rounding
# margin sends to the per-row rule
@example(([[0, 1, 1, 1] + [0] * 10 + [1] * 28 + [2] * 24], [0] * 9, 2))
def test_dense_graph_rows_match_dense_topk_at_ties(drawn):
    # few distinct small-integer rows, most docs a copy of one: above dim 2 a
    # block product and the per-row product round equal cosines apart, so
    # only the near-tie fallback keeps the block build on dense_topk's rows
    rows, copy_of, block_rows = drawn
    rows = [row if any(row) else [1] * len(row) for row in rows]
    matrix = np.array([rows[i % len(rows)] for i in copy_of], dtype=np.float64)
    n = len(matrix)
    vectors = DenseVectors(matrix, DocMap([f"v{i}" for i in range(n)]))
    with mock.patch.object(lexical, "_DENSE_BLOCK_BYTES", 8 * n * block_rows):
        for k in sorted({1, 2, 5, n - 2, n - 1, n} - {0, -1}):
            want = [[d for d, _ in dense_topk(vectors, doc, k)] for doc in range(n)]
            padded = [row + [SENTINEL_ID] * (k - len(row)) for row in want]
            assert build_dense_graph(vectors, k).edges.tolist() == padded


def test_dense_graph_edge_cases():
    vectors = unit_square_vectors()
    assert build_dense_graph(vectors, 2).edges.tolist() == [[3, 2], [2, 0], [0, 1], [0, 2]]
    single = DenseVectors(np.ones((1, 3)), DocMap(["a"]))
    assert build_dense_graph(single, 4).edges.tolist() == [[SENTINEL_ID] * 4]
    with pytest.raises(ValueError, match="k must be positive"):
        build_dense_graph(vectors, 0)


def test_dense_topk_bad_doc():
    with pytest.raises(IndexError):
        dense_topk(unit_square_vectors(), 9, 1)


def test_vectors_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    matrix = rng.normal(size=(20, 6))
    vectors = DenseVectors(matrix, DocMap([f"v{i}" for i in range(20)]))
    path = tmp_path / "vectors.bin"
    vectors.save(path)
    assert path.stat().st_size == 16 + 4 * 20 * 6
    assert docmap_path(path).exists()
    loaded = DenseVectors.load(path)
    assert loaded.docmap == vectors.docmap
    assert np.allclose(loaded.matrix, vectors.matrix, atol=1e-6)


def test_vectors_load_errors(tmp_path):
    path = tmp_path / "vectors.bin"
    vectors = unit_square_vectors()
    vectors.save(path)

    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    bad_magic = tmp_path / "m.bin"
    bad_magic.write_bytes(raw)
    vectors.docmap.save(docmap_path(bad_magic))
    with pytest.raises(ValueError, match="bad magic"):
        DenseVectors.load(bad_magic)

    truncated = tmp_path / "t.bin"
    truncated.write_bytes(path.read_bytes()[:-2])
    vectors.docmap.save(docmap_path(truncated))
    with pytest.raises(ValueError, match="truncated vector table"):
        DenseVectors.load(truncated)

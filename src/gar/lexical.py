"""Lexical and dense similarity: BM25 retrieval and exhaustive vector search.

Both routes serve double duty: ad-hoc retrieval for queries and doc-as-query
similarity for corpus graph construction.
"""

from __future__ import annotations

import itertools
import math
import re
from array import array
from collections import defaultdict
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .docmap import DocMap
from .graph import SENTINEL, CorpusGraph, _read_table, _write_table
from .ranking import Ranking

_TOKEN_RE = re.compile(r"[^\W_]+")
# _TOKEN_RE on ASCII text as one byte table: A-Z lowered, a-z and 0-9 kept,
# every other byte a space
_ASCII_TOKEN_BYTES = bytes(
    ord(ch.lower()) if ch.isascii() and ch.isalnum() else 32 for ch in map(chr, range(256))
)

VEC_MAGIC = b"GARV"

# bytes of float64 cosines per row block of a dense graph build
_DENSE_BLOCK_BYTES = 1 << 21
# bytes of float64 scores per row block of a BM25 graph build, and of the
# dense weight rows of the highest-df terms it scores by one product
_BM25_BLOCK_BYTES = 1 << 17
_BM25_HEAD_BYTES = 1 << 19


def tokenize(text: str) -> list[str]:
    """Lowercase and split on every non-alphanumeric codepoint.

    ASCII text takes the byte table, which gives the same tokens.
    """
    if text.isascii():
        return text.encode("ascii").translate(_ASCII_TOKEN_BYTES).decode("ascii").split()
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 0.9
    b: float = 0.4

    def __post_init__(self) -> None:
        if self.k1 < 0:
            raise ValueError(f"k1 must be non-negative, got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError(f"b must lie in [0, 1], got {self.b}")


class InvertedIndex:
    """Columnar BM25 index over a corpus; immutable once built.

    Terms are numbered in sorted string order. A term-major table holds,
    for each term, the internal ids of the docs containing it (ascending)
    and their term frequencies; a doc-major table holds each doc's term
    numbers (ascending). `postings[term]` and `doc_terms[doc]` are
    read-only views of these tables.

    The BM25 weight of every posting is computed once per `Bm25Params` and
    kept until another parameter set is asked for; the index keeps no other
    per-posting array.
    """

    __slots__ = (
        "docmap", "doc_lengths", "avg_doc_length", "postings", "doc_terms",
        "_vocab", "_term_ids", "_term_ptr", "_post_docs", "_post_tfs",
        "_doc_ptr", "_doc_cols", "_weights",
    )

    def __init__(
        self,
        docmap: DocMap,
        vocab: Sequence[str],
        doc_lengths: Sequence[int],
        doc_ptr: np.ndarray,
        doc_cols: np.ndarray,
        doc_tfs: np.ndarray,
    ):
        """Doc-major input: doc d's term numbers (ascending, indexing the
        sorted `vocab`) and frequencies lie at doc_ptr[d]:doc_ptr[d + 1]."""
        n_docs = len(docmap)
        self.docmap = docmap
        self.doc_lengths = tuple(doc_lengths)
        self.avg_doc_length = sum(self.doc_lengths) / n_docs
        self._vocab = tuple(vocab)
        self._term_ids = {term: col for col, term in enumerate(self._vocab)}
        self._doc_ptr = _frozen(doc_ptr, np.int64)
        self._doc_cols = _frozen(doc_cols, np.int32)
        # a stable sort by term keeps each term's docs in ascending order; on
        # 16-bit term numbers numpy's stable sort is a radix sort
        cols = self._doc_cols
        order = np.argsort(cols.astype(np.uint16) if len(self._vocab) <= 1 << 16 else cols, kind="stable")
        doc_of = np.repeat(np.arange(n_docs, dtype=np.int32), np.diff(self._doc_ptr))
        self._post_docs = _frozen(doc_of[order], np.int32)
        self._post_tfs = _frozen(np.asarray(doc_tfs)[order], np.int32)
        counts = np.bincount(self._doc_cols, minlength=len(self._vocab))
        self._term_ptr = _frozen(np.concatenate(([0], np.cumsum(counts))), np.int64)
        self._weights: tuple[Bm25Params, np.ndarray] | None = None
        # the views hold the tables, not the index, so the index is freed by
        # reference counting alone, without waiting for the cycle collector
        self.postings: Mapping[str, np.ndarray] = _Postings(self._term_ids, self._term_ptr, self._post_docs)
        self.doc_terms: Sequence[tuple[str, ...]] = _DocTerms(self._vocab, self._doc_ptr, self._doc_cols)

    @property
    def n_docs(self) -> int:
        return len(self.docmap)

    def term_frequency(self, term: str, doc: int) -> int:
        col = self._term_ids.get(term)
        if col is None:
            return 0
        lo, hi = self._term_ptr[col : col + 2].tolist()
        at = lo + int(np.searchsorted(self._post_docs[lo:hi], doc))
        return int(self._post_tfs[at]) if at < hi and self._post_docs[at] == doc else 0

    def document_frequency(self, term: str) -> int:
        col = self._term_ids.get(term)
        return 0 if col is None else int(self._term_ptr[col + 1] - self._term_ptr[col])

    def _columns(self, terms: Iterable[str]) -> np.ndarray:
        """Ascending term numbers of the distinct indexed terms among `terms`."""
        ids = self._term_ids
        return np.array(sorted({ids[t] for t in terms if t in ids}), dtype=np.int64)

    def _doc_columns(self, doc: int) -> np.ndarray:
        return self._doc_cols[self._doc_ptr[doc] : self._doc_ptr[doc + 1]]

    def _bm25_weights(self, params: Bm25Params) -> np.ndarray:
        """Saturated, idf-weighted BM25 value of every posting, term-major.

        Each value is formed with the same operations, in the same order, as
        the per-term BM25 summand, so sums over them are bitwise reproducible.
        """
        cached = self._weights
        if cached is not None and cached[0] == params:
            return cached[1]
        if len(self._post_docs) == 0:  # only empty docs: avg_doc_length is 0
            weights = np.zeros(0)
        else:
            n = self.n_docs
            dfs = np.diff(self._term_ptr)
            idf = np.array([math.log((n - df + 0.5) / (df + 0.5) + 1.0) for df in dfs.tolist()])
            lengths = np.asarray(self.doc_lengths, dtype=np.float64)
            norm = 1.0 - params.b + params.b * lengths / self.avg_doc_length
            tf = self._post_tfs.astype(np.float64)
            k1 = params.k1
            weights = np.repeat(idf, dfs) * tf * (k1 + 1.0) / (tf + k1 * norm[self._post_docs])
        weights.setflags(write=False)
        self._weights = (params, weights)
        return weights


def _frozen(values, dtype) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


class _Postings(Mapping[str, np.ndarray]):
    """term -> ascending internal ids of the docs containing it."""

    __slots__ = ("_term_ids", "_ptr", "_docs")

    def __init__(self, term_ids: dict[str, int], ptr: np.ndarray, docs: np.ndarray):
        self._term_ids = term_ids
        self._ptr = ptr
        self._docs = docs

    def __getitem__(self, term: str) -> np.ndarray:
        col = self._term_ids[term]
        return self._docs[self._ptr[col] : self._ptr[col + 1]]

    def __iter__(self) -> Iterator[str]:
        return iter(self._term_ids)

    def __len__(self) -> int:
        return len(self._term_ids)


class _DocTerms(Sequence[tuple[str, ...]]):
    """doc -> its distinct terms in sorted order."""

    __slots__ = ("_vocab", "_ptr", "_cols")

    def __init__(self, vocab: tuple[str, ...], ptr: np.ndarray, cols: np.ndarray):
        self._vocab = vocab
        self._ptr = ptr
        self._cols = cols

    def __getitem__(self, doc):
        doc = range(len(self))[doc]
        vocab = self._vocab
        return tuple(vocab[col] for col in self._cols[self._ptr[doc] : self._ptr[doc + 1]].tolist())

    def __len__(self) -> int:
        return len(self._ptr) - 1


def index_corpus(corpus: Iterable[tuple[str, str]]) -> InvertedIndex:
    """Build an inverted index from (docid, text) pairs."""
    docids: list[str] = []
    # terms are numbered by first sight here, then renumbered in sorted order
    first_seen: defaultdict[str, int] = defaultdict(itertools.count().__next__)
    number = first_seen.__getitem__
    tokens = array("i")
    ends: list[int] = []
    for docid, text in corpus:
        docids.append(docid)
        tokens.fromlist(list(map(number, tokenize(text))))
        ends.append(len(tokens))
    if not docids:
        raise ValueError("corpus is empty")
    docmap = DocMap(docids)
    vocab = sorted(first_seen)
    n_terms = len(vocab)
    renumber = np.empty(n_terms, dtype=np.int64)
    renumber[[first_seen[term] for term in vocab]] = np.arange(n_terms)
    lengths = np.diff(ends, prepend=0)
    # one key per (doc, term) pair, sorted doc-major; its count is the tf
    keys = renumber[np.frombuffer(tokens, dtype=np.int32)]
    # each temporary is dropped once used, so that none is alive while the
    # index sorts and copies its tables, which is the peak of the build
    del tokens
    keys += np.repeat(np.arange(len(docids)) * n_terms, lengths)
    keys, tfs = np.unique(keys, return_counts=True)
    # a corpus of empty docs has no terms and no keys to split
    docs, cols = np.divmod(keys, n_terms) if n_terms else (keys, keys)
    del keys
    doc_ptr = np.concatenate(([0], np.cumsum(np.bincount(docs, minlength=len(docids)))))
    del docs
    return InvertedIndex(docmap, vocab, lengths.tolist(), doc_ptr, cols, tfs)


def _posting_sums(
    index: InvertedIndex, params: Bm25Params, rows: np.ndarray, cols: np.ndarray, n_rows: int
) -> np.ndarray:
    """BM25 scores of `n_rows` queries against every doc, flat at
    row * n_docs + doc, where query rows[i] holds the term number cols[i].

    This is the one BM25 sum. bincount adds each score's weights one at a
    time in input order, so with each row's term numbers ascending, every
    score is bitwise the sequential sum of its summands in sorted term order.
    """
    lo = index._term_ptr[cols]
    lengths = index._term_ptr[cols + 1] - lo
    at = np.repeat(lo - (np.cumsum(lengths) - lengths), lengths)
    at += np.arange(len(at))
    keys = np.repeat(rows * index.n_docs, lengths)
    keys += index._post_docs[at]
    return np.bincount(keys, index._bm25_weights(params)[at], n_rows * index.n_docs)


def _top(scores: np.ndarray, count: int, floor: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Ids and scores of the `count` best docs scoring above `floor`, by
    (score desc, id asc).

    This is the one k-NN row rule: a provider excludes a doc by giving it a
    score at or below the floor. Scores must not be NaN.
    """
    if count <= 0:
        return np.empty(0, dtype=np.int64), np.empty(0)
    if count < len(scores):
        # keep every doc tied with the count-th best so the id tie-break is exact
        cut = np.partition(scores, len(scores) - count)[len(scores) - count]
        ids = np.flatnonzero(scores >= cut) if cut > floor else np.flatnonzero(scores > floor)
    else:
        ids = np.flatnonzero(scores > floor)
    values = scores[ids]
    order = np.lexsort((ids, -values))[:count]
    return ids[order], values[order]


def _top_pairs(scores: np.ndarray, count: int, floor: float = 0.0) -> list[tuple[int, float]]:
    """`_top` as (id, score) pairs."""
    ids, values = _top(scores, count, floor)
    return list(zip(ids.tolist(), values.tolist()))


def _certified_best(
    block: np.ndarray, start: int, width: int, floor: float, margin: float | np.ndarray, relative: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The `width` best ids and scores of each row of a block of scores, by
    (score desc, id asc), and whether each row is sure.

    Row i of `block` holds doc `start + i`'s scores against every doc; its
    own score is set to `floor` in place. A row is sure when every adjacent
    gap among its best exceeds `margin` (times the larger score, if
    `relative`) or falls to a score at or below `floor`: the rounding
    margin of a block of scores computed in another order than the per-row
    rule's, within which the row's ids and order are fixed under both.
    """
    n_docs = block.shape[1]
    rows = np.arange(len(block))[:, None]
    block[rows[:, 0], start + rows[:, 0]] = floor
    best = np.argpartition(block, n_docs - width, axis=1)[:, n_docs - width :]
    values = block[rows, best]
    order = np.lexsort((best, -values))
    best, values = best[rows, order], values[rows, order]
    gaps = values[:, :-1] - values[:, 1:]
    sure = ((gaps > (margin * values[:, :-1] if relative else margin)) | (values[:, 1:] <= floor)).all(axis=1)
    return best, values, sure


def bm25_scores(index: InvertedIndex, params: Bm25Params, query_terms: Iterable[str]) -> np.ndarray:
    """Okapi BM25 score of every doc, by internal id, against a set of query terms.

    Repeated query terms contribute once; each score adds the doc's term
    weights in sorted term order, as every BM25 route here does.
    """
    cols = index._columns(query_terms)
    return _posting_sums(index, params, np.zeros_like(cols), cols, 1)


def bm25_retrieve(
    index: InvertedIndex,
    params: Bm25Params,
    qid: str,
    query: str,
    top_n: int = 1000,
) -> Ranking:
    """Rank the `top_n` docs with positive query overlap; ties break by
    ascending internal id."""
    if top_n < 1:
        raise ValueError(f"top_n must be positive, got {top_n}")
    scores = bm25_scores(index, params, tokenize(query))
    ids, values = _top(scores, top_n)
    return Ranking(qid, tuple(index.docmap.names(ids)), values)


def bm25_doc_scores(index: InvertedIndex, params: Bm25Params, doc: int) -> np.ndarray:
    """Doc-as-query BM25 score of every doc, `doc` itself included.

    The query is the doc's distinct terms.
    """
    cols = index._doc_columns(doc)
    return _posting_sums(index, params, np.zeros_like(cols), cols, 1)


def bm25_doc_topk(
    index: InvertedIndex, params: Bm25Params, doc: int, k_plus: int
) -> list[tuple[int, float]]:
    """Top k_plus docs most similar to `doc` under doc-as-query BM25.

    The doc's unique terms form the query and the doc itself is excluded.
    """
    scores = bm25_doc_scores(index, params, doc)
    scores[doc] = 0.0
    return _top_pairs(scores, k_plus)


class Bm25BlockTopk:
    """`bm25_doc_topk` as a `SimilarityProvider` that scores a block of rows
    at a time, for `build_graph(index.docmap, Bm25BlockTopk(index, params), k)`.

    Asked for a doc outside the block it last scored, or for another count,
    it scores the block of rows that start at that doc, as many as
    _BM25_BLOCK_BYTES of float64 scores hold. A
    block's scores from the highest-df terms are one float64 product, its
    0/1 term indicators times the dense weight rows of those terms (at most
    _BM25_HEAD_BYTES of them, none at all if one row is larger); every other
    posting is added by one bincount. Each row's count + 1 best are taken at
    once. A block of one row, past 8,192 docs at the default sizes, does the
    per-row rule's work and more (on one CPU of a 2-vCPU VM it took about
    twice as long at 50,000 and 100,000 docs), so where a block would hold
    fewer than two rows the provider builds no head and serves every row
    with `bm25_doc_topk`.

    Any summation order of a score's m positive weights, the block's or the
    per-row rule's, lies within (m - 1) * u / (1 - (m - 1) * u) of the exact
    sum, relative to it, where u = 2**-53 and m is at most the number of the
    doc's distinct terms, L. A score of 0 has no weights and is exact on both
    routes. So a row is kept only when every adjacent gap among its positive
    best exceeds 8 * L * u times the larger score, which leaves a factor of
    two over what fixes the row's ids and order under both sums. Every other
    row, such as one whose best scores tie, is computed by `bm25_doc_topk`
    when asked for. The ids of every row are `bm25_doc_topk`'s; the scores of
    a kept row may differ from its scores in the last place.
    """

    __slots__ = ("_index", "_params", "_block_rows", "_head_of", "_head", "_block")

    def __init__(self, index: InvertedIndex, params: Bm25Params):
        self._index = index
        self._params = params
        n_docs = index.n_docs
        self._block_rows = _BM25_BLOCK_BYTES // (8 * n_docs)
        dfs = np.diff(index._term_ptr)
        # the highest-df terms, ties by term number; -1 marks every other term
        n_head = min(len(dfs), _BM25_HEAD_BYTES // (8 * n_docs)) if self._block_rows > 1 else 0
        head = np.argsort(-dfs, kind="stable")[:n_head]
        self._head_of = np.full(len(dfs), -1, dtype=np.int64)
        self._head_of[head] = np.arange(n_head)
        self._head = np.zeros((n_head, n_docs))
        weights, ptr = index._bm25_weights(params), index._term_ptr
        for row, col in zip(self._head, head.tolist()):  # a term at a time keeps the temporaries small
            row[index._post_docs[ptr[col] : ptr[col + 1]]] = weights[ptr[col] : ptr[col + 1]]
        # (first doc, end, count, kept ids and scores per row, or None)
        self._block: tuple[int, int, int, list] | None = None

    def __call__(self, doc: int, count: int) -> list[tuple[int, float]]:
        if not 0 <= doc < self._index.n_docs:
            raise IndexError(f"internal id out of range: {doc}")
        if count <= 0:
            return []
        if self._block_rows < 2:
            return bm25_doc_topk(self._index, self._params, doc, count)
        block = self._block
        if block is None or not block[0] <= doc < block[1] or block[2] != count:
            block = self._block = self._score_block(doc, count)
        row = block[3][doc - block[0]]
        return bm25_doc_topk(self._index, self._params, doc, count) if row is None else row

    def _score_block(self, start: int, count: int) -> tuple[int, int, int, list]:
        index = self._index
        n_docs = index.n_docs
        stop = min(n_docs, start + self._block_rows)
        n_rows = stop - start
        n_terms = np.diff(index._doc_ptr[start : stop + 1])
        cols = index._doc_cols[index._doc_ptr[start] : index._doc_ptr[stop]]
        rows = np.repeat(np.arange(n_rows), n_terms)
        head = self._head_of[cols]
        tail = head < 0
        indicators = np.zeros((n_rows, len(self._head)))
        indicators[rows[~tail], head[~tail]] = 1.0
        scores = indicators @ self._head
        scores += _posting_sums(index, self._params, rows[tail], cols[tail], n_rows).reshape(n_rows, n_docs)
        # each row's own doc scores 0, as in bm25_doc_topk; a row's margin is
        # 8 * L * u, relative to the larger of two scores, and a gap down to
        # a score of 0, exact on both routes, needs none
        margin = 8 * 2.0**-53 * n_terms[:, None]
        best, values, sure = _certified_best(scores, start, min(count + 1, n_docs), 0.0, margin, relative=True)
        kept = (values[:, :count] > 0).sum(axis=1)
        out = [
            list(zip(ids[:n], vals[:n])) if ok else None
            for ids, vals, n, ok in zip(best.tolist(), values.tolist(), kept.tolist(), sure.tolist())
        ]
        return start, stop, count, out


# --- dense vectors -------------------------------------------------------


class DenseVectors:
    """Row-major float32 embedding matrix, L2-normalized at construction."""

    __slots__ = ("_matrix", "_docmap")

    def __init__(self, matrix: np.ndarray, docmap: DocMap):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError(f"vector matrix must be 2-dimensional, got shape {matrix.shape}")
        if matrix.shape[0] != len(docmap):
            raise ValueError(
                f"matrix has {matrix.shape[0]} rows but docmap has {len(docmap)} docs"
            )
        if matrix.shape[1] == 0:
            raise ValueError("vector dimension must be positive")
        with np.errstate(over="ignore"):  # an overflowing norm is reported below
            norms = np.linalg.norm(matrix, axis=1)
        # a NaN or inf entry, or a norm past the float64 range, has no direction
        if not np.isfinite(norms).all():
            row = int(np.argwhere(~np.isfinite(norms))[0][0])
            raise ValueError(f"row {row} ({docmap.external(row)!r}) is not finite or its norm overflows")
        if (norms == 0).any():
            row = int(np.argwhere(norms == 0)[0][0])
            raise ValueError(f"row {row} ({docmap.external(row)!r}) is a zero vector")
        normalized = (matrix / norms[:, None]).astype(np.float32)
        normalized.setflags(write=False)
        self._matrix = normalized
        self._docmap = docmap

    @property
    def n_docs(self) -> int:
        return self._matrix.shape[0]

    @property
    def dim(self) -> int:
        return self._matrix.shape[1]

    @property
    def docmap(self) -> DocMap:
        return self._docmap

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    def row(self, doc: int) -> np.ndarray:
        return self._matrix[doc]

    def similarities(self, doc: int) -> np.ndarray:
        """Cosine similarity of every row against row `doc`, clipped to [-1, 1]."""
        return _cosines(self._matrix.astype(np.float64), doc)

    def similarity(self, a: int, b: int) -> float:
        """Cosine similarity of rows `a` and `b` in float64, clipped to [-1, 1]."""
        dot = self._matrix[a].astype(np.float64) @ self._matrix[b].astype(np.float64)
        return float(np.clip(dot, -1.0, 1.0))

    # --- binary format: 16-byte header then n_docs*dim little-endian float32 ---

    def save(self, path: str | Path) -> None:
        _write_table(Path(path), VEC_MAGIC, "<f4", self._matrix, self._docmap)

    @classmethod
    def load(cls, path: str | Path) -> "DenseVectors":
        return cls(*_read_table(Path(path), VEC_MAGIC, "<f4", "vector"))


def _cosines(m64: np.ndarray, doc: int) -> np.ndarray:
    """The one per-row cosine rule: row `doc` of the float64 rows `m64` against
    every row, clipped to [-1, 1]."""
    return np.clip(m64 @ m64[doc], -1.0, 1.0)


def _dense_row(m64: np.ndarray, doc: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Ids and cosines of the `count` rows of `m64` nearest row `doc`, by
    (cosine desc, id asc), excluding `doc` itself."""
    sims = _cosines(m64, doc)
    # cosines lie in [-1, 1], so only the doc itself is at the -inf floor
    sims[doc] = -np.inf
    return _top(sims, count, floor=-np.inf)


def dense_topk(vectors: DenseVectors, doc: int, k_plus: int) -> list[tuple[int, float]]:
    """Top k_plus docs by cosine similarity to `doc`, excluding `doc` itself.

    Exhaustive over all rows; ties break by ascending internal id.
    """
    if not 0 <= doc < vectors.n_docs:
        raise IndexError(f"internal id out of range: {doc}")
    ids, values = _dense_row(vectors.matrix.astype(np.float64), doc, k_plus)
    return list(zip(ids.tolist(), values.tolist()))


def build_dense_graph(vectors: DenseVectors, k: int) -> CorpusGraph:
    """The k-NN graph whose rows are `dense_topk(vectors, doc, k)`'s ids.

    Cosines are computed a block of rows at a time, one matrix product per
    block of at most _DENSE_BLOCK_BYTES of cosines (or one row, if a row
    alone is larger), and each row's k + 1 best are taken at once. A block
    product may round a cosine differently from the per-row product, so a
    row is kept only when every adjacent gap among those k + 1 (or among all
    the other docs, if fewer) exceeds the rounding margin, which fixes the
    row's ids and order under both products. Every other row is recomputed
    with the per-row rule.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    n_docs = vectors.n_docs
    m64 = vectors.matrix.astype(np.float64)
    # A product of two float32 entries is exact in float64, so a cosine is
    # rounded only while its dim products are summed. In any summation order,
    # a BLAS kernel's included, the sum lies within
    # (dim - 1) * u / (1 - (dim - 1) * u) * sum|a_i * b_i| of the exact dot
    # product, where u = 2**-53, and sum|a_i * b_i| <= |a| * |b|
    # <= (1 + 2**-23)**2 for float32-rounded unit rows. So the block cosine
    # and the per-row cosine each lie within e < dim * u of the exact value,
    # and clipping to [-1, 1] moves no two values further apart. Block cosines
    # more than 4e apart thus keep their order, strictly, in the per-row
    # products; this margin leaves a factor of two over that.
    margin = 8 * vectors.dim * 2.0**-53
    edges = np.full((n_docs, k), SENTINEL, dtype=np.uint32)
    # the k best other docs and the one after the cut, or every other doc; a
    # lone doc has none, and no block is computed
    width = min(k + 1, n_docs - 1)
    block_rows = max(1, _DENSE_BLOCK_BYTES // (8 * n_docs))
    for start in range(0, n_docs if width else 0, block_rows):
        block = m64[start : start + block_rows] @ m64.T
        np.clip(block, -1.0, 1.0, out=block)
        # cosines lie in [-1, 1], so only the doc itself is at the -inf floor
        best, _, sure = _certified_best(block, start, width, -np.inf, margin)
        edges[start : start + len(block)][sure, : min(k, width)] = best[sure, :k]
        for doc in (start + np.flatnonzero(~sure)).tolist():
            ids, _ = _dense_row(m64, doc, k)
            edges[doc, : len(ids)] = ids
    return CorpusGraph(edges, vectors.docmap)

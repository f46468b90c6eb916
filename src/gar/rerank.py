"""Budgeted re-ranking, with optional adaptive expansion over a corpus graph.

The adaptive mode alternates scoring batches between the initial pool and a
frontier of graph neighbours of already-scored docs, so relevant docs missed
by the first stage can still reach the scorer within the same budget.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import math
import struct
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Protocol, Sequence

import numpy as np

from .formats import read_score_table, write_score_table
from .graph import CorpusGraph
from .lexical import Bm25Params, InvertedIndex, bm25_scores, tokenize
from .ranking import Ranking

# Backfill scores step down by this much per doc; large enough to survive
# the 6-decimal score field of run files. Where the scores are too large for
# the step to register, backfill steps down one float spacing instead.
BACKFILL_EPSILON = 1e-6

Qrels = Mapping[str, Mapping[str, int]]


class Scorer(Protocol):
    """Batch scoring interface for neural or surrogate rankers."""

    def score_batch(self, qid: str, query: str, docids: Sequence[str]) -> Sequence[float]:
        """Scores for `docids`, in the same order."""
        ...


@dataclass(frozen=True)
class ReRankConfig:
    """Budgeted scoring parameters: batch size and total scoring budget."""

    batch_size: int = 16
    budget: int = 1000

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.budget < 1:
            raise ValueError(f"budget must be positive, got {self.budget}")


# --- scorers --------------------------------------------------------------


class ScoreCache:
    """(qid, docid) -> score table, persisted as a qid<TAB>docid<TAB>score
    file; as a `Scorer` it serves the table, and a missing pair raises `KeyError`."""

    __slots__ = ("_scores",)

    def __init__(self, scores: Mapping[tuple[str, str], float]):
        self._scores = {key: float(value) for key, value in scores.items()}

    def __len__(self) -> int:
        return len(self._scores)

    def __contains__(self, key: tuple[str, str]) -> bool:
        return key in self._scores

    def lookup(self, qid: str, docid: str) -> float:
        try:
            return self._scores[(qid, docid)]
        except KeyError:
            raise KeyError(f"no cached score for query {qid!r} doc {docid!r}") from None

    def score_batch(self, qid: str, query: str, docids: Sequence[str]) -> list[float]:
        return [self.lookup(qid, docid) for docid in docids]

    def save(self, path: str | Path) -> None:
        """Write the table as `write_score_table` does."""
        write_score_table(path, self._scores)

    @classmethod
    def load(cls, path: str | Path) -> "ScoreCache":
        return cls(read_score_table(path))


class OracleScorer:
    """Scores docs by relevance label, plus optional seeded Gaussian noise.

    Noise is a pure function of (seed, qid, docid), so scores do not depend
    on batch composition, call order, or the process running them. The key
    is seed, qid and docid joined by U+001F and encoded as UTF-8. Its 16-byte
    blake2b digest is read as two big-endian 64-bit words x and y, which give
    the uniforms u1 = ((x >> 11) + 1) * 2**-53 in (0, 1] and
    u2 = (y >> 11) * 2**-53 in [0, 1), and the noise is the Box-Muller normal
    noise_sd * sqrt(-2 ln u1) * cos(2 pi u2).
    """

    __slots__ = ("_qrels", "_noise_sd", "_seed")

    def __init__(self, qrels: Qrels, noise_sd: float = 0.0, seed: int | None = None):
        if not math.isfinite(noise_sd):
            raise ValueError(f"noise_sd must be finite, got {noise_sd}")
        if noise_sd < 0:
            raise ValueError(f"noise_sd must be non-negative, got {noise_sd}")
        if noise_sd > 0 and seed is None:
            raise ValueError("a seed is required when noise_sd > 0")
        self._qrels = qrels
        self._noise_sd = float(noise_sd)
        self._seed = 0 if seed is None else int(seed)

    def score_batch(self, qid: str, query: str, docids: Sequence[str]) -> list[float]:
        labels = self._qrels.get(qid, {})
        scores = [float(labels.get(docid, 0)) for docid in docids]
        if self._noise_sd > 0.0:
            scores = [score + noise for score, noise in zip(scores, self._noise(qid, docids))]
        return scores

    def _noise(self, qid: str, docids: Sequence[str]) -> list[float]:
        # the key prefix is hashed once per batch; a copy of that state
        # updated with the docid gives the digest of the whole key
        prefix = hashlib.blake2b(f"{self._seed}\x1f{qid}\x1f".encode("utf-8"), digest_size=16)
        sd = self._noise_sd
        noise = []
        for docid in docids:
            key = prefix.copy()
            key.update(docid.encode("utf-8"))
            x, y = struct.unpack(">QQ", key.digest())
            u1 = ((x >> 11) + 1) * 2**-53
            u2 = (y >> 11) * 2**-53
            noise.append(sd * math.sqrt(-2.0 * math.log(u1)) * math.cos(2 * math.pi * u2))
        return noise


class Bm25Scorer:
    """Scores docs against the query text with the native BM25 index.

    It keeps every doc's score for the last query text it scored, so the
    batches of one query, asked for back to back, cost one pass over the
    postings of its terms.
    """

    __slots__ = ("_index", "_params", "_query", "_scores")

    def __init__(self, index: InvertedIndex, params: Bm25Params = Bm25Params()):
        self._index = index
        self._params = params
        self._query: str | None = None
        self._scores = np.zeros(0)

    def score_batch(self, qid: str, query: str, docids: Sequence[str]) -> list[float]:
        docmap = self._index.docmap
        docs = docmap.lookup(docids)
        if None in docs:
            docmap.internal(docids[docs.index(None)])  # raises the KeyError naming it
        if query != self._query:
            self._scores = bm25_scores(self._index, self._params, tokenize(query))
            self._query = query
        return self._scores[docs].tolist()


class RecordingScorer:
    """Wraps a scorer and records every (qid, docid) -> score it produces."""

    __slots__ = ("_inner", "records")

    def __init__(self, inner: Scorer):
        self._inner = inner
        self.records: dict[tuple[str, str], float] = {}

    def score_batch(self, qid: str, query: str, docids: Sequence[str]) -> list[float]:
        scores = [float(s) for s in self._inner.score_batch(qid, query, docids)]
        for docid, score in zip(docids, scores):
            self.records[(qid, docid)] = score
        return scores


# --- re-ranking -----------------------------------------------------------


def backfill(base: float, n: int) -> np.ndarray:
    """Scores for `n` unscored pool docs, appended below a scored block
    whose lowest score is `base`.

    The scores step down from base so the remainder keeps its pool order
    under a plain sort by score. Each step is BACKFILL_EPSILON, or one float
    spacing where that is larger, so the scores stay strictly decreasing at
    any magnitude.
    """
    scores = base - np.arange(1, n + 1) * BACKFILL_EPSILON
    if n == 0 or (scores[0] < base and (np.diff(scores) < 0).all()):
        return scores
    # some step rounded away: the loop, which the fast path equals wherever it is taken
    steps = []
    previous = base
    for i in range(n):
        score = base - (i + 1) * BACKFILL_EPSILON
        if score >= previous:
            score = math.nextafter(previous, -math.inf)
        steps.append(score)
        previous = score
    return np.array(steps)


# Each thread keeps one frontier numbering array between queries; see _numbering_array.
_numbering = threading.local()


def _numbering_array(n_docs: int, n_slots: int) -> np.ndarray:
    """The thread's array of first-insertion numbers for a graph of n_docs
    docs and n_slots edge slots: at least n_docs + 1 entries, every one at the
    dtype's maximum (unseen).

    It is taken from the thread's cache, which holds it only between queries:
    a query that ends without resetting it (an exception) leaves the cache
    empty, so the next query gets a fresh array, never a stale number.
    """
    dtype = np.dtype(np.int32 if n_slots < np.iinfo(np.int32).max else np.int64)
    array = getattr(_numbering, "array", None)
    _numbering.array = None
    if array is None or len(array) <= n_docs or array.dtype != dtype:
        array = np.full(n_docs + 1, np.iinfo(dtype).max, dtype)
    return array


def _rerank(
    r0: Ranking,
    scorer: Scorer,
    config: ReRankConfig,
    graph: CorpusGraph | None,
    query_text: str,
) -> Ranking:
    if len(r0) == 0:
        raise ValueError(f"empty initial ranking for query {r0.qid!r}")
    qid = r0.qid
    order = r0.docids()
    # Docs are keyed by integer id: a graph doc by its internal id, and a
    # pool doc outside the graph by n_docs plus its pool position; such a doc
    # is scored but never expands. A graph without edges can never populate
    # the frontier, so it is not consulted at all and the loop runs exactly
    # as plain re-ranking. Each batch is named once: a pool batch from the
    # pool, a frontier batch by one docmap call.
    expand = graph is not None and graph.n_edges > 0
    lookup = graph.docmap.lookup if expand else lambda chunk: itertools.repeat(None)
    n_docs = graph.n_docs if expand else 0

    scored: set[int] = set()
    via: dict[int, str] = {}  # frontier doc -> the docid of the scored doc that surfaced it
    # Frontier: a heap of sources, one entry per scored graph doc with a
    # neighbour, keyed by (-score, seq, arrival); arrival is the source's
    # place in scoring order. `first` numbers each doc where it first appears
    # in a scored doc's row, expansion index * k + column, which orders
    # frontier docs by first insertion; each scored batch is numbered in one
    # step. A source enters without its row and with the smallest number in
    # that row as seq. Its row is read only when it first reaches the top:
    # then its unscored neighbours are sorted by number, and from then on seq
    # is the number of the next one. Seq is never above the number of the
    # source's next unscored neighbour, so taking the top source's next
    # neighbour pops docs by priority (the highest score among a doc's
    # sources) descending, then first insertion, from the earliest-scored
    # source of that priority: a strictly higher rediscovery takes over the
    # score and the source, and the doc keeps its place. A neighbour drawn
    # meanwhile through another source or the pool is skipped when reached.
    heap: list[tuple[float, int, int, list[tuple[int, int]] | None]] = []
    if expand:
        edges = graph.edges
        first = _numbering_array(n_docs, edges.size)
        unseen = int(np.iinfo(first.dtype).max)
        spare = len(first) - 1  # the slot every sentinel is clipped to; stays unseen
        numbered = 0
        touched: list[np.ndarray] = []
    cursor = 0
    # every scored doc, its docid and its score, in scoring order
    docs: list[int] = []
    docids: list[str] = []
    scores: list[float] = []

    def draw_initial(want: int) -> tuple[list[int], list[str]]:
        # the pool is mapped a chunk at a time, never past the doc that fills the batch
        nonlocal cursor
        batch: list[int] = []
        names: list[str] = []
        while len(batch) < want and cursor < len(order):
            chunk = order[cursor : cursor + want - len(batch)]
            for pos, docid, doc in zip(itertools.count(cursor), chunk, lookup(chunk)):
                if doc is None:
                    doc = n_docs + pos
                if doc not in scored:
                    batch.append(doc)
                    names.append(docid)
            cursor += len(chunk)
        return batch, names

    def draw_frontier(want: int) -> tuple[list[int], list[str]]:
        batch: list[int] = []
        while heap and len(batch) < want:
            negscore, seq, arrived, row = heap[0]
            if row is None:
                # (number, doc) pairs, the next one last; sentinels read as unseen
                ids = edges[docs[arrived]]
                pairs = zip(first.take(ids, mode="clip").tolist(), ids.tolist())
                row = sorted([pair for pair in pairs if pair[0] != unseen and pair[1] not in scored], reverse=True)
            else:
                doc = row.pop()[1]
                if doc not in scored and doc not in via:
                    batch.append(doc)
                    via[doc] = docids[arrived]
            if row:
                heapq.heapreplace(heap, (negscore, row[-1][0], arrived, row))
            else:
                heapq.heappop(heap)
        return batch, graph.docmap.names(batch) if batch else []

    pool_is_initial = True
    while len(scored) < config.budget:
        want = min(config.batch_size, config.budget - len(scored))
        draws = (draw_initial, draw_frontier) if pool_is_initial else (draw_frontier, draw_initial)
        batch, names = draws[0](want)
        if not batch:
            batch, names = draws[1](want)
        if not batch:
            break
        try:
            got = scorer.score_batch(qid, query_text, names)
        except Exception as exc:
            raise RuntimeError(f"scorer failed on query {qid!r} batch {names}") from exc
        if len(got) != len(batch):
            raise ValueError(
                f"scorer returned {len(got)} scores for a batch of {len(batch)} (query {qid!r})"
            )
        got = [float(score) for score in got]
        # a non-finite score makes the sum non-finite; a finite sum may still overflow
        if not math.isfinite(sum(got)):
            for docid, score in zip(names, got):
                if not math.isfinite(score):
                    raise ValueError(f"scorer returned non-finite score {score!r} for query {qid!r} doc {docid!r}")
        scored.update(batch)
        arrived = len(docs)
        docs += batch
        docids += names
        scores += got
        if expand:
            # number the batch's rows in one step: a doc keeps its smallest position
            expanding = [i for i, doc in enumerate(batch) if doc < n_docs]
            rows = edges.take([batch[i] for i in expanding], axis=0).ravel()
            slots = np.minimum(rows, spare, dtype=np.intp)
            np.minimum.at(first, slots, np.arange(numbered, numbered + slots.size, dtype=first.dtype))
            first[spare] = unseen
            numbered += slots.size
            touched.append(slots)
            seqs = np.minimum.reduce(first.take(slots).reshape(-1, graph.k), axis=1).tolist()
            for i, seq in zip(expanding, seqs):
                if seq != unseen:
                    heapq.heappush(heap, (-got[i], seq, arrived + i, None))
        pool_is_initial = not pool_is_initial
    if expand:
        # the array goes back to the thread only once it is clean again
        for slots in touched:
            first[slots] = unseen
        _numbering.array = first

    # the scored block by score descending; each run of equal scores (0.0 and
    # -0.0 among them) by docid, every doc keeping its own score
    values = np.array(scores)
    rank = np.argsort(np.negative(values), kind="stable")
    ordered = values[rank]
    flips = np.flatnonzero(np.diff(np.concatenate(([False], ordered[1:] == ordered[:-1], [False]))))
    rank = rank.tolist()
    for lo, hi in zip(flips[::2].tolist(), flips[1::2].tolist()):
        rank[lo : hi + 1] = sorted(rank[lo : hi + 1], key=docids.__getitem__)
    block_scores = values[rank]
    block_ids = tuple(map(docids.__getitem__, rank))
    block_docs = tuple(map(docs.__getitem__, rank))
    remainder = tuple(itertools.filterfalse(set(block_ids).__contains__, order[cursor:]))
    n = len(remainder)
    filled = backfill(float(block_scores[-1]), n)
    if n and not math.isfinite(filled[-1]):
        raise ValueError(f"no room for {n} finite backfill scores below score {block_scores[-1]} of query {qid!r}")
    return Ranking(
        qid,
        block_ids + remainder,
        np.concatenate((block_scores, filled)),
        sources=tuple(map(via.get, block_docs)) + (None,) * n,
    )


def typical_rerank(
    r0: Ranking,
    scorer: Scorer,
    config: ReRankConfig = ReRankConfig(),
    query_text: str = "",
) -> Ranking:
    """Score the top min(budget, |r0|) docs of the pool and backfill the rest."""
    return _rerank(r0, scorer, config, None, query_text)


def gar_rerank(
    r0: Ranking,
    scorer: Scorer,
    graph: CorpusGraph,
    config: ReRankConfig = ReRankConfig(),
    query_text: str = "",
) -> Ranking:
    """Graph-adaptive re-ranking.

    Batches alternate between the initial pool (in pool order) and a
    frontier holding graph neighbours of scored docs, prioritised by the
    score of the doc that discovered them. Scoring stops at the budget;
    unscored pool docs are backfilled below every scored doc. The output
    may contain docs absent from r0 and may be longer than r0.
    """
    return _rerank(r0, scorer, config, graph, query_text)


def rerank_run(
    pools: Mapping[str, Ranking],
    scorer: Scorer,
    config: ReRankConfig = ReRankConfig(),
    graph: CorpusGraph | None = None,
    query_texts: Mapping[str, str] | None = None,
) -> dict[str, Ranking]:
    """Re-rank every query's initial pool; graph-adaptive when a graph is given."""
    out: dict[str, Ranking] = {}
    for qid in sorted(pools):
        text = query_texts.get(qid, "") if query_texts else ""
        out[qid] = _rerank(pools[qid], scorer, config, graph, text)
    return out

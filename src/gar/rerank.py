"""Budgeted re-ranking, with optional adaptive expansion over a corpus graph.

The adaptive mode alternates scoring batches between the initial pool and a
frontier of graph neighbours of already-scored docs, so relevant docs missed
by the first stage can still reach the scorer within the same budget.
"""

from __future__ import annotations

import collections
import hashlib
import heapq
import itertools
import math
import operator
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Protocol, Sequence

import numpy as np

from .formats import read_score_table, write_score_table
from .graph import SENTINEL, CorpusGraph
from .lexical import Bm25Params, InvertedIndex, bm25_scores, tokenize
from .ranking import Ranking

# Backfill scores step down by this much per doc; large enough to survive
# the 6-decimal score field of run files. Where the scores are too large for
# the step to register, backfill steps down one float spacing instead.
BACKFILL_EPSILON = 1e-6

Qrels = Mapping[str, Mapping[str, int]]

# OracleScorer noise: a 16-byte digest as two big-endian words, 53 bits each
_TWO_U64 = struct.Struct(">QQ")
_2_POW_MINUS_53 = 2.0**-53
_TWO_PI = 2.0 * math.pi


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
        out = []
        for docid in docids:
            key = prefix.copy()
            key.update(docid.encode("utf-8"))
            x, y = _TWO_U64.unpack(key.digest())
            u1 = ((x >> 11) + 1) * _2_POW_MINUS_53
            u2 = (y >> 11) * _2_POW_MINUS_53
            out.append(self._noise_sd * math.sqrt(-2.0 * math.log(u1)) * math.cos(_TWO_PI * u2))
        return out


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
    # Frontier: a heap of sources, one entry per scored graph doc, keyed by
    # (-score, seq, arrival) and holding the doc's docid and neighbour row.
    # `first` numbers each doc where it first appears in a scored doc's row,
    # which orders frontier docs by first insertion, and `arrival` numbers
    # sources in scoring order. A source enters with seq -1 and its row as
    # stored; the first time it reaches the top, its unscored neighbours are
    # sorted by first insertion, and from then on seq is the number of the
    # next one. Taking the top source's next neighbour pops docs by priority
    # (the highest score among a doc's sources) descending, then first
    # insertion, from the earliest-scored source of that priority: a strictly
    # higher rediscovery takes over the score and the source, and the doc
    # keeps its place. A neighbour drawn meanwhile through another source or
    # the pool is skipped when reached, so seq may lag, never lead.
    heap: list[tuple[float, int, int, str, list[int]]] = []
    first: dict[int, int] = {}
    numbers = itertools.count()
    arrival = itertools.count()
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
            negscore, next_seq, arrived, source, row = heap[0]
            if next_seq < 0:
                row = sorted(itertools.filterfalse(scored.__contains__, row), key=first.__getitem__, reverse=True)
            else:
                doc = row.pop()
                if doc not in scored and doc not in via:
                    batch.append(doc)
                    via[doc] = source
            if row:
                heapq.heapreplace(heap, (negscore, first[row[-1]], arrived, source, row))
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
        docs += batch
        docids += names
        scores += got
        if expand:
            expanding = [(doc, docid, score) for doc, docid, score in zip(batch, names, got) if doc < n_docs]
            rows = graph.edges.take([doc for doc, _, _ in expanding], axis=0).tolist()
            # number every neighbour not seen before, in one pass at C level
            collections.deque(map(first.setdefault, itertools.chain.from_iterable(rows), numbers), 0)
            for (doc, docid, score), row in zip(expanding, rows):
                if row[-1] == SENTINEL:
                    row = row[: row.index(SENTINEL)]
                if row:
                    heapq.heappush(heap, (-score, -1, next(arrival), docid, row))
        pool_is_initial = not pool_is_initial

    # the scored block by (score desc, docid asc), then the backfilled rest of the pool
    negscores, block_ids, block_docs = zip(*sorted(zip(map(operator.neg, scores), docids, docs)))
    remainder = tuple(itertools.filterfalse(set(block_ids).__contains__, order[cursor:]))
    n = len(remainder)
    return Ranking(
        qid,
        block_ids + remainder,
        np.concatenate((np.negative(negscores), backfill(-negscores[-1], n))),
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

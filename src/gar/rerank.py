"""Budgeted re-ranking, with optional adaptive expansion over a corpus graph.

The adaptive mode alternates scoring batches between the initial pool and a
frontier of graph neighbours of already-scored docs, so relevant docs missed
by the first stage can still reach the scorer within the same budget.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Protocol, Sequence

import numpy as np

from .graph import CorpusGraph
from .lexical import Bm25Params, InvertedIndex, bm25_scores, tokenize
from .ranking import PROV_FRONTIER, PROV_INITIAL, RankEntry, Ranking

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
    """(qid, docid) -> score table, persisted as a qid<TAB>docid<TAB>score file."""

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

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for (qid, docid) in sorted(self._scores):
                fh.write(f"{qid}\t{docid}\t{self._scores[(qid, docid)]!r}\n")

    @classmethod
    def load(cls, path: str | Path) -> "ScoreCache":
        scores: dict[tuple[str, str], float] = {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 3:
                    raise ValueError(f"{path}: line {lineno}: expected qid<TAB>docid<TAB>score")
                qid, docid, raw = parts
                try:
                    score = float(raw)
                except ValueError:
                    raise ValueError(f"{path}: line {lineno}: bad score {raw!r}") from None
                if not math.isfinite(score):
                    raise ValueError(
                        f"{path}: line {lineno}: non-finite score {raw!r} for query {qid!r} doc {docid!r}"
                    )
                key = (qid, docid)
                if key in scores and scores[key] != score:
                    raise ValueError(
                        f"{path}: line {lineno}: conflicting scores for query {qid!r} doc {docid!r}"
                    )
                scores[key] = score
        return cls(scores)


class CachedScorer:
    """Serves precomputed scores; a missing pair raises unless a default is set."""

    __slots__ = ("_cache", "_default")

    def __init__(self, cache: ScoreCache, default: float | None = None):
        self._cache = cache
        self._default = default

    def score_batch(self, qid: str, query: str, docids: Sequence[str]) -> list[float]:
        out = []
        for docid in docids:
            try:
                out.append(self._cache.lookup(qid, docid))
            except KeyError:
                if self._default is None:
                    raise
                out.append(self._default)
        return out


class OracleScorer:
    """Scores docs by relevance label, plus optional seeded Gaussian noise.

    Noise is a pure function of (seed, qid, docid), so scores do not depend
    on batch composition, call order, or the process running them.
    """

    __slots__ = ("_qrels", "_noise_sd", "_seed")

    def __init__(self, qrels: Qrels, noise_sd: float = 0.0, seed: int | None = None):
        if noise_sd < 0:
            raise ValueError(f"noise_sd must be non-negative, got {noise_sd}")
        if noise_sd > 0 and seed is None:
            raise ValueError("a seed is required when noise_sd > 0")
        self._qrels = qrels
        self._noise_sd = float(noise_sd)
        self._seed = 0 if seed is None else int(seed)

    def score_batch(self, qid: str, query: str, docids: Sequence[str]) -> list[float]:
        labels = self._qrels.get(qid, {})
        out = []
        for docid in docids:
            score = float(labels.get(docid, 0))
            if self._noise_sd > 0.0:
                score += self._noise(qid, docid)
            out.append(score)
        return out

    def _noise(self, qid: str, docid: str) -> float:
        key = f"{self._seed}\x1f{qid}\x1f{docid}".encode("utf-8")
        digest = hashlib.blake2b(key, digest_size=8).digest()
        rng = np.random.default_rng(int.from_bytes(digest, "big"))
        return float(rng.normal(0.0, self._noise_sd))


class Bm25Scorer:
    """Scores docs against the query text with the native BM25 index."""

    __slots__ = ("_index", "_params")

    def __init__(self, index: InvertedIndex, params: Bm25Params = Bm25Params()):
        self._index = index
        self._params = params

    def score_batch(self, qid: str, query: str, docids: Sequence[str]) -> list[float]:
        docs = [self._index.docmap.internal(docid) for docid in docids]
        return bm25_scores(self._index, self._params, tokenize(query), docs).tolist()


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

    def to_cache(self) -> ScoreCache:
        return ScoreCache(self.records)


# --- re-ranking -----------------------------------------------------------


def backfill(remainder: Sequence[str], scored: Iterable[RankEntry]) -> list[RankEntry]:
    """Entries for unscored pool docs, appended below every scored doc.

    Synthetic scores step down from the minimum scored value so the
    remainder keeps its original order under a plain sort by score. Each
    step is BACKFILL_EPSILON, or one float spacing where that is larger, so
    the scores stay strictly decreasing at any magnitude.
    """
    base = min((entry.score for entry in scored), default=0.0)
    entries = []
    previous = base
    for i, docid in enumerate(remainder):
        score = base - (i + 1) * BACKFILL_EPSILON
        if score >= previous:
            score = math.nextafter(previous, -math.inf)
        entries.append(RankEntry(docid, score))
        previous = score
    return entries


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
    # pool doc outside the graph by an id past n_docs, assigned when the
    # cursor draws it; such a doc is scored but never expands. A graph
    # without edges can never populate the frontier, so it is not consulted
    # at all and the loop runs exactly as plain re-ranking.
    expand = graph is not None and graph.n_edges > 0
    lookup = graph.docmap.get if expand else {}.get
    ids = graph.docmap.ids if expand else ()
    n_docs = len(ids)
    outside: list[str] = []

    scored: dict[int, float] = {}
    via: dict[int, int] = {}  # frontier doc -> the scored doc that surfaced it
    # Frontier: doc -> (priority, seq, source) plus a heap of (-priority, seq,
    # doc). Pop order is priority descending, then first insertion. A re-push
    # keeps the higher priority; a strictly higher one also takes over the
    # source, and seq stays that of the first insertion. A doc leaves the
    # frontier only to be scored and is never pushed again, so a heap tuple
    # whose doc has no entry is stale.
    frontier: dict[int, tuple[float, int, int]] = {}
    heap: list[tuple[float, int, int]] = []
    seq = 0
    cursor = 0

    def docid_of(doc: int) -> str:
        return ids[doc] if doc < n_docs else outside[doc - n_docs]

    def draw_initial(want: int) -> list[int]:
        nonlocal cursor
        batch: list[int] = []
        while cursor < len(order) and len(batch) < want:
            docid = order[cursor]
            cursor += 1
            doc = lookup(docid)
            if doc is None:
                doc = n_docs + len(outside)
                outside.append(docid)
            if doc not in scored:
                frontier.pop(doc, None)
                batch.append(doc)
        return batch

    def draw_frontier(want: int) -> list[int]:
        batch: list[int] = []
        while frontier and len(batch) < want:
            doc = heapq.heappop(heap)[2]
            entry = frontier.pop(doc, None)
            if entry is not None:
                batch.append(doc)
                via[doc] = entry[2]
        return batch

    pool_is_initial = True
    while len(scored) < config.budget:
        want = min(config.batch_size, config.budget - len(scored))
        if pool_is_initial:
            batch = draw_initial(want) or draw_frontier(want)
        else:
            batch = draw_frontier(want) or draw_initial(want)
        if not batch:
            break
        names = [docid_of(doc) for doc in batch]
        try:
            scores = scorer.score_batch(qid, query_text, names)
        except Exception as exc:
            raise RuntimeError(f"scorer failed on query {qid!r} batch {names}") from exc
        if len(scores) != len(batch):
            raise ValueError(
                f"scorer returned {len(scores)} scores for a batch of {len(batch)} (query {qid!r})"
            )
        scores = [float(score) for score in scores]
        for doc, docid, score in zip(batch, names, scores):
            if not math.isfinite(score):
                raise ValueError(f"scorer returned non-finite score {score!r} for query {qid!r} doc {docid!r}")
            scored[doc] = score
        if expand:
            for doc, priority in zip(batch, scores):
                if doc >= n_docs:
                    continue
                for nb in graph.neighbours(doc):
                    if nb in scored:
                        continue
                    entry = frontier.get(nb)
                    if entry is None:
                        frontier[nb] = (priority, seq, doc)
                        heapq.heappush(heap, (-priority, seq, nb))
                        seq += 1
                    elif priority > entry[0]:
                        frontier[nb] = (priority, entry[1], doc)
                        heapq.heappush(heap, (-priority, entry[1], nb))
        pool_is_initial = not pool_is_initial

    entries = []
    for negscore, docid, doc in sorted((-score, docid_of(doc), doc) for doc, score in scored.items()):
        if doc in via:
            entries.append(RankEntry(docid, -negscore, PROV_FRONTIER, ids[via[doc]]))
        else:
            entries.append(RankEntry(docid, -negscore))
    remainder = [docid for docid in order[cursor:] if lookup(docid) not in scored]
    entries.extend(backfill(remainder, entries))
    return Ranking(qid, entries)


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
    runs: Mapping[str, Sequence[tuple[str, float]]],
    scorer: Scorer,
    config: ReRankConfig = ReRankConfig(),
    graph: CorpusGraph | None = None,
    query_texts: Mapping[str, str] | None = None,
) -> dict[str, Ranking]:
    """Re-rank every query of a run; graph-adaptive when a graph is given."""
    out: dict[str, Ranking] = {}
    for qid in sorted(runs):
        r0 = Ranking.from_pairs(qid, runs[qid])
        text = query_texts.get(qid, "") if query_texts else ""
        out[qid] = _rerank(r0, scorer, config, graph, text)
    return out


# --- provenance trace -----------------------------------------------------


@dataclass(frozen=True)
class TraceRow:
    """Audit record for one output doc: where it came from and where it landed."""

    qid: str
    docid: str
    initial_rank: int | None
    final_rank: int
    provenance: str
    source: str | None


def trace_rows(r0: Ranking, result: Ranking) -> list[TraceRow]:
    """Provenance rows for a re-ranked list against its initial pool."""
    initial = {docid: rank for rank, docid in enumerate(r0.docids(), 1)}
    return [
        TraceRow(result.qid, entry.docid, initial.get(entry.docid), rank, entry.provenance, entry.source)
        for rank, entry in enumerate(result, 1)
    ]

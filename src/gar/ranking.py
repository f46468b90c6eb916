"""Ranked result lists shared by retrieval and re-ranking."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

PROV_INITIAL = "initial"
PROV_FRONTIER = "frontier"


def provenance_of(source: str | None) -> str:
    """Frontier for a doc that `source` surfaced through the graph, initial for a pool doc (no source)."""
    return PROV_INITIAL if source is None else PROV_FRONTIER


@dataclass(frozen=True)
class RankEntry:
    """One scored doc in a ranking.

    `source` names the doc whose neighbourhood surfaced it, or is None for a
    doc of the initial pool; `provenance` follows from it.
    """

    docid: str
    score: float
    source: str | None = None

    @property
    def provenance(self) -> str:
        return provenance_of(self.source)


class Ranking:
    """Ordered, per-query result list with unique docids.

    Stored as columns: a docid tuple, a read-only float64 score array, and
    a source tuple, from which each provenance follows. A `RankEntry` is
    built only when a caller iterates or indexes.
    """

    __slots__ = ("qid", "_docids", "_scores", "_sources")

    def __init__(
        self,
        qid: str,
        docids: Iterable[str],
        scores: Sequence[float] | np.ndarray,
        *,
        sources: Iterable[str | None] | None = None,
    ):
        """Columns of equal length, in rank order; the scores are copied, and
        sources default to None (every doc from the initial pool)."""
        docids = tuple(docids)
        n = len(docids)
        scores = np.array(scores, dtype=np.float64)
        sources = (None,) * n if sources is None else tuple(sources)
        if scores.shape != (n,) or len(sources) != n:
            raise ValueError(
                f"ranking columns for query {qid!r} differ in length: {n} docids, "
                f"scores of shape {scores.shape}, {len(sources)} sources"
            )
        if len(set(docids)) != n:
            seen: set[str] = set()
            duplicate = next(docid for docid in docids if docid in seen or seen.add(docid))
            raise ValueError(f"duplicate docid in ranking for query {qid!r}: {duplicate!r}")
        scores.setflags(write=False)
        self.qid = qid
        self._docids = docids
        self._scores = scores
        self._sources = sources

    @classmethod
    def from_pairs(cls, qid: str, pairs: "Iterable[tuple[str, float]] | Ranking") -> "Ranking":
        """A pool-only ranking of (docid, score) pairs in rank order. Given a
        Ranking, an equal one under `qid`, as perfbench's gar-c1000 set-up needs
        for `read_run`'s values; that branch and `pairs()` go once perfbench
        uses the column constructor (ROADMAP item 2)."""
        if isinstance(pairs, Ranking):
            return cls(qid, pairs._docids, pairs._scores, sources=pairs._sources)
        docids, scores = tuple(zip(*pairs)) or ((), ())
        return cls(qid, docids, scores)

    def docids(self) -> tuple[str, ...]:
        return self._docids

    def scores(self) -> np.ndarray:
        """The scores, as a read-only float64 array."""
        return self._scores

    def provenances(self) -> tuple[str, ...]:
        return tuple(map(provenance_of, self._sources))

    def sources(self) -> tuple[str | None, ...]:
        return self._sources

    def pairs(self) -> list[tuple[str, float]]:
        return list(zip(self._docids, self._scores.tolist()))

    def __len__(self) -> int:
        return len(self._docids)

    def __iter__(self) -> Iterator[RankEntry]:
        return map(RankEntry, self._docids, self._scores.tolist(), self._sources)

    def __getitem__(self, i: int) -> RankEntry:
        if isinstance(i, slice):
            return tuple(self)[i]
        return RankEntry(self._docids[i], float(self._scores[i]), self._sources[i])

    def __repr__(self) -> str:
        return f"Ranking(qid={self.qid!r}, {len(self._docids)} entries)"

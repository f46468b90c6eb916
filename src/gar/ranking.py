"""Ranked result lists shared by retrieval and re-ranking."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

PROV_INITIAL = "initial"
PROV_FRONTIER = "frontier"


@dataclass(frozen=True)
class RankEntry:
    """One scored doc in a ranking.

    `provenance` records whether the doc came from the initial pool or was
    discovered through the corpus graph; `source` names the doc whose
    neighbourhood surfaced it (frontier entries only).
    """

    docid: str
    score: float
    provenance: str = PROV_INITIAL
    source: str | None = None


class Ranking:
    """Ordered, per-query result list with unique docids.

    Stored as columns: a docid tuple, a read-only float64 score array, and
    provenance and source tuples. A `RankEntry` is built only when a caller
    iterates or indexes.
    """

    __slots__ = ("qid", "_docids", "_scores", "_provenances", "_sources")

    def __init__(
        self,
        qid: str,
        docids: Iterable[str],
        scores: Sequence[float] | np.ndarray,
        provenances: Iterable[str] | None = None,
        sources: Iterable[str | None] | None = None,
    ):
        """Columns of equal length, in rank order; the scores are copied, and
        provenance defaults to initial with no source."""
        docids = tuple(docids)
        n = len(docids)
        scores = np.array(scores, dtype=np.float64)
        provenances = (PROV_INITIAL,) * n if provenances is None else tuple(provenances)
        sources = (None,) * n if sources is None else tuple(sources)
        if scores.shape != (n,) or len(provenances) != n or len(sources) != n:
            raise ValueError(
                f"ranking columns for query {qid!r} differ in length: {n} docids, "
                f"scores of shape {scores.shape}, {len(provenances)} provenances, {len(sources)} sources"
            )
        _check_unique(qid, docids)
        scores.setflags(write=False)
        self.qid = qid
        self._docids = docids
        self._scores = scores
        self._provenances = provenances
        self._sources = sources

    @classmethod
    def from_pairs(cls, qid: str, pairs: Iterable[tuple[str, float]]) -> "Ranking":
        docids, scores = tuple(zip(*pairs)) or ((), ())
        return cls(qid, docids, scores)

    @property
    def entries(self) -> Sequence[RankEntry]:
        return tuple(self)

    def docids(self) -> list[str]:
        return list(self._docids)

    def scores(self) -> np.ndarray:
        """The scores, as a read-only float64 array."""
        return self._scores

    def provenances(self) -> tuple[str, ...]:
        return self._provenances

    def sources(self) -> tuple[str | None, ...]:
        return self._sources

    def pairs(self) -> list[tuple[str, float]]:
        return list(zip(self._docids, self._scores.tolist()))

    def __len__(self) -> int:
        return len(self._docids)

    def __iter__(self) -> Iterator[RankEntry]:
        return map(RankEntry, self._docids, self._scores.tolist(), self._provenances, self._sources)

    def __getitem__(self, i: int) -> RankEntry:
        if isinstance(i, slice):
            return self.entries[i]
        return RankEntry(self._docids[i], float(self._scores[i]), self._provenances[i], self._sources[i])

    def __repr__(self) -> str:
        return f"Ranking(qid={self.qid!r}, {len(self._docids)} entries)"


def _check_unique(qid: str, docids: tuple[str, ...]) -> None:
    if len(set(docids)) == len(docids):
        return
    seen: set[str] = set()
    for docid in docids:
        if docid in seen:
            raise ValueError(f"duplicate docid in ranking for query {qid!r}: {docid!r}")
        seen.add(docid)

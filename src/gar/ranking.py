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

    def __init__(self, qid: str, entries: Iterable[RankEntry]):
        entries = tuple(entries)
        docids = tuple(entry.docid for entry in entries)
        _check_unique(qid, docids)
        self._assign(
            qid,
            docids,
            _score_array([entry.score for entry in entries]),
            tuple(entry.provenance for entry in entries),
            tuple(entry.source for entry in entries),
        )

    @classmethod
    def from_pairs(cls, qid: str, pairs: Iterable[tuple[str, float]]) -> "Ranking":
        docids, scores = tuple(zip(*pairs)) or ((), ())
        _check_unique(qid, docids)
        return cls._from_columns(qid, docids, _score_array(scores))

    @classmethod
    def _from_columns(
        cls,
        qid: str,
        docids: tuple[str, ...],
        scores: np.ndarray,
        provenances: tuple[str, ...] | None = None,
        sources: tuple[str | None, ...] | None = None,
    ) -> "Ranking":
        """Ranking over columns whose docids are unique by construction, so
        the duplicate check is skipped; provenance defaults to initial."""
        ranking = cls.__new__(cls)
        n = len(docids)
        ranking._assign(
            qid,
            docids,
            scores,
            (PROV_INITIAL,) * n if provenances is None else provenances,
            (None,) * n if sources is None else sources,
        )
        return ranking

    def _assign(
        self,
        qid: str,
        docids: tuple[str, ...],
        scores: np.ndarray,
        provenances: tuple[str, ...],
        sources: tuple[str | None, ...],
    ) -> None:
        scores.setflags(write=False)
        self.qid = qid
        self._docids = docids
        self._scores = scores
        self._provenances = provenances
        self._sources = sources

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


def _score_array(scores: Sequence[float]) -> np.ndarray:
    return np.fromiter(map(float, scores), np.float64, len(scores))


def _check_unique(qid: str, docids: tuple[str, ...]) -> None:
    if len(set(docids)) == len(docids):
        return
    seen: set[str] = set()
    for docid in docids:
        if docid in seen:
            raise ValueError(f"duplicate docid in ranking for query {qid!r}: {docid!r}")
        seen.add(docid)

"""Independent reference computations that the checks compare the program to.

Written from the operation contracts with plain loops and the benchmark's
own data structures; nothing here imports the program.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

SENTINEL = 0xFFFFFFFF  # redefined on purpose rather than imported


class Bm25Reference:
    """Okapi BM25 over whitespace-tokenised docs, by brute force.

    Query terms count once each and are visited in sorted order, the same
    summation order the contract fixes, so equal sums compare bitwise.
    """

    def __init__(self, doc_tokens: Sequence[Sequence[str]], k1: float = 0.9, b: float = 0.4):
        self.k1 = k1
        self.counts = [Counter(tokens) for tokens in doc_tokens]
        lengths = [len(tokens) for tokens in doc_tokens]
        avg = sum(lengths) / len(lengths)
        self.norms = [1.0 - b + b * length / avg for length in lengths]
        dfs: Counter[str] = Counter()
        for counts in self.counts:
            dfs.update(counts.keys())
        n = len(doc_tokens)
        self.idf = {term: math.log((n - df + 0.5) / (df + 0.5) + 1.0) for term, df in dfs.items()}

    def __len__(self) -> int:
        return len(self.counts)

    def score(self, terms: Iterable[str], doc: int) -> float:
        counts = self.counts[doc]
        total = 0.0
        for term in sorted(set(terms)):
            tf = counts.get(term, 0)
            if tf:
                total += self.idf[term] * tf * (self.k1 + 1.0) / (tf + self.k1 * self.norms[doc])
        return total

    def scores(self, terms: Iterable[str]) -> list[float]:
        terms = set(terms)
        return [self.score(terms, doc) for doc in range(len(self.counts))]


def cosine_scores(vectors: np.ndarray, doc: int) -> np.ndarray:
    """float64 cosine similarity of every row against row `doc`."""
    m = np.asarray(vectors, dtype=np.float64)
    norms = np.sqrt((m * m).sum(axis=1))
    return (m @ m[doc]) / (norms * norms[doc])


def knn_row(scores: Sequence[float], self_id: int, k: int, positive_only: bool) -> list[int]:
    """Top-k ids by (score desc, id asc), self excluded, sentinel padded."""
    ranked = sorted(
        (j for j in range(len(scores)) if j != self_id and (scores[j] > 0.0 or not positive_only)),
        key=lambda j: (-scores[j], j),
    )[:k]
    return ranked + [SENTINEL] * (k - len(ranked))


def reachable_count(seeds: Iterable[str], neighbours: Callable[[str], Iterable[str]], cap: int) -> int:
    """Docs reachable from `seeds` over the graph, seeds included, counted up to `cap`."""
    seen = set(seeds)
    queue = deque(seen)
    while queue and len(seen) < cap:
        for nb in neighbours(queue.popleft()):
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
    return len(seen)


def ndcg_at(ranked: Sequence[str], labels: Mapping[str, int], cutoff: int) -> float | None:
    """nDCG@cutoff with exponential gain; None when no doc has a positive label."""
    ideal = sorted(labels.values(), reverse=True)[:cutoff]
    best = sum((2**rel - 1) / math.log2(pos + 1) for pos, rel in enumerate(ideal, 1))
    if best == 0.0:
        return None
    got = sum((2 ** labels.get(docid, 0) - 1) / math.log2(pos + 1) for pos, docid in enumerate(ranked[:cutoff], 1))
    return got / best


def recall_at(ranked: Sequence[str], labels: Mapping[str, int], cutoff: int, min_rel: int = 2) -> float | None:
    """Share of docs labelled >= min_rel found in the top `cutoff`; None if there are none."""
    relevant = {docid for docid, rel in labels.items() if rel >= min_rel}
    if not relevant:
        return None
    return len(relevant.intersection(ranked[:cutoff])) / len(relevant)


def mean_metric(fn, runs: Mapping[str, Sequence[str]], qrels, cutoff: int) -> float:
    """Mean of a per-query metric over the queries it is defined for."""
    values = [fn(runs[qid], qrels[qid], cutoff) for qid in sorted(set(runs) & set(qrels))]
    values = [v for v in values if v is not None]
    return sum(values) / len(values)

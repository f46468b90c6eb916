"""Ranking effectiveness metrics and corpus-structure diagnostics.

A run maps each qid to a `Ranking`, as `formats.read_run` and the
re-rankers return, or to an ordered (docid, score) sequence (transitional,
with `Ranking.pairs()`). A metric reads each query's docids once, down to its
cutoff, and no score. Relevance labels are graded 0..3. Metric means average
only over qualifying queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from .lexical import DenseVectors
from .ranking import Ranking

Ranked = Union[Ranking, Sequence[tuple[str, float]]]
Run = Mapping[str, Ranked]
Labels = Mapping[str, int]
Qrels = Mapping[str, Labels]

N_LABELS = 4  # graded relevance 0..3


@dataclass(frozen=True)
class MetricValues:
    """Per-query metric values and their unweighted mean."""

    per_query: dict[str, float]
    mean: float


def _mean_over_queries(
    name: str, run: Run, qrels: Qrels, value: Callable[[str, Sequence[str], Labels], float | None], depth: int | None = None
) -> MetricValues:
    """`value(qid, docids, labels)` of every query in both run and qrels, the
    docids being the query's first `depth` (all if None); a query whose value
    is None does not qualify and stays out of the mean."""
    qids = sorted(set(run) & set(qrels))
    if not qids:
        raise ValueError("run and qrels share no queries")
    per_query: dict[str, float] = {}
    for qid in qids:
        ranked = run[qid]
        docids = ranked.docids()[:depth] if isinstance(ranked, Ranking) else [docid for docid, _ in ranked[:depth]]
        result = value(qid, docids, qrels[qid])
        if result is not None:
            per_query[qid] = result
    if not per_query:
        raise ValueError(f"{name}: no qualifying queries")
    return MetricValues(per_query, sum(per_query.values()) / len(per_query))


def _gain_fn(gain: str) -> Callable[[int], float]:
    if gain == "exp":
        return lambda rel: float(2**rel - 1)
    if gain == "lin":
        return float
    raise ValueError(f"gain must be 'exp' or 'lin', got {gain!r}")


def ndcg(run: Run, qrels: Qrels, cutoff: int | None = None, gain: str = "exp") -> MetricValues:
    """Normalized discounted cumulative gain, optionally cut off at a rank.

    Unjudged docs contribute zero gain; queries whose ideal DCG is zero
    (no positively labelled docs) are skipped.
    """
    gain_of = _gain_fn(gain)

    def value(qid: str, docids: Sequence[str], labels: Labels) -> float | None:
        ideal = sorted(labels.values(), reverse=True)[:cutoff]
        idcg = sum(gain_of(rel) / math.log2(pos + 1) for pos, rel in enumerate(ideal, 1))
        if idcg == 0.0:
            return None
        gains = (gain_of(labels.get(docid, 0)) for docid in docids)
        return sum(gain / math.log2(pos + 1) for pos, gain in enumerate(gains, 1)) / idcg

    return _mean_over_queries("ndcg", run, qrels, value, cutoff)


def _relevant(labels: Labels, min_rel: int) -> set[str]:
    return {docid for docid, rel in labels.items() if rel >= min_rel}


def map_at(run: Run, qrels: Qrels, min_rel: int = 2) -> MetricValues:
    """Mean average precision with labels binarized at `min_rel`."""

    def value(qid: str, docids: Sequence[str], labels: Labels) -> float | None:
        relevant = _relevant(labels, min_rel)
        if not relevant:
            return None
        hits = 0
        total = 0.0
        for pos, docid in enumerate(docids, 1):
            if docid in relevant:
                hits += 1
                total += hits / pos
        return total / len(relevant)

    return _mean_over_queries("map", run, qrels, value)


def recall_at(run: Run, qrels: Qrels, k: int = 1000, min_rel: int = 2) -> MetricValues:
    """Fraction of relevant docs retrieved in the top k."""

    def value(qid: str, docids: Sequence[str], labels: Labels) -> float | None:
        relevant = _relevant(labels, min_rel)
        if not relevant:
            return None
        return sum(1 for docid in docids if docid in relevant) / len(relevant)

    return _mean_over_queries("recall", run, qrels, value, k)


def rr_at(run: Run, qrels: Qrels, k: int = 10, min_rel: int = 1) -> MetricValues:
    """Reciprocal rank of the first relevant doc within the top k, else 0."""

    def value(qid: str, docids: Sequence[str], labels: Labels) -> float | None:
        relevant = _relevant(labels, min_rel)
        if not relevant:
            return None
        return next((1.0 / pos for pos, docid in enumerate(docids, 1) if docid in relevant), 0.0)

    return _mean_over_queries("rr", run, qrels, value, k)


def judged_at(run: Run, qrels: Qrels, k: int = 10) -> MetricValues:
    """Fraction of the top k retrieved docs that carry any judgment."""

    def value(qid: str, docids: Sequence[str], labels: Labels) -> float | None:
        if not docids:
            return None
        return sum(1 for docid in docids if docid in labels) / len(docids)

    return _mean_over_queries("judged", run, qrels, value, k)


def metric_fn(spec: str, gain: str = "exp") -> Callable[[Run, Qrels], MetricValues]:
    """Resolve a metric spec like 'ndcg', 'ndcg@10', 'map', 'recall@100',
    'rr@10', or 'judged@10' to a callable over (run, qrels)."""
    name, sep, cut = spec.partition("@")
    cutoff = None
    if sep:
        if not (cut.isascii() and cut.isdigit()):
            raise ValueError(f"bad metric cutoff in {spec!r}")
        cutoff = int(cut)
        if cutoff < 1:
            raise ValueError(f"metric cutoff must be positive in {spec!r}")
    if name == "ndcg":
        return lambda run, qrels: ndcg(run, qrels, cutoff, gain)
    if name == "map":
        if cutoff is not None:
            raise ValueError("map takes no cutoff")
        return lambda run, qrels: map_at(run, qrels)
    cut_metric = {"recall": recall_at, "rr": rr_at, "judged": judged_at}.get(name)
    if cut_metric is None:
        raise ValueError(f"unknown metric {spec!r}")
    if cutoff is None:
        raise ValueError(f"metric {name!r} needs a cutoff, e.g. '{name}@10'")
    return lambda run, qrels: cut_metric(run, qrels, cutoff)


# --- corpus-structure diagnostics ------------------------------------------


def cluster_matrix(
    qrels: Qrels, similarity: Callable[[str, str], float]
) -> np.ndarray:
    """Relevance co-occurrence of judged docs with their nearest judged neighbour.

    For every judged doc of every query, find the most similar other judged
    doc of the same query (ties by ascending docid) and count the pair of
    labels. Counts pool over queries; each row is normalized to sum to 1.
    Rows for labels that never occur are left as zeros.
    """
    counts = np.zeros((N_LABELS, N_LABELS), dtype=np.float64)
    used = 0
    for qid in sorted(qrels):
        labels = qrels[qid]
        docs = sorted(labels)
        if len(docs) < 2:
            continue
        used += 1
        for probe in docs:
            rel = labels[probe]
            if not 0 <= rel < N_LABELS:
                raise ValueError(f"label out of range for query {qid!r} doc {probe!r}: {rel}")
            best_doc: str | None = None
            best_sim = -math.inf
            for other in docs:
                if other == probe:
                    continue
                sim = similarity(probe, other)
                if sim > best_sim:
                    best_sim = sim
                    best_doc = other
            counts[rel, labels[best_doc]] += 1.0
    if used == 0:
        raise ValueError("no query has two or more judged docs")
    matrix = counts.copy()
    row_sums = matrix.sum(axis=1)
    nonzero = row_sums > 0
    matrix[nonzero] /= row_sums[nonzero, None]
    return matrix


def ils(
    run: Run,
    qrels: Qrels,
    vectors: DenseVectors,
    min_rel: int = 2,
    depth: int = 1000,
) -> MetricValues:
    """Intra-list similarity: mean pairwise cosine among relevant retrieved docs.

    Considers the top `depth` of each ranking; queries with fewer than two
    relevant retrieved docs are skipped.
    """
    docmap = vectors.docmap

    def value(qid: str, docids: Sequence[str], labels: Labels) -> float | None:
        rel_docs = [d for d in docids if labels.get(d, 0) >= min_rel]
        if len(rel_docs) < 2:
            return None
        found = docmap.lookup(rel_docs)
        if None in found:
            raise ValueError(f"no vector for doc {rel_docs[found.index(None)]!r} (query {qid!r})")
        m = np.asarray([vectors.row(doc) for doc in found], dtype=np.float64)
        sims = m @ m.T
        upper = sims[np.triu_indices(len(rel_docs), k=1)]
        return float(np.clip(upper, -1.0, 1.0).mean())

    return _mean_over_queries("ils", run, qrels, value, depth)

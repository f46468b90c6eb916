"""Synthetic corpora, graphs, and scorer stubs shared across the tests."""

from __future__ import annotations

import hashlib
import random
import struct
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np
from hypothesis import strategies as st

from gar import CorpusGraph, DocMap, Ranking
from gar.graph import SENTINEL, docmap_path


# --- text-format round trips ------------------------------------------------

# short strings rich in what the text formats split on: tab, space, line
# breaks, and characters only str.split or str.splitlines treats as breaks
AWKWARD_TEXT = st.text(st.sampled_from("ab \t\n\r\x0b\x1c\x85\xa0\u2028") | st.characters(), max_size=4)


def utf8_encodable(value: str) -> bool:
    """Whether `value` can be written to a UTF-8 text file: a str may hold a
    surrogate code point, which UTF-8 cannot encode."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def run_pairs(runs: dict[str, Ranking]) -> dict[str, list[tuple[str, float]]]:
    """Each query's ranking as (docid, score) pairs, the shape of
    `oracles.reference_read_run`; every ranking must carry its own qid and,
    as read from a run file, no source."""
    for qid, ranking in runs.items():
        assert ranking.qid == qid and set(ranking.sources()) <= {None}, qid
    return {qid: ranking.pairs() for qid, ranking in runs.items()}


# the seed of acceptance criterion 6's metric micro-instances
CRITERION_6_SEED = 6006


def metric_instances(seed: int, trials: int):
    """(ranked docids, labels, cutoff) micro-instances of one query: 2..10
    docids, a random prefix of a shuffle ranked, about 70 % of them judged 0..3
    with at least one positive label, and a cutoff of 1..12."""
    rng = random.Random(seed)
    for _ in range(trials):
        docids = [f"d{i}" for i in range(rng.randint(2, 10))]
        ranked = rng.sample(docids, rng.randint(1, len(docids)))
        labels = {d: rng.randint(0, 3) for d in docids if rng.random() < 0.7}
        if not any(rel > 0 for rel in labels.values()):
            labels[docids[0]] = rng.randint(1, 3)
        yield ranked, labels, rng.randint(1, 12)


def written_then_read(write: Callable[[Path, Any], None], read: Callable[[Path], Any], value: Any) -> Any:
    """What `read` gives back from the file `write` makes of `value`, or None
    where `write` refuses it with ValueError, having created no file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file"
        try:
            write(path, value)
        except ValueError:
            assert not path.exists()
            return None
        return read(path)


# --- scorer stubs -----------------------------------------------------------


class MapScorer:
    """Scores drawn from a fixed docid -> score map."""

    def __init__(self, scores: dict[str, float]):
        self._scores = dict(scores)

    def score_batch(self, qid: str, query: str, docids: Sequence[str]) -> list[float]:
        return [self._scores[docid] for docid in docids]


class HashScorer:
    """Deterministic pseudo-random scores in [0, 1) keyed by (qid, docid)."""

    def score_batch(self, qid: str, query: str, docids: Sequence[str]) -> list[float]:
        out = []
        for docid in docids:
            digest = hashlib.blake2b(
                f"{qid}\x1f{docid}".encode(), digest_size=4
            ).digest()
            out.append(int.from_bytes(digest, "big") / 2**32)
        return out


class CountingScorer:
    """Wraps a scorer and records every batch it is asked to score."""

    def __init__(self, inner):
        self._inner = inner
        self.batches: list[list[str]] = []
        self.pairs: Counter[tuple[str, str]] = Counter()

    def score_batch(self, qid: str, query: str, docids: Sequence[str]) -> list[float]:
        self.batches.append(list(docids))
        for docid in docids:
            self.pairs[(qid, docid)] += 1
        return self._inner.score_batch(qid, query, docids)


class FailingScorer:
    """Raises on every call; for exception-path tests."""

    def score_batch(self, qid: str, query: str, docids: Sequence[str]) -> list[float]:
        raise KeyError("backend unavailable")


# --- random instances -------------------------------------------------------


def random_corpus(
    rng: random.Random, n_docs: int, vocab_size: int = 40, max_len: int = 12
) -> list[tuple[str, str]]:
    """Random (docid, text) pairs; a doc is occasionally empty."""
    vocab = [f"w{i:03d}" for i in range(vocab_size)]
    corpus = []
    for i in range(n_docs):
        words = rng.choices(vocab, k=rng.randint(0, max_len))
        corpus.append((f"doc{i:04d}", " ".join(words)))
    return corpus


def random_vectors(rng: np.random.Generator, n_docs: int, dim: int = 8) -> np.ndarray:
    return rng.normal(size=(n_docs, dim)).astype(np.float32)


def write_garv(path, matrix, docids: Sequence[str]) -> None:
    """A GARV vector file written byte by byte, so any float32 row can go in."""
    matrix = np.asarray(matrix, dtype="<f4")
    path.write_bytes(struct.pack("<4sIII", b"GARV", 1, *matrix.shape) + matrix.tobytes())
    DocMap(docids).save(docmap_path(path))


def random_graph(
    rng: random.Random, docids: Sequence[str], k: int, max_degree: int | None = None
) -> CorpusGraph:
    """Graph with random out-edges; rows may be partially or fully empty."""
    n = len(docids)
    cap = k if max_degree is None else min(max_degree, k)
    edges = np.full((n, k), SENTINEL, dtype=np.uint32)
    for i in range(n):
        degree = min(rng.randint(0, cap), n - 1)
        if degree:
            others = [j for j in range(n) if j != i]
            edges[i, :degree] = rng.sample(others, degree)
    return CorpusGraph(edges, DocMap(docids))


def edgeless_graph(docids: Sequence[str], k: int = 8) -> CorpusGraph:
    edges = np.full((len(docids), k), SENTINEL, dtype=np.uint32)
    return CorpusGraph(edges, DocMap(docids))


# --- planted-cluster instance ----------------------------------------------


@dataclass
class PlantedInstance:
    """Clustered corpus where first-pass retrieval misses 40% of relevant docs.

    Docs form `n_clusters` tight BM25 clusters of `cluster_size` docs built
    from per-cluster topic words. Query qNN targets cluster NN: its need-term
    appears only in the first `retrievable` docs of the cluster, so the
    remaining relevant docs are reachable only through the cluster's graph
    edges. A per-query spread-term plants 12 off-cluster docs into the pool
    to keep it from being a pure single-cluster toy.
    """

    corpus: list[tuple[str, str]]
    queries: dict[str, str]
    qrels: dict[str, dict[str, int]]
    n_clusters: int
    cluster_size: int
    retrievable: int

    @property
    def docids(self) -> list[str]:
        return [docid for docid, _ in self.corpus]


def planted_instance(
    seed: int,
    n_clusters: int = 20,
    cluster_size: int = 10,
    n_queries: int = 10,
    retrievable: int = 6,
) -> PlantedInstance:
    rng = random.Random(100003 * seed + 17)
    common = [f"common{j:02d}" for j in range(6)]
    docids: list[str] = []
    token_lists: list[list[str]] = []
    for c in range(n_clusters):
        topic = [f"topic{c:02d}w{j}" for j in range(6)]
        for m in range(cluster_size):
            words: list[str] = []
            for term in topic:
                words.extend([term] * rng.randint(2, 3))
            if m < retrievable:
                words.append(f"need{c:02d}")
            words.extend(rng.sample(common, 3))
            rng.shuffle(words)
            docids.append(f"d{c:02d}{m:02d}")
            token_lists.append(words)
    queries: dict[str, str] = {}
    qrels: dict[str, dict[str, int]] = {}
    for q in range(n_queries):
        qid = f"q{q:02d}"
        queries[qid] = f"need{q:02d} spread{q:02d}"
        qrels[qid] = {
            f"d{q:02d}{m:02d}": (3 if m < 3 else 2) for m in range(cluster_size)
        }
        # offsets 10, 17, 4 are pairwise distinct mod 20 and never zero
        for offset in (10, 17, 4):
            other = (q + offset) % n_clusters
            for m in range(4):
                token_lists[other * cluster_size + m].append(f"spread{q:02d}")
    corpus = [
        (docid, " ".join(tokens)) for docid, tokens in zip(docids, token_lists)
    ]
    return PlantedInstance(
        corpus, queries, qrels, n_clusters, cluster_size, retrievable
    )


# --- latency-bench instance -------------------------------------------------


def bench_instance(
    seed: int,
    n_docs: int = 10_000,
    n_queries: int = 8,
    pool_size: int = 1000,
    k: int = 8,
) -> tuple[CorpusGraph, dict[str, Ranking]]:
    """Large random graph plus full-size first-pass pools for timing runs."""
    rng = random.Random(seed)
    docids = [f"p{i:05d}" for i in range(n_docs)]
    edges = np.full((n_docs, k), SENTINEL, dtype=np.uint32)
    population = range(n_docs)
    for i in range(n_docs):
        row = [j for j in rng.sample(population, k + 1) if j != i][:k]
        edges[i, : len(row)] = row
    graph = CorpusGraph(edges, DocMap(docids))
    pools = {}
    for qn in range(n_queries):
        qid = f"bq{qn:02d}"
        pool = rng.sample(population, pool_size)
        pools[qid] = Ranking.from_pairs(qid, [(docids[doc], float(pool_size - pos)) for pos, doc in enumerate(pool)])
    return graph, pools

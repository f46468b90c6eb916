"""Seeded input generators for the three workloads.

Every input file is written by this module's own writers (TSV corpus,
queries and qrels, TREC run, GARG graph, GARV vectors), so the program
under test receives only finished files. The same (workload, seed) always
yields byte-identical inputs. `run.py` runs this file as a child process,
so the generator's memory never counts toward the program's peak RSS.
"""

from __future__ import annotations

import struct
import sys
from pathlib import Path

import numpy as np

from reference import SENTINEL

HEADER = struct.Struct("<4sIII")  # magic, version, rows, columns
GRAPH_MAGIC = b"GARG"
VEC_MAGIC = b"GARV"
FORMAT_VERSION = 1

# Text corpora (build-bm25, cli-c100): docs of 20-80 tokens. About three
# quarters of the tokens come from a Zipf(1.0) vocabulary of 3,000 terms
# (`w<rank>`); the rest are the doc's topic words (`tp<topic>x<j>`, 8 per
# topic), so BM25 neighbours and dense neighbours both follow the topics.
VOCAB = 3000
ZIPF_EXPONENT = 1.0
TOPIC_WORDS = 8
TOPIC_SHARE = 0.12
MIN_LEN, MAX_LEN = 20, 80

BM25_DOCS = 2000
BM25_TOPICS = 40

CLI_DOCS = 5000
CLI_TOPICS = 50
CLI_QUERIES = 200
CLI_DIM = 64
CLI_VECTOR_NOISE = 1.0  # doc vector = topic centroid + N(0, noise^2) per dim

# gar-c1000: a synthetic corpus graph with topic-local edges. Each doc has
# IN_TOPIC neighbours in its own topic and FAR_EDGES anywhere in the
# corpus; SHORT_ROW_SHARE of the rows are cut to 8-15 neighbours.
GAR_DOCS = 300_000
GAR_TOPIC_SIZE = 250
GAR_K = 16
GAR_IN_TOPIC = 14
GAR_FAR_EDGES = GAR_K - GAR_IN_TOPIC
GAR_SHORT_ROW_SHARE = 0.02
GAR_QUERIES = 120
GAR_POOL = 1000
# Per query: 40 relevant docs in the target topic (labels 3/2/1 in counts
# 10/15/15), of which 20 are in the first-stage pool; 8 relevant docs
# (label 2) scattered over other topics and absent from the pool; 60
# non-relevant topic docs and 920 random docs fill the pool.
GAR_TOPIC_LABELS = (3,) * 10 + (2,) * 15 + (1,) * 15
GAR_REL_IN_POOL = 20
GAR_FAR_RELEVANT = 8
GAR_TOPIC_FILLERS = 60
GAR_JUDGED_NONREL = 40
GAR_NOISE_SD = 0.5  # OracleScorer noise

WORKLOAD_CODES = {"build-bm25": 1, "gar-c1000": 2, "cli-c100": 3}


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOAD_CODES[workload], seed])


def generate(workload: str, seed: int, work: str) -> None:
    """Write the inputs of `workload` for `seed` into directory `work`."""
    rng = rng_for(workload, seed)
    out = Path(work)
    if workload == "build-bm25":
        texts, topics = zipf_corpus(rng, BM25_DOCS, BM25_TOPICS)
        write_corpus(out / "corpus.tsv", "b", texts)
        np.save(out / "topics.npy", topics)
    elif workload == "cli-c100":
        cli_inputs(rng, out)
    elif workload == "gar-c1000":
        gar_inputs(rng, out)
    else:
        raise ValueError(f"unknown workload {workload!r}")


# --- writers (independent of the program's own) -----------------------------


def write_corpus(path: Path, prefix: str, texts: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, text in enumerate(texts):
            fh.write(f"{prefix}{i}\t{text}\n")


def write_docids(path: Path, docids) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(docids))
        fh.write("\n")


def write_qrels(path: Path, qrels: dict[str, dict[str, int]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for qid in sorted(qrels):
            for docid, label in sorted(qrels[qid].items()):
                fh.write(f"{qid} 0 {docid} {label}\n")


def write_table(path: Path, magic: bytes, table: np.ndarray, dtype: str) -> None:
    rows, cols = table.shape
    with open(path, "wb") as fh:
        fh.write(HEADER.pack(magic, FORMAT_VERSION, rows, cols))
        fh.write(np.ascontiguousarray(table, dtype=dtype).tobytes())


def read_table(path: Path, magic: bytes, dtype: str) -> np.ndarray:
    """The benchmark's own reader for GARG / GARV files (no validation)."""
    with open(path, "rb") as fh:
        got, _, rows, cols = HEADER.unpack(fh.read(HEADER.size))
        if got != magic:
            raise ValueError(f"{path}: bad magic {got!r}")
        return np.fromfile(fh, dtype=dtype).reshape(rows, cols)


# --- text corpora --------------------------------------------------------------


def zipf_corpus(rng: np.random.Generator, n_docs: int, n_topics: int) -> tuple[list[str], np.ndarray]:
    """Doc texts and each doc's topic; topics are balanced and randomly placed."""
    topics = rng.permutation(n_docs) % n_topics
    lengths = rng.integers(MIN_LEN, MAX_LEN + 1, size=n_docs)
    n_topical = rng.binomial(lengths, TOPIC_SHARE)
    weights = 1.0 / np.arange(1, VOCAB + 1) ** ZIPF_EXPONENT
    background = rng.choice(VOCAB, size=int((lengths - n_topical).sum()), p=weights / weights.sum())
    topical = rng.integers(0, TOPIC_WORDS, size=int(n_topical.sum()))
    texts = []
    b = t = 0
    for doc in range(n_docs):
        nb = int(lengths[doc] - n_topical[doc])
        nt = int(n_topical[doc])
        words = [f"w{r}" for r in background[b : b + nb]]
        words += [f"tp{topics[doc]}x{j}" for j in topical[t : t + nt]]
        b += nb
        t += nt
        texts.append(" ".join(words[i] for i in rng.permutation(len(words))))
    return texts, topics


def cli_inputs(rng: np.random.Generator, out: Path) -> None:
    texts, topics = zipf_corpus(rng, CLI_DOCS, CLI_TOPICS)
    write_corpus(out / "corpus.tsv", "c", texts)
    tokens = [set(text.split()) for text in texts]

    queries: dict[str, str] = {}
    qrels: dict[str, dict[str, int]] = {}
    for q in range(CLI_QUERIES):
        qid = f"q{q:03d}"
        topic = int(rng.integers(CLI_TOPICS))
        need = [f"tp{topic}x{j}" for j in rng.choice(TOPIC_WORDS, size=2, replace=False)]
        extra = [f"w{r}" for r in rng.integers(30, 300, size=2)]
        queries[qid] = " ".join(need + extra)
        # topic docs are judged: one grade per query topic word the doc holds,
        # plus one for a hidden quality that BM25 cannot see
        qrels[qid] = {
            f"c{doc}": sum(word in tokens[doc] for word in need) + int(rng.random() < 0.5)
            for doc in np.flatnonzero(topics == topic)
        }
    with open(out / "queries.tsv", "w", encoding="utf-8") as fh:
        for qid in sorted(queries):
            fh.write(f"{qid}\t{queries[qid]}\n")
    write_qrels(out / "qrels.txt", qrels)

    centroids = rng.normal(size=(CLI_TOPICS, CLI_DIM))
    vectors = centroids[topics] + CLI_VECTOR_NOISE * rng.normal(size=(CLI_DOCS, CLI_DIM))
    write_table(out / "vectors.garv", VEC_MAGIC, vectors, "<f4")
    write_docids(out / "vectors.garv.docs", (f"c{i}" for i in range(CLI_DOCS)))


# --- gar-c1000 -----------------------------------------------------------------


def gar_edges(rng: np.random.Generator, members: np.ndarray, topic_of: np.ndarray, slot: np.ndarray) -> np.ndarray:
    """Edge table: distinct in-topic neighbours from cumulative gaps, plus far edges."""
    n = len(topic_of)
    size = members.shape[1]
    max_gap = (size - 1) // GAR_IN_TOPIC  # offsets stay in 1..size-1, so distinct
    offsets = np.cumsum(rng.integers(1, max_gap + 1, size=(n, GAR_IN_TOPIC), dtype=np.int32), axis=1)
    local = members[topic_of[:, None], (slot[:, None] + offsets) % size]
    far = rng.integers(0, n, size=(n, GAR_FAR_EDGES), dtype=np.int64)
    own = np.arange(n)[:, None]
    while True:
        rows = np.concatenate([local, far], axis=1)
        ordered = np.sort(rows, axis=1)
        bad = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1) | (far == own).any(axis=1)
        if not bad.any():
            break
        far[bad] = rng.integers(0, n, size=(int(bad.sum()), GAR_FAR_EDGES))
    edges = rng.permuted(rows, axis=1).astype(np.uint32)
    short = np.flatnonzero(rng.random(n) < GAR_SHORT_ROW_SHARE)
    degree = rng.integers(8, GAR_K, size=len(short))
    cols = np.arange(GAR_K)
    edges[short] = np.where(cols[None, :] < degree[:, None], edges[short], SENTINEL)
    return edges


def gar_inputs(rng: np.random.Generator, out: Path) -> None:
    n = GAR_DOCS
    n_topics = n // GAR_TOPIC_SIZE
    perm = rng.permutation(n)
    members = perm.reshape(n_topics, GAR_TOPIC_SIZE)
    topic_of = np.empty(n, dtype=np.int64)
    topic_of[perm] = np.arange(n) // GAR_TOPIC_SIZE
    slot = np.empty(n, dtype=np.int64)
    slot[perm] = np.arange(n) % GAR_TOPIC_SIZE
    write_table(out / "graph.garg", GRAPH_MAGIC, gar_edges(rng, members, topic_of, slot), "<u4")
    write_docids(out / "graph.garg.docs", (f"d{i}" for i in range(n)))

    qrels: dict[str, dict[str, int]] = {}
    with open(out / "pool.run", "w", encoding="utf-8") as fh:
        for q, topic in enumerate(rng.choice(n_topics, size=GAR_QUERIES, replace=False)):
            qid = f"q{q:03d}"
            topic_docs = rng.permutation(members[topic])
            n_rel = len(GAR_TOPIC_LABELS)
            relevant = topic_docs[:n_rel]
            fillers = topic_docs[n_rel : n_rel + GAR_TOPIC_FILLERS]
            outside = np.flatnonzero(topic_of != topic)
            picks = rng.choice(outside, size=GAR_FAR_RELEVANT + GAR_POOL, replace=False)
            far_relevant = picks[:GAR_FAR_RELEVANT]
            n_random = GAR_POOL - GAR_REL_IN_POOL - GAR_TOPIC_FILLERS
            random_docs = picks[GAR_FAR_RELEVANT : GAR_FAR_RELEVANT + n_random]
            pool = np.concatenate([relevant[:GAR_REL_IN_POOL], fillers, random_docs])
            scores = np.concatenate([
                rng.normal(16.0, 3.0, size=GAR_REL_IN_POOL),
                rng.normal(14.0, 3.0, size=GAR_TOPIC_FILLERS),
                rng.normal(10.0, 3.0, size=n_random),
            ])
            scores = np.round(np.abs(scores) + 0.5, 6)
            order = np.lexsort((pool, -scores))
            for rank, i in enumerate(order, 1):
                fh.write(f"{qid} Q0 d{pool[i]} {rank} {scores[i]:.6f} bm25\n")
            labels = {f"d{doc}": int(label) for doc, label in zip(relevant, rng.permutation(GAR_TOPIC_LABELS))}
            labels.update((f"d{doc}", 2) for doc in far_relevant)
            judged = rng.choice(random_docs, size=GAR_JUDGED_NONREL, replace=False)
            labels.update((f"d{doc}", 0) for doc in judged)
            qrels[qid] = labels
    write_qrels(out / "qrels.txt", qrels)


if __name__ == "__main__":
    # python3 perfbench/gen.py <workload> <seed> <directory>
    generate(sys.argv[1], int(sys.argv[2]), sys.argv[3])

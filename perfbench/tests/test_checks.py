"""The benchmark's own checks pass real program output and fail corrupted copies.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import gar  # noqa: E402
from checks import CheckFailed, check_close, check_first_stage, check_knn_row, check_rerank, check_trace  # noqa: E402
from reference import SENTINEL, Bm25Reference  # noqa: E402
from spans import Patches  # noqa: E402
from workloads import BatchLog  # noqa: E402

N_DOCS, K, POOL, BUDGET, BATCH = 60, 4, 20, 16, 4


class HashScorer:
    """Distinct, order-independent scores in [0, 1)."""

    def score_batch(self, qid, query, docids):
        return [((int(d[1:]) * 7919) % 1009) / 1009.0 for d in docids]


@pytest.fixture(scope="module")
def rerank_case():
    rng = np.random.default_rng(3)
    edges = np.full((N_DOCS, K), SENTINEL, dtype=np.uint32)
    for doc in range(N_DOCS):
        others = rng.permutation([j for j in range(N_DOCS) if j != doc])[:K]
        edges[doc] = others
    docids = [f"d{i}" for i in range(N_DOCS)]
    graph = gar.CorpusGraph(edges, gar.DocMap(docids))
    pool = [f"d{i}" for i in rng.permutation(N_DOCS)[:POOL]]
    r0 = gar.Ranking.from_pairs("q1", [(d, float(POOL - i)) for i, d in enumerate(pool)])
    log = BatchLog()
    patches = Patches()
    patches.wrap(HashScorer, "score_batch", log.recorder)
    try:
        out = gar.gar_rerank(r0, HashScorer(), graph, gar.ReRankConfig(batch_size=BATCH, budget=BUDGET))
    finally:
        patches.restore()
    output = [(e.docid, e.score, e.provenance, e.source) for e in out]

    def neighbours(docid):
        return {f"d{x}" for x in edges[int(docid[1:])].tolist() if x != SENTINEL}

    return pool, output, log.by_qid["q1"], neighbours


def run_check(pool, output, batches, neighbours):
    check_rerank("q1", pool, output, batches, BUDGET, N_DOCS, neighbours)


def test_real_rerank_output_passes(rerank_case):
    pool, output, batches, neighbours = rerank_case
    assert any(entry[2] == "frontier" for entry in output), "case must exercise the frontier"
    run_check(pool, output, batches, neighbours)


def test_doc_scored_twice_fails(rerank_case):
    pool, output, batches, neighbours = rerank_case
    (first_docs, first_scores), (last_docs, last_scores) = batches[0], batches[-1]
    corrupt = list(batches[:-1]) + [([first_docs[0]] + list(last_docs[1:]), [first_scores[0]] + list(last_scores[1:]))]
    with pytest.raises(CheckFailed, match="scored twice"):
        run_check(pool, output, corrupt, neighbours)


def test_frontier_doc_not_neighbour_of_source_fails(rerank_case):
    pool, output, batches, neighbours = rerank_case
    scored = [d for docids, _ in batches for d in docids]
    i = next(i for i, entry in enumerate(output) if entry[2] == "frontier")
    docid, score, provenance, source = output[i]
    stranger = next(d for d in scored[: scored.index(docid)] if docid not in neighbours(d))
    corrupt = list(output)
    corrupt[i] = (docid, score, provenance, stranger)
    with pytest.raises(CheckFailed, match="not a neighbour"):
        run_check(pool, corrupt, batches, neighbours)


def test_backfilled_doc_above_scored_fails(rerank_case):
    pool, output, batches, neighbours = rerank_case
    corrupt = list(output)
    backfilled = corrupt.pop(BUDGET)
    corrupt.insert(BUDGET - 1, backfilled)
    with pytest.raises(CheckFailed):
        run_check(pool, corrupt, batches, neighbours)


def test_backfill_score_tied_with_scored_block_fails(rerank_case):
    pool, output, batches, neighbours = rerank_case
    corrupt = list(output)
    floor = min(entry[1] for entry in output[:BUDGET])
    docid, _, provenance, source = corrupt[BUDGET]
    corrupt[BUDGET] = (docid, floor, provenance, source)
    with pytest.raises(CheckFailed, match="strictly below"):
        run_check(pool, corrupt, batches, neighbours)


@pytest.fixture(scope="module")
def bm25_graph():
    rng = np.random.default_rng(5)
    tokens = [[f"w{int(t)}" for t in rng.zipf(1.3, size=rng.integers(5, 15)) % 40] for _ in range(80)]
    corpus = [(f"b{i}", " ".join(words)) for i, words in enumerate(tokens)]
    index = gar.index_corpus(corpus)
    params = gar.Bm25Params()
    graph = gar.build_graph(index.docmap, lambda d, c: gar.bm25_doc_topk(index, params, d, c), 6)
    return graph.edges, Bm25Reference(tokens), tokens


def test_real_graph_rows_pass(bm25_graph):
    edges, ref, tokens = bm25_graph
    for doc in range(len(tokens)):
        check_knn_row(doc, edges[doc], ref.scores(tokens[doc]), 6, 1e-9, positive_only=True)


def test_wrong_graph_row_fails(bm25_graph):
    edges, ref, tokens = bm25_graph
    doc = 0
    scores = ref.scores(tokens[doc])
    row = edges[doc].tolist()
    worst = min((j for j in range(len(tokens)) if j != doc and j not in row and scores[j] < scores[row[0]]), key=lambda j: scores[j])
    corrupt = [worst] + row[1:]
    with pytest.raises(CheckFailed, match="reference"):
        check_knn_row(doc, corrupt, scores, 6, 1e-9, positive_only=True)


def test_metric_off_by_1e6_fails():
    check_close("ndcg_10", 0.75, 0.75 + 1e-12)
    with pytest.raises(CheckFailed, match="ndcg_10"):
        check_close("ndcg_10", 0.75 + 1e-6, 0.75)


def test_first_stage_out_of_order_fails():
    ref = {"a": 3.0, "b": 2.0, "c": 2.0, "d": 0.0}
    position = {"a": 0, "b": 1, "c": 2, "d": 3}
    check_first_stage("q", [("a", 3.0), ("b", 2.0), ("c", 2.0)], ref, position, 10)
    with pytest.raises(CheckFailed, match="corpus order"):
        check_first_stage("q", [("a", 3.0), ("c", 2.0), ("b", 2.0)], ref, position, 10)
    with pytest.raises(CheckFailed, match="left out"):
        check_first_stage("q", [("b", 2.0), ("c", 2.0)], ref, position, 2)


def test_trace_disagreeing_with_run_fails():
    pool = ["a", "b"]
    rows = [("b", 2, 1, "initial", None), ("x", None, 2, "frontier", "b"), ("a", 1, 3, "initial", None)]
    check_trace("q", ["b", "x", "a"], rows, pool)
    with pytest.raises(CheckFailed, match="different docs"):
        check_trace("q", ["x", "b", "a"], rows, pool)
    with pytest.raises(CheckFailed, match="initial rank"):
        check_trace("q", ["b", "x", "a"], [("b", 1, 1, "initial", None)] + rows[1:], pool)

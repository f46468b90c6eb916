from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gar import (
    BACKFILL_EPSILON,
    PROV_FRONTIER,
    PROV_INITIAL,
    CorpusGraph,
    DocMap,
    RankEntry,
    Ranking,
    ReRankConfig,
    SENTINEL,
    gar_rerank,
    rerank_run,
    trace_rows,
    typical_rerank,
)
from gar.rerank import backfill
from oracles import closure, reference_backfill, reference_rerank
from synthdata import (
    CountingScorer,
    FailingScorer,
    HashScorer,
    MapScorer,
    edgeless_graph,
    random_graph,
)


def graph_from_rows(docids, rows, k=2):
    edges = np.full((len(docids), k), SENTINEL, dtype=np.uint32)
    for doc, nbs in rows.items():
        edges[doc, : len(nbs)] = nbs
    return CorpusGraph(edges, DocMap(docids))


# --- Ranking ----------------------------------------------------------------


def test_ranking_basics():
    r = Ranking.from_pairs("q", [("a", 2.0), ("b", 1.0)])
    assert r.qid == "q"
    assert len(r) == 2
    assert r.docids() == ["a", "b"]
    assert r.pairs() == [("a", 2.0), ("b", 1.0)]
    assert r[0] == RankEntry("a", 2.0)
    assert [e.docid for e in r] == ["a", "b"]


def test_ranking_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate docid"):
        Ranking.from_pairs("q", [("a", 2.0), ("a", 1.0)])


def test_ranking_docids_differing_by_trailing_nul_are_distinct():
    r = Ranking.from_pairs("q", [("a\x00", 2.0), ("a", 1.0)])
    assert r.docids() == ["a\x00", "a"]
    with pytest.raises(ValueError, match="duplicate docid"):
        Ranking.from_pairs("q", [("a\x00", 2.0), ("a\x00", 1.0)])


def test_rerank_orders_ties_by_str_with_trailing_nul():
    # "a" < "a\x00" < "b" as str; a numpy U array would hold "a\x00" as "a"
    pool = ["b", "a\x00", "a", "c"]
    r0 = Ranking.from_pairs("q", [(d, float(4 - i)) for i, d in enumerate(pool)])
    scores = dict.fromkeys(pool, 1.0)
    out = typical_rerank(r0, MapScorer(scores), ReRankConfig(batch_size=4, budget=3))
    assert out.docids() == ["a", "a\x00", "b", "c"]
    want = reference_rerank(pool, lambda batch: [scores[d] for d in batch], {}, 4, 3)
    assert [(e.docid, e.score, e.provenance, e.source) for e in out] == want


def test_ranking_builds_entries_from_columns():
    entries = [RankEntry("a", 2.0, PROV_FRONTIER, "z"), RankEntry("b", 1)]
    r = Ranking("q", entries)
    assert list(r) == entries
    assert r[-1] == RankEntry("b", 1.0)
    assert r[:1] == (entries[0],)
    assert r.provenances() == (PROV_FRONTIER, PROV_INITIAL)
    assert r.sources() == ("z", None)
    assert r.scores().tolist() == [2.0, 1.0]
    with pytest.raises(ValueError):
        r.scores()[0] = 5.0


def test_rank_entry_defaults():
    entry = RankEntry("a", 1.0)
    assert entry.provenance == PROV_INITIAL
    assert entry.source is None


# --- ReRankConfig -----------------------------------------------------------


def test_config_defaults():
    config = ReRankConfig()
    assert config.batch_size == 16
    assert config.budget == 1000


def test_config_validation():
    with pytest.raises(ValueError, match="batch_size"):
        ReRankConfig(batch_size=0)
    with pytest.raises(ValueError, match="budget"):
        ReRankConfig(budget=0)


# --- backfill ---------------------------------------------------------------


def test_backfill_steps_below_min_scored():
    got = backfill(min(0.4, 0.1), 3)
    assert got.tolist() == [0.1 - BACKFILL_EPSILON, 0.1 - 2 * BACKFILL_EPSILON, 0.1 - 3 * BACKFILL_EPSILON]


def test_backfill_empty_remainder():
    assert backfill(1.0, 0).tolist() == []


def test_backfill_stays_strictly_below_scored_block_at_large_magnitude():
    # at 1e12 a fixed 1e-6 step rounds away and ties the lowest scored doc
    r0 = Ranking.from_pairs("q", [(f"d{i}", 6.0 - i) for i in range(6)])
    scorer = MapScorer({f"d{i}": 1e12 + i for i in range(6)})
    out = typical_rerank(r0, scorer, ReRankConfig(batch_size=2, budget=2))
    assert out.docids() == ["d1", "d0", "d2", "d3", "d4", "d5"]
    scores = [entry.score for entry in out]
    assert scores[1] == 1e12
    assert scores[1] > scores[2] > scores[3] > scores[4] > scores[5]
    assert scores[2] == np.nextafter(1e12, -np.inf)


@given(st.integers(1, 50), st.floats(-5, 5, allow_nan=False))
def test_backfill_preserves_order_and_monotonicity(n, base):
    scores = backfill(base, n).tolist()
    assert scores == sorted(scores, reverse=True)
    assert len(set(scores)) == n
    assert max(scores) < base


@settings(max_examples=300)
@given(
    st.floats(0, 1e15) | st.sampled_from([0.0, 1e9, 8e9, 1e10, 1e12, 1e15]) | st.floats(-1e15, 0),
    st.integers(0, 3000),
)
def test_backfill_matches_loop_reference(base, n):
    assert backfill(base, n).tolist() == reference_backfill(base, n)


def test_backfill_falls_back_to_loop_where_steps_round_away():
    # at 1e10 a 1e-6 step is below one float spacing, at 1e15 it rounds to nothing
    for base in (1e10, 1e15):
        fast = base - np.arange(1, 4) * BACKFILL_EPSILON
        assert not (fast[0] < base and (np.diff(fast) < 0).all())
        assert backfill(base, 3).tolist() == reference_backfill(base, 3)


# --- typical re-ranking -----------------------------------------------------


def test_typical_reorders_by_scorer():
    r0 = Ranking.from_pairs("q", [("a", 9.0), ("b", 8.0)])
    out = typical_rerank(r0, MapScorer({"a": 0.1, "b": 0.9}))
    assert out.pairs() == [("b", 0.9), ("a", 0.1)]
    assert all(e.provenance == PROV_INITIAL for e in out)


def test_typical_budget_truncates_and_backfills():
    r0 = Ranking.from_pairs("q", [(d, 1.0 - i / 10) for i, d in enumerate("abcd")])
    out = typical_rerank(
        r0, MapScorer({"a": 0.1, "b": 0.9}), ReRankConfig(batch_size=2, budget=2)
    )
    assert out.docids() == ["b", "a", "c", "d"]
    assert out[2].score == 0.1 - BACKFILL_EPSILON
    assert out[3].score == 0.1 - 2 * BACKFILL_EPSILON


def test_typical_score_ties_break_by_docid():
    r0 = Ranking.from_pairs("q", [("z", 3.0), ("m", 2.0), ("a", 1.0)])
    out = typical_rerank(r0, MapScorer({"z": 0.5, "m": 0.5, "a": 0.5}))
    assert out.docids() == ["a", "m", "z"]


def test_typical_batch_sizes():
    r0 = Ranking.from_pairs("q", [(f"d{i}", float(-i)) for i in range(12)])
    counting = CountingScorer(HashScorer())
    typical_rerank(r0, counting, ReRankConfig(batch_size=3, budget=10))
    assert [len(b) for b in counting.batches] == [3, 3, 3, 1]
    assert counting.batches[0] == ["d0", "d1", "d2"]


def test_empty_r0_rejected():
    with pytest.raises(ValueError, match="empty initial ranking"):
        typical_rerank(Ranking("q", []), HashScorer())


def test_scorer_exception_is_wrapped():
    r0 = Ranking.from_pairs("q7", [("a", 1.0)])
    with pytest.raises(RuntimeError, match=r"scorer failed on query 'q7' batch \['a'\]"):
        typical_rerank(r0, FailingScorer())


def test_scorer_bad_length_rejected():
    class ShortScorer:
        def score_batch(self, qid, query, docids):
            return [0.0]

    r0 = Ranking.from_pairs("q", [("a", 1.0), ("b", 0.5)])
    with pytest.raises(ValueError, match="scorer returned 1 scores"):
        typical_rerank(r0, ShortScorer())


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_scorer_non_finite_score_rejected(bad):
    # a NaN used to sort above real scores: d0 (0.0) landed above d3 (3.0)
    r0 = Ranking.from_pairs("q", [(f"d{i}", 6.0 - i) for i in range(6)])
    scores = {f"d{i}": float(i) for i in range(6)}
    scores["d1"] = bad
    with pytest.raises(ValueError, match=r"non-finite score .* query 'q' doc 'd1'"):
        typical_rerank(r0, MapScorer(scores), ReRankConfig(batch_size=2, budget=4))


# --- graph-adaptive re-ranking ----------------------------------------------

TOY_SCORES = {
    "d0": 0.9,
    "d1": 0.1,
    "d2": 0.8,
    "d3": 0.2,
    "d4": 0.95,
    "d5": 0.5,
    "d6": 0.05,
    "d7": 0.85,
}


def toy_graph():
    docids = [f"d{i}" for i in range(8)]
    return graph_from_rows(docids, {0: [4, 5], 1: [6], 2: [7]}, k=2)


def toy_r0():
    return Ranking.from_pairs(
        "q", [("d0", 4.0), ("d1", 3.0), ("d2", 2.0), ("d3", 1.0)]
    )


def test_gar_toy_batches_alternate_pools():
    counting = CountingScorer(MapScorer(TOY_SCORES))
    gar_rerank(toy_r0(), counting, toy_graph(), ReRankConfig(batch_size=2, budget=6))
    assert counting.batches == [["d0", "d1"], ["d4", "d5"], ["d2", "d3"]]


def test_gar_toy_output():
    out = gar_rerank(
        toy_r0(), MapScorer(TOY_SCORES), toy_graph(), ReRankConfig(batch_size=2, budget=6)
    )
    assert out.docids() == ["d4", "d0", "d2", "d5", "d3", "d1"]
    assert [e.score for e in out] == [0.95, 0.9, 0.8, 0.5, 0.2, 0.1]
    by_doc = {e.docid: e for e in out}
    assert by_doc["d4"].provenance == PROV_FRONTIER
    assert by_doc["d4"].source == "d0"
    assert by_doc["d5"].provenance == PROV_FRONTIER
    assert by_doc["d5"].source == "d0"
    for docid in ["d0", "d1", "d2", "d3"]:
        assert by_doc[docid].provenance == PROV_INITIAL
        assert by_doc[docid].source is None
    assert "d6" not in by_doc
    assert "d7" not in by_doc


def test_gar_toy_trace():
    r0 = toy_r0()
    out = gar_rerank(
        r0, MapScorer(TOY_SCORES), toy_graph(), ReRankConfig(batch_size=2, budget=6)
    )
    rows = trace_rows(r0, out)
    assert [(r.docid, r.initial_rank, r.final_rank) for r in rows] == [
        ("d4", None, 1),
        ("d0", 1, 2),
        ("d2", 3, 3),
        ("d5", None, 4),
        ("d3", 4, 5),
        ("d1", 2, 6),
    ]
    assert rows[0].qid == "q"
    assert rows[0].provenance == PROV_FRONTIER
    assert rows[0].source == "d0"


def test_gar_toy_larger_budget_reaches_whole_closure():
    out = gar_rerank(
        toy_r0(), MapScorer(TOY_SCORES), toy_graph(), ReRankConfig(batch_size=2, budget=8)
    )
    assert out.docids() == ["d4", "d0", "d7", "d2", "d5", "d3", "d1", "d6"]
    by_doc = {e.docid: e for e in out}
    assert by_doc["d7"].source == "d2"
    assert by_doc["d6"].source == "d1"


def test_gar_empty_pool_redirects_draw():
    # chain a -> b -> c -> d: after the pool empties, every batch comes
    # from the frontier regardless of whose turn it is
    docids = ["a", "b", "c", "d"]
    graph = graph_from_rows(docids, {0: [1], 1: [2], 2: [3]}, k=1)
    r0 = Ranking.from_pairs("q", [("a", 1.0)])
    counting = CountingScorer(HashScorer())
    out = gar_rerank(r0, counting, graph, ReRankConfig(batch_size=1, budget=4))
    assert counting.batches == [["a"], ["b"], ["c"], ["d"]]
    assert len(out) == 4


def test_gar_scored_docs_never_reenter():
    # b is in r0 and scored in the first batch, so a's edge to b must not
    # put it back on the frontier
    docids = ["a", "b"]
    graph = graph_from_rows(docids, {0: [1]}, k=1)
    r0 = Ranking.from_pairs("q", [("a", 1.0), ("b", 0.5)])
    counting = CountingScorer(HashScorer())
    out = gar_rerank(r0, counting, graph, ReRankConfig(batch_size=2, budget=4))
    assert counting.batches == [["a", "b"]]
    assert len(out) == 2


def test_gar_frontier_doc_also_in_pool():
    # c sits deep in the pool but is discovered through the graph first:
    # it keeps frontier provenance and is skipped when the cursor reaches it
    docids = ["a", "b", "c"]
    graph = graph_from_rows(docids, {0: [2]}, k=1)
    r0 = Ranking.from_pairs("q", [("a", 3.0), ("b", 2.0), ("c", 1.0)])
    counting = CountingScorer(MapScorer({"a": 0.6, "b": 0.4, "c": 0.9}))
    out = gar_rerank(r0, counting, graph, ReRankConfig(batch_size=1, budget=4))
    assert counting.batches == [["a"], ["c"], ["b"]]
    rows = trace_rows(r0, out)
    by_doc = {r.docid: r for r in rows}
    assert by_doc["c"].provenance == PROV_FRONTIER
    assert by_doc["c"].source == "a"
    assert by_doc["c"].initial_rank == 3
    assert len(out) == 3


def test_gar_remerge_updates_priority_and_source():
    # c is discovered by a (0.1) then by b (0.9); it must pop at 0.9 with b
    # as its recorded source
    docids = ["a", "b", "c"]
    graph = graph_from_rows(docids, {0: [2], 1: [2]}, k=1)
    r0 = Ranking.from_pairs("q", [("a", 2.0), ("b", 1.0)])
    out = gar_rerank(
        r0,
        MapScorer({"a": 0.1, "b": 0.9, "c": 0.5}),
        graph,
        ReRankConfig(batch_size=2, budget=3),
    )
    assert {e.docid: e.source for e in out}["c"] == "b"


def test_gar_equal_priority_keeps_first_source():
    # c is discovered by a and then by b at the same score: a stays its
    # source, so b's equal push does not replace it
    docids = ["a", "b", "c"]
    graph = graph_from_rows(docids, {0: [2], 1: [2]}, k=1)
    r0 = Ranking.from_pairs("q", [("a", 2.0), ("b", 1.0)])
    out = gar_rerank(
        r0,
        MapScorer({"a": 0.5, "b": 0.5, "c": 0.1}),
        graph,
        ReRankConfig(batch_size=2, budget=3),
    )
    assert {e.docid: e.source for e in out}["c"] == "a"


def test_gar_higher_priority_takes_source_keeps_seq():
    # a (0.5) surfaces x then y; b (0.9) surfaces z then y again. y rises to
    # 0.9 with b as its source but keeps its place from a's push, so it
    # pops ahead of z at the same priority
    docids = ["a", "b", "x", "y", "z"]
    graph = graph_from_rows(docids, {0: [2, 3], 1: [4, 3]}, k=2)
    r0 = Ranking.from_pairs("q", [("a", 2.0), ("b", 1.0)])
    counting = CountingScorer(
        MapScorer({"a": 0.5, "b": 0.9, "x": 0.0, "y": 0.0, "z": 0.0})
    )
    out = gar_rerank(r0, counting, graph, ReRankConfig(batch_size=2, budget=4))
    assert counting.batches == [["a", "b"], ["y", "z"]]
    by_doc = {e.docid: e for e in out}
    assert by_doc["y"].source == "b"
    assert by_doc["z"].source == "b"
    assert "x" not in by_doc


def test_gar_unresolvable_pool_docs_score_without_expanding():
    docids = ["a", "b"]
    graph = graph_from_rows(docids, {0: [1]}, k=1)
    r0 = Ranking.from_pairs("q", [("ghost", 2.0), ("a", 1.0)])
    counting = CountingScorer(HashScorer())
    out = gar_rerank(r0, counting, graph, ReRankConfig(batch_size=2, budget=4))
    assert counting.batches == [["ghost", "a"], ["b"]]
    assert len(out) == 3


def test_gar_edgeless_graph_equals_typical():
    r0 = Ranking.from_pairs("q", [(f"d{i}", float(10 - i)) for i in range(10)])
    config = ReRankConfig(batch_size=3, budget=7)
    scorer = HashScorer()
    typical = typical_rerank(r0, scorer, config)
    adaptive = gar_rerank(r0, scorer, edgeless_graph([f"d{i}" for i in range(10)]), config)
    assert typical.entries == adaptive.entries


def test_gar_backfill_keeps_pool_order():
    r0 = Ranking.from_pairs("q", [(f"d{i:03d}", float(100 - i)) for i in range(100)])
    out = typical_rerank(r0, HashScorer(), ReRankConfig(batch_size=16, budget=10))
    tail = out.entries[10:]
    assert len(tail) == 90
    scored_ids = {e.docid for e in out.entries[:10]}
    expected_tail = [d for d in r0.docids() if d not in scored_ids]
    assert [e.docid for e in tail] == expected_tail
    scores = [e.score for e in tail]
    assert scores == sorted(scores, reverse=True)
    assert max(scores) < min(e.score for e in out.entries[:10])


# --- randomized engine properties --------------------------------------------


def random_instance(rng):
    n = rng.randint(1, 24)
    docids = [f"n{i:02d}" for i in range(n)]
    graph = random_graph(rng, docids, k=rng.randint(1, 4))
    pool_size = rng.randint(1, n)
    pool = rng.sample(docids, pool_size)
    if rng.random() < 0.3:
        pool = pool[:-1] + ["missing-doc"] if len(pool) > 1 else ["missing-doc"]
    r0 = Ranking.from_pairs("rq", [(d, float(pool_size - i)) for i, d in enumerate(pool)])
    config = ReRankConfig(batch_size=rng.randint(1, 6), budget=rng.randint(1, 40))
    return docids, graph, r0, config


def test_gar_scores_each_doc_once_and_fills_budget():
    rng = random.Random(99)
    for trial in range(200):
        docids, graph, r0, config = random_instance(rng)
        counting = CountingScorer(HashScorer())
        out = gar_rerank(r0, counting, graph, config)
        assert all(count == 1 for count in counting.pairs.values()), f"trial {trial}"
        seeds = [graph.docmap.internal(d) for d in r0.docids() if d in graph.docmap]
        rows = [graph.neighbours(doc) for doc in range(graph.n_docs)]
        reachable = {graph.docmap.external(i) for i in closure(seeds, rows)}
        reachable |= set(r0.docids())
        assert len(counting.pairs) == min(config.budget, len(reachable)), f"trial {trial}"
        # scored prefix is sorted by (score desc, docid asc)
        scored = out.entries[: len(counting.pairs)]
        keys = [(-e.score, e.docid) for e in scored]
        assert keys == sorted(keys), f"trial {trial}"
        assert len(set(out.docids())) == len(out), f"trial {trial}"


def test_gar_budget_prefix_property():
    # the docs scored at a smaller budget are a subset of those scored at a
    # larger one with the same batch size
    rng = random.Random(41)
    for trial in range(60):
        docids, graph, r0, config = random_instance(rng)
        small = CountingScorer(HashScorer())
        big = CountingScorer(HashScorer())
        budget_lo = rng.randint(1, 30)
        budget_hi = budget_lo + rng.randint(0, 30)
        gar_rerank(r0, small, graph, ReRankConfig(config.batch_size, budget_lo))
        gar_rerank(r0, big, graph, ReRankConfig(config.batch_size, budget_hi))
        assert set(small.pairs) <= set(big.pairs), f"trial {trial}"


@st.composite
def rerank_instances(draw):
    """Small sentinel-padded graph, a pool mixing graph and outside docs,
    tie-prone scores, and a batch size and budget."""
    n = draw(st.integers(1, 10))
    k = draw(st.integers(1, 4))
    docids = [f"g{i}" for i in range(n)]
    rows = {}
    for doc in range(n):
        others = [j for j in range(n) if j != doc]
        rows[doc] = draw(st.lists(st.sampled_from(others), unique=True, max_size=k)) if others else []
    outside = [f"x{i}" for i in range(3)]
    pool = draw(st.lists(st.sampled_from(docids + outside), unique=True, min_size=1))
    scores = {d: draw(st.sampled_from([-1.0, 0.0, 0.25, 0.5, 1.0])) for d in docids + outside}
    config = ReRankConfig(batch_size=draw(st.integers(1, 4)), budget=draw(st.integers(1, 12)))
    return docids, rows, k, pool, scores, config


@settings(max_examples=300)
@given(rerank_instances(), st.booleans())
def test_rerank_matches_reference_model(instance, adaptive):
    docids, rows, k, pool, scores, config = instance
    graph = graph_from_rows(docids, rows, k)
    r0 = Ranking.from_pairs("q", [(d, float(len(pool) - i)) for i, d in enumerate(pool)])
    counting = CountingScorer(MapScorer(scores))
    if adaptive:
        out = gar_rerank(r0, counting, graph, config)
        neighbours = {docids[doc]: [docids[nb] for nb in nbs] for doc, nbs in rows.items()}
    else:
        out = typical_rerank(r0, counting, config)
        neighbours = {}
    batches = []

    def score(batch):
        batches.append(list(batch))
        return [scores[d] for d in batch]

    want = reference_rerank(pool, score, neighbours, config.batch_size, config.budget)
    assert counting.batches == batches
    assert [(e.docid, e.score, e.provenance, e.source) for e in out] == want


def test_rerank_run_handles_multiple_queries():
    pools = {
        "q2": Ranking.from_pairs("q2", [("a", 2.0), ("b", 1.0)]),
        "q1": Ranking.from_pairs("q1", [("b", 2.0), ("c", 1.0)]),
    }
    out = rerank_run(pools, HashScorer(), ReRankConfig(batch_size=2, budget=2))
    assert list(out) == ["q1", "q2"]
    assert out["q1"].qid == "q1"
    assert set(out["q1"].docids()) == {"b", "c"}


def test_rerank_run_passes_query_text():
    seen = {}

    class TextProbe:
        def score_batch(self, qid, query, docids):
            seen[qid] = query
            return [0.0] * len(docids)

    rerank_run(
        {qid: Ranking.from_pairs(qid, [("a", 1.0)]) for qid in ("q1", "q2")},
        TextProbe(),
        ReRankConfig(),
        query_texts={"q1": "hello world"},
    )
    assert seen == {"q1": "hello world", "q2": ""}

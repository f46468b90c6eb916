from __future__ import annotations

import math
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gar import (
    CorpusGraph,
    DocMap,
    Ranking,
    ReRankConfig,
    gar_rerank,
    read_trace,
    rerank_run,
    typical_rerank,
    write_trace,
)
from gar.graph import SENTINEL
from gar.ranking import PROV_FRONTIER, PROV_INITIAL, RankEntry, provenance_of
from gar.rerank import BACKFILL_EPSILON, _numbering_array, backfill
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
    assert r.docids() == ("a", "b")
    assert r.pairs() == [("a", 2.0), ("b", 1.0)]
    assert r[0] == RankEntry("a", 2.0)
    assert [e.docid for e in r] == ["a", "b"]


def test_from_pairs_of_a_ranking_is_an_equal_ranking():
    ranking = Ranking("q", ["a", "b", "c"], [2.0, -0.0, -1.5], sources=[None, "a", "a"])
    copy = Ranking.from_pairs("q2", ranking)
    assert copy.qid == "q2"
    assert copy.docids() == ranking.docids()
    assert copy.scores().tobytes() == ranking.scores().tobytes()
    assert not copy.scores().flags.writeable
    assert copy.sources() == ranking.sources()
    assert Ranking.from_pairs("q", Ranking("q", [], [])).pairs() == []


def test_ranking_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate docid"):
        Ranking.from_pairs("q", [("a", 2.0), ("a", 1.0)])
    with pytest.raises(ValueError, match="duplicate docid in ranking for query 'q': 'a'"):
        Ranking("q", ["a", "b", "a"], np.arange(3.0))


def test_ranking_docids_differing_by_trailing_nul_are_distinct():
    r = Ranking.from_pairs("q", [("a\x00", 2.0), ("a", 1.0)])
    assert r.docids() == ("a\x00", "a")
    with pytest.raises(ValueError, match="duplicate docid"):
        Ranking.from_pairs("q", [("a\x00", 2.0), ("a\x00", 1.0)])


def test_rerank_orders_ties_by_str_with_trailing_nul():
    # "a" < "a\x00" < "b" as str; a numpy U array would hold "a\x00" as "a"
    pool = ["b", "a\x00", "a", "c"]
    r0 = Ranking.from_pairs("q", [(d, float(4 - i)) for i, d in enumerate(pool)])
    scores = dict.fromkeys(pool, 1.0)
    out = typical_rerank(r0, MapScorer(scores), ReRankConfig(batch_size=4, budget=3))
    assert out.docids() == ("a", "a\x00", "b", "c")
    want = reference_rerank(pool, lambda batch: [scores[d] for d in batch], {}, 4, 3)
    assert [(e.docid, e.score, e.provenance, e.source) for e in out] == want


def test_rerank_orders_signed_zero_ties_by_docid():
    # 0.0 == -0.0, so the docid decides; each doc keeps its own zero
    pool = ["b", "a", "c", "d"]
    r0 = Ranking.from_pairs("q", [(d, float(4 - i)) for i, d in enumerate(pool)])
    scores = {"b": 0.0, "a": -0.0, "c": 1.0, "d": -1.0}
    out = typical_rerank(r0, MapScorer(scores), ReRankConfig(batch_size=4, budget=4))
    assert out.docids() == ("c", "a", "b", "d")
    assert [math.copysign(1.0, score) for score in out.scores()] == [1.0, -1.0, 1.0, -1.0]
    want = reference_rerank(pool, lambda batch: [scores[d] for d in batch], {}, 4, 4)
    assert [(e.docid, e.score, e.provenance, e.source) for e in out] == want


def test_ranking_builds_entries_from_columns():
    entries = [RankEntry("a", 2.0, "z"), RankEntry("b", 1)]
    r = Ranking("q", ["a", "b"], [2.0, 1], sources=["z", None])
    assert list(r) == entries
    assert r[-1] == RankEntry("b", 1.0)
    assert r[:1] == (entries[0],)
    assert r.provenances() == (PROV_FRONTIER, PROV_INITIAL)
    assert r.sources() == ("z", None)
    assert r.scores().tolist() == [2.0, 1.0]
    with pytest.raises(ValueError):
        r.scores()[0] = 5.0


def test_ranking_rejects_columns_of_unequal_length():
    for docids, scores, sources in [
        (["a", "b"], [1.0], None),
        (["a"], [1.0, 0.5], None),
        (["a"], [[1.0]], None),
        (["a", "b"], [2.0, 1.0], [None]),
        (["a", "b"], [2.0, 1.0], [None, None, None]),
    ]:
        with pytest.raises(ValueError, match="ranking columns for query 'q9' differ in length"):
            Ranking("q9", docids, scores, sources=sources)


def test_ranking_provenance_follows_from_source():
    r = Ranking("q", ["a", "b", "c"], [3.0, 2.0, 1.0], sources=[None, "a", "NA"])
    assert r.provenances() == (PROV_INITIAL, PROV_FRONTIER, PROV_FRONTIER)
    assert [(e.provenance, e.source) for e in r] == [(PROV_INITIAL, None), (PROV_FRONTIER, "a"), (PROV_FRONTIER, "NA")]
    assert r[1].provenance == PROV_FRONTIER
    assert [provenance_of(source) for source in (None, "", "NA", "d0")] == [PROV_INITIAL] + [PROV_FRONTIER] * 3
    # a call written for a separate provenance column fails instead of reading it as sources
    with pytest.raises(TypeError):
        Ranking("q", ["a"], [1.0], [PROV_FRONTIER], [None])
    with pytest.raises(TypeError):
        Ranking("q", ["a"], [1.0], [None])


def test_ranking_copies_the_caller_scores():
    scores = np.array([2.0, 1.0])
    r = Ranking("q", ["a", "b"], scores)
    scores[0] = 7.0
    assert scores.flags.writeable
    assert r.scores().tolist() == [2.0, 1.0]
    assert not r.scores().flags.writeable
    assert r.scores().dtype == np.float64
    assert Ranking("q", ["a"], np.array([3], dtype=np.int32)).scores().dtype == np.float64


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
    assert out.docids() == ("d1", "d0", "d2", "d3", "d4", "d5")
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


@pytest.mark.parametrize("rerank", ["typical", "gar"])
def test_rerank_refuses_backfill_past_the_finite_range(rerank):
    # below -max there is no finite score for the two unscored pool docs
    lowest = -sys.float_info.max
    r0 = Ranking.from_pairs("q7", [("a", 3.0), ("b", 2.0), ("c", 1.0)])
    graph = graph_from_rows(["a", "b", "c"], {0: [1]})
    config = ReRankConfig(batch_size=1, budget=1)
    with pytest.raises(ValueError, match=r"2 finite backfill scores below score -1\.79.*e\+308 of query 'q7'"):
        if rerank == "typical":
            typical_rerank(r0, MapScorer({"a": lowest}), config)
        else:
            gar_rerank(r0, MapScorer({"a": lowest}), graph, config)


def test_backfill_reaches_the_lowest_finite_score():
    # one float spacing above -max leaves room for exactly one doc
    base = math.nextafter(-sys.float_info.max, 0)
    r0 = Ranking.from_pairs("q", [("a", 2.0), ("b", 1.0)])
    out = typical_rerank(r0, MapScorer({"a": base}), ReRankConfig(batch_size=1, budget=1))
    assert out.docids() == ("a", "b")
    assert out.scores().tolist() == [base, -sys.float_info.max]


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
    assert out.docids() == ("b", "a", "c", "d")
    assert out[2].score == 0.1 - BACKFILL_EPSILON
    assert out[3].score == 0.1 - 2 * BACKFILL_EPSILON


def test_typical_score_ties_break_by_docid():
    r0 = Ranking.from_pairs("q", [("z", 3.0), ("m", 2.0), ("a", 1.0)])
    out = typical_rerank(r0, MapScorer({"z": 0.5, "m": 0.5, "a": 0.5}))
    assert out.docids() == ("a", "m", "z")


def test_typical_batch_sizes():
    r0 = Ranking.from_pairs("q", [(f"d{i}", float(-i)) for i in range(12)])
    counting = CountingScorer(HashScorer())
    typical_rerank(r0, counting, ReRankConfig(batch_size=3, budget=10))
    assert [len(b) for b in counting.batches] == [3, 3, 3, 1]
    assert counting.batches[0] == ["d0", "d1", "d2"]


def test_empty_r0_rejected():
    with pytest.raises(ValueError, match="empty initial ranking"):
        typical_rerank(Ranking("q", [], []), HashScorer())


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
    # the batch's first non-finite score is named, whatever follows it
    scores["d1"], scores["d2"], scores["d3"] = 1.0, bad, float("nan")
    with pytest.raises(ValueError, match=r"non-finite score .* query 'q' doc 'd2'"):
        typical_rerank(r0, MapScorer(scores), ReRankConfig(batch_size=2, budget=4))


def test_scorer_finite_scores_summing_past_the_float_range_accepted():
    # each batch's scores sum to inf, yet every one of them is finite
    pool = [f"d{i}" for i in range(6)]
    r0 = Ranking.from_pairs("q", [(docid, 6.0 - i) for i, docid in enumerate(pool)])
    scores = dict(zip(pool, [1e308, 1.5e308, -1e308, -1.7e308, 1.7e308, 1e308]))
    out = typical_rerank(r0, MapScorer(scores), ReRankConfig(batch_size=2, budget=4))
    want = reference_rerank(pool, lambda batch: [scores[d] for d in batch], {}, 2, 4)
    assert [(e.docid, e.score, e.provenance, e.source) for e in out] == want


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
    assert out.docids() == ("d4", "d0", "d2", "d5", "d3", "d1")
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


def test_gar_toy_trace(tmp_path):
    r0 = toy_r0()
    out = gar_rerank(
        r0, MapScorer(TOY_SCORES), toy_graph(), ReRankConfig(batch_size=2, budget=6)
    )
    write_trace(tmp_path / "trace.tsv", {"q": r0}, {"q": out})
    rows = read_trace(tmp_path / "trace.tsv")
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
    assert out.docids() == ("d4", "d0", "d7", "d2", "d5", "d3", "d1", "d6")
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


def test_gar_frontier_doc_also_in_pool(tmp_path):
    # c sits deep in the pool but is discovered through the graph first:
    # it keeps frontier provenance and is skipped when the cursor reaches it
    docids = ["a", "b", "c"]
    graph = graph_from_rows(docids, {0: [2]}, k=1)
    r0 = Ranking.from_pairs("q", [("a", 3.0), ("b", 2.0), ("c", 1.0)])
    counting = CountingScorer(MapScorer({"a": 0.6, "b": 0.4, "c": 0.9}))
    out = gar_rerank(r0, counting, graph, ReRankConfig(batch_size=1, budget=4))
    assert counting.batches == [["a"], ["c"], ["b"]]
    write_trace(tmp_path / "trace.tsv", {"q": r0}, {"q": out})
    by_doc = {r.docid: r for r in read_trace(tmp_path / "trace.tsv")}
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
    assert tuple(typical) == tuple(adaptive)


def test_gar_backfill_keeps_pool_order():
    r0 = Ranking.from_pairs("q", [(f"d{i:03d}", float(100 - i)) for i in range(100)])
    out = typical_rerank(r0, HashScorer(), ReRankConfig(batch_size=16, budget=10))
    tail = tuple(out)[10:]
    assert len(tail) == 90
    scored_ids = {e.docid for e in tuple(out)[:10]}
    expected_tail = [d for d in r0.docids() if d not in scored_ids]
    assert [e.docid for e in tail] == expected_tail
    scores = [e.score for e in tail]
    assert scores == sorted(scores, reverse=True)
    assert max(scores) < min(e.score for e in tuple(out)[:10])


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
        scored = tuple(out)[: len(counting.pairs)]
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


# docids over all of Unicode but surrogates and whitespace, with ids that
# differ only by a trailing NUL and non-ASCII letters drawn often
DOC_NAME = st.one_of(
    st.sampled_from(["a", "a\x00", "g1", "x0", "é", "e\u0301", "日本", "\U0001f600"]),
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=4),
).filter(lambda docid: docid.split() == [docid])


@st.composite
def rerank_instances(draw):
    """Small sentinel-padded graph, a pool mixing graph and outside docs,
    tie-prone scores, and a batch size and budget."""
    n = draw(st.integers(1, 10))
    k = draw(st.integers(1, 4))
    names = draw(st.lists(DOC_NAME, min_size=n + 3, max_size=n + 3, unique=True))
    docids, outside = names[:n], names[n:]
    rows = {}
    for doc in range(n):
        others = [j for j in range(n) if j != doc]
        rows[doc] = draw(st.lists(st.sampled_from(others), unique=True, max_size=k)) if others else []
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


def test_rerank_matches_reference_model_at_mid_size():
    # Larger graphs than the hypothesis instances, so that many sources tie
    # at one priority and docs get drawn from deep inside a source's row.
    rng = random.Random(8)
    levels = {
        "two-level": lambda: float(rng.randint(0, 1)),
        "four-level": lambda: float(rng.randint(0, 3)),
        "continuous": rng.random,
    }
    for trial in range(200):
        n = rng.randint(20, 300)
        docids = [f"g{i}" for i in range(n)]
        graph = random_graph(rng, docids, k=rng.randint(1, 8))
        neighbours = {docid: [docids[nb] for nb in graph.neighbours(doc)] for doc, docid in enumerate(docids)}
        outside = [f"x{i}" for i in range(rng.randint(0, 20))]
        pool = rng.sample(docids + outside, rng.randint(1, min(100, n + len(outside))))
        r0 = Ranking.from_pairs("q", [(d, float(len(pool) - i)) for i, d in enumerate(pool)])
        level = rng.choice(sorted(levels))
        scores = {d: levels[level]() for d in docids + outside}
        for batch_size in (1, 3, 16):
            for budget in (1, 7, 50, 200):
                counting = CountingScorer(MapScorer(scores))
                out = gar_rerank(r0, counting, graph, ReRankConfig(batch_size, budget))
                batches = []

                def score(batch):
                    batches.append(list(batch))
                    return [scores[d] for d in batch]

                want = reference_rerank(pool, score, neighbours, batch_size, budget)
                case = f"trial {trial} ({level}, n={n}, b={batch_size}, c={budget})"
                assert counting.batches == batches, case
                assert [(e.docid, e.score, e.provenance, e.source) for e in out] == want, case


def _state_instance():
    """A shared graph, two queries with overlapping pools, and the output and
    scorer batches of each query on its own copy of the graph."""
    rng = random.Random(5)
    docids = [f"g{i}" for i in range(300)]
    graph = random_graph(rng, docids, k=8)
    pools = {
        qid: Ranking.from_pairs(qid, [(d, float(60 - i)) for i, d in enumerate(rng.sample(docids, 60))])
        for qid in ("qa", "qb")
    }
    config = ReRankConfig(batch_size=4, budget=120)
    fresh = {}
    for qid, r0 in pools.items():
        counting = CountingScorer(HashScorer())
        own = CorpusGraph(graph.edges.copy(), DocMap(docids))
        fresh[qid] = (tuple(gar_rerank(r0, counting, own, config)), counting.batches)
    return graph, pools, config, fresh


def test_rerank_carries_no_state_between_calls():
    graph, pools, config, fresh = _state_instance()
    for qid in ("qa", "qb", "qa"):
        counting = CountingScorer(HashScorer())
        assert (tuple(gar_rerank(pools[qid], counting, graph, config)), counting.batches) == fresh[qid], qid

    class FailsOnThirdBatch(CountingScorer):
        def score_batch(self, qid, query, docids):
            if len(self.batches) == 2:
                raise KeyError("backend unavailable")
            return super().score_batch(qid, query, docids)

    with pytest.raises(RuntimeError, match="scorer failed on query 'qb'"):
        gar_rerank(pools["qb"], FailsOnThirdBatch(HashScorer()), graph, config)
    counting = CountingScorer(HashScorer())
    assert (tuple(gar_rerank(pools["qa"], counting, graph, config)), counting.batches) == fresh["qa"]


def test_rerank_threads_share_one_graph():
    graph, pools, config, fresh = _state_instance()
    results = {name: [] for name in ("t0", "t1", "t2", "t3")}

    def work(name):
        for i in range(6):
            qid = ("qa", "qb")[(i + int(name[1])) % 2]
            counting = CountingScorer(HashScorer())
            results[name].append((qid, tuple(gar_rerank(pools[qid], counting, graph, config)), counting.batches))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(name,)) for name in results]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for name, runs in results.items():
        assert len(runs) == 6, name
        for qid, entries, batches in runs:
            assert (entries, batches) == fresh[qid], (name, qid)


def _reranked_as_reference(graph, pool, config):
    """gar_rerank's entries and batches on one pool, and the reference
    model's, which keeps no state between calls."""
    docids = graph.docmap.ids
    neighbours = {docid: [docids[nb] for nb in graph.neighbours(doc)] for doc, docid in enumerate(docids)}
    r0 = Ranking.from_pairs("q", [(d, float(len(pool) - i)) for i, d in enumerate(pool)])
    counting = CountingScorer(HashScorer())
    out = gar_rerank(r0, counting, graph, config)
    batches = []

    def score(batch):
        batches.append(list(batch))
        return HashScorer().score_batch("q", "", batch)

    want = reference_rerank(pool, score, neighbours, config.batch_size, config.budget)
    return ([(e.docid, e.score, e.provenance, e.source) for e in out], counting.batches), (want, batches)


def test_rerank_keeps_no_number_across_graph_sizes():
    # one thread re-ranks on a 300-doc graph, a 2,000-doc graph, then the
    # 300-doc graph again; the numbering array it keeps between queries
    # grows for the larger graph and serves the smaller one after it
    rng = random.Random(12)
    small = random_graph(rng, [f"g{i}" for i in range(300)], k=8)
    large = random_graph(rng, [f"g{i}" for i in range(2000)], k=8)
    pools = {graph: rng.sample(graph.docmap.ids, 60) for graph in (small, large)}
    config = ReRankConfig(batch_size=4, budget=150)
    for graph in (small, large, small):
        got, want = _reranked_as_reference(graph, pools[graph], config)
        assert got == want, graph.n_docs


def test_rerank_interrupted_query_leaves_no_stale_number():
    class Interrupt(BaseException):
        pass

    class InterruptsOnFifthBatch(CountingScorer):
        def score_batch(self, qid, query, docids):
            if len(self.batches) == 4:
                raise Interrupt
            return super().score_batch(qid, query, docids)

    rng = random.Random(13)
    graph = random_graph(rng, [f"g{i}" for i in range(300)], k=8)
    config = ReRankConfig(batch_size=4, budget=120)
    other = Ranking.from_pairs("qx", [(d, float(-i)) for i, d in enumerate(rng.sample(graph.docmap.ids, 60))])
    with pytest.raises(Interrupt):
        gar_rerank(other, InterruptsOnFifthBatch(HashScorer()), graph, config)
    got, want = _reranked_as_reference(graph, rng.sample(graph.docmap.ids, 60), config)
    assert got == want


def test_rerank_allocates_no_numbering_array_per_query():
    # the array of n_docs + 1 numbers is allocated by a thread's first query
    # on the graph, and later queries reuse it
    n = 200_000
    edges = np.full((n, 2), SENTINEL, dtype=np.uint32)
    edges[:, 0] = (np.arange(n) + 1) % n
    edges[:, 1] = (np.arange(n) + 2) % n
    graph = CorpusGraph(edges, DocMap([f"d{i}" for i in range(n)]))
    r0 = Ranking.from_pairs("q", [(f"d{i}", float(-i)) for i in range(0, 4000, 40)])
    config = ReRankConfig(batch_size=8, budget=200)
    first = gar_rerank(r0, HashScorer(), graph, config)
    tracemalloc.start()
    try:
        second = gar_rerank(r0, HashScorer(), graph, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert list(second) == list(first)
    assert peak < 4 * (n + 1) / 2


def test_numbering_array_widens_where_int32_numbers_could_overflow():
    # a number is below the graph's edge slots, and unseen is the dtype's maximum
    assert _numbering_array(3, 2**31 - 2).dtype == np.int32
    wide = _numbering_array(3, 2**31 - 1)
    assert wide.dtype == np.int64 and len(wide) == 4 and (wide == np.iinfo(np.int64).max).all()


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

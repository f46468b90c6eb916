from __future__ import annotations

import math
import random

import numpy as np
import pytest

from gar import (
    DenseVectors,
    DocMap,
    Ranking,
    cluster_matrix,
    ils,
    judged_at,
    map_at,
    metric_fn,
    ndcg,
    rr_at,
    recall_at,
)
from oracles import (
    reference_average_precision,
    reference_judged,
    reference_ndcg,
    reference_recall,
    reference_rr,
)
from synthdata import CRITERION_6_SEED, metric_instances


def one_query_run(docids):
    return {"q": [(docid, float(len(docids) - i)) for i, docid in enumerate(docids)]}


# --- ndcg ---------------------------------------------------------------------


def test_ndcg_perfect_ranking():
    run = one_query_run(["a", "b"])
    qrels = {"q": {"a": 3, "b": 1}}
    assert ndcg(run, qrels).per_query["q"] == pytest.approx(1.0)


def test_ndcg_single_relevant_at_rank_two():
    run = one_query_run(["x", "a"])
    qrels = {"q": {"a": 1}}
    got = ndcg(run, qrels, gain="lin")
    assert got.per_query["q"] == pytest.approx(1.0 / math.log2(3))
    assert got.mean == got.per_query["q"]


def test_ndcg_exp_vs_lin_gains():
    run = one_query_run(["b", "a"])
    qrels = {"q": {"a": 3, "b": 2}}
    exp = ndcg(run, qrels, gain="exp").per_query["q"]
    lin = ndcg(run, qrels, gain="lin").per_query["q"]
    # swapping a 3 for a 2 at the top hurts more under exponential gain
    assert exp < lin
    assert exp == pytest.approx((3 + 7 / math.log2(3)) / (7 + 3 / math.log2(3)))


def test_ndcg_cutoff():
    run = one_query_run(["x", "a"])
    qrels = {"q": {"a": 1}}
    assert ndcg(run, qrels, cutoff=1).per_query["q"] == 0.0
    assert ndcg(run, qrels, cutoff=2).per_query["q"] == pytest.approx(
        1.0 / math.log2(3)
    )


def test_ndcg_unjudged_docs_contribute_nothing():
    qrels = {"q": {"a": 2}}
    sparse = ndcg(one_query_run(["a"]), qrels).per_query["q"]
    padded = ndcg(one_query_run(["a", "u1", "u2"]), qrels).per_query["q"]
    assert sparse == padded == pytest.approx(1.0)


def test_ndcg_skips_zero_ideal_queries():
    run = {"q1": [("a", 1.0)], "q2": [("b", 1.0)]}
    qrels = {"q1": {"a": 1}, "q2": {"b": 0}}
    got = ndcg(run, qrels)
    assert set(got.per_query) == {"q1"}
    with pytest.raises(ValueError, match="no qualifying queries"):
        ndcg({"q2": [("b", 1.0)]}, qrels)


def test_metrics_require_shared_queries():
    with pytest.raises(ValueError, match="share no queries"):
        ndcg({"q1": [("a", 1.0)]}, {"q2": {"a": 1}})


def test_ndcg_bad_gain():
    with pytest.raises(ValueError, match="gain"):
        ndcg(one_query_run(["a"]), {"q": {"a": 1}}, gain="sqrt")


def test_mean_over_queries():
    run = {"q1": [("a", 1.0)], "q2": [("x", 2.0), ("b", 1.0)]}
    qrels = {"q1": {"a": 1}, "q2": {"b": 1}}
    got = ndcg(run, qrels, gain="lin")
    assert got.mean == pytest.approx((1.0 + 1.0 / math.log2(3)) / 2)


# --- binarized metrics ----------------------------------------------------------


def test_map_binarizes_at_two():
    run = one_query_run(["b", "a", "c"])
    qrels = {"q": {"a": 2, "b": 1, "c": 3}}
    got = map_at(run, qrels)
    # relevant = {a, c}: hits at ranks 2 and 3
    assert got.per_query["q"] == pytest.approx((1 / 2 + 2 / 3) / 2)


def test_map_counts_unretrieved_relevant():
    run = one_query_run(["a"])
    qrels = {"q": {"a": 2, "missing": 2}}
    assert map_at(run, qrels).per_query["q"] == pytest.approx(0.5)


def test_map_skips_queries_without_relevant():
    run = {"q1": [("a", 1.0)], "q2": [("b", 1.0)]}
    qrels = {"q1": {"a": 2}, "q2": {"b": 1}}
    assert set(map_at(run, qrels).per_query) == {"q1"}


def test_recall_at_k():
    run = one_query_run(["a", "x", "b", "c"])
    qrels = {"q": {"a": 2, "b": 3, "c": 2, "z": 2}}
    assert recall_at(run, qrels, k=1).per_query["q"] == pytest.approx(1 / 4)
    assert recall_at(run, qrels, k=3).per_query["q"] == pytest.approx(2 / 4)
    assert recall_at(run, qrels, k=1000).per_query["q"] == pytest.approx(3 / 4)


def test_rr_counts_label_one_by_default():
    run = one_query_run(["x", "b"])
    qrels = {"q": {"b": 1}}
    assert rr_at(run, qrels, k=10).per_query["q"] == pytest.approx(0.5)
    with pytest.raises(ValueError, match="no qualifying"):
        rr_at(run, qrels, k=10, min_rel=2)


def test_rr_zero_when_outside_cutoff():
    run = one_query_run(["x1", "x2", "b"])
    qrels = {"q": {"b": 3}}
    assert rr_at(run, qrels, k=2).per_query["q"] == 0.0


def test_judged_counts_any_label():
    run = one_query_run([f"d{i}" for i in range(10)])
    qrels = {"q": {"d0": 0, "d3": 1, "d5": 2, "d9": 3, "unretrieved": 3}}
    assert judged_at(run, qrels, k=10).per_query["q"] == pytest.approx(0.4)


def test_judged_short_run_uses_retrieved_count():
    run = one_query_run(["a", "b", "c", "d", "e"])
    qrels = {"q": {"a": 0, "c": 2}}
    assert judged_at(run, qrels, k=10).per_query["q"] == pytest.approx(2 / 5)


# --- metric_fn -------------------------------------------------------------------


def test_metric_fn_dispatch():
    run = one_query_run(["a", "x", "b"])
    qrels = {"q": {"a": 3, "b": 2}}
    assert metric_fn("ndcg")(run, qrels).mean == ndcg(run, qrels).mean
    assert metric_fn("ndcg@2")(run, qrels).mean == ndcg(run, qrels, cutoff=2).mean
    assert metric_fn("ndcg", gain="lin")(run, qrels).mean == ndcg(run, qrels, gain="lin").mean
    assert metric_fn("map")(run, qrels).mean == map_at(run, qrels).mean
    assert metric_fn("recall@2")(run, qrels).mean == recall_at(run, qrels, k=2).mean
    assert metric_fn("rr@3")(run, qrels).mean == rr_at(run, qrels, k=3).mean
    assert metric_fn("judged@3")(run, qrels).mean == judged_at(run, qrels, k=3).mean


def test_metric_fn_rejects_bad_specs():
    for bad in ["recall", "rr", "judged", "map@10", "ndcg@x", "ndcg@0", "bogus", "bogus@5"]:
        with pytest.raises(ValueError):
            metric_fn(bad)
    for bad in ["ndcg@", "map@", "ndcg@10_0", "ndcg@ 10", "ndcg@+10", "ndcg@10 ", "recall@\u0661\u0660"]:
        with pytest.raises(ValueError, match="bad metric cutoff"):
            metric_fn(bad)


# --- randomized comparison against reference implementations ---------------------


def test_metrics_match_reference_on_random_instances():
    rng = random.Random(17)
    for trial in range(40):
        docids = [f"d{i}" for i in range(rng.randint(2, 12))]
        ranked = rng.sample(docids, rng.randint(1, len(docids)))
        labels = {d: rng.randint(0, 3) for d in docids if rng.random() < 0.7}
        if not any(rel > 0 for rel in labels.values()):
            labels[docids[0]] = rng.randint(1, 3)
        run = {"q": [(d, float(len(ranked) - i)) for i, d in enumerate(ranked)]}
        qrels = {"q": labels}
        cutoff = rng.randint(1, 14)

        want = reference_ndcg(ranked, labels, exp_gain=True)
        assert ndcg(run, qrels).per_query["q"] == pytest.approx(want, abs=1e-12)
        want = reference_ndcg(ranked, labels, cutoff=cutoff, exp_gain=False)
        if want is None:
            with pytest.raises(ValueError):
                ndcg(run, qrels, cutoff=cutoff, gain="lin")
        else:
            got = ndcg(run, qrels, cutoff=cutoff, gain="lin").per_query["q"]
            assert got == pytest.approx(want, abs=1e-12)

        relevant2 = {d for d, rel in labels.items() if rel >= 2}
        relevant1 = {d for d, rel in labels.items() if rel >= 1}
        checks = [
            (map_at, reference_average_precision(ranked, relevant2), {}),
            (recall_at, reference_recall(ranked, relevant2, cutoff), {"k": cutoff}),
            (rr_at, reference_rr(ranked, relevant1, cutoff), {"k": cutoff}),
            (judged_at, reference_judged(ranked, set(labels), cutoff), {"k": cutoff}),
        ]
        for fn, want, kwargs in checks:
            if want is None:
                with pytest.raises(ValueError):
                    fn(run, qrels, **kwargs)
            else:
                got = fn(run, qrels, **kwargs).per_query["q"]
                assert got == pytest.approx(want, abs=1e-12), f"trial {trial} {fn}"


def _outcome(fn, run, qrels, **kwargs):
    """Each per-query value and the mean as float.hex, or the error raised."""
    try:
        values = fn(run, qrels, **kwargs)
    except ValueError as exc:
        return "error", str(exc)
    return {qid: value.hex() for qid, value in values.per_query.items()}, values.mean.hex()


def test_metrics_read_a_ranking_as_its_pairs():
    # criterion 6's instances: bitwise the same values, or the same error
    docids = [f"d{i}" for i in range(10)]
    vectors = DenseVectors(np.random.default_rng(6).standard_normal((10, 4)), DocMap(docids))
    for ranked, labels, cutoff in metric_instances(CRITERION_6_SEED, 100):
        ranking = Ranking("q", ranked, [float(len(ranked) - i) for i in range(len(ranked))])
        qrels = {"q": labels}
        for fn, kwargs in [
            (ndcg, {}),
            (ndcg, {"cutoff": cutoff, "gain": "lin"}),
            (map_at, {}),
            (recall_at, {"k": cutoff}),
            (rr_at, {"k": cutoff}),
            (judged_at, {"k": cutoff}),
            (ils, {"vectors": vectors}),
            (ils, {"vectors": vectors, "min_rel": 1, "depth": cutoff}),
        ]:
            want = _outcome(fn, {"q": ranking.pairs()}, qrels, **kwargs)
            assert _outcome(fn, {"q": ranking}, qrels, **kwargs) == want, (fn.__name__, kwargs)


def test_cut_metrics_read_pairs_only_down_to_their_cutoff():
    # what lies past the cutoff is never unpacked
    run = {"q": [("a", 3.0), ("b", 2.0), None, None]}
    qrels = {"q": {"a": 2, "b": 1}}
    assert ndcg(run, qrels, 2).per_query["q"] == 1.0
    assert recall_at(run, qrels, k=2).per_query["q"] == 1.0
    assert rr_at(run, qrels, k=2).per_query["q"] == 1.0
    assert judged_at(run, qrels, k=2).per_query["q"] == 1.0
    assert ils(run, qrels, ils_vectors(), min_rel=1, depth=2).per_query["q"] == pytest.approx(1.0)


# --- cluster matrix ---------------------------------------------------------------


def sim_from(table):
    def similarity(a, b):
        return table[(a, b)] if (a, b) in table else table[(b, a)]

    return similarity


def test_cluster_matrix_hand_case():
    qrels = {"q": {"a": 3, "b": 3, "c": 0}}
    sims = sim_from({("a", "b"): 0.9, ("a", "c"): 0.1, ("b", "c"): 0.2})
    matrix = cluster_matrix(qrels, sims)
    assert matrix.shape == (4, 4)
    assert np.allclose(matrix[3], [0, 0, 0, 1])
    assert np.allclose(matrix[0], [0, 0, 0, 1])
    assert np.all(matrix[1] == 0)
    assert np.all(matrix[2] == 0)


def test_cluster_matrix_tie_breaks_by_ascending_docid():
    qrels = {"q": {"a": 1, "b": 2, "c": 3}}
    sims = sim_from({("a", "b"): 0.5, ("a", "c"): 0.5, ("b", "c"): 0.5})
    matrix = cluster_matrix(qrels, sims)
    assert np.allclose(matrix[1], [0, 0, 1, 0])  # a -> b
    assert np.allclose(matrix[2], [0, 1, 0, 0])  # b -> a
    assert np.allclose(matrix[3], [0, 1, 0, 0])  # c -> a


def test_cluster_matrix_pools_over_queries():
    qrels = {
        "q1": {"a": 2, "b": 2},
        "q2": {"c": 2, "d": 3},
    }
    sims = sim_from({("a", "b"): 0.5, ("c", "d"): 0.5})
    matrix = cluster_matrix(qrels, sims)
    # label-2 probes: a->b (2), b->a (2), c->d (3)
    assert np.allclose(matrix[2], [0, 0, 2 / 3, 1 / 3])
    assert np.allclose(matrix[3], [0, 0, 1, 0])


def test_cluster_matrix_skips_single_doc_queries():
    qrels = {"q1": {"a": 3}, "q2": {"b": 2, "c": 2}}
    matrix = cluster_matrix(qrels, sim_from({("b", "c"): 0.1}))
    assert np.allclose(matrix[2], [0, 0, 1, 0])
    assert np.all(matrix[3] == 0)
    with pytest.raises(ValueError, match="two or more judged"):
        cluster_matrix({"q1": {"a": 3}}, sim_from({}))


def test_cluster_matrix_rejects_bad_labels():
    with pytest.raises(ValueError, match="label out of range"):
        cluster_matrix({"q": {"a": 4, "b": 0}}, sim_from({("a", "b"): 0.5}))


def test_cluster_matrix_rows_normalized_and_transform_invariant():
    rng = random.Random(5)
    for _ in range(20):
        qrels = {}
        docs = [f"d{i}" for i in range(8)]
        for qn in range(rng.randint(1, 4)):
            judged = rng.sample(docs, rng.randint(2, 6))
            qrels[f"q{qn}"] = {d: rng.randint(0, 3) for d in judged}
        table = {}
        for i, a in enumerate(docs):
            for b in docs[i + 1 :]:
                table[(a, b)] = rng.choice([0.1, 0.2, 0.3, 0.4])
        base = cluster_matrix(qrels, sim_from(table))
        sums = base.sum(axis=1)
        for value in sums:
            assert value == pytest.approx(1.0, abs=1e-9) or value == 0.0
        transformed = cluster_matrix(
            qrels, lambda a, b: math.exp(3 * sim_from(table)(a, b))
        )
        assert np.array_equal(base, transformed)


# --- intra-list similarity ----------------------------------------------------


def ils_vectors():
    matrix = np.array([[1, 0], [1, 0], [0, 1], [-1, 0]], dtype=np.float64)
    return DenseVectors(matrix, DocMap(["a", "b", "c", "d"]))


def test_ils_hand_case():
    run = one_query_run(["a", "b", "c"])
    qrels = {"q": {"a": 2, "b": 3, "c": 2, "unretrieved": 2}}
    got = ils(run, qrels, ils_vectors())
    assert got.per_query["q"] == pytest.approx(1 / 3, abs=1e-6)


def test_ils_respects_min_rel_and_depth():
    run = one_query_run(["a", "b", "c"])
    qrels = {"q": {"a": 2, "b": 2, "c": 1}}
    assert ils(run, qrels, ils_vectors()).per_query["q"] == pytest.approx(1.0, abs=1e-6)
    run2 = one_query_run(["a", "d", "b"])
    qrels2 = {"q": {"a": 2, "d": 2, "b": 2}}
    assert ils(run2, qrels2, ils_vectors(), depth=2).per_query["q"] == pytest.approx(
        -1.0, abs=1e-6
    )


def test_ils_skips_queries_with_one_relevant():
    run = {"q1": [("a", 1.0)], "q2": [("a", 2.0), ("b", 1.0)]}
    qrels = {"q1": {"a": 2}, "q2": {"a": 2, "b": 2}}
    got = ils(run, qrels, ils_vectors())
    assert set(got.per_query) == {"q2"}


def test_ils_missing_vector():
    run = one_query_run(["a", "zz"])
    qrels = {"q": {"a": 2, "zz": 2}}
    with pytest.raises(ValueError, match="no vector for doc 'zz'"):
        ils(run, qrels, ils_vectors())

"""Acceptance suite: ten gating checks, one printed verdict line each.

Every test prints [PASS]/[FAIL] with a short factual summary before
asserting, so the verdicts are visible in the ordinary pytest output.
"""

from __future__ import annotations

import random
import time

import numpy as np
import pytest

from gar import (
    Bm25Params,
    CorpusGraph,
    DocMap,
    Ranking,
    ReRankConfig,
    bm25_doc_topk,
    bm25_retrieve,
    build_graph,
    cluster_matrix,
    dense_topk,
    DenseVectors,
    gar_rerank,
    index_corpus,
    judged_at,
    latency_bench,
    map_at,
    ndcg,
    OracleScorer,
    precompute_cache,
    recall_at,
    rerank_run,
    rr_at,
    read_trace,
    sweep_parameter,
    typical_rerank,
    write_trace,
)
from gar.graph import SENTINEL, graph_file_size
from gar.ranking import RankEntry
from gar.sweep import write_sweep_table
from gar.lexical import Bm25BlockTopk, build_dense_graph
from oracles import (
    bm25_all_scores,
    closure,
    knn_row,
    reference_average_precision,
    reference_judged,
    reference_ndcg,
    reference_recall,
    reference_rr,
    reference_tokenize,
)
from synthdata import (
    CRITERION_6_SEED,
    CountingScorer,
    HashScorer,
    MapScorer,
    bench_instance,
    edgeless_graph,
    metric_instances,
    planted_instance,
    random_corpus,
    random_graph,
    random_vectors,
)


def _verdict(capsys, number: int, ok: bool, detail: str, started: float) -> None:
    elapsed = time.perf_counter() - started
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[{status}] criterion {number}: {detail} ({elapsed:.1f}s)")
    assert ok, f"criterion {number}: {detail}"


# --- 1: degenerate equivalence ------------------------------------------------


def test_criterion_01_edgeless_graph_equals_typical(capsys):
    started = time.perf_counter()
    rng = random.Random(1001)
    scorer = HashScorer()
    identical = 0
    trials = 100
    for _ in range(trials):
        n = rng.randint(1, 64)
        docids = [f"d{i:02d}" for i in range(n)]
        pool = rng.sample(docids, rng.randint(1, n))
        r0 = Ranking.from_pairs(
            "q", [(d, float(len(pool) - i)) for i, d in enumerate(pool)]
        )
        config = ReRankConfig(
            batch_size=rng.randint(1, 20), budget=rng.randint(1, 80)
        )
        graph = edgeless_graph(docids, k=rng.randint(0, 4))
        typical = typical_rerank(r0, scorer, config)
        adaptive = gar_rerank(r0, scorer, graph, config)
        if typical.qid == adaptive.qid and tuple(typical) == tuple(adaptive):
            identical += 1
    _verdict(
        capsys,
        1,
        identical == trials,
        f"edgeless gar identical to typical on {identical}/{trials} randomized instances (exact)",
        started,
    )


# --- 2: toy-instance trace fidelity --------------------------------------------


def test_criterion_02_toy_instance_trace(capsys, tmp_path):
    started = time.perf_counter()
    docids = [f"d{i}" for i in range(8)]
    edges = np.full((8, 2), SENTINEL, dtype=np.uint32)
    edges[0] = [4, 5]
    edges[1, 0] = 6
    edges[2, 0] = 7
    graph = CorpusGraph(edges, DocMap(docids))
    scores = {
        "d0": 0.9, "d1": 0.1, "d2": 0.8, "d3": 0.2,
        "d4": 0.95, "d5": 0.5, "d6": 0.05, "d7": 0.85,
    }
    r0 = Ranking.from_pairs("q", [("d0", 4.0), ("d1", 3.0), ("d2", 2.0), ("d3", 1.0)])
    counting = CountingScorer(MapScorer(scores))
    out = gar_rerank(r0, counting, graph, ReRankConfig(batch_size=2, budget=6))

    problems = []
    if out.docids() != ("d4", "d0", "d2", "d5", "d3", "d1"):
        problems.append(f"order {out.docids()}")
    by_doc = {e.docid: e for e in out}
    for docid in ("d4", "d5"):
        entry = by_doc.get(docid)
        if entry is None or entry.provenance != "frontier" or entry.source != "d0":
            problems.append(f"{docid} provenance/source wrong")
    if "d7" in by_doc or "d6" in by_doc:
        problems.append("unreached docs appear in output")
    if counting.batches != [["d0", "d1"], ["d4", "d5"], ["d2", "d3"]]:
        problems.append(f"batches {counting.batches}")
    write_trace(tmp_path / "trace.tsv", {"q": r0}, {"q": out})
    ranks = [(r.docid, r.initial_rank) for r in read_trace(tmp_path / "trace.tsv")]
    if ranks != [("d4", None), ("d0", 1), ("d2", 3), ("d5", None), ("d3", 4), ("d1", 2)]:
        problems.append(f"trace {ranks}")
    _verdict(
        capsys,
        2,
        not problems,
        "toy instance exact: [d4 d0 d2 d5 d3 d1], d4/d5 frontier from d0, d7 unscored"
        if not problems
        else "; ".join(problems),
        started,
    )


# --- 3: budget adherence --------------------------------------------------------


def test_criterion_03_budget_adherence(capsys):
    started = time.perf_counter()
    rng = random.Random(3003)
    trials = 1000
    verified = 0
    for _ in range(trials):
        n = rng.randint(1, 32)
        docids = [f"d{i:02d}" for i in range(n)]
        graph = random_graph(rng, docids, k=rng.randint(1, 4))
        pool = rng.sample(docids, rng.randint(1, n))
        if rng.random() < 0.25:
            pool[-1] = "offgraph"
        r0 = Ranking.from_pairs(
            "q", [(d, float(len(pool) - i)) for i, d in enumerate(pool)]
        )
        budget = rng.randint(1, 40)
        counting = CountingScorer(HashScorer())
        gar_rerank(
            r0, counting, graph, ReRankConfig(batch_size=rng.randint(1, 8), budget=budget)
        )
        seeds = [graph.docmap.internal(d) for d in r0.docids() if d in graph.docmap]
        rows = [graph.neighbours(doc) for doc in range(graph.n_docs)]
        reachable = {graph.docmap.external(i) for i in closure(seeds, rows)}
        reachable |= set(r0.docids())
        once = all(count == 1 for count in counting.pairs.values())
        if once and len(counting.pairs) == min(budget, len(reachable)) <= budget:
            verified += 1
    _verdict(
        capsys,
        3,
        verified == trials,
        f"scored exactly min(c, reachable) with no repeat scoring on {verified}/{trials} instances",
        started,
    )


# --- 4: graph-builder oracle ------------------------------------------------------


def test_criterion_04_graph_builder_matches_brute_force(capsys):
    started = time.perf_counter()
    rng = random.Random(4004)
    np_rng = np.random.default_rng(4004)
    sizes = [rng.randint(20, 120) for _ in range(18)] + [450, 500]
    params = Bm25Params()
    bad = 0
    rows_checked = 0
    for size in sizes:
        k = rng.randint(1, 10)

        corpus = random_corpus(rng, size)
        if all(not text for _, text in corpus):
            corpus[0] = (corpus[0][0], "w000")
        index = index_corpus(corpus)
        graph = build_graph(
            index.docmap, lambda d, c: bm25_doc_topk(index, params, d, c), k
        )
        block_bm25_graph = build_graph(index.docmap, Bm25BlockTopk(index, params), k)
        tokens = [reference_tokenize(text) for _, text in corpus]
        for doc in range(size):
            scores = bm25_all_scores(tokens, set(tokens[doc]))
            want = knn_row(scores, doc, k, positive_only=True)
            rows_checked += 2
            bad += (graph.edges[doc].tolist() != want) + (block_bm25_graph.edges[doc].tolist() != want)

        vectors = DenseVectors(
            random_vectors(np_rng, size, dim=8), DocMap([d for d, _ in corpus])
        )
        dense_graph = build_graph(
            vectors.docmap, lambda d, c: dense_topk(vectors, d, c), k
        )
        block_graph = build_dense_graph(vectors, k)
        m64 = vectors.matrix.astype(np.float64)
        for doc in range(size):
            sims = np.clip(m64 @ m64[doc], -1.0, 1.0).tolist()
            want = knn_row(sims, doc, k, positive_only=False)
            rows_checked += 2
            bad += (dense_graph.edges[doc].tolist() != want) + (block_graph.edges[doc].tolist() != want)
    _verdict(
        capsys,
        4,
        bad == 0,
        f"{rows_checked} edge rows over {len(sizes)} corpora x 4 builds, "
        f"{rows_checked - bad} exact matches against brute force",
        started,
    )


# --- 5: binary format fidelity ------------------------------------------------------


def test_criterion_05_graph_format_and_size(capsys, tmp_path):
    started = time.perf_counter()
    rng = random.Random(5005)
    problems = []
    for i, k in enumerate([1, 3, 8, 8, 12]):
        n = rng.randint(1, 60)
        graph = random_graph(rng, [f"g{i}d{j:02d}" for j in range(n)], k)
        path = tmp_path / f"graph{i}.bin"
        graph.save(path)
        loaded = CorpusGraph.load(path)
        if not np.array_equal(loaded.edges, graph.edges) or loaded.docmap != graph.docmap:
            problems.append(f"graph {i}: save->load not identical")
        size = path.stat().st_size
        if size != graph_file_size(n, k) or size != 16 + 4 * k * n:
            problems.append(f"graph {i}: size {size} != 16 + 4*{k}*{n}")
        if k == 8 and (size - 16) != 32 * n:
            problems.append(f"graph {i}: k=8 edge bytes per doc != 32")
    marco = graph_file_size(8_841_823, 8)
    if marco != 282_938_352 or round(marco / 1e6) != 283:
        problems.append(f"8.8M-doc k=8 size {marco}")
    _verdict(
        capsys,
        5,
        not problems,
        "save->load identity; size == 16 + 4kn; 32 bytes/doc at k=8 "
        "(8,841,823 docs -> 282,938,352 bytes)"
        if not problems
        else "; ".join(problems),
        started,
    )


# --- 6: metric oracle ------------------------------------------------------------


def test_criterion_06_metrics_match_reference(capsys):
    started = time.perf_counter()
    trials = 100
    max_diff = 0.0
    agreed = 0

    def diff(got, want):
        nonlocal max_diff
        max_diff = max(max_diff, abs(got - want))
        return abs(got - want) <= 1e-9

    for ranked, labels, cutoff in metric_instances(CRITERION_6_SEED, trials):
        run = {"q": [(d, float(len(ranked) - i)) for i, d in enumerate(ranked)]}
        qrels = {"q": labels}
        ok = True

        ok &= diff(
            ndcg(run, qrels).per_query["q"], reference_ndcg(ranked, labels)
        )
        ok &= diff(
            ndcg(run, qrels, cutoff=cutoff, gain="lin").per_query["q"],
            reference_ndcg(ranked, labels, cutoff=cutoff, exp_gain=False),
        )
        relevant2 = {d for d, rel in labels.items() if rel >= 2}
        relevant1 = {d for d, rel in labels.items() if rel >= 1}
        for fn, want, kwargs in (
            (map_at, reference_average_precision(ranked, relevant2), {}),
            (recall_at, reference_recall(ranked, relevant2, cutoff), {"k": cutoff}),
            (rr_at, reference_rr(ranked, relevant1, cutoff), {"k": cutoff}),
            (judged_at, reference_judged(ranked, set(labels), cutoff), {"k": cutoff}),
        ):
            if want is None:
                try:
                    fn(run, qrels, **kwargs)
                    ok = False
                except ValueError:
                    pass
            else:
                ok &= diff(fn(run, qrels, **kwargs).per_query["q"], want)
        agreed += ok

    # rel>=2 binarization: a label-1 doc at rank 1 counts for neither map nor recall
    run = {"q": [("low", 2.0), ("high", 1.0)]}
    qrels = {"q": {"low": 1, "high": 2}}
    binarized = (
        map_at(run, qrels).per_query["q"] == pytest.approx(0.5, abs=1e-12)
        and recall_at(run, qrels, k=1).per_query["q"] == 0.0
        and recall_at(run, qrels, k=2).per_query["q"] == 1.0
    )
    _verdict(
        capsys,
        6,
        agreed == trials and binarized,
        f"metrics within 1e-9 of reference on {agreed}/{trials} micro-instances "
        f"(max |diff| {max_diff:.2e}); rel>=2 binarization holds",
        started,
    )


# --- 7: clustering-hypothesis mechanism ---------------------------------------------


def test_criterion_07_planted_clusters_recall_gain(capsys):
    started = time.perf_counter()
    params = Bm25Params()
    config = ReRankConfig(batch_size=16, budget=100)
    wins = 0
    seeds = range(10)
    worst_miss = 1.0
    means = []
    for seed in seeds:
        inst = planted_instance(seed)
        index = index_corpus(inst.corpus)
        pools = {
            qid: bm25_retrieve(index, params, qid, text, 1000)
            for qid, text in inst.queries.items()
        }
        for qid, r0 in pools.items():
            relevant = {d for d, rel in inst.qrels[qid].items() if rel >= 2}
            found = len(relevant & set(r0.docids()))
            worst_miss = min(worst_miss, 1.0 - found / len(relevant))
        graph = build_graph(
            index.docmap, lambda d, c: bm25_doc_topk(index, params, d, c), 8
        )
        scorer = OracleScorer(inst.qrels)
        typical_run = {}
        gar_run = {}
        for qid, r0 in pools.items():
            typical_run[qid] = typical_rerank(r0, scorer, config).pairs()
            gar_run[qid] = gar_rerank(r0, scorer, graph, config).pairs()
        typical_recall = recall_at(typical_run, inst.qrels, k=100).mean
        gar_recall = recall_at(gar_run, inst.qrels, k=100).mean
        means.append((typical_recall, gar_recall))
        if gar_recall > typical_recall:
            wins += 1
    typical_avg = sum(t for t, _ in means) / len(means)
    gar_avg = sum(g for _, g in means) / len(means)
    _verdict(
        capsys,
        7,
        wins == len(means) and worst_miss >= 0.30,
        f"recall@100 gar > typical on {wins}/{len(means)} seeds "
        f"(mean {typical_avg:.3f} -> {gar_avg:.3f}); pool misses >= {worst_miss:.0%} of relevant",
        started,
    )


# --- 8: cluster-matrix properties ---------------------------------------------------


def test_criterion_08_cluster_matrix_stochastic_and_invariant(capsys):
    started = time.perf_counter()
    rng = random.Random(8008)
    trials = 30
    ok_trials = 0
    for _ in range(trials):
        docs = [f"d{i}" for i in range(10)]
        qrels = {"q0": dict(zip(rng.sample(docs, 4), [0, 1, 2, 3]))}
        for qn in range(1, rng.randint(2, 5)):
            judged = rng.sample(docs, rng.randint(2, 7))
            qrels[f"q{qn}"] = {d: rng.randint(0, 3) for d in judged}
        table = {}
        for i, a in enumerate(docs):
            for b in docs[i + 1 :]:
                table[(a, b)] = rng.choice([0.1, 0.2, 0.3, 0.4])

        def sim(a, b, _t=table):
            return _t[(a, b)] if (a, b) in _t else _t[(b, a)]

        base = cluster_matrix(qrels, sim)
        stochastic = all(
            abs(row_sum - 1.0) <= 1e-9 for row_sum in base.sum(axis=1)
        )
        invariant = all(
            np.array_equal(base, cluster_matrix(qrels, lambda a, b, f=f: f(sim(a, b))))
            for f in (lambda x: 5.0 * x - 2.0, lambda x: x**3, np.exp)
        )
        deterministic = np.array_equal(base, cluster_matrix(qrels, sim))
        ok_trials += stochastic and invariant and deterministic
    _verdict(
        capsys,
        8,
        ok_trials == trials,
        f"rows sum to 1 +- 1e-9 and matrix invariant under monotone transforms "
        f"on {ok_trials}/{trials} randomized qrels",
        started,
    )


# --- 9: latency-overhead harness ------------------------------------------------------


def test_criterion_09_latency_overhead(capsys):
    started = time.perf_counter()
    graph, pools = bench_instance(seed=7)
    cache = precompute_cache(pools, HashScorer(), graph, batch_size=16, max_budget=1000)
    budgets = (100, 250, 500, 750, 1000)
    report = latency_bench(pools, cache, graph, budgets=budgets, batch_size=16, repeats=10)

    c = np.array([s.budget for s in report.stats], dtype=np.float64)
    o = np.array([s.overhead_mean_us for s in report.stats])
    slope = float(np.polyfit(c, o, 1)[0])
    beta = float((o * c).sum() / (c * c).sum())
    shape_ok = slope > 0 and beta > 0 and bool((o <= 3.0 * beta * c).all())

    def edgeless_ci():
        eg = CorpusGraph(
            np.full((graph.n_docs, graph.k), SENTINEL, dtype=np.uint32), graph.docmap
        )
        rep = latency_bench(pools, cache, eg, budgets=(1000,), batch_size=16, repeats=10)
        return rep.stats[0].ci95_lo_us, rep.stats[0].ci95_hi_us

    lo, hi = edgeless_ci()
    null_ok = lo <= 0.0 <= hi
    if not null_ok:
        # a true-null 95% interval misses ~1 time in 20; allow one re-measurement
        lo, hi = edgeless_ci()
        null_ok = lo <= 0.0 <= hi

    overhead_str = ", ".join(f"c={s.budget}: {s.overhead_mean_us:.0f}us" for s in report.stats)
    _verdict(
        capsys,
        9,
        shape_ok and null_ok,
        f"overhead [{overhead_str}] slope {slope:.2f}us/doc within x3 of linear; "
        f"edgeless CI [{lo:.1f}, {hi:.1f}]us contains 0",
        started,
    )


# --- 10: parameter-sweep protocol ------------------------------------------------------


def test_criterion_10_sweep_protocol(capsys, tmp_path):
    started = time.perf_counter()
    inst = planted_instance(3)
    index = index_corpus(inst.corpus)
    params = Bm25Params()
    pools = {qid: bm25_retrieve(index, params, qid, text, 1000) for qid, text in inst.queries.items()}
    graph16 = build_graph(
        index.docmap, lambda d, c: bm25_doc_topk(index, params, d, c), 16
    )
    scorer = OracleScorer(inst.qrels)
    config = ReRankConfig(batch_size=16, budget=100)

    k_values = list(range(1, 17))
    k_rows = sweep_parameter(
        "k", k_values, pools, scorer, graph16, inst.qrels, ["recall@100"], config
    )
    b_values = [2**i for i in range(10)]
    b_rows = sweep_parameter(
        "b", b_values, pools, scorer, graph16.truncated(8), inst.qrels,
        ["recall@100"], config,
    )

    k_path = tmp_path / "sweep_k.tsv"
    b_path = tmp_path / "sweep_b.tsv"
    write_sweep_table(k_path, "k", k_rows, ["recall@100"])
    write_sweep_table(b_path, "b", b_rows, ["recall@100"])

    recalls = [row.means["recall@100"] for row in k_rows]
    monotone = all(a <= b for a, b in zip(recalls[:8], recalls[1:8]))
    k_lines = k_path.read_text().splitlines()
    b_lines = b_path.read_text().splitlines()
    tables_ok = (
        k_lines[0] == "k\trecall@100"
        and len(k_lines) == 17
        and [int(line.split("\t")[0]) for line in k_lines[1:]] == k_values
        and b_lines[0] == "b\trecall@100"
        and len(b_lines) == 11
        and [int(line.split("\t")[0]) for line in b_lines[1:]] == b_values
    )
    _verdict(
        capsys,
        10,
        monotone and tables_ok,
        f"recall@100 non-decreasing over k=1..8 ({recalls[0]:.2f} -> {recalls[7]:.2f}); "
        f"tables emitted for k in 1..16 and b in 1..512",
        started,
    )

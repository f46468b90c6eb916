from __future__ import annotations

import itertools
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import gar

from gar import (
    Bm25Params,
    Bm25Scorer,
    CorpusGraph,
    ReRankConfig,
    Ranking,
    bm25_doc_topk,
    bm25_retrieve,
    build_graph,
    gar_rerank,
    index_corpus,
    latency_bench,
    precompute_cache,
    typical_rerank,
)
from gar.bench import t_quantile, write_latency_report
from gar.graph import SENTINEL
from synthdata import HashScorer, bench_instance, random_graph

import random


def small_instance():
    rng = random.Random(13)
    docids = [f"d{i:02d}" for i in range(12)]
    graph = random_graph(rng, docids, k=3)
    pools = {
        f"q{i}": Ranking.from_pairs(f"q{i}", [(d, float(12 - pos)) for pos, d in enumerate(rng.sample(docids, 6))])
        for i in range(3)
    }
    return graph, pools


def test_precompute_cache_covers_both_modes_at_any_smaller_budget():
    graph, pools = small_instance()
    cache = precompute_cache(pools, HashScorer(), graph, batch_size=2, max_budget=8)
    for r0 in pools.values():
        for budget in (1, 2, 3, 5, 8):
            config = ReRankConfig(batch_size=2, budget=budget)
            # the cache as the scorer raises on any miss
            typical_rerank(r0, cache, config)
            gar_rerank(r0, cache, graph, config)


def test_precompute_cache_scores_agree_with_base_scorer():
    graph, pools = small_instance()
    base = HashScorer()
    cache = precompute_cache(pools, base, graph, batch_size=2, max_budget=8)
    for qid, r0 in pools.items():
        for docid in r0.docids():
            assert cache.lookup(qid, docid) == base.score_batch(qid, "", [docid])[0]


def test_bench_takes_bm25_retrieve_output():
    corpus = [(f"d{i}", " ".join(f"w{(i * j) % 7}" for j in range(1, 5))) for i in range(12)]
    queries = {"q1": "w1 w2", "q2": "w3 w5 w6"}
    index = index_corpus(corpus)
    params = Bm25Params()
    graph = build_graph(index.docmap, lambda d, c: bm25_doc_topk(index, params, d, c), 3)
    pools = {qid: bm25_retrieve(index, params, qid, text, 8) for qid, text in queries.items()}
    scorer = Bm25Scorer(index, params)
    # typical re-ranking at a budget of the pool size scores every pool doc
    cache = precompute_cache(pools, scorer, graph, batch_size=2, max_budget=8, query_texts=queries)
    for qid, r0 in pools.items():
        for docid in r0.docids():
            assert cache.lookup(qid, docid) == scorer.score_batch(qid, queries[qid], [docid])[0]
    report = latency_bench(pools, cache, graph, budgets=(3, 8), batch_size=2, repeats=2)
    assert [s.budget for s in report.stats] == [3, 8]
    assert {qid for *_, qid, _ in report.rows} == set(queries)


@pytest.mark.parametrize(
    "df, table", [(1, 12.706), (2, 4.303), (9, 2.262), (30, 2.042), (120, 1.980)]
)
def test_t_quantile_matches_published_table(df, table):
    # two-sided 95% critical values of Student's t
    assert t_quantile(0.975, df) == pytest.approx(table, abs=1e-3)


def test_t_quantile_median_and_validation():
    assert t_quantile(0.5, 7) == 0.0
    for df, p in [(0, 0.975), (3, 0.4), (3, 1.0)]:
        with pytest.raises(ValueError, match="df >= 1"):
            t_quantile(p, df)


def test_import_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(Path(gar.__file__).parent.parent))
    code = "import gar, gar.cli, sys; assert not [m for m in sys.modules if m.startswith('scipy')]"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_latency_bench_report_shape():
    graph, pools = small_instance()
    cache = precompute_cache(pools, HashScorer(), graph, batch_size=2, max_budget=8)
    report = latency_bench(
        pools, cache, graph, budgets=(8, 4, 8), batch_size=2, repeats=3
    )
    # budgets dedup and sort
    assert [s.budget for s in report.stats] == [4, 8]
    assert len(report.rows) == 2 * 2 * 3 * len(pools)
    for s in report.stats:
        assert s.ci95_lo_us <= s.overhead_mean_us <= s.ci95_hi_us
        assert s.overhead_mean_us == pytest.approx(
            s.gar_mean_us - s.typical_mean_us, abs=1e-6
        )
    first_block = report.rows[: len(pools)]
    assert all(mode == "typical" and run_idx == 0 for _, mode, run_idx, _, _ in first_block)
    assert [qid for _, _, _, qid, _ in first_block] == sorted(pools)
    modes = {mode for _, mode, _, _, _ in report.rows}
    assert modes == {"typical", "gar"}
    assert all(micros >= 0.0 for *_, micros in report.rows)


def test_latency_bench_alternation_cancels_a_drifting_clock(monkeypatch):
    graph, pools = small_instance()
    edgeless = CorpusGraph(np.full((graph.n_docs, graph.k), SENTINEL, dtype=np.uint32), graph.docmap)
    cache = precompute_cache(pools, HashScorer(), graph, batch_size=2, max_budget=8)
    # read i of the clock is at 1000 * i**2 ns, so each timed query reads
    # 4 us longer than the one before it, whichever mode runs
    reads = itertools.count()
    monkeypatch.setattr(gar.bench, "time", SimpleNamespace(perf_counter_ns=lambda: 1000 * next(reads) ** 2))
    for repeats in (2, 4, 10):
        report = latency_bench(pools, cache, edgeless, budgets=(8,), batch_size=2, repeats=repeats)
        assert report.stats[0].overhead_mean_us == pytest.approx(0.0, abs=1e-9)


def test_latency_bench_validation():
    graph, pools = small_instance()
    cache = precompute_cache(pools, HashScorer(), graph, batch_size=2, max_budget=8)
    with pytest.raises(ValueError, match="repeats"):
        latency_bench(pools, cache, graph, budgets=(4,), repeats=1)
    with pytest.raises(ValueError, match="budgets"):
        latency_bench(pools, cache, graph, budgets=(), repeats=2)
    with pytest.raises(ValueError, match="budgets"):
        latency_bench(pools, cache, graph, budgets=(0, 4), repeats=2)
    with pytest.raises(ValueError, match="no queries"):
        latency_bench({}, cache, graph, budgets=(4,), repeats=2)


def test_latency_bench_missing_cache_entry_aborts():
    graph, pools = small_instance()
    shallow = precompute_cache(pools, HashScorer(), graph, batch_size=2, max_budget=2)
    with pytest.raises(RuntimeError, match="scorer failed"):
        latency_bench(pools, shallow, graph, budgets=(8,), batch_size=2, repeats=2)


def test_write_latency_report(tmp_path):
    graph, pools = small_instance()
    cache = precompute_cache(pools, HashScorer(), graph, batch_size=2, max_budget=8)
    report = latency_bench(pools, cache, graph, budgets=(4, 8), batch_size=2, repeats=2)
    path = tmp_path / "latency.tsv"
    write_latency_report(path, report)
    lines = path.read_text().splitlines()
    assert lines[0] == "budget\tmode\trun_idx\tqid\tmicros"
    assert len(lines) == 1 + len(report.rows) + 5 * len(report.stats)
    summary = [line for line in lines if "\tsummary\t" in line]
    assert len(summary) == 10
    assert summary[0].split("\t")[2] == "typical_mean_us"
    assert all(line.split("\t")[3] == "all" for line in summary)


def test_bench_instance_scales():
    graph, pools = bench_instance(seed=1, n_docs=500, n_queries=2, pool_size=100, k=4)
    assert graph.n_docs == 500
    assert graph.k == 4
    assert len(pools) == 2
    assert all(len(r0) == 100 for r0 in pools.values())
    # pools hold distinct docs (the Ranking checks) with strictly decreasing scores
    for r0 in pools.values():
        assert (np.diff(r0.scores()) < 0).all()

from __future__ import annotations

import numpy as np
import pytest

from gar import CorpusGraph, DocMap, OracleScorer, Ranking, ReRankConfig, sweep_parameter
from gar.graph import SENTINEL
from gar.sweep import write_sweep_table
from synthdata import CountingScorer, HashScorer, edgeless_graph


def chain_graph():
    # a -> [b, c]; b, c have no out-edges
    edges = np.full((3, 2), SENTINEL, dtype=np.uint32)
    edges[0] = [1, 2]
    return CorpusGraph(edges, DocMap(["a", "b", "c"]))


POOLS = {"q": Ranking.from_pairs("q", [("a", 1.0)])}
QRELS = {"q": {"b": 2, "c": 2}}


def test_sweep_k_controls_reachability():
    rows = sweep_parameter(
        "k",
        [1, 2],
        POOLS,
        OracleScorer(QRELS),
        chain_graph(),
        QRELS,
        ["recall@3"],
        ReRankConfig(batch_size=1, budget=3),
    )
    assert [row.value for row in rows] == [1, 2]
    assert rows[0].means["recall@3"] == pytest.approx(0.5)
    assert rows[1].means["recall@3"] == pytest.approx(1.0)


def test_sweep_b_on_edgeless_graph_is_flat():
    pools = {"q": Ranking.from_pairs("q", [(f"d{i}", float(9 - i)) for i in range(9)])}
    qrels = {"q": {"d3": 2, "d7": 3}}
    rows = sweep_parameter(
        "b",
        [1, 2, 4, 8],
        pools,
        HashScorer(),
        edgeless_graph([f"d{i}" for i in range(9)]),
        qrels,
        ["ndcg", "recall@5"],
        ReRankConfig(batch_size=16, budget=6),
    )
    first = rows[0].means
    for row in rows[1:]:
        assert row.means == first


def test_sweep_reports_every_metric():
    rows = sweep_parameter(
        "k",
        [1],
        POOLS,
        OracleScorer(QRELS),
        chain_graph(),
        QRELS,
        ["ndcg", "recall@3", "rr@3"],
        ReRankConfig(batch_size=1, budget=3),
    )
    assert set(rows[0].means) == {"ndcg", "recall@3", "rr@3"}


def test_sweep_gain_passthrough():
    lin = sweep_parameter(
        "k", [2], POOLS, OracleScorer(QRELS), chain_graph(), QRELS,
        ["ndcg"], ReRankConfig(batch_size=1, budget=3), gain="lin",
    )
    exp = sweep_parameter(
        "k", [2], POOLS, OracleScorer(QRELS), chain_graph(), QRELS,
        ["ndcg"], ReRankConfig(batch_size=1, budget=3), gain="exp",
    )
    assert lin[0].means["ndcg"] == exp[0].means["ndcg"] == pytest.approx(1.0)


def test_sweep_validation():
    with pytest.raises(ValueError, match="vary must be"):
        sweep_parameter("x", [1], POOLS, HashScorer(), chain_graph(), QRELS, ["ndcg"])
    with pytest.raises(ValueError, match="no sweep values"):
        sweep_parameter("k", [], POOLS, HashScorer(), chain_graph(), QRELS, ["ndcg"])


def test_write_sweep_table(tmp_path):
    rows = sweep_parameter(
        "k",
        [1, 2],
        POOLS,
        OracleScorer(QRELS),
        chain_graph(),
        QRELS,
        ["recall@3"],
        ReRankConfig(batch_size=1, budget=3),
    )
    path = tmp_path / "sweep.tsv"
    write_sweep_table(path, "k", rows, ["recall@3"])
    assert path.read_text() == "k\trecall@3\n1\t0.500000\n2\t1.000000\n"


def test_sweep_refuses_an_empty_metric_list():
    scorer = CountingScorer(OracleScorer(QRELS))
    with pytest.raises(ValueError, match="no metrics given"):
        sweep_parameter("k", [1, 2], POOLS, scorer, chain_graph(), QRELS, [], ReRankConfig(batch_size=1, budget=3))
    assert scorer.batches == []

from __future__ import annotations

import math

import pytest

from gar import (
    Bm25Params,
    Bm25Scorer,
    CachedScorer,
    OracleScorer,
    RecordingScorer,
    ScoreCache,
    index_corpus,
)
from gar.lexical import bm25_scores
from synthdata import HashScorer


# --- ScoreCache --------------------------------------------------------------


def test_cache_lookup():
    cache = ScoreCache({("q1", "a"): 0.5, ("q1", "b"): -1.25})
    assert len(cache) == 2
    assert ("q1", "a") in cache
    assert ("q2", "a") not in cache
    assert cache.lookup("q1", "b") == -1.25


def test_cache_missing_pair():
    cache = ScoreCache({})
    with pytest.raises(KeyError, match="no cached score for query 'q' doc 'd'"):
        cache.lookup("q", "d")


def test_cache_round_trip_is_float_exact(tmp_path):
    awkward = {
        ("q1", "a"): 0.1 + 0.2,
        ("q1", "b"): 1e-17,
        ("q2", "a"): -3.5,
        ("q2", "b"): 12345678.000000123,
    }
    cache = ScoreCache(awkward)
    path = tmp_path / "cache.tsv"
    cache.save(path)
    loaded = ScoreCache.load(path)
    for (qid, docid), score in awkward.items():
        assert loaded.lookup(qid, docid) == score


def test_cache_save_is_sorted_and_stable(tmp_path):
    cache = ScoreCache({("q2", "a"): 1.0, ("q1", "b"): 2.0, ("q1", "a"): 3.0})
    p1, p2 = tmp_path / "c1.tsv", tmp_path / "c2.tsv"
    cache.save(p1)
    cache.save(p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0].startswith("q1\ta\t")
    assert lines[2].startswith("q2\ta\t")


def test_cache_load_errors(tmp_path):
    bad_cols = tmp_path / "cols.tsv"
    bad_cols.write_text("q1\ta\n")
    with pytest.raises(ValueError, match="expected qid<TAB>docid<TAB>score"):
        ScoreCache.load(bad_cols)

    bad_score = tmp_path / "score.tsv"
    bad_score.write_text("q1\ta\tnot-a-number\n")
    with pytest.raises(ValueError, match="bad score"):
        ScoreCache.load(bad_score)

    conflict = tmp_path / "dup.tsv"
    conflict.write_text("q1\ta\t1.0\nq1\ta\t2.0\n")
    with pytest.raises(ValueError, match="conflicting scores"):
        ScoreCache.load(conflict)

    agreeing = tmp_path / "same.tsv"
    agreeing.write_text("q1\ta\t1.0\nq1\ta\t1.0\n")
    assert len(ScoreCache.load(agreeing)) == 1


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_cache_load_rejects_non_finite_score(tmp_path, raw):
    path = tmp_path / "cache.tsv"
    path.write_text(f"q1\ta\t1.0\nq1\tb\t{raw}\n")
    with pytest.raises(ValueError, match=r"line 2: non-finite score .* query 'q1' doc 'b'"):
        ScoreCache.load(path)


def test_cached_scorer(tmp_path):
    cache = ScoreCache({("q", "a"): 1.5})
    scorer = CachedScorer(cache)
    assert scorer.score_batch("q", "", ["a"]) == [1.5]
    with pytest.raises(KeyError):
        scorer.score_batch("q", "", ["a", "zzz"])
    lenient = CachedScorer(cache, default=0.0)
    assert lenient.score_batch("q", "", ["a", "zzz"]) == [1.5, 0.0]

    path = tmp_path / "cache.tsv"
    cache.save(path)
    assert CachedScorer(ScoreCache.load(path)).score_batch("q", "", ["a"]) == [1.5]


# --- OracleScorer -------------------------------------------------------------


QRELS = {"q1": {"a": 3, "b": 1, "c": 0}}


def test_oracle_scores_labels():
    scorer = OracleScorer(QRELS)
    assert scorer.score_batch("q1", "", ["a", "b", "c", "unjudged"]) == [
        3.0,
        1.0,
        0.0,
        0.0,
    ]
    assert scorer.score_batch("q-unknown", "", ["a"]) == [0.0]


def test_oracle_noise_requires_seed():
    with pytest.raises(ValueError, match="seed is required"):
        OracleScorer(QRELS, noise_sd=0.5)
    with pytest.raises(ValueError, match="non-negative"):
        OracleScorer(QRELS, noise_sd=-0.5)


def test_oracle_noise_is_batch_invariant():
    scorer = OracleScorer(QRELS, noise_sd=0.5, seed=42)
    joint = scorer.score_batch("q1", "", ["a", "b", "c"])
    split = [scorer.score_batch("q1", "", [d])[0] for d in ["a", "b", "c"]]
    assert joint == split
    again = scorer.score_batch("q1", "", ["a", "b", "c"])
    assert joint == again


def test_oracle_noise_varies_with_seed_and_doc():
    s1 = OracleScorer(QRELS, noise_sd=0.5, seed=1)
    s2 = OracleScorer(QRELS, noise_sd=0.5, seed=2)
    assert s1.score_batch("q1", "", ["a"]) != s2.score_batch("q1", "", ["a"])
    batch = s1.score_batch("q1", "", ["c", "unjudged-1", "unjudged-2"])
    assert len(set(batch)) == 3


def test_oracle_noise_distribution_is_plausible():
    scorer = OracleScorer({"q": {}}, noise_sd=0.5, seed=7)
    values = scorer.score_batch("q", "", [f"d{i}" for i in range(400)])
    mean = sum(values) / len(values)
    sd = math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))
    assert abs(mean) < 0.1
    assert 0.4 < sd < 0.6


# --- Bm25Scorer ---------------------------------------------------------------


def test_bm25_scorer_matches_direct_scoring():
    corpus = [("d1", "red fox jumps"), ("d2", "red red dog"), ("d3", "cat")]
    index = index_corpus(corpus)
    params = Bm25Params()
    scorer = Bm25Scorer(index, params)
    got = scorer.score_batch("q", "red dog", ["d3", "d1", "d2"])
    want = [
        bm25_scores(index, params, {"red", "dog"}, [index.docmap.internal(d)])[0]
        for d in ["d3", "d1", "d2"]
    ]
    assert got == want
    assert got[0] == 0.0


def test_bm25_scorer_unknown_docid():
    index = index_corpus([("d1", "x")])
    with pytest.raises(KeyError, match="unknown docid"):
        Bm25Scorer(index).score_batch("q", "x", ["nope"])


# --- RecordingScorer ----------------------------------------------------------


def test_recording_scorer_captures_pairs():
    inner = HashScorer()
    rec = RecordingScorer(inner)
    scores = rec.score_batch("q1", "", ["a", "b"])
    rec.score_batch("q2", "", ["a"])
    assert rec.records[("q1", "a")] == scores[0]
    assert rec.records[("q1", "b")] == scores[1]
    assert set(rec.records) == {("q1", "a"), ("q1", "b"), ("q2", "a")}
    cache = rec.to_cache()
    assert cache.lookup("q1", "b") == scores[1]

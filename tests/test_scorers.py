from __future__ import annotations

import json
import math
import os
import random
import re
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import gar
from gar import (
    Bm25Params,
    Bm25Scorer,
    OracleScorer,
    RecordingScorer,
    ScoreCache,
    bm25_retrieve,
    index_corpus,
)
from gar.lexical import bm25_scores
from oracles import reference_noise
from synthdata import AWKWARD_TEXT, HashScorer, utf8_encodable, written_then_read


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


@given(st.dictionaries(st.tuples(AWKWARD_TEXT, AWKWARD_TEXT), st.floats(), max_size=4))
@example({("q", "d\t1"): 1.0})
@example({("q", "d"): math.nan})
@example({("q", "\ud800"): 1.0})
def test_cache_written_or_refused(scores):
    got = written_then_read(lambda path, cache: cache.save(path), ScoreCache.load, ScoreCache(scores))
    refused = any(
        any(c in qid + docid for c in "\t\n\r") or not math.isfinite(score) or not utf8_encodable(qid + docid)
        for (qid, docid), score in scores.items()
    )
    assert (got is None) == refused
    if got is not None:
        assert len(got) == len(scores) and all(got.lookup(*key) == score for key, score in scores.items())


@pytest.mark.parametrize(
    "key, score, message",
    [
        (("q\n", "d"), 1.0, "query id 'q\\n' holds a tab or a line break"),
        (("q", "d\t1"), 1.0, "docid 'd\\t1' for query 'q' holds a tab or a line break"),
        (("q", "d"), math.inf, "non-finite score inf for query 'q' doc 'd'"),
    ],
    ids=["qid", "docid", "score"],
)
def test_cache_save_names_what_it_refuses(tmp_path, key, score, message):
    path = tmp_path / "cache.tsv"
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        ScoreCache({key: score}).save(path)
    assert not path.exists()


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
    assert cache.score_batch("q", "", ["a"]) == [1.5]
    with pytest.raises(KeyError, match="no cached score for query 'q' doc 'zzz'"):
        cache.score_batch("q", "", ["a", "zzz"])

    path = tmp_path / "cache.tsv"
    cache.save(path)
    assert ScoreCache.load(path).score_batch("q", "", ["a"]) == [1.5]


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


@pytest.mark.parametrize("noise_sd, seed", [(float("nan"), None), (float("nan"), 3), (float("inf"), 3), (float("-inf"), 3)])
def test_oracle_rejects_non_finite_noise_sd(noise_sd, seed):
    with pytest.raises(ValueError, match=f"noise_sd must be finite, got {noise_sd}"):
        OracleScorer(QRELS, noise_sd, seed)


def test_oracle_noise_pinned_values():
    # a change to these values changes every --noise-sd run: make it deliberately
    for seed, qid, docid, noise in [
        (0, "q", "d", -0.047771487160927495),
        (42, "q1", "a", 1.2887274229681889),
        (7, "\u30af\u30a8\u30ea", "doc-\U0001f600", -1.590026991804109),
    ]:
        got = OracleScorer({}, 1.0, seed).score_batch(qid, "", [docid])[0]
        assert got == pytest.approx(noise, rel=1e-12, abs=0)


def test_oracle_noise_distribution_over_20k_draws():
    sd = 0.5
    values = OracleScorer({"q": {}}, noise_sd=sd, seed=11).score_batch("q", "", [f"doc-{i}" for i in range(20_000)])
    assert abs(statistics.fmean(values)) < 0.02
    assert abs(statistics.pstdev(values) - sd) < 0.015
    cuts = statistics.quantiles(values, n=40)  # cut points every 2.5 %
    assert cuts[0] == pytest.approx(-1.96 * sd, abs=0.04)
    assert cuts[19] == pytest.approx(0.0, abs=0.02)
    assert cuts[38] == pytest.approx(1.96 * sd, abs=0.04)


def test_oracle_noise_is_exactly_batch_invariant():
    scorer = OracleScorer({"q1": {"a": 3, "b": 1}, "q2": {"d7": 2}}, noise_sd=0.5, seed=5)
    docids = ["a", "b", "c"] + [f"d{i}" for i in range(37)]
    want = {(qid, d): scorer.score_batch(qid, "", [d])[0] for qid in ("q1", "q2") for d in docids}
    for size in range(1, 18):
        rng = random.Random(size)
        order = {qid: rng.sample(docids, len(docids)) for qid in ("q1", "q2")}
        for start in range(0, len(docids), size):
            for qid in ("q1", "q2"):  # batches of the two queries interleave
                batch = order[qid][start : start + size]
                assert scorer.score_batch(qid, "", batch) == [want[(qid, d)] for d in batch]


def test_oracle_noise_is_the_same_in_another_process():
    docids = ["a", "b", "unjudged", "caf\u00e9"]
    scorer = OracleScorer(QRELS, noise_sd=0.5, seed=13)
    script = (
        "import json, sys\n"
        "from gar import OracleScorer\n"
        "qrels, docids = json.loads(sys.stdin.read())\n"
        "print(json.dumps([s.hex() for s in OracleScorer(qrels, 0.5, 13).score_batch('q1', '', docids)]))\n"
    )
    env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=str(Path(gar.__file__).parents[1]))
    child = subprocess.run(
        [sys.executable, "-c", script],
        input=json.dumps([QRELS, docids]), capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    got = [float.fromhex(h) for h in json.loads(child.stdout)]
    assert got == scorer.score_batch("q1", "", docids)


@pytest.mark.parametrize("qid", ["q1", "\u0437\u0430\u043f\u0440\u043e\u0441-1"])
def test_oracle_noise_matches_its_definition(qid):
    # the batch path hashes the key prefix once; the definition hashes the whole key
    # NFC and NFD spellings of one word are different docids, and so get different noise
    docids = ["a", "c", "unjudged", "", "d" * 200, "caf\u00e9", "cafe\u0301", "\u6587\u6863", "\U0001f642", "tab\tin", "\x1f"]
    qrels = {qid: {"a": 3, "\u6587\u6863": 2}}
    got = OracleScorer(qrels, noise_sd=0.5, seed=3).score_batch(qid, "", docids)
    assert got == [qrels[qid].get(d, 0) + reference_noise(3, qid, d, 0.5) for d in docids]
    assert len(set(got)) == len(docids)


# --- Bm25Scorer ---------------------------------------------------------------


def test_bm25_scorer_matches_direct_scoring():
    corpus = [("d1", "red fox jumps"), ("d2", "red red dog"), ("d3", "cat")]
    index = index_corpus(corpus)
    params = Bm25Params()
    scorer = Bm25Scorer(index, params)
    got = scorer.score_batch("q", "red dog", ["d3", "d1", "d2"])
    scores = bm25_scores(index, params, {"red", "dog"})
    assert got == [scores[index.docmap.internal(d)] for d in ["d3", "d1", "d2"]]
    assert got[0] == 0.0


def test_bm25_scorer_keeps_no_state_a_caller_can_see():
    # interleaved queries, one text under two qids, and a pool split into batches
    rng = random.Random(29)
    corpus = [(f"d{i}", " ".join(rng.choices(["red", "fox", "dog", "cat", "owl"], k=rng.randint(1, 6)))) for i in range(40)]
    index = index_corpus(corpus)
    params = Bm25Params(k1=1.2, b=0.75)
    texts = {"q1": "red dog", "q2": "owl cat cat", "q3": "red dog", "q4": "zebra"}
    docids = [docid for docid, _ in corpus]
    pools = {qid: rng.sample(docids, 25) for qid in texts}
    scorer = Bm25Scorer(index, params)
    calls = [("q1", 0, 7), ("q2", 0, 25), ("q1", 7, 25), ("q3", 0, 13), ("q4", 0, 5), ("q1", 0, 25), ("q3", 13, 25)]
    for qid, lo, hi in calls:
        batch = pools[qid][lo:hi]
        got = scorer.score_batch(qid, texts[qid], batch)
        assert got == Bm25Scorer(index, params).score_batch(qid, texts[qid], batch), (qid, lo)
        retrieved = dict(bm25_retrieve(index, params, qid, texts[qid], len(corpus)).pairs())
        assert got == [retrieved.get(docid, 0.0) for docid in batch], (qid, lo)


def test_bm25_scorer_keeps_less_than_a_score_array_per_query():
    # every doc holds at least 20 distinct terms, so a per-posting array
    # outweighs four float64 per doc
    rng = random.Random(31)
    vocab = [f"t{i}" for i in range(200)]
    corpus = [(f"d{i}", " ".join(rng.sample(vocab, 24))) for i in range(500)]
    index = index_corpus(corpus)
    params = Bm25Params()
    bm25_retrieve(index, params, "q0", "t1", 10)  # the weights are built and cached here
    docids = [docid for docid, _ in corpus]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        scorer = Bm25Scorer(index, params)
        for qid, text in (("q1", "t1 t2 t3"), ("q2", "t4 t5")):
            for lo in range(0, 64, 16):
                scorer.score_batch(qid, text, docids[lo : lo + 16])
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 4 * 8 * index.n_docs, kept


def test_bm25_scorer_unknown_docid():
    index = index_corpus([("d1", "x")])
    with pytest.raises(KeyError, match="unknown docid"):
        Bm25Scorer(index).score_batch("q", "x", ["nope"])
    # the batch's first unknown docid is named
    with pytest.raises(KeyError, match="unknown docid: 'nope'"):
        Bm25Scorer(index).score_batch("q", "x", ["d1", "nope", "nah"])


# --- RecordingScorer ----------------------------------------------------------


def test_recording_scorer_captures_pairs():
    inner = HashScorer()
    rec = RecordingScorer(inner)
    scores = rec.score_batch("q1", "", ["a", "b"])
    rec.score_batch("q2", "", ["a"])
    assert rec.records[("q1", "a")] == scores[0]
    assert rec.records[("q1", "b")] == scores[1]
    assert set(rec.records) == {("q1", "a"), ("q1", "b"), ("q2", "a")}
    cache = ScoreCache(rec.records)
    assert cache.lookup("q1", "b") == scores[1]

"""The three workloads: one set-up, one timed round, and the output checks.

A round is one pass over the workload's operations: every doc of the corpus
(build-bm25) or every query of the query set (gar-c1000, cli-c100). Rounds
are deterministic, so every round of a run must give the same outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gen
from checks import FILE_TOL, PROV_FRONTIER, check_close, check_first_stage, check_knn_row, check_rerank, check_trace, require
from reference import SENTINEL, Bm25Reference, cosine_scores, mean_metric, ndcg_at, reachable_count, recall_at

K = 16
BATCH = 16
SAMPLE_ROWS = 50
SAMPLE_QUERIES = 20
BM25_TOL = 1e-9  # relative, for BM25 sums taken in the same term order
COSINE_TOL = 1e-6  # the program ranks float32-normalised rows; the reference is float64


@dataclass
class Round:
    seconds: float
    ops: int
    failed: int
    latencies: list[float]  # seconds per completed operation


def call_cli(gar, argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = gar.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"gar {argv[0]} exited with {code}: {err.getvalue().strip()}")


class BatchLog:
    """Every scorer call of the current round: qid -> [(docids, scores)]."""

    def __init__(self) -> None:
        self.by_qid: dict[str, list[tuple[list[str], list[float]]]] = {}

    def recorder(self, fn):
        log = self

        def score_batch(scorer, qid, query, docids):
            scores = fn(scorer, qid, query, docids)
            log.by_qid.setdefault(qid, []).append((list(docids), [float(s) for s in scores]))
            return scores

        return score_batch


# --- the benchmark's own readers -----------------------------------------------


def read_texts(path: Path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split("\t", 1)[1] for line in fh]


def read_pairs(path: Path) -> dict[str, list[tuple[str, float]]]:
    runs: dict[str, list[tuple[str, float]]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            qid, _, docid, _, score, _ = line.split()
            runs.setdefault(qid, []).append((docid, float(score)))
    return runs


def read_labels(path: Path) -> dict[str, dict[str, int]]:
    qrels: dict[str, dict[str, int]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            qid, _, docid, label = line.split()
            qrels.setdefault(qid, {})[docid] = int(label)
    return qrels


def read_trace_rows(path: Path) -> dict[str, list[tuple]]:
    rows: dict[str, list[tuple]] = {}
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            qid, docid, initial, final, provenance, source = line.rstrip("\n").split("\t")
            rows.setdefault(qid, []).append(
                (docid, None if initial == "NA" else int(initial), int(final), provenance, None if source == "NA" else source)
            )
    return rows


def neighbour_sets(edges: np.ndarray, prefix: str):
    """docid -> set of neighbour docids, from an edge table over docids prefix<i>."""
    cut = len(prefix)

    def neighbours(docid: str) -> set[str]:
        return {f"{prefix}{x}" for x in edges[int(docid[cut:])].tolist() if x != SENTINEL}

    return neighbours


def rerank_counts(pools, outputs, batches, labels, degree, budget: int) -> dict[str, int]:
    """Per-pass work counts of the re-rank loop, from recorded batches and outputs."""
    counts = dict.fromkeys(
        ("rerank.scorer.batches", "rerank.docs_scored", "rerank.docs_from_frontier", "rerank.edges_visited", "rerank.relevant_via_frontier"),
        0,
    )
    for qid, out in outputs.items():
        for docids, _ in batches[qid]:
            counts["rerank.scorer.batches"] += 1
            counts["rerank.docs_scored"] += len(docids)
            counts["rerank.edges_visited"] += sum(degree(docid) for docid in docids)
        counts["rerank.docs_from_frontier"] += sum(1 for entry in out if entry[2] == PROV_FRONTIER)
        pool = set(pools[qid])
        counts["rerank.relevant_via_frontier"] += sum(
            1 for entry in out[:budget] if labels[qid].get(entry[0], 0) >= 2 and entry[0] not in pool
        )
    return counts


class Workload:
    name = ""
    setup_reps = 3  # set-ups per run; setup_s is their median
    min_ops = 1  # a run keeps going until it has timed at least this many operations

    def __init__(self, gar, work: Path, seed: int) -> None:
        self.gar = gar
        self.work = work
        self.seed = seed
        self.errors: list[str] = []
        self.counts: dict[str, int] = {}  # per-pass work counts, set by check()
        self.traced_counts: dict[str, int] = {}  # summed over the traced rounds

    def install(self, patches) -> None:
        """Recorders the checks need; installed in traced and untraced runs alike."""

    def install_traced(self, patches) -> None:
        """Extra counters for the traced run."""

    def reset(self) -> None:
        """Drop the state of the previous set-up."""

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self) -> Round:
        raise NotImplementedError

    def after_round(self, index: int) -> None:
        """Untimed: keep round 0's outputs, compare later rounds against them."""

    def check(self) -> None:
        raise NotImplementedError

    def quality(self) -> dict[str, float]:
        """build_docs_per_s, ndcg_10 and recall_at_c for this workload."""
        raise NotImplementedError


# --- build-bm25 ------------------------------------------------------------------


class BuildBm25(Workload):
    name = "build-bm25"
    setup_reps = 9  # each set-up is ~0.1 s, so take the median of more

    def __init__(self, gar, work, seed):
        super().__init__(gar, work, seed)
        self.corpus = work / "corpus.tsv"
        self.graph_path = work / "bm25.garg"
        self.build_seconds: list[float] = []
        self.built = self.loaded = self.first_edges = None

    def install(self, patches):
        def capture(fn):
            def build_graph(*args, **kwargs):
                self.built = fn(*args, **kwargs)
                return self.built

            return build_graph

        patches.wrap(self.gar.cli, "build_graph", capture)

    def install_traced(self, patches):
        counts = self.traced_counts
        counts["lexical.postings_scanned"] = 0

        def count(fn):
            def bm25_doc_topk(index, params, doc, k_plus):
                counts["lexical.postings_scanned"] += sum(len(index.postings[term]) for term in index.doc_terms[doc])
                return fn(index, params, doc, k_plus)

            return bm25_doc_topk

        patches.wrap(self.gar.cli, "bm25_doc_topk", count)

    def setup(self):
        # the corpus load every build starts from, timed on its own
        self.gar.lexical.index_corpus(self.gar.formats.read_corpus(self.corpus))

    def run_round(self):
        start = time.perf_counter()
        failed = 0
        try:
            call_cli(self.gar, ["build-graph", "--method", "bm25", "--k", str(K), "--corpus", str(self.corpus), "--out", str(self.graph_path)])
            built = time.perf_counter()
            self.loaded = self.gar.graph.CorpusGraph.load(self.graph_path)
        except Exception as exc:  # the run goes on; the round's docs count as failed
            self.errors.append(f"build round failed: {exc!r}")
            built, failed = time.perf_counter(), gen.BM25_DOCS
        end = time.perf_counter()
        self.build_seconds.append(built - start)
        n = gen.BM25_DOCS
        return Round(end - start, n, failed, [(end - start) / n] * (n - failed))

    def after_round(self, index):
        if self.built is None:
            return
        if index == 0:
            self.first_edges = self.built.edges.copy()
        elif not np.array_equal(self.first_edges, self.built.edges):
            self.errors.append(f"round {index} built a different graph than round 0")

    def check(self):
        n = gen.BM25_DOCS
        require(self.built is not None and self.loaded is not None, "no graph was built")
        size = self.graph_path.stat().st_size
        require(size == 16 + 4 * K * n, f"graph file is {size} bytes, expected 16 + 4*k*n = {16 + 4 * K * n}")
        require(np.array_equal(self.built.edges, self.loaded.edges), "loaded edge table differs from the built one")
        require(list(self.loaded.docmap.ids) == list(self.built.docmap.ids), "loaded docmap differs from the built one")
        require(list(self.loaded.docmap.ids) == [f"b{i}" for i in range(n)], "docmap is not in corpus order")
        edges = gen.read_table(self.graph_path, gen.GRAPH_MAGIC, "<u4")
        require(np.array_equal(edges, self.loaded.edges), "edge table on disk differs from the loaded one")
        tokens = [text.split() for text in read_texts(self.corpus)]
        ref = Bm25Reference(tokens)
        for doc in random.Random(self.seed).sample(range(n), SAMPLE_ROWS):
            check_knn_row(doc, edges[doc], ref.scores(tokens[doc]), K, BM25_TOL, positive_only=True)

    def quality(self):
        """Graph quality against the planted topics: nDCG@10 and recall@k of topic-mates per row."""
        topics = np.load(self.work / "topics.npy")
        edges = gen.read_table(self.graph_path, gen.GRAPH_MAGIC, "<u4")
        real = edges != SENTINEL
        same = real & (topics[np.where(real, edges, 0)] == topics[:, None])
        mates = np.bincount(topics)[topics] - 1
        discount = 1.0 / np.log2(np.arange(2, 12))
        ideal = np.cumsum(discount)[np.minimum(10, mates) - 1]
        return {
            "build_docs_per_s": gen.BM25_DOCS * len(self.build_seconds) / sum(self.build_seconds),
            "ndcg_10": float(((same[:, :10] * discount).sum(axis=1) / ideal).mean()),
            "recall_at_c": float((same.sum(axis=1) / np.minimum(K, mates)).mean()),
        }


# --- gar-c1000 -------------------------------------------------------------------


class GarC1000(Workload):
    name = "gar-c1000"
    budget = 1000
    min_ops = 2 * gen.GAR_QUERIES  # >= 10 samples beyond p95

    def __init__(self, gar, work, seed):
        super().__init__(gar, work, seed)
        self.graph_path = work / "graph.garg"
        self.pool_path = work / "pool.run"
        self.qrels_path = work / "qrels.txt"
        self.log = BatchLog()
        self.scored_seconds = [0, 0.0]  # docs scored, timed wall seconds
        self.first = None
        self.reset()

    def install(self, patches):
        patches.wrap(self.gar.rerank.OracleScorer, "score_batch", self.log.recorder)

    def reset(self):
        self.graph = self.pools = self.qrels = self.scorer = self.outputs = None

    def setup(self):
        g = self.gar
        self.graph = g.graph.CorpusGraph.load(self.graph_path)
        runs = g.formats.read_run(self.pool_path)
        self.qrels = g.formats.read_qrels(self.qrels_path)
        self.pools = [g.ranking.Ranking.from_pairs(qid, runs[qid]) for qid in sorted(runs)]
        self.scorer = g.rerank.OracleScorer(self.qrels, gen.GAR_NOISE_SD, self.seed)
        self.config = g.rerank.ReRankConfig(batch_size=BATCH, budget=self.budget)

    def run_round(self):
        rerank, evaluate = self.gar.rerank, self.gar.evaluate
        self.log.by_qid = {}
        outputs = {}
        latencies = []
        start = time.perf_counter()
        for r0 in self.pools:
            began = time.perf_counter()
            try:
                out = rerank.gar_rerank(r0, self.scorer, self.graph, self.config)
            except Exception as exc:  # counted as a failed query; the run goes on
                self.errors.append(f"{r0.qid}: {exc!r}")
                continue
            latencies.append(time.perf_counter() - began)
            outputs[r0.qid] = out
        run = {qid: out.pairs() for qid, out in outputs.items()}
        self.ndcg = evaluate.ndcg(run, self.qrels, 10).mean
        self.recall = evaluate.recall_at(run, self.qrels, self.budget).mean
        end = time.perf_counter()
        self.outputs = outputs
        self.scored_seconds[0] += sum(len(docids) for batches in self.log.by_qid.values() for docids, _ in batches)
        self.scored_seconds[1] += end - start
        return Round(end - start, len(self.pools), len(self.pools) - len(outputs), latencies)

    def after_round(self, index):
        entries = {qid: [(e.docid, e.score, e.provenance, e.source) for e in out] for qid, out in self.outputs.items()}
        if index == 0:
            self.first = (entries, self.log.by_qid, self.ndcg, self.recall)
        elif entries != self.first[0]:
            self.errors.append(f"round {index} re-ranked differently from round 0")
        self.outputs = None

    def check(self):
        outputs, batches, ndcg, recall = self.first
        edges = gen.read_table(self.graph_path, gen.GRAPH_MAGIC, "<u4")
        require(edges.shape == (gen.GAR_DOCS, K), f"graph file holds {edges.shape}, expected {(gen.GAR_DOCS, K)}")
        neighbours = neighbour_sets(edges, "d")
        pools = {qid: [docid for docid, _ in pairs] for qid, pairs in read_pairs(self.pool_path).items()}
        labels = read_labels(self.qrels_path)
        require(sorted(outputs) == sorted(pools), "not every query produced an output")
        for qid, pool in pools.items():
            reachable = reachable_count(pool, neighbours, self.budget)
            check_rerank(qid, pool, outputs[qid], batches[qid], self.budget, reachable, neighbours)
        ranked = {qid: [entry[0] for entry in out] for qid, out in outputs.items()}
        check_close("ndcg_10", ndcg, mean_metric(ndcg_at, ranked, labels, 10))
        check_close("recall_at_c", recall, mean_metric(recall_at, ranked, labels, self.budget))
        require(recall < 1.0, "recall_at_c sits at the ceiling of 1.0")

        degrees = (edges != SENTINEL).sum(axis=1)
        self.counts = rerank_counts(pools, outputs, batches, labels, lambda docid: int(degrees[int(docid[1:])]), self.budget)

        # typical re-ranking on the same inputs, untimed
        typical = {
            r0.qid: [e.docid for e in self.gar.rerank.typical_rerank(r0, self.scorer, self.config)] for r0 in self.pools
        }
        typical_recall = mean_metric(recall_at, typical, labels, self.budget)
        require(recall > typical_recall, f"adaptive recall {recall:.4f} does not exceed typical {typical_recall:.4f}")

    def quality(self):
        _, _, ndcg, recall = self.first
        scored, seconds = self.scored_seconds
        return {
            "build_docs_per_s": scored / seconds,  # docs placed in re-ranked lists per second
            "ndcg_10": ndcg,
            "recall_at_c": recall,
        }


# --- cli-c100 --------------------------------------------------------------------


class CliC100(Workload):
    name = "cli-c100"
    budget = 100
    top_n = 1000

    def __init__(self, gar, work, seed):
        super().__init__(gar, work, seed)
        names = ("corpus.tsv", "queries.tsv", "qrels.txt", "vectors.garv", "dense.garg", "first.run", "reranked.run", "reranked.trace", "report.tsv")
        (self.corpus, self.queries, self.qrels, self.vectors, self.graph, self.first_run, self.reranked, self.trace, self.report) = (
            str(work / name) for name in names
        )
        self.log = BatchLog()
        self.build_seconds: list[float] = []
        self.digests = None
        self.batches = None

    def install(self, patches):
        patches.wrap(self.gar.rerank.Bm25Scorer, "score_batch", self.log.recorder)

    def setup(self):
        start = time.perf_counter()
        call_cli(self.gar, ["build-graph", "--method", "dense", "--k", str(K), "--vectors", self.vectors, "--out", self.graph])
        self.build_seconds.append(time.perf_counter() - start)

    def run_round(self):
        self.log.by_qid = {}
        n = gen.CLI_QUERIES
        failed = 0
        start = time.perf_counter()
        try:
            call_cli(self.gar, ["retrieve", "--corpus", self.corpus, "--queries", self.queries, "--top-n", str(self.top_n), "--out", self.first_run])
            call_cli(self.gar, [
                "rerank", "--run-in", self.first_run, "--mode", "gar", "--graph", self.graph,
                "--budget", str(self.budget), "--batch-size", str(BATCH), "--scorer", "bm25",
                "--corpus", self.corpus, "--queries", self.queries,
                "--run-out", self.reranked, "--trace", self.trace,
            ])
            call_cli(self.gar, ["evaluate", "--run", self.reranked, "--qrels", self.qrels, "--metrics", f"ndcg@10,recall@{self.budget}", "--out", self.report])
        except Exception as exc:  # the run goes on; the round's queries count as failed
            self.errors.append(f"pipeline round failed: {exc!r}")
            failed = n
        end = time.perf_counter()
        return Round(end - start, n, failed, [(end - start) / n] * (n - failed))

    def after_round(self, index):
        digests = []
        for path in (self.first_run, self.reranked, self.trace, self.report):
            with open(path, "rb") as fh:
                digests.append(hashlib.sha256(fh.read()).hexdigest())
        if index == 0:
            self.digests, self.batches = digests, self.log.by_qid
        elif digests != self.digests:
            self.errors.append(f"round {index} wrote different files than round 0")

    def check(self):
        n = gen.CLI_DOCS
        size = Path(self.graph).stat().st_size
        require(size == 16 + 4 * K * n, f"graph file is {size} bytes, expected {16 + 4 * K * n}")
        edges = gen.read_table(Path(self.graph), gen.GRAPH_MAGIC, "<u4")
        vectors = gen.read_table(Path(self.vectors), gen.VEC_MAGIC, "<f4")
        rng = random.Random(self.seed)
        for doc in rng.sample(range(n), SAMPLE_ROWS):
            check_knn_row(doc, edges[doc], cosine_scores(vectors, doc).tolist(), K, COSINE_TOL, positive_only=False)

        docids = [f"c{i}" for i in range(n)]
        tokens = [text.split() for text in read_texts(Path(self.corpus))]
        ref = Bm25Reference(tokens)
        with open(self.queries, encoding="utf-8") as fh:
            queries = dict(line.rstrip("\n").split("\t", 1) for line in fh)
        first = read_pairs(Path(self.first_run))
        position = {docid: i for i, docid in enumerate(docids)}
        sampled = rng.sample(sorted(queries), SAMPLE_QUERIES)
        for qid in sampled:
            terms = set(queries[qid].split())
            ref_scores = dict(zip(docids, ref.scores(terms)))
            check_first_stage(qid, first[qid], ref_scores, position, self.top_n, BM25_TOL)
            for batch_docids, batch_scores in self.batches[qid]:
                for docid, score in zip(batch_docids, batch_scores):
                    want = ref_scores[docid]
                    check_close(f"{qid} {docid} Bm25Scorer score", score, want, BM25_TOL * max(1.0, abs(want)))

        reranked = read_pairs(Path(self.reranked))
        trace = read_trace_rows(Path(self.trace))
        neighbours = neighbour_sets(edges, "c")
        labels = read_labels(Path(self.qrels))
        require(sorted(reranked) == sorted(queries) == sorted(trace), "run, trace and queries cover different queries")
        outputs = {}
        for qid, pairs in reranked.items():
            pool = [docid for docid, _ in first[qid]]
            check_trace(qid, [docid for docid, _ in pairs], trace[qid], pool)
            outputs[qid] = [(docid, score, row[3], row[4]) for (docid, score), row in zip(pairs, trace[qid])]
            reachable = reachable_count(pool, neighbours, self.budget)
            check_rerank(qid, pool, outputs[qid], self.batches[qid], self.budget, reachable, neighbours, FILE_TOL)

        report: dict[str, dict[str, float]] = {}
        with open(self.report, encoding="utf-8") as fh:
            for line in fh:
                metric, qid, value = line.split("\t")
                report.setdefault(metric, {})[qid] = float(value)
        ranked = {qid: [docid for docid, _ in pairs] for qid, pairs in reranked.items()}
        for metric, fn, cutoff in (("ndcg@10", ndcg_at, 10), (f"recall@{self.budget}", recall_at, self.budget)):
            values = report[metric]
            for qid, got in values.items():
                want = mean_metric(fn, ranked, labels, cutoff) if qid == "all" else fn(ranked[qid], labels[qid], cutoff)
                check_close(f"report {metric} {qid}", got, want, FILE_TOL)
        self.ndcg, self.recall = report["ndcg@10"]["all"], report[f"recall@{self.budget}"]["all"]
        require(self.recall < 1.0, "recall_at_c sits at the ceiling of 1.0")

        pools = {qid: [docid for docid, _ in pairs] for qid, pairs in first.items()}
        self.counts = rerank_counts(pools, outputs, self.batches, labels, lambda docid: int((edges[int(docid[1:])] != SENTINEL).sum()), self.budget)

    def quality(self):
        return {
            "build_docs_per_s": gen.CLI_DOCS / float(np.median(self.build_seconds)),
            "ndcg_10": self.ndcg,
            "recall_at_c": self.recall,
        }


WORKLOADS = {cls.name: cls for cls in (BuildBm25, GarC1000, CliC100)}

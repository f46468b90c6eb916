"""Benchmark of the gar package: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload gar-c1000 --seed 1 --seconds 10 --trace 0

Run from the repository root. Inputs are generated from the seed by gen.py
in a child process that is waited for, into a scratch directory under the
root that is removed at exit. The workload then runs in this process,
pinned to one CPU with single-threaded BLAS, as a closed loop with one
client: set-up several times, then whole rounds of timed operations until
`--seconds` have passed (gar-c1000 also needs 240 timed queries). Every output is checked after the
timing ends. The last line of standard output is
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0; with --trace 1 the per-layer metrics of a traced pass that
repeats the untraced rounds, its spans written under .perfbench_out/.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import argparse
import gc
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import CheckFailed
from spans import Patches, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

END_TO_END = {
    "setup_s": "s",
    "build_docs_per_s": "1/s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "peak_rss_mb": "MB",
    "ndcg_10": "score",
    "recall_at_c": "frac",
}

# Per-layer metrics, per pass of the phase they ran in (one set-up, or one
# round). A `.s` metric is the layer's span time, `.self_s` the span time
# minus its child spans; the span name is the metric name without suffix.
LAYER_METRICS = {
    "lexical.bm25_doc_topk.s": "s",
    "lexical.bm25_doc_topk.calls": "count",
    "lexical.postings_scanned": "count",
    "graph.build_graph.self_s": "s",
    "lexical.dense_topk.s": "s",
    "lexical.DenseVectors.load.s": "s",
    "graph.CorpusGraph.save.s": "s",
    "graph.CorpusGraph.load.self_s": "s",
    "docmap.DocMap.load.s": "s",
    "formats.read_corpus.s": "s",
    "lexical.index_corpus.s": "s",
    "formats.read_run.s": "s",
    "formats.read_qrels.s": "s",
    "formats.write_run.s": "s",
    "formats.write_trace.s": "s",
    "lexical.bm25_retrieve.s": "s",
    "rerank.loop.self_s": "s",
    "rerank.scorer.s": "s",
    "rerank.scorer.batches": "count",
    "rerank.docs_scored": "count",
    "rerank.docs_from_frontier": "count",
    "rerank.edges_visited": "count",
    "rerank.relevant_via_frontier": "count",
    "evaluate.s": "s",
    "cli.build-graph.s": "s",
    "cli.retrieve.s": "s",
    "cli.rerank.s": "s",
    "cli.evaluate.s": "s",
    "trace.overhead_frac": "frac",
    "trace.self_coverage": "frac",
}


def span_targets(gar):
    """(owner, attribute, span name) for every traced entry point of the program."""
    cli, formats, lexical, graph, rerank, evaluate = gar.cli, gar.formats, gar.lexical, gar.graph, gar.rerank, gar.evaluate
    targets = [
        (cli, "bm25_doc_topk", "lexical.bm25_doc_topk"),
        (cli, "dense_topk", "lexical.dense_topk"),
        (cli, "build_graph", "graph.build_graph"),
        (cli, "index_corpus", "lexical.index_corpus"),
        (lexical, "index_corpus", "lexical.index_corpus"),
        (cli, "bm25_retrieve", "lexical.bm25_retrieve"),
        (cli, "rerank_run", "rerank.loop"),
        (rerank, "gar_rerank", "rerank.loop"),
        (rerank.OracleScorer, "score_batch", "rerank.scorer"),
        (rerank.Bm25Scorer, "score_batch", "rerank.scorer"),
        (graph.CorpusGraph, "load", "graph.CorpusGraph.load"),
        (graph.CorpusGraph, "save", "graph.CorpusGraph.save"),
        (gar.docmap.DocMap, "load", "docmap.DocMap.load"),
        (lexical.DenseVectors, "load", "lexical.DenseVectors.load"),
        (evaluate, "ndcg", "evaluate"),
        (evaluate, "recall_at", "evaluate"),
    ]
    for name in ("read_corpus", "read_run", "read_qrels", "write_run", "write_trace"):
        targets.append((formats, name, f"formats.{name}"))
    return targets


def install_spans(patches: Patches, tracer: Tracer, gar, workload) -> None:
    for owner, attr, name in span_targets(gar):
        patches.wrap(owner, attr, tracer.wrapper(name))

    def cli_span(fn):
        def main(argv):
            with tracer.span(f"cli.{argv[0]}"):
                return fn(argv)

        return main

    patches.wrap(gar.cli, "main", cli_span)
    workload.install_traced(patches)


def run_rounds(workload, seconds: float | None, min_ops: int = 0, count: int | None = None, first: int = 0):
    """Whole rounds until `count` rounds, or until both `seconds` and `min_ops` are reached."""
    rounds = []
    while True:
        rounds.append(workload.run_round())
        workload.after_round(first + len(rounds) - 1)
        if count is not None:
            if len(rounds) >= count:
                return rounds
        elif sum(r.seconds for r in rounds) >= seconds and sum(r.ops for r in rounds) >= min_ops:
            return rounds


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


def measure(workload, gar, seconds: int, traced: bool) -> dict:
    tracer = Tracer()
    recorders, spans = Patches(), Patches()
    workload.install(recorders)
    try:
        if traced:
            install_spans(spans, tracer, gar, workload)
        setup_times = []
        for _ in range(workload.setup_reps):
            workload.reset()
            gc.collect()
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
        spans.restore()
        rounds = run_rounds(workload, seconds, workload.min_ops)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced_rounds = []
        if traced:
            tracer.phase = "timed"
            install_spans(spans, tracer, gar, workload)
            traced_rounds = run_rounds(workload, None, count=len(rounds), first=len(rounds))
    finally:
        spans.restore()
        recorders.restore()

    all_rounds = rounds + traced_rounds
    result = {
        "attempted": sum(r.ops for r in all_rounds),
        "failed": sum(r.failed for r in all_rounds),
        "errors": workload.errors,
        "rounds": len(rounds),
    }
    try:
        workload.check()
        result["correct"] = not workload.errors
    except CheckFailed as exc:
        result["correct"] = False
        result["errors"] = workload.errors + [f"check failed: {exc}"]
    except Exception as exc:  # a crash in a check is a failed check, reported like one
        result["correct"] = False
        result["errors"] = workload.errors + [f"check crashed: {exc!r}"]
    if not result["correct"]:
        result["metrics"] = {}
        return result

    wall = sum(r.seconds for r in rounds)
    if traced:
        result["metrics"] = layer_metrics(tracer, workload, rounds, traced_rounds)
        result["tracer"] = tracer
        return result
    latencies = sorted(x for r in rounds for x in r.latencies)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "queries_per_s": sum(r.ops - r.failed for r in rounds) / wall,
        "query_p50_ms": 1000.0 * percentile(latencies, 50),
        "query_p95_ms": 1000.0 * percentile(latencies, 95),
        "peak_rss_mb": peak_rss_mb,
    }
    metrics.update(workload.quality())
    result["metrics"] = {name: metrics[name] for name in END_TO_END}
    result["samples"] = len(latencies)
    return result


def layer_metrics(tracer: Tracer, workload, rounds, traced_rounds) -> dict:
    setup, timed = tracer.totals("setup"), tracer.totals("timed")
    n = len(traced_rounds)
    none = [0.0, 0.0, 0]

    def per_pass(span: str, column: int) -> float:
        return setup.get(span, none)[column] / workload.setup_reps + timed.get(span, none)[column] / n

    metrics = {}
    for name, unit in LAYER_METRICS.items():
        stem, _, kind = name.rpartition(".")
        if unit == "s":
            metrics[name] = per_pass(stem, 1 if kind == "self_s" else 0)
        elif kind == "calls":
            metrics[name] = per_pass(stem, 2)
    for name, total in workload.traced_counts.items():
        metrics[name] = total / n
    metrics.update(workload.counts)
    traced_wall = sum(r.seconds for r in traced_rounds)
    untraced_wall = sum(r.seconds for r in rounds)
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    metrics["trace.self_coverage"] = sum(entry[1] for entry in timed.values()) / traced_wall
    return {name: metrics.get(name, 0) for name in LAYER_METRICS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gar" / "__init__.py").is_file():
        print(f"error: no gar package under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(allowed)})
    except (AttributeError, OSError):
        pass

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))  # still remove `work`
    try:
        # subprocess.run waits for the child on every path, and kills it first on an exception.
        child = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("gen.py")), args.workload, str(args.seed), str(work)],
            stdout=sys.stderr,
        )
        if child.returncode != 0:
            print(f"error: input generation exited with {child.returncode}", file=sys.stderr)
            return 1
        import gar
        import gar.cli

        workload = WORKLOADS[args.workload](gar, work, args.seed)
        result = measure(workload, gar, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    for error in result["errors"][:10]:
        print(f"error: {error}", file=sys.stderr)
    units = LAYER_METRICS if args.trace else END_TO_END
    if "tracer" in result:
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        path = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
        result["tracer"].write(path)
        print(f"# spans: {path.relative_to(ROOT)}")
    print(f"# {args.workload} seed {args.seed}: {result['rounds']} timed rounds, {result['attempted']} operations attempted")
    if "samples" in result:
        print(f"# {result['samples']} latency samples")
    for name, value in result["metrics"].items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Text file formats: corpora, queries, qrels, runs, traces, metric reports.

Writers are deterministic (sorted qids, fixed float formatting) so repeat
invocations produce byte-identical files.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .evaluate import MetricValues, N_LABELS
from .ranking import Ranking
from .rerank import TraceRow

_NA = "NA"


def _lines(path: str | Path) -> Iterable[tuple[int, str]]:
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if line:
                yield lineno, line


# --- corpus and queries: id<TAB>text, one record per line -------------------


def read_corpus(path: str | Path) -> list[tuple[str, str]]:
    docs: list[tuple[str, str]] = []
    for lineno, line in _lines(path):
        if "\t" not in line:
            raise ValueError(f"{path}: line {lineno}: expected docid<TAB>text")
        docid, text = line.split("\t", 1)
        docs.append((docid, text))
    return docs


def write_corpus(path: str | Path, docs: Iterable[tuple[str, str]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for docid, text in docs:
            fh.write(f"{docid}\t{text}\n")


def read_queries(path: str | Path) -> dict[str, str]:
    queries: dict[str, str] = {}
    for lineno, line in _lines(path):
        if "\t" not in line:
            raise ValueError(f"{path}: line {lineno}: expected qid<TAB>text")
        qid, text = line.split("\t", 1)
        if qid in queries:
            raise ValueError(f"{path}: line {lineno}: duplicate query id {qid!r}")
        queries[qid] = text
    return queries


def write_queries(path: str | Path, queries: Mapping[str, str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for qid in sorted(queries):
            fh.write(f"{qid}\t{queries[qid]}\n")


# --- TREC qrels: qid 0 docid label ------------------------------------------


def read_qrels(path: str | Path) -> dict[str, dict[str, int]]:
    qrels: dict[str, dict[str, int]] = {}
    for lineno, line in _lines(path):
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(f"{path}: line {lineno}: expected 'qid 0 docid label'")
        qid, _, docid, raw = parts
        try:
            label = int(raw)
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: bad label {raw!r}") from None
        if not 0 <= label < N_LABELS:
            raise ValueError(f"{path}: line {lineno}: label out of range 0..{N_LABELS - 1}: {label}")
        per_query = qrels.setdefault(qid, {})
        if docid in per_query:
            raise ValueError(f"{path}: line {lineno}: duplicate judgment for query {qid!r} doc {docid!r}")
        per_query[docid] = label
    return qrels


def write_qrels(path: str | Path, qrels: Mapping[str, Mapping[str, int]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for qid in sorted(qrels):
            for docid in sorted(qrels[qid]):
                fh.write(f"{qid} 0 {docid} {qrels[qid][docid]}\n")


# --- TREC runs: qid Q0 docid rank score tag ---------------------------------


def read_run(path: str | Path) -> dict[str, list[tuple[str, float]]]:
    runs: dict[str, list[tuple[str, float]]] = {}
    last_rank: dict[str, int] = {}
    seen: dict[str, set[str]] = {}
    for lineno, line in _lines(path):
        parts = line.split()
        if len(parts) != 6:
            raise ValueError(f"{path}: line {lineno}: expected 'qid Q0 docid rank score tag'")
        qid, _, docid, raw_rank, raw_score, _ = parts
        try:
            rank = int(raw_rank)
            score = float(raw_score)
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: bad rank or score") from None
        if not math.isfinite(score):
            raise ValueError(f"{path}: line {lineno}: non-finite score {raw_score!r} for query {qid!r} doc {docid!r}")
        if qid in last_rank and rank <= last_rank[qid]:
            raise ValueError(f"{path}: line {lineno}: rank {rank} out of order for query {qid!r}")
        if docid in seen.setdefault(qid, set()):
            raise ValueError(f"{path}: line {lineno}: duplicate doc {docid!r} for query {qid!r}")
        last_rank[qid] = rank
        seen[qid].add(docid)
        runs.setdefault(qid, []).append((docid, score))
    return runs


def write_run(
    path: str | Path,
    rankings: Mapping[str, Ranking | Sequence[tuple[str, float]]],
    tag: str = "gar",
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for qid in sorted(rankings):
            ranked = rankings[qid]
            pairs = ranked.pairs() if isinstance(ranked, Ranking) else list(ranked)
            for rank, (docid, score) in enumerate(pairs, 1):
                fh.write(f"{qid} Q0 {docid} {rank} {score:.6f} {tag}\n")


# --- provenance trace --------------------------------------------------------

_TRACE_HEADER = "qid\tdocid\tinitial_rank\tfinal_rank\tprovenance\tsource_docid"


def write_trace(path: str | Path, rows: Iterable[TraceRow], append: bool = False) -> None:
    mode = "a" if append else "w"
    with open(path, mode, encoding="utf-8") as fh:
        if not append:
            fh.write(_TRACE_HEADER + "\n")
        for row in rows:
            initial = _NA if row.initial_rank is None else str(row.initial_rank)
            source = _NA if row.source is None else row.source
            fh.write(f"{row.qid}\t{row.docid}\t{initial}\t{row.final_rank}\t{row.provenance}\t{source}\n")


def read_trace(path: str | Path) -> list[TraceRow]:
    rows: list[TraceRow] = []
    for lineno, line in _lines(path):
        if lineno == 1:
            if line != _TRACE_HEADER:
                raise ValueError(f"{path}: line 1: bad trace header")
            continue
        parts = line.split("\t")
        if len(parts) != 6:
            raise ValueError(f"{path}: line {lineno}: expected 6 tab-separated fields")
        qid, docid, initial, final, provenance, source = parts
        rows.append(
            TraceRow(
                qid,
                docid,
                None if initial == _NA else int(initial),
                int(final),
                provenance,
                None if source == _NA else source,
            )
        )
    return rows


# --- metric report: metric qid value ----------------------------------------


def write_metric_report(path: str | Path, results: Mapping[str, MetricValues]) -> None:
    """One row per (metric, query) plus an 'all' row holding each mean."""
    with open(path, "w", encoding="utf-8") as fh:
        for metric in sorted(results):
            values = results[metric]
            for qid in sorted(values.per_query):
                fh.write(f"{metric}\t{qid}\t{values.per_query[qid]:.6f}\n")
            fh.write(f"{metric}\tall\t{values.mean:.6f}\n")


def write_cluster_matrix(path: str | Path, matrix: np.ndarray) -> None:
    """Nearest-judged-neighbour matrix as percentages, one row per probe label."""
    with open(path, "w", encoding="utf-8") as fh:
        header = "rel\t" + "\t".join(f"nbr={y}" for y in range(N_LABELS))
        fh.write(header + "\n")
        for x in range(N_LABELS):
            cells = "\t".join(f"{100.0 * matrix[x, y]:.1f}" for y in range(N_LABELS))
            fh.write(f"{x}\t{cells}\n")

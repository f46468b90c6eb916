"""Text file formats: corpora, queries, qrels, runs, score caches, traces,
metric reports.

Writers are deterministic (sorted qids, fixed float formatting) so repeat
invocations produce byte-identical files. Every file is UTF-8, so a writer
refuses a str holding a surrogate code point before it opens the file.
"""

from __future__ import annotations

import math
import numbers
import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Mapping, Sequence, TextIO

import numpy as np

from .docmap import _SURROGATE
from .evaluate import MetricValues, N_LABELS
from .ranking import PROV_FRONTIER, PROV_INITIAL, Ranking, provenance_of

_NA = "NA"

# what ends a line of a text file read back with universal newlines, as every
# reader here does
_LINE_BREAK = re.compile("[\n\r]")
# what ends a tab-separated field other than a line's last
_FIELD_BREAK = re.compile("[\t\n\r]")


def _is_token(value: str) -> bool:
    """Whether `value` is one non-empty field that `str.split` keeps whole,
    as every whitespace-separated file here needs its ids to be."""
    return value.split() == [value]


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
    """Write docs in the given order. A docid may hold no tab or line break,
    and a text no line break, as `read_corpus` would split either; nothing
    is written otherwise."""
    docs = list(docs)
    for docid, text in docs:
        if _FIELD_BREAK.search(docid):
            raise ValueError(f"{path}: docid {docid!r} holds a tab or a line break")
        if _LINE_BREAK.search(text):
            raise ValueError(f"{path}: text of doc {docid!r} holds a line break")
        if _SURROGATE.search(docid + text):
            raise ValueError(f"{path}: doc {docid!r} holds a surrogate, which UTF-8 cannot encode")
    with open(path, "w", encoding="utf-8") as fh:
        for docid, text in docs:
            fh.write(f"{docid}\t{text}\n")


def read_queries(path: str | Path) -> dict[str, str]:
    queries: dict[str, str] = {}
    for lineno, line in _lines(path):
        if "\t" not in line:
            raise ValueError(f"{path}: line {lineno}: expected qid<TAB>text")
        qid, text = line.split("\t", 1)
        if not _is_token(qid):
            raise ValueError(f"{path}: line {lineno}: query id {qid!r} is empty or holds whitespace")
        if qid in queries:
            raise ValueError(f"{path}: line {lineno}: duplicate query id {qid!r}")
        queries[qid] = text
    return queries


def write_queries(path: str | Path, queries: Mapping[str, str]) -> None:
    """Write queries in qid order. Each qid must be a token and no text may
    hold a line break, as `read_queries` requires; nothing is written
    otherwise."""
    for qid, text in queries.items():
        if not _is_token(qid):
            raise ValueError(f"{path}: query id {qid!r} is empty or holds whitespace")
        if _LINE_BREAK.search(text):
            raise ValueError(f"{path}: text of query {qid!r} holds a line break")
        if _SURROGATE.search(qid + text):
            raise ValueError(f"{path}: query {qid!r} holds a surrogate, which UTF-8 cannot encode")
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
    """Write judgments in qid then docid order; a query without judgments
    writes no line. Every qid and docid must be a token and every label an
    integer in 0..N_LABELS-1, as `read_qrels` requires; nothing is written
    otherwise."""
    lines = []
    for qid in sorted(qrels):
        if not _is_token(qid):
            raise ValueError(f"{path}: query id {qid!r} is empty or holds whitespace")
        if _SURROGATE.search(qid):
            raise ValueError(f"{path}: query id {qid!r} holds a surrogate, which UTF-8 cannot encode")
        for docid in sorted(qrels[qid]):
            if not _is_token(docid):
                raise ValueError(f"{path}: docid {docid!r} for query {qid!r} is empty or holds whitespace")
            if _SURROGATE.search(docid):
                raise ValueError(f"{path}: docid {docid!r} for query {qid!r} holds a surrogate, which UTF-8 cannot encode")
            label = qrels[qid][docid]
            if not (isinstance(label, numbers.Integral) and 0 <= label < N_LABELS):
                raise ValueError(
                    f"{path}: label {label!r} for query {qid!r} doc {docid!r} is not an integer in 0..{N_LABELS - 1}"
                )
            lines.append(f"{qid} 0 {docid} {int(label)}\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


# --- TREC runs: qid Q0 docid rank score tag ---------------------------------

# characters of a run file parsed by column at once, which bounds the tokens held
_RUN_BLOCK_CHARS = 1 << 16


def read_run(path: str | Path) -> dict[str, Ranking]:
    """The `Ranking` of every query in a TREC run file, in the file's order
    of qids, each built from the parsed columns without a per-line tuple."""
    with open(path, "r", encoding="utf-8") as fh:
        runs = _read_run_columns(fh)
    return _read_run_rows(path) if runs is None else runs


def _read_run_columns(fh: TextIO) -> dict[str, Ranking] | None:
    """`read_run` of a file whose queries are each one block of lines, parsed
    by column, about _RUN_BLOCK_CHARS characters of whole lines at a time;
    None where the file needs the row reader: any non-ASCII text,
    interleaved queries, and every file the row reader rejects."""
    canonical: dict[str, str] = {}  # one str object per qid
    qids: list[str] = []
    docids: list[str] = []
    ranks = [np.empty(0, dtype=np.int64)]
    scores = [np.empty(0)]
    rest = ""
    while True:
        chunk = fh.read(_RUN_BLOCK_CHARS)
        text = rest + chunk
        cut = text.rfind("\n") + 1 if chunk else len(text)
        block, rest = text[:cut], text[cut:]
        if not (block.isascii() and _six_fields_per_line(block)):
            return None
        tokens = block.split()
        qids.extend(map(canonical.setdefault, tokens[0::6], tokens[0::6]))
        docids.extend(tokens[2::6])
        try:
            ranks.append(np.fromiter(map(int, tokens[3::6]), np.int64, len(tokens) // 6))
            scores.append(np.fromiter(map(float, tokens[4::6]), np.float64, len(tokens) // 6))
        except (ValueError, OverflowError):
            return None
        if not chunk:
            break
    # each query one block of lines with increasing ranks; the qid and rank
    # columns go before the Rankings are built, which holds down the peak
    counts = Counter(qids)
    ends = np.cumsum(list(counts.values()), dtype=np.int64)
    if any(qids[end - count : end].count(qid) != count for (qid, count), end in zip(counts.items(), ends.tolist())):
        return None
    del qids
    falls = np.diff(np.concatenate(ranks)) <= 0
    falls[ends[:-1] - 1] = False  # where one query's block follows another's
    del ranks
    scores = np.concatenate(scores)
    if falls.any() or not np.isfinite(scores).all():
        return None
    runs: dict[str, Ranking] = {}
    for (qid, count), end in zip(counts.items(), ends.tolist()):
        try:
            runs[qid] = Ranking(qid, docids[end - count : end], scores[end - count : end])
        except ValueError:  # a repeated docid
            return None
    return runs


def _six_fields_per_line(text: str) -> bool:
    """Whether every non-empty line of ASCII `text` splits into six fields."""
    raw = np.frombuffer(("\n" + text + "\n").encode("ascii"), np.uint8)
    space = ((raw - 9) <= 4) | ((raw - 28) <= 4)  # str.split's ASCII whitespace: 9-13 and 28-32
    newlines = np.flatnonzero(raw == 10)
    fields = np.diff(np.searchsorted(np.flatnonzero(space[:-1] > space[1:]), newlines))
    return not ((fields != 6) & ((fields != 0) | (np.diff(newlines) > 1))).any()


def _read_run_rows(path: str | Path) -> dict[str, Ranking]:
    columns: dict[str, tuple[list[str], list[float]]] = {}
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
        docids, scores = columns.setdefault(qid, ([], []))
        docids.append(docid)
        scores.append(score)
    return {qid: Ranking(qid, docids, scores) for qid, (docids, scores) in columns.items()}


def write_run(path: str | Path, rankings: Mapping[str, Ranking], tag: str = "gar") -> None:
    """Write rankings in qid order. Each key must be its ranking's qid, every
    score finite, and the tag, every qid and every docid one whitespace-free
    token, as `read_run` requires; nothing is written otherwise."""
    if not _is_token(tag):
        raise ValueError(f"{path}: tag {tag!r} is empty or holds whitespace")
    if _SURROGATE.search(tag):
        raise ValueError(f"{path}: tag {tag!r} holds a surrogate, which UTF-8 cannot encode")
    columns = {}
    for qid in sorted(rankings):
        docids, scores = rankings[qid].docids(), rankings[qid].scores()
        if rankings[qid].qid != qid:
            raise ValueError(f"{path}: key {qid!r} holds the ranking of query {rankings[qid].qid!r}")
        if not _is_token(qid):
            raise ValueError(f"{path}: query id {qid!r} is empty or holds whitespace")
        # whitespace in any docid splits the joined docids apart
        joined = "".join(docids)
        if "" in docids or (joined and joined.split() != [joined]):
            docid = next(docid for docid in docids if not _is_token(docid))
            raise ValueError(f"{path}: docid {docid!r} for query {qid!r} is empty or holds whitespace")
        if not (qid + joined).isascii() and _SURROGATE.search(qid + joined):
            raise ValueError(f"{path}: query {qid!r} holds a surrogate, which UTF-8 cannot encode")
        bad = np.flatnonzero(~np.isfinite(scores))
        if len(bad):
            raise ValueError(
                f"{path}: non-finite score {float(scores[bad[0]])!r} for query {qid!r} doc {docids[bad[0]]!r}"
            )
        columns[qid] = docids, scores
    ranks = _rank_strings(len(docids) for docids, _ in columns.values())
    with open(path, "w", encoding="utf-8") as fh:
        for qid, (docids, scores) in columns.items():
            scores = map("%.6f".__mod__, scores.tolist())
            _write_rows(fh, " ", (repeat(qid), repeat("Q0"), docids, ranks, scores, repeat(tag)))


def _rank_strings(lengths: Iterable[int]) -> list[str]:
    """Rank strings from 1 up to the longest of `lengths`, shared by every query."""
    return [str(rank) for rank in range(1, max(lengths, default=0) + 1)]


def _write_rows(fh: TextIO, sep: str, columns: Sequence[Iterable[str]]) -> None:
    """One line per row of the string columns, which stop with the shortest."""
    text = "\n".join(map(sep.join, zip(*columns)))
    if text:
        fh.write(text + "\n")


# --- score cache: qid<TAB>docid<TAB>score ----------------------------------


def read_score_table(path: str | Path) -> dict[tuple[str, str], float]:
    scores: dict[tuple[str, str], float] = {}
    for lineno, line in _lines(path):
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError(f"{path}: line {lineno}: expected qid<TAB>docid<TAB>score")
        qid, docid, raw = parts
        try:
            score = float(raw)
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: bad score {raw!r}") from None
        if not math.isfinite(score):
            raise ValueError(
                f"{path}: line {lineno}: non-finite score {raw!r} for query {qid!r} doc {docid!r}"
            )
        key = (qid, docid)
        if key in scores and scores[key] != score:
            raise ValueError(
                f"{path}: line {lineno}: conflicting scores for query {qid!r} doc {docid!r}"
            )
        scores[key] = score
    return scores


def write_score_table(path: str | Path, scores: Mapping[tuple[str, str], float]) -> None:
    """Write the table in (qid, docid) order, each score as its repr. No qid
    or docid may hold a tab or a line break, and every score must be finite,
    as `read_score_table` requires; nothing is written otherwise."""
    for (qid, docid), score in scores.items():
        if _FIELD_BREAK.search(qid):
            raise ValueError(f"{path}: query id {qid!r} holds a tab or a line break")
        if _FIELD_BREAK.search(docid):
            raise ValueError(f"{path}: docid {docid!r} for query {qid!r} holds a tab or a line break")
        if not math.isfinite(score):
            raise ValueError(f"{path}: non-finite score {score!r} for query {qid!r} doc {docid!r}")
        if _SURROGATE.search(qid + docid):
            raise ValueError(f"{path}: query {qid!r} doc {docid!r} holds a surrogate, which UTF-8 cannot encode")
    with open(path, "w", encoding="utf-8") as fh:
        for (qid, docid) in sorted(scores):
            fh.write(f"{qid}\t{docid}\t{scores[(qid, docid)]!r}\n")


# --- provenance trace --------------------------------------------------------

_TRACE_HEADER = "qid\tdocid\tinitial_rank\tfinal_rank\tprovenance\tsource_docid"


@dataclass(frozen=True)
class TraceRow:
    """Audit record for one output doc: where it came from and where it landed."""

    qid: str
    docid: str
    initial_rank: int | None
    final_rank: int
    source: str | None

    @property
    def provenance(self) -> str:
        return provenance_of(self.source)


def write_trace(path: str | Path, pools: Mapping[str, Ranking], rankings: Mapping[str, Ranking]) -> None:
    """One row per doc of every re-ranked list, in qid then final-rank order:
    its 1-based rank in the query's initial pool (NA if it was not there), its
    final rank, provenance and source (NA for an initial doc). Every ranking
    needs a pool, each key must be its ranking's qid, and no qid, docid or
    source may hold a tab or a line break, as `read_trace` would split it;
    nothing is written otherwise."""
    for qid, result in rankings.items():
        docids, sources = result.docids(), result.sources()
        if result.qid != qid:
            raise ValueError(f"{path}: key {qid!r} holds the ranking of query {result.qid!r}")
        if qid not in pools:
            raise ValueError(f"{path}: query {qid!r} has no pool")
        if _FIELD_BREAK.search(qid):
            raise ValueError(f"{path}: query id {qid!r} holds a tab or a line break")
        joined = "".join(docids) + "".join(filter(None, sources))
        # three `in` scans of the joined ids cost about a hundredth of one regex scan
        if any(char in joined for char in "\t\n\r"):
            docid, source = next(row for row in zip(docids, sources) if _FIELD_BREAK.search(row[0] + (row[1] or "")))
            field = f"docid {docid!r}" if _FIELD_BREAK.search(docid) else f"source {source!r} of docid {docid!r}"
            raise ValueError(f"{path}: {field} for query {qid!r} holds a tab or a line break")
        if not (qid + joined).isascii() and _SURROGATE.search(qid + joined):
            raise ValueError(f"{path}: query {qid!r} holds a surrogate, which UTF-8 cannot encode")
    ranks = _rank_strings(map(len, chain(pools.values(), rankings.values())))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_TRACE_HEADER + "\n")
        for qid in sorted(rankings):
            result = rankings[qid]
            initial = dict(zip(pools[qid].docids(), ranks))
            sources = [_NA if source is None else source for source in result.sources()]
            initial_ranks = map(initial.get, result.docids(), repeat(_NA))
            _write_rows(fh, "\t", (repeat(qid), result.docids(), initial_ranks, ranks, result.provenances(), sources))


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
        try:
            initial_rank = None if initial == _NA else int(initial)
            final_rank = int(final)
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: bad initial_rank or final_rank") from None
        # a frontier row names its source, which may be the docid NA; an
        # initial row has none and always writes NA
        if provenance == PROV_INITIAL:
            if source != _NA:
                raise ValueError(f"{path}: line {lineno}: initial row with source {source!r}, expected NA")
            source = None
        elif provenance != PROV_FRONTIER:
            raise ValueError(f"{path}: line {lineno}: bad provenance {provenance!r}")
        rows.append(TraceRow(qid, docid, initial_rank, final_rank, source))
    return rows


# --- metric report: metric qid value ----------------------------------------


def write_metric_report(path: str | Path, results: Mapping[str, MetricValues]) -> None:
    """One row per (metric, query) plus an 'all' row holding each mean. No qid
    may be 'all', and no name a tab, a line break or a surrogate."""
    if any("all" in values.per_query for values in results.values()):
        raise ValueError(f"{path}: query id 'all' is the name of the mean rows")
    for metric, values in results.items():
        for field, name in chain([("metric", metric)], zip(repeat("query id"), values.per_query)):
            if _FIELD_BREAK.search(name):
                raise ValueError(f"{path}: {field} {name!r} holds a tab or a line break")
            if _SURROGATE.search(name):
                raise ValueError(f"{path}: {field} {name!r} holds a surrogate, which UTF-8 cannot encode")
    with open(path, "w", encoding="utf-8") as fh:
        for metric in sorted(results):
            values = results[metric]
            for qid in sorted(values.per_query):
                fh.write(f"{metric}\t{qid}\t{values.per_query[qid]:.6f}\n")
            fh.write(f"{metric}\tall\t{values.mean:.6f}\n")


def format_cluster_matrix(matrix: np.ndarray) -> str:
    """The text of `write_cluster_matrix`, which `gar cluster-test` also prints."""
    lines = ["rel\t" + "\t".join(f"nbr={y}" for y in range(N_LABELS))]
    for x in range(N_LABELS):
        lines.append(f"{x}\t" + "\t".join(f"{100.0 * matrix[x, y]:.1f}" for y in range(N_LABELS)))
    return "\n".join(lines) + "\n"


def write_cluster_matrix(path: str | Path, matrix: np.ndarray) -> None:
    """Nearest-judged-neighbour matrix as percentages, one row per probe label."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_cluster_matrix(matrix))

"""Independent reference implementations used as test oracles.

Everything here is written straight from the operation contracts with plain
loops and its own data structures; nothing imports the package's scoring,
graph, or metric internals.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from typing import Callable

SENTINEL = 0xFFFFFFFF  # deliberately redefined rather than imported


# --- tokenization -----------------------------------------------------------


def reference_tokenize(text: str) -> list[str]:
    """Character-scan tokenizer: lowercase, split on non-alphanumerics."""
    tokens: list[str] = []
    current: list[str] = []
    for ch in text.lower():
        if ch.isalnum():
            current.append(ch)
        elif current:
            tokens.append("".join(current))
            current = []
    if current:
        tokens.append("".join(current))
    return tokens


# --- BM25 -------------------------------------------------------------------


def bm25_all_scores(
    doc_tokens: list[list[str]],
    query_terms: set[str],
    k1: float = 0.9,
    b: float = 0.4,
) -> list[float]:
    """Okapi BM25 of every doc against the unique query terms.

    Terms are visited in sorted order with the same expression shape as a
    faithful implementation, so mathematically equal sums are bitwise equal
    and tie order is comparable across routes.
    """
    n = len(doc_tokens)
    lengths = [len(tokens) for tokens in doc_tokens]
    avg = sum(lengths) / n
    dfs: Counter[str] = Counter()
    for tokens in doc_tokens:
        dfs.update(set(tokens))
    scores = []
    for i in range(n):
        counts = Counter(doc_tokens[i])
        total = 0.0
        for term in sorted(set(query_terms)):
            tf = counts.get(term, 0)
            if tf == 0:
                continue
            df = dfs[term]
            idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
            norm = 1.0 - b + b * lengths[i] / avg
            total += idf * tf * (k1 + 1.0) / (tf + k1 * norm)
        scores.append(total)
    return scores


# --- k-NN graph rows --------------------------------------------------------


def knn_row(
    scores: list[float], self_id: int, k: int, positive_only: bool
) -> list[int]:
    """Top-k ids by (score desc, id asc), self excluded, sentinel padded."""
    candidates = []
    for j, score in enumerate(scores):
        if j == self_id:
            continue
        if positive_only and not score > 0.0:
            continue
        candidates.append((j, score))
    candidates.sort(key=lambda pair: (-pair[1], pair[0]))
    row = [j for j, _ in candidates[:k]]
    return row + [SENTINEL] * (k - len(row))


# --- graph reachability -----------------------------------------------------


def closure(seed_ids: list[int], edge_rows: list[list[int]]) -> set[int]:
    """Every internal id reachable from the seeds, seeds included."""
    seen = set(seed_ids)
    stack = list(seed_ids)
    while stack:
        doc = stack.pop()
        for nb in edge_rows[doc]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return seen


# --- adaptive re-ranking ----------------------------------------------------


def reference_rerank(
    pool: list[str],
    score: Callable[[list[str]], list[float]],
    neighbours: dict[str, list[str]],
    batch_size: int,
    budget: int,
) -> list[tuple[str, float, str, str | None]]:
    """Algorithm 1 on docid strings, with a plain dict as its frontier.

    Batches alternate between the pool (in pool order) and the frontier;
    when the turn's side is empty the other one is drawn instead. Each
    scored doc offers its unscored neighbours to the frontier at its own
    score: a new doc is numbered in order of first arrival, and a known
    one rises to a strictly higher score together with its source, keeping
    its number. The frontier yields the highest score, then the lowest
    number, found by a linear `min`. `neighbours` maps graph docs only; a
    pool doc without an entry is scored and never expands. Returns
    (docid, score, provenance, source) for scored docs by (score desc,
    docid asc), then the unscored pool docs stepped down below them.
    """
    scored: dict[str, float] = {}
    source: dict[str, str] = {}
    frontier: dict[str, tuple[float, int, str]] = {}
    arrivals = 0
    cursor = 0
    from_pool = True
    while len(scored) < budget:
        want = min(batch_size, budget - len(scored))
        batch: list[str] = []
        for side in ((True, False) if from_pool else (False, True)):
            if side:
                while cursor < len(pool) and len(batch) < want:
                    if pool[cursor] not in scored:
                        batch.append(pool[cursor])
                    cursor += 1
            else:
                while frontier and len(batch) < want:
                    best = min(frontier, key=lambda d: (-frontier[d][0], frontier[d][1]))
                    source[best] = frontier.pop(best)[2]
                    batch.append(best)
            if batch:
                break
        if not batch:
            break
        for docid, value in zip(batch, score(batch)):
            scored[docid] = value
            frontier.pop(docid, None)
        for docid in batch:
            for nb in neighbours.get(docid, []):
                if nb in scored:
                    continue
                if nb not in frontier:
                    frontier[nb] = (scored[docid], arrivals, docid)
                    arrivals += 1
                elif scored[docid] > frontier[nb][0]:
                    frontier[nb] = (scored[docid], frontier[nb][1], docid)
        from_pool = not from_pool

    out = [
        (docid, scored[docid], "frontier" if docid in source else "initial", source.get(docid))
        for docid in sorted(scored, key=lambda d: (-scored[d], d))
    ]
    # backfill: steps of 1e-6 below the lowest score, or one float spacing
    # where 1e-6 no longer registers
    base = min(scored.values(), default=0.0)
    previous = base
    for i, docid in enumerate(d for d in pool if d not in scored):
        value = base - (i + 1) * 1e-6
        if value >= previous:
            value = math.nextafter(previous, -math.inf)
        out.append((docid, value, "initial", None))
        previous = value
    return out


def reference_backfill(base: float, n: int) -> list[float]:
    """Backfill scores one at a time: steps of 1e-6 below `base`, or one
    float spacing below the previous score where 1e-6 no longer registers."""
    out: list[float] = []
    previous = base
    for i in range(n):
        value = base - (i + 1) * 1e-6
        if value >= previous:
            value = math.nextafter(previous, -math.inf)
        out.append(value)
        previous = value
    return out


def reference_noise(seed: int, qid: str, docid: str, sd: float) -> float:
    """Oracle noise from its definition: the whole key hashed in one call,
    the digest split into two big-endian words, their top 53 bits taken as
    uniforms, and one Box-Muller normal."""
    digest = hashlib.blake2b(f"{seed}\x1f{qid}\x1f{docid}".encode("utf-8"), digest_size=16).digest()
    x = int.from_bytes(digest[:8], "big") // 2**11
    y = int.from_bytes(digest[8:], "big") // 2**11
    u1 = (x + 1) / 2**53
    u2 = y / 2**53
    return sd * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


# --- run and trace files ----------------------------------------------------


def reference_read_run(path) -> dict[str, list[tuple[str, float]]]:
    """TREC run reader, one line at a time, with the reader's error messages."""
    runs: dict[str, list[tuple[str, float]]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
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
                raise ValueError(
                    f"{path}: line {lineno}: non-finite score {raw_score!r} for query {qid!r} doc {docid!r}"
                )
            earlier = runs.setdefault(qid, [])
            if earlier and rank <= earlier[-1][2]:
                raise ValueError(f"{path}: line {lineno}: rank {rank} out of order for query {qid!r}")
            if any(seen == docid for seen, _, _ in earlier):
                raise ValueError(f"{path}: line {lineno}: duplicate doc {docid!r} for query {qid!r}")
            earlier.append((docid, score, rank))
    return {qid: [(docid, score) for docid, score, _ in rows] for qid, rows in runs.items()}


def reference_run_text(rankings: dict[str, list[tuple[str, float]]], tag: str) -> str:
    """Run file text, one formatted line per (docid, score), qids sorted."""
    return "".join(
        f"{qid} Q0 {docid} {rank} {score:.6f} {tag}\n"
        for qid in sorted(rankings)
        for rank, (docid, score) in enumerate(rankings[qid], 1)
    )


def reference_trace_text(
    pools: dict[str, list[str]], outputs: dict[str, list[tuple[str, str, str | None]]]
) -> str:
    """Trace file text from each pool's docids and each output's (docid,
    provenance, source) rows, qids sorted."""
    lines = ["qid\tdocid\tinitial_rank\tfinal_rank\tprovenance\tsource_docid\n"]
    for qid in sorted(outputs):
        for rank, (docid, provenance, source) in enumerate(outputs[qid], 1):
            initial = pools[qid].index(docid) + 1 if docid in pools[qid] else "NA"
            lines.append(f"{qid}\t{docid}\t{initial}\t{rank}\t{provenance}\t{'NA' if source is None else source}\n")
    return "".join(lines)


# --- metrics ----------------------------------------------------------------


def _dcg(gains: list[float]) -> float:
    return sum(g / math.log2(pos + 1) for pos, g in enumerate(gains, 1))


def reference_ndcg(
    ranked: list[str],
    labels: dict[str, int],
    cutoff: int | None = None,
    exp_gain: bool = True,
) -> float | None:
    """nDCG for one query, or None when the ideal DCG is zero."""

    def gain(rel: int) -> float:
        return float(2**rel - 1) if exp_gain else float(rel)

    got = ranked if cutoff is None else ranked[:cutoff]
    best_gains = sorted((gain(rel) for rel in labels.values()), reverse=True)
    if cutoff is not None:
        best_gains = best_gains[:cutoff]
    best = _dcg(best_gains)
    if best == 0.0:
        return None
    return _dcg([gain(labels.get(docid, 0)) for docid in got]) / best


def reference_average_precision(ranked: list[str], relevant: set[str]) -> float | None:
    if not relevant:
        return None
    total = 0.0
    hits = 0
    for pos, docid in enumerate(ranked, 1):
        if docid in relevant:
            hits += 1
            total += hits / pos
    return total / len(relevant)


def reference_recall(ranked: list[str], relevant: set[str], k: int) -> float | None:
    if not relevant:
        return None
    return len(set(ranked[:k]) & relevant) / len(relevant)


def reference_rr(ranked: list[str], relevant: set[str], k: int) -> float | None:
    if not relevant:
        return None
    for pos, docid in enumerate(ranked[:k], 1):
        if docid in relevant:
            return 1.0 / pos
    return 0.0


def reference_judged(ranked: list[str], judged: set[str], k: int) -> float | None:
    top = ranked[:k]
    if not top:
        return None
    return sum(1 for docid in top if docid in judged) / len(top)

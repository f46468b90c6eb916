"""Output checks. Each raises CheckFailed with the first violation it finds.

The checks test properties the method must have, or compare against the
independent computations in `reference.py`; none compares against a saved
copy of an earlier output.
"""

from __future__ import annotations

from typing import Callable, Collection, Mapping, Sequence

from reference import SENTINEL, knn_row

PROV_INITIAL = "initial"
PROV_FRONTIER = "frontier"

# Run, trace and report files print scores with six decimals.
FILE_TOL = 5e-7 + 1e-12

# (docid, score, provenance, source) for one entry of a re-ranked list
OutEntry = tuple[str, float, str, "str | None"]
# (docids, scores) for one call of the scorer, in call order
Batch = tuple[Sequence[str], Sequence[float]]


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_close(name: str, got: float, want: float, tol: float = 1e-9) -> None:
    require(abs(got - want) <= tol, f"{name}: program gives {got!r}, reference {want!r} (tolerance {tol})")


def check_rerank(
    qid: str,
    pool: Sequence[str],
    output: Sequence[OutEntry],
    batches: Sequence[Batch],
    budget: int,
    reachable: int,
    neighbours: Callable[[str], Collection[str]],
    score_tol: float = 0.0,
) -> None:
    """Budget, coverage, order and provenance properties of one re-ranked list."""
    scored: dict[str, float] = {}
    batch_of: dict[str, int] = {}
    for number, (docids, scores) in enumerate(batches):
        require(len(docids) == len(scores), f"{qid}: batch {number} has {len(scores)} scores for {len(docids)} docs")
        for docid, score in zip(docids, scores):
            require(docid not in scored, f"{qid}: doc {docid} scored twice")
            scored[docid] = float(score)
            batch_of[docid] = number
    want = min(budget, reachable)
    require(len(scored) == want, f"{qid}: scorer saw {len(scored)} docs, expected min(c, reachable) = {want}")

    docids = [entry[0] for entry in output]
    require(len(set(docids)) == len(docids), f"{qid}: output lists a doc twice")
    pool_set = set(pool)
    missing = pool_set.difference(docids)
    require(not missing, f"{qid}: pool doc {min(missing) if missing else ''} missing from output")
    extra = set(docids) - pool_set - set(scored)
    require(not extra, f"{qid}: output doc {min(extra) if extra else ''} neither in pool nor scored")

    n = len(scored)
    block = output[:n]
    require({entry[0] for entry in block} == set(scored), f"{qid}: top {n} entries are not the scored docs")
    previous = float("inf")
    for rank, (docid, score, provenance, source) in enumerate(block, 1):
        require(abs(score - scored[docid]) <= score_tol, f"{qid}: {docid} output score {score} != scored {scored[docid]}")
        require(score <= previous, f"{qid}: score rises at rank {rank} ({docid})")
        previous = score
        if provenance == PROV_FRONTIER:
            require(source in scored, f"{qid}: frontier doc {docid} has unscored source {source}")
            require(docid in neighbours(source), f"{qid}: frontier doc {docid} is not a neighbour of its source {source}")
            require(batch_of[source] < batch_of[docid], f"{qid}: frontier doc {docid} scored before its source {source}")
        else:
            require(provenance == PROV_INITIAL and docid in pool_set, f"{qid}: {docid} has provenance {provenance} but is not a pool doc")

    floor = min((entry[1] for entry in block), default=float("inf"))
    rest = [docid for docid in pool if docid not in scored]
    require([entry[0] for entry in output[n:]] == rest, f"{qid}: backfill is not the unscored pool in pool order")
    for docid, score, _, _ in output[n:]:
        require(score < floor, f"{qid}: backfilled doc {docid} ({score}) not strictly below the scored block ({floor})")


def check_knn_row(doc: int, row: Sequence[int], ref_scores: Sequence[float], k: int, tol: float, positive_only: bool) -> None:
    """A graph row is the reference top k, with order free only among near-ties."""
    want = knn_row(ref_scores, doc, k, positive_only)
    row = [int(x) for x in row]
    require(len(row) == k, f"row {doc}: {len(row)} columns, expected {k}")
    got_real = [x for x in row if x != SENTINEL]
    want_real = [x for x in want if x != SENTINEL]
    require(row[: len(got_real)] == got_real, f"row {doc}: neighbour after sentinel padding")
    require(len(got_real) == len(want_real), f"row {doc}: degree {len(got_real)}, reference {len(want_real)}")
    require(len(set(got_real)) == len(got_real) and doc not in got_real, f"row {doc}: duplicate or self neighbour")
    for col, (got, ref) in enumerate(zip(got_real, want_real)):
        a, b = ref_scores[got], ref_scores[ref]
        require(
            abs(a - b) <= tol * max(1.0, abs(b)),
            f"row {doc} col {col}: neighbour {got} (reference score {a!r}) where the reference has {ref} ({b!r})",
        )


def check_first_stage(
    qid: str,
    pairs: Sequence[tuple[str, float]],
    ref_scores: Mapping[str, float],
    position: Mapping[str, int],
    top_n: int,
    tol: float = 1e-9,
) -> None:
    """A BM25 pool from a run file: reference scores, top-n set, score-then-position order."""
    positive = sum(1 for score in ref_scores.values() if score > 0.0)
    require(len(pairs) == min(top_n, positive), f"{qid}: pool of {len(pairs)}, expected {min(top_n, positive)}")
    for docid, score in pairs:
        check_close(f"{qid} {docid} first-stage score", score, ref_scores[docid], FILE_TOL + tol)
    for (a, _), (b, _) in zip(pairs, pairs[1:]):
        sa, sb = ref_scores[a], ref_scores[b]
        require(sa >= sb - tol, f"{qid}: {a} ({sa!r}) ranked above higher-scoring {b} ({sb!r})")
        require(sa != sb or position[a] < position[b], f"{qid}: tied {a} and {b} not in corpus order")
    if pairs:
        chosen = {docid for docid, _ in pairs}
        floor = ref_scores[pairs[-1][0]]
        best_left = max((s for d, s in ref_scores.items() if d not in chosen), default=0.0)
        require(best_left <= floor + tol, f"{qid}: a doc scoring {best_left!r} was left out of the pool (floor {floor!r})")


def check_trace(qid: str, run_docids: Sequence[str], rows: Sequence[tuple], pool: Sequence[str]) -> None:
    """Trace rows (docid, initial_rank, final_rank, provenance, source) agree with the run."""
    require([row[0] for row in rows] == list(run_docids), f"{qid}: trace and run list different docs")
    initial = {docid: rank for rank, docid in enumerate(pool, 1)}
    for rank, (docid, initial_rank, final_rank, provenance, source) in enumerate(rows, 1):
        require(final_rank == rank, f"{qid}: {docid} final rank {final_rank}, run rank {rank}")
        require(initial_rank == initial.get(docid), f"{qid}: {docid} initial rank {initial_rank}, pool rank {initial.get(docid)}")
        require((provenance == PROV_FRONTIER) == (source is not None), f"{qid}: {docid} provenance {provenance} with source {source}")

"""Latency overhead microbenchmark: plain vs graph-adaptive re-ranking.

Both modes run against a fully precomputed score cache so the measured
difference isolates the re-ranking machinery itself, mirroring a setting
where neural scoring cost is identical in either mode.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .graph import CorpusGraph
from .ranking import Ranking
from .rerank import RecordingScorer, ReRankConfig, ScoreCache, Scorer, gar_rerank, rerank_run, typical_rerank

DEFAULT_BUDGETS = (100, 250, 500, 750, 1000)
DEFAULT_REPEATS = 10

MODE_TYPICAL = "typical"
MODE_GAR = "gar"


@dataclass(frozen=True)
class BudgetStats:
    """Paired timing summary for one budget, in microseconds per query."""

    budget: int
    typical_mean_us: float
    gar_mean_us: float
    overhead_mean_us: float
    ci95_lo_us: float
    ci95_hi_us: float


@dataclass(frozen=True)
class LatencyReport:
    stats: tuple[BudgetStats, ...]
    # (budget, mode, run_idx, qid, micros) for every timed query
    rows: tuple[tuple[int, str, int, str, float], ...]


def _t_central(t: float, df: int) -> float:
    """P(|T| <= t) for Student's t with integer df (Abramowitz & Stegun 26.7.3-4)."""
    theta = math.atan(t / math.sqrt(df))
    c2 = math.cos(theta) ** 2
    if df % 2 == 0:
        term = total = 1.0
        for j in range(2, df - 1, 2):
            term *= (j - 1) / j * c2
            total += term
        return math.sin(theta) * total
    term = total = math.cos(theta) if df > 1 else 0.0
    for j in range(3, df - 1, 2):
        term *= (j - 1) / j * c2
        total += term
    return 2.0 / math.pi * (theta + math.sin(theta) * total)


def t_quantile(p: float, df: int) -> float:
    """The p-quantile of Student's t with integer df >= 1, for 0.5 <= p < 1."""
    if df < 1 or not 0.5 <= p < 1.0:
        raise ValueError(f"need df >= 1 and 0.5 <= p < 1, got df={df}, p={p}")
    target = 2.0 * p - 1.0
    lo, hi = 0.0, 1.0
    while _t_central(hi, df) < target:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if _t_central(mid, df) < target:
            lo = mid
        else:
            hi = mid


def precompute_cache(
    pools: Mapping[str, Ranking],
    base_scorer: Scorer,
    graph: CorpusGraph,
    batch_size: int = 16,
    max_budget: int = 1000,
    query_texts: Mapping[str, str] | None = None,
) -> ScoreCache:
    """Record every score either mode can demand up to `max_budget`.

    Smaller budgets score prefixes of the same draw sequence, so one pass
    per mode at the largest budget covers the whole sweep.
    """
    recorder = RecordingScorer(base_scorer)
    config = ReRankConfig(batch_size=batch_size, budget=max_budget)
    rerank_run(pools, recorder, config, None, query_texts)
    rerank_run(pools, recorder, config, graph, query_texts)
    return ScoreCache(recorder.records)


def _pin_to_one_cpu() -> set[int] | None:
    try:
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(allowed)})
        return allowed
    except (AttributeError, OSError):
        return None


def _restore_affinity(allowed: set[int] | None) -> None:
    if allowed is not None:
        try:
            os.sched_setaffinity(0, allowed)
        except OSError:
            pass


def _timed_pass(
    queries: Sequence[tuple[str, Ranking]],
    call: Callable[[Ranking], object],
) -> list[tuple[str, float]]:
    out = []
    for qid, r0 in queries:
        start = time.perf_counter_ns()
        call(r0)
        micros = (time.perf_counter_ns() - start) / 1000.0
        out.append((qid, micros))
    return out


def latency_bench(
    pools: Mapping[str, Ranking],
    cache: ScoreCache,
    graph: CorpusGraph,
    budgets: Sequence[int] = DEFAULT_BUDGETS,
    batch_size: int = 16,
    repeats: int = DEFAULT_REPEATS,
) -> LatencyReport:
    """Per-query wall time of both modes over repeated paired runs.

    For each budget, a discarded warm-up pass precedes `repeats` paired
    passes, plain first in even runs and adaptive first in odd ones; the
    rows list each run's plain pass before its adaptive one. The overhead
    CI is the 95% Student-t interval over the per-run mean differences.
    Cache misses abort.
    """
    if repeats < 2:
        raise ValueError(f"repeats must be at least 2, got {repeats}")
    budgets = sorted(set(budgets))
    if not budgets or budgets[0] < 1:
        raise ValueError("budgets must be positive")
    queries = [(qid, pools[qid]) for qid in sorted(pools)]
    if not queries:
        raise ValueError("no queries to benchmark")

    stats: list[BudgetStats] = []
    rows: list[tuple[int, str, int, str, float]] = []
    allowed = _pin_to_one_cpu()
    try:
        for budget in budgets:
            config = ReRankConfig(batch_size=batch_size, budget=budget)
            run_typical = lambda r0: typical_rerank(r0, cache, config)
            run_gar = lambda r0: gar_rerank(r0, cache, graph, config)
            _timed_pass(queries, run_typical)
            _timed_pass(queries, run_gar)
            typical_totals = []
            gar_totals = []
            passes = ((MODE_TYPICAL, run_typical, typical_totals), (MODE_GAR, run_gar, gar_totals))
            for run_idx in range(repeats):
                # odd runs time adaptive first, so a drifting host biases neither mode
                order = passes if run_idx % 2 == 0 else passes[::-1]
                timings = {mode: _timed_pass(queries, call) for mode, call, _ in order}
                for mode, _, totals in passes:
                    totals.append(sum(micros for _, micros in timings[mode]))
                    rows.extend((budget, mode, run_idx, qid, micros) for qid, micros in timings[mode])
            n_queries = len(queries)
            diffs = np.array(
                [(g - t) / n_queries for g, t in zip(gar_totals, typical_totals)]
            )
            mean = float(diffs.mean())
            sd = float(diffs.std(ddof=1))
            half = t_quantile(0.975, repeats - 1) * sd / repeats**0.5
            stats.append(
                BudgetStats(
                    budget=budget,
                    typical_mean_us=float(np.mean(typical_totals)) / n_queries,
                    gar_mean_us=float(np.mean(gar_totals)) / n_queries,
                    overhead_mean_us=mean,
                    ci95_lo_us=mean - half,
                    ci95_hi_us=mean + half,
                )
            )
    finally:
        _restore_affinity(allowed)
    return LatencyReport(tuple(stats), tuple(rows))


_REPORT_HEADER = "budget\tmode\trun_idx\tqid\tmicros"


def write_latency_report(path: str | Path, report: LatencyReport) -> None:
    """Detail rows for every timed query, then summary rows per budget.

    Summary rows reuse the five columns with mode='summary', the statistic
    name in the run_idx column, and 'all' in the qid column.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_REPORT_HEADER + "\n")
        for budget, mode, run_idx, qid, micros in report.rows:
            fh.write(f"{budget}\t{mode}\t{run_idx}\t{qid}\t{micros:.3f}\n")
        for s in report.stats:
            stats = asdict(s)
            budget = stats.pop("budget")
            for stat_name, value in stats.items():
                fh.write(f"{budget}\tsummary\t{stat_name}\tall\t{value:.3f}\n")

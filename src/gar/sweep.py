"""Parameter sweeps: effectiveness as graph degree or batch size varies."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .evaluate import Qrels, metric_fn
from .graph import CorpusGraph
from .ranking import Ranking
from .rerank import ReRankConfig, Scorer, rerank_run

VARY_K = "k"
VARY_B = "b"


@dataclass(frozen=True)
class SweepRow:
    """Mean metric values for one swept parameter value."""

    value: int
    means: dict[str, float]


def sweep_parameter(
    vary: str,
    values: Sequence[int],
    pools: Mapping[str, Ranking],
    scorer: Scorer,
    graph: CorpusGraph,
    qrels: Qrels,
    metrics: Sequence[str],
    config: ReRankConfig = ReRankConfig(),
    query_texts: Mapping[str, str] | None = None,
    gain: str = "exp",
) -> list[SweepRow]:
    """Re-rank every query's initial pool once per value and tabulate metric means.

    Sweeping k truncates each doc's neighbour list to its top-k entries,
    which is exactly the graph that a smaller-degree build would produce.
    """
    if vary not in (VARY_K, VARY_B):
        raise ValueError(f"vary must be '{VARY_K}' or '{VARY_B}', got {vary!r}")
    if not values:
        raise ValueError("no sweep values given")
    if not metrics:
        raise ValueError("no metrics given")
    fns = {spec: metric_fn(spec, gain) for spec in metrics}
    rows: list[SweepRow] = []
    for value in values:
        if vary == VARY_K:
            swept_graph = graph.truncated(value)
            swept_config = config
        else:
            swept_graph = graph
            swept_config = ReRankConfig(batch_size=value, budget=config.budget)
        rankings = rerank_run(pools, scorer, swept_config, swept_graph, query_texts)
        rows.append(SweepRow(value, {spec: fns[spec](rankings, qrels).mean for spec in metrics}))
    return rows


def write_sweep_table(
    path: str | Path, vary: str, rows: Sequence[SweepRow], metrics: Sequence[str]
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(vary + "\t" + "\t".join(metrics) + "\n")
        for row in rows:
            cells = "\t".join(f"{row.means[spec]:.6f}" for spec in metrics)
            fh.write(f"{row.value}\t{cells}\n")

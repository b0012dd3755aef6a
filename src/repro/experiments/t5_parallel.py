"""T5 — parallel query processing per iteration (Fig. 2 of the paper).

QR2 batches the independent queries of each search iteration and issues
them in parallel. The paper reports, on Blue Nile: 2-D search — 45 total
queries, 44 issued in parallel (> 97%); 3-D search — > 90% of queries in
parallel. We run MD-RERANK (the deployed algorithm) for a 2-D and the
paper's 3-D ranking function and report total queries, parallel queries,
the parallel fraction, and the per-iteration batch sizes.
"""
from __future__ import annotations

import pandas as pd

from ..core.multidim import MDRerank
from ..core.rerank_op import ground_truth_topk
from ..core.session import Session
from ..webdb.predicates import QuerySpec
from ..webdb.ranking import LinearRanking
from ..webdb.sources import make_source
from .common import Timer, true_bounds

PAPER_CLAIMS = [
    "2D: 44 of 45 queries issued in parallel (> 97%)",
    "3D: > 90% of queries issued in parallel",
]

FUNCS = [
    ("2D", {"price": 1.0, "carat": -0.3}),
    ("3D (paper fn)", {"price": 1.0, "carat": -0.1, "depth": -0.5}),
]


def run(spark=None, *, n: int = 2000, h: int = 10, k: int = 10) -> pd.DataFrame:
    """Fig. 2 as a table: parallelism statistics for 2-D and 3-D searches."""
    db = make_source("bluenile", spark, n=n, k=k)
    bounds = true_bounds(db)
    rows = []
    for label, weights in FUNCS:
        rk = LinearRanking(weights, {a: bounds[a] for a in weights})
        algo = MDRerank(db, bounds, max_queries=10000)
        with db.counting() as cost, Timer() as t:
            got = algo.get_top_h(Session(), rk, h)
        truth = ground_truth_topk(db, QuerySpec(), rk, h)
        assert [r["tid"] for r in got] == [r["tid"] for r in truth], label
        rows.append(
            {
                "search": label,
                "dims": len(weights),
                "total_queries": cost.n_queries,
                "parallel_queries": cost.n_parallel_queries,
                "parallel_frac": round(cost.parallel_fraction(), 3),
                "iterations": len(cost.batch_sizes),
                "max_batch": max(cost.batch_sizes, default=0),
                "seconds": round(t.seconds, 2),
            }
        )
    return pd.DataFrame(rows)


def check_shape(df: pd.DataFrame) -> None:
    """Most queries must issue in parallel batches, as in Fig. 2."""
    for _, r in df.iterrows():
        assert r.parallel_frac > 0.75, (r.search, r.parallel_frac)

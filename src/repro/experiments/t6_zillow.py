"""T6 — the demo's end-to-end Zillow statistic (§II-C, Fig. 4 caption text).

"For Zillow and the ranking function price − 0.3·squarefeet, the system
issued 27 queries to the Zillow server, which took 33 seconds." (The 33 s
include live HTTP round-trips; our substrate pays Catalyst query latency
instead, so wall time is reported for context only — the comparable number
is the query count.)

We run the full service path: register the source, build the slider
ranking, submit, and read the statistics panel.
"""
from __future__ import annotations

import pandas as pd

from ..core.rerank_op import ground_truth_topk
from ..core.service import QR2Service, UserQuery
from ..webdb.predicates import QuerySpec
from .common import Timer, make_db, true_bounds

PAPER_CLAIMS = [
    "one MD reranking query on Zillow costs tens of queries (paper: 27)",
    "a get-next page afterwards costs the same order of work, not a restart",
]

WEIGHTS = {"price": 1.0, "sqft": -0.3}


def run(spark=None, *, n: int = 2000, page_size: int = 10, k: int = 10, quick: bool = False) -> pd.DataFrame:
    """Submit the paper's Zillow query through the service facade."""
    db = make_db("zillow", spark, n=n, k=k)
    svc = QR2Service()
    svc.register_source(db, bounds=true_bounds(db))
    rk = svc.ranking_md("zillow", WEIGHTS)
    with Timer() as t:
        sid, page1, stats1 = svc.submit(
            UserQuery("zillow", QuerySpec(), rk, page_size=page_size)
        )
    truth = ground_truth_topk(db, QuerySpec(), rk, page_size)
    assert [r["tid"] for r in page1] == [r["tid"] for r in truth]
    page2, stats2 = svc.get_next_page(sid)
    return pd.DataFrame(
        [
            {
                "page": "initial top-10",
                "queries": stats1.n_queries,
                "seconds": round(stats1.elapsed_s, 2),
                "parallel_queries": stats1.n_parallel_queries,
            },
            {
                "page": "get-next page",
                "queries": stats2.n_queries,
                "seconds": round(stats2.elapsed_s, 2),
                "parallel_queries": stats2.n_parallel_queries,
            },
        ]
    )


def check_shape(df: pd.DataFrame) -> None:
    """Tens of queries for the first page; the next page is comparable work
    (it searches a strictly larger score region, continuing from the boxes
    the first page pruned and reusing its certified boxes), not a
    from-scratch search for the top-20."""
    first = int(df[df.page == "initial top-10"].queries.iloc[0])
    nxt = int(df[df.page == "get-next page"].queries.iloc[0])
    assert 5 <= first <= 500, first
    assert nxt <= first * 3, (nxt, first)

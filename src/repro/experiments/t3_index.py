"""T3 — on-the-fly indexing amortisation (§III-B "On-the-fly indexing").

The demo tracks (1D/MD)-RERANK performance over repeated queries hitting a
dense region: the first user pays for crawling the region into the shared
dense index; every later user gets it nearly free. BINARY, with no index,
re-pays every time. We run a sequence of fresh user sessions, all ranking
Blue Nile by lwr ascending (the 20% spike at lwr = 1.0), and report the
query cost per session.
"""
from __future__ import annotations

import pandas as pd

from ..core.dense_index import DenseIndex
from ..core.onedim import OneDBinary, OneDRerank
from ..core.rerank_op import ground_truth_topk
from ..core.session import Session
from ..webdb.predicates import QuerySpec
from ..webdb.ranking import one_d
from ..webdb.sources import make_source
from .common import Timer, true_bounds

PAPER_CLAIMS = [
    "RERANK's first touch of a dense region is expensive (it crawls and indexes)",
    "subsequent queries are served from the index: low amortised cost",
    "BINARY re-pays the dense region on every fresh session",
]


def run(spark=None, *, n: int = 2000, h: int = 10, k: int = 10, n_sessions: int = 5) -> pd.DataFrame:
    """Cost per fresh session for RERANK (shared index) vs BINARY."""
    db = make_source("bluenile", spark, n=n, k=k)
    bounds = true_bounds(db)
    rk = one_d("lwr", bounds["lwr"])
    truth = [r["tid"] for r in ground_truth_topk(db, QuerySpec(), rk, h)]
    shared_index = DenseIndex("bluenile")
    rows = []
    for i in range(n_sessions):
        for name, algo in (
            ("1d-rerank", OneDRerank(db, bounds, dense_index=shared_index)),
            ("1d-binary", OneDBinary(db, bounds)),
        ):
            with db.counting() as cost, Timer() as t:
                got = algo.get_top_h(Session(), rk, h)
            assert [r["tid"] for r in got] == truth, (i, name)
            rows.append(
                {
                    "session": i + 1,
                    "algorithm": name,
                    "queries": cost.n_queries,
                    "seconds": round(t.seconds, 2),
                    "index_rows": shared_index.n_rows if name == "1d-rerank" else 0,
                }
            )
    return pd.DataFrame(rows)


def check_shape(df: pd.DataFrame) -> None:
    """First RERANK session pays; later ones amortise; BINARY stays flat."""
    rr = df[df.algorithm == "1d-rerank"].sort_values("session").queries.tolist()
    bb = df[df.algorithm == "1d-binary"].sort_values("session").queries.tolist()
    assert rr[-1] < rr[0] / 2, "RERANK should amortise"
    assert bb[-1] > rr[-1], "BINARY should keep re-paying the dense region"

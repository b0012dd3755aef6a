"""T1 — 1-D reranking cost by algorithm and correlation (§III-B "1D").

The demo plan: for both web databases, rerank on single attributes in both
directions, exercising rankings positively correlated, independent, and
anti-correlated with the system ranking (Blue Nile's system rank is price
ascending; Zillow's is price-dominated). Metric: queries issued to the web
database for the top-h, plus wall time.
"""
from __future__ import annotations

import pandas as pd

from ..core.onedim import ALGORITHMS_1D
from ..core.session import Session
from ..core.rerank_op import ground_truth_topk
from ..webdb.predicates import QuerySpec
from ..webdb.ranking import one_d
from ..webdb.sources import make_source
from .common import Timer, true_bounds

#: (source, attribute, descending) -> correlation of the user ranking with
#: the system ranking, as the demo plan frames it
CONFIGS = [
    ("bluenile", "price", False, "positive"),
    ("bluenile", "price", True, "negative"),
    ("bluenile", "carat", False, "independent(+)"),
    ("bluenile", "carat", True, "independent(-)"),
    ("zillow", "price", False, "positive"),
    ("zillow", "price", True, "negative"),
    ("zillow", "sqft", False, "correlated(+)"),
    ("zillow", "sqft", True, "correlated(-)"),
]

PAPER_CLAIMS = [
    "BASELINE is cheap when the user ranking is positively correlated with the system ranking",
    "BASELINE degrades heavily (O(n/k) narrowing) when anti-correlated",
    "BINARY is robust to anti-correlation",
]


def run(spark=None, *, n: int = 2000, h: int = 10, k: int = 10) -> pd.DataFrame:
    """Produce the T1 rows; every output sequence is verified exact."""
    dbs = {}
    rows = []
    for source, attr, desc, corr in CONFIGS:
        if source not in dbs:
            dbs[source] = make_source(source, spark, n=n, k=k)
        db = dbs[source]
        bounds = true_bounds(db)
        rk = one_d(attr, bounds[attr], descending=desc)
        truth = [r["tid"] for r in ground_truth_topk(db, QuerySpec(), rk, h)]
        for name, cls in ALGORITHMS_1D.items():
            algo = cls(db, bounds)
            session = Session()
            with db.counting() as cost, Timer() as t:
                got = algo.get_top_h(session, rk, h)
            assert [r["tid"] for r in got] == truth, (source, attr, desc, name)
            rows.append(
                {
                    "source": source,
                    "attr": attr,
                    "direction": "desc" if desc else "asc",
                    "correlation": corr,
                    "algorithm": name,
                    "queries": cost.n_queries,
                    "seconds": round(t.seconds, 2),
                }
            )
    return pd.DataFrame(rows)


def check_shape(df: pd.DataFrame) -> None:
    """Assert the paper's qualitative claims hold in the measured table."""
    bn = df[(df.source == "bluenile") & (df.attr == "price")]
    base_pos = int(bn[(bn.algorithm == "1d-baseline") & (bn.direction == "asc")].queries.iloc[0])
    base_neg = int(bn[(bn.algorithm == "1d-baseline") & (bn.direction == "desc")].queries.iloc[0])
    bin_neg = int(bn[(bn.algorithm == "1d-binary") & (bn.direction == "desc")].queries.iloc[0])
    assert base_neg > 2 * base_pos, "anti-correlated BASELINE should blow up"
    assert bin_neg < base_neg, "BINARY should beat BASELINE when anti-correlated"

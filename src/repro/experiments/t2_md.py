"""T2 — MD reranking cost by algorithm, dimensionality and slider signs
(§III-B "MD").

Blue Nile carries the higher-dimensional functions (the demo uses it for
>2 ranking attributes, e.g. price - 0.1 carat - 0.5 depth); sign mixes
construct rankings positively/negatively correlated with the system rank.
"""
from __future__ import annotations

import pandas as pd

from ..core.multidim import ALGORITHMS_MD
from ..core.rerank_op import ground_truth_topk
from ..core.session import Session
from ..core.ta import MDTA
from ..webdb.interface import BudgetExceeded
from ..webdb.predicates import QuerySpec
from ..webdb.ranking import LinearRanking
from ..webdb.sources import make_source
from .common import Timer, true_bounds

FUNCS = [
    ("2D positive", {"price": 1.0, "carat": 0.3}),
    ("2D mixed", {"price": 1.0, "carat": -0.5}),
    ("2D negative", {"price": -0.6, "carat": -0.4}),
    ("3D paper fn", {"price": 1.0, "carat": -0.1, "depth": -0.5}),
    ("3D negative", {"price": -0.5, "carat": -0.3, "depth": -0.2}),
]

#: site queries one get-next may send; a search with a get-next that needs
#: more is reported as ">300" instead of being run to the end
MAX_QUERIES = 300

PAPER_CLAIMS = [
    "MD search cost grows with dimensionality",
    "negatively-correlated slider mixes cost more than positive ones",
    "MD-TA (TA over 1D-RERANK) is a viable alternative implementation",
]


def run(spark=None, *, n: int = 2000, h: int = 5, k: int = 10, quick: bool = False) -> pd.DataFrame:
    """Produce the T2 rows on Blue Nile; sequences verified exact."""
    funcs = FUNCS[:2] + FUNCS[3:4] if quick else FUNCS
    db = make_source("bluenile", spark, n=n, k=k)
    bounds = true_bounds(db)
    algos = dict(ALGORITHMS_MD)
    algos["md-ta"] = MDTA
    rows = []
    for fname, weights in funcs:
        rk = LinearRanking(weights, {a: bounds[a] for a in weights})
        truth = [r["tid"] for r in ground_truth_topk(db, QuerySpec(), rk, h)]
        for name, cls in algos.items():
            algo = cls(db, bounds, max_queries=MAX_QUERIES)
            try:
                with db.counting() as cost, Timer() as t:
                    got = algo.get_top_h(Session(), rk, h)
                assert [r["tid"] for r in got] == truth, (fname, name)
                queries = cost.n_queries
                secs = round(t.seconds, 2)
            except BudgetExceeded:
                queries, secs = f">{MAX_QUERIES}", float("nan")
            rows.append(
                {
                    "function": fname,
                    "dims": len(weights),
                    "algorithm": name,
                    "queries": queries,
                    "seconds": secs,
                }
            )
    return pd.DataFrame(rows)


def check_shape(df: pd.DataFrame) -> None:
    """Assert the demo-plan shape claims.

    The correlation sensitivity is asserted for MD-BASELINE (its contour
    narrowing is what correlation throttles); the BSP/TA algorithms are only
    required to finish and be exact.
    """
    sub = df[(df.algorithm == "md-baseline") & df.queries.apply(lambda q: isinstance(q, int))]
    pos = sub[sub.function == "2D positive"]
    mixed = sub[sub.function == "2D mixed"]
    if len(pos) and len(mixed):
        # the mixed function's carat-descending component fights the system
        # order while its target region stays dense — the robust stressor
        assert int(mixed.queries.iloc[0]) > int(pos.queries.iloc[0]), "baseline correlation shape"

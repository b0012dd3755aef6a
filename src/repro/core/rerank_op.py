"""The re-rank operator: DataFrame -> DataFrame with a user ranking applied.

This is the service's visible behaviour (and the reproduction band's ask):
given a result set and an arbitrary user-specified ranking function, return
the rows in the user's order (optionally top-h). Two paths:

* :func:`rerank_df` — linear functions compile to a single Catalyst
  expression (``ORDER BY score, tid LIMIT h``), so Spark's optimizer plans a
  TakeOrderedAndProject; no Python round-trip.
* :func:`rerank_with_udf` — arbitrary Python ranking functions run through
  ``mapInPandas`` (vectorised batches) to attach a score column, then the
  same Catalyst sort. This is how a non-linear user function would plug in.

:func:`ground_truth_topk` peeks at a hidden database's full table to compute
the exact answer a reranking algorithm must reproduce — the test oracle.
"""
from __future__ import annotations

from typing import Callable, Optional

import pandas as pd

from ..webdb.interface import LocalWebDB, SparkWebDB, WebDB
from ..webdb.predicates import QuerySpec
from ..webdb.ranking import LinearRanking

SCORE_COL = "_qr2_score"


def rerank_df(df, ranking: LinearRanking, h: Optional[int] = None):
    """Re-rank a Spark DataFrame by a linear user function, best first.

    Pure Catalyst: the score is one arithmetic expression over raw columns,
    ties broken by tuple id; ``h`` limits the output (top-h).
    """
    from pyspark.sql import functions as F

    scored = df.withColumn(SCORE_COL, F.expr(ranking.score_sql()))
    out = scored.orderBy(F.col(SCORE_COL).asc(), F.col("tid").asc()).drop(SCORE_COL)
    return out.limit(h) if h is not None else out


def rerank_with_udf(
    df, score_fn: Callable[[pd.DataFrame], pd.Series], h: Optional[int] = None
):
    """Re-rank by an arbitrary Python ranking function (lower = better).

    ``score_fn`` maps a pandas batch of rows to a float Series; it runs
    inside ``mapInPandas`` so arbitrary Python (numpy, models, ...) is
    allowed without collecting the DataFrame.
    """
    from pyspark.sql import functions as F
    from pyspark.sql.types import DoubleType, StructField, StructType

    schema = StructType(df.schema.fields + [StructField(SCORE_COL, DoubleType())])

    def attach(batches):
        for pdf in batches:
            scored = pdf.copy()
            scored[SCORE_COL] = pd.Series(score_fn(pdf), index=pdf.index).astype("float64")
            yield scored

    out = (
        df.mapInPandas(attach, schema=schema)
        .orderBy(F.col(SCORE_COL).asc(), F.col("tid").asc())
        .drop(SCORE_COL)
    )
    return out.limit(h) if h is not None else out


def ground_truth_topk(
    db: WebDB, spec: QuerySpec, ranking: LinearRanking, h: Optional[int] = None
) -> list[dict]:
    """Exact user-ranked result over the *full hidden table* (test oracle).

    Bypasses the top-k interface on purpose: this is what the reranking
    algorithms must reconstruct through it.
    """
    if isinstance(db, LocalWebDB):
        pdf = db.pdf[spec.mask(db.pdf)]
    elif isinstance(db, SparkWebDB):
        from pyspark.sql import functions as F

        pdf = db.df.where(F.expr(spec.to_sql())).toPandas()
    else:  # pragma: no cover - no other backends exist
        raise TypeError(f"unsupported backend {type(db)}")
    rows = pdf.to_dict("records")
    rows.sort(key=ranking.key)
    return rows[:h] if h is not None else rows

"""The hidden web database substrate: a top-k search interface.

A ``WebDB`` answers one search-form submission (``QuerySpec``) with at most
``k`` tuples ordered by its hidden :class:`~repro.webdb.ranking.SystemRanking`
plus an ``overflow`` flag (true when more than ``k`` tuples matched — the
"showing k of many" banner every real site displays). This is the *only*
access path the reranking service has to the data, exactly as in the paper.

Two implementations share the contract:

* :class:`SparkWebDB` — the database engine is Spark: each batch of queries
  is one windowed top-k SQL statement, run as one single-task Spark job
  over a cached one-partition table. Used by integration tests, benchmarks
  and jobs.
* :class:`LocalWebDB` — a pandas mirror with identical semantics, used to
  keep the hundreds of pure-algorithm unit tests fast. A contract test
  asserts the two (and a DuckDB oracle) agree on random queries.

``query_batch`` executes several queries as one *iteration*, recording the
batch size — QR2's parallel-processing statistic (Fig. 2). For Spark the
whole batch is answered by one job, whatever its size.

``counting()`` decides which queries belong to one request: those the
calling thread sends inside the block, so concurrent users each see their own.
It is also the one place a query budget is enforced.
"""
from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional, Sequence

import pandas as pd

from .predicates import QuerySpec
from .ranking import SystemRanking

Row = dict
QueryResult = tuple[list[Row], bool]  # (top-k rows, overflow flag)


class BudgetExceeded(RuntimeError):
    """A query or batch would take a ``counting()`` block past its budget.

    Raised before anything is sent; ``n_queries`` is what that block had
    sent, which never exceeds its budget.
    """

    def __init__(self, n_queries: int):
        super().__init__(f"query budget reached after {n_queries} queries")
        self.n_queries = n_queries


@dataclass
class QueryStats:
    """Counters the service's statistics panel reports (section II-C)."""

    n_queries: int = 0
    batch_sizes: list = field(default_factory=list)

    @property
    def n_parallel_queries(self) -> int:
        """Queries that were issued alongside at least one other query."""
        return sum(b for b in self.batch_sizes if b > 1)

    def parallel_fraction(self) -> float:
        """Fraction of all queries issued in parallel batches (Fig. 2 metric)."""
        return self.n_parallel_queries / self.n_queries if self.n_queries else 0.0

    def charge(self, batch_size: int) -> None:
        """Count one iteration of ``batch_size`` queries."""
        self.n_queries += batch_size
        self.batch_sizes.append(batch_size)


class WebDB(ABC):
    """Abstract hidden database with a top-k public search interface."""

    #: unique-tuple-id column name (visible on result rows, not filterable)
    id_col = "tid"

    def __init__(
        self,
        name: str,
        k: int,
        system_ranking: SystemRanking,
        numeric_attrs: Sequence[str],
        cat_domains: Mapping[str, Sequence] = {},
    ):
        self.name = name
        self.k = k
        self.system_ranking = system_ranking
        self.numeric_attrs = list(numeric_attrs)
        #: categorical facet -> the options its search form lists
        self.cat_domains = {a: list(opts) for a, opts in cat_domains.items()}
        #: every query this database has answered, from all threads
        self.stats = QueryStats()
        self._stats_lock = threading.Lock()
        self._open = threading.local()  # .blocks: this thread's counting() stack

    # ----- cost accounting ------------------------------------------------
    @contextmanager
    def counting(self, max_queries: Optional[int] = None) -> Iterator[QueryStats]:
        """Count the queries the calling thread sends inside the block.

        Yields a fresh :class:`QueryStats`; blocks nest, and each open one
        is charged. Queries from other threads never reach it. With
        ``max_queries``, a query or batch that would take the block past it
        is not sent: :class:`BudgetExceeded` is raised instead.
        """
        blocks = vars(self._open).setdefault("blocks", [])
        cost = QueryStats()
        blocks.append((cost, max_queries))
        try:
            yield cost
        finally:
            blocks.pop()  # one thread's blocks close innermost first

    def _charge(self, batch_size: int) -> None:
        blocks = getattr(self._open, "blocks", ())
        for cost, limit in blocks:
            if limit is not None and cost.n_queries + batch_size > limit:
                raise BudgetExceeded(cost.n_queries)
        with self._stats_lock:
            self.stats.charge(batch_size)
        for cost, _ in blocks:
            cost.charge(batch_size)

    # ----- the public interface -----------------------------------------
    def query(self, spec: QuerySpec, order: Optional[tuple[str, str]] = None) -> QueryResult:
        """One search-form submission.

        ``order`` optionally overrides the sort with one of the site's
        secondary sort options ``(attr, 'asc'|'desc')`` — real sites expose a
        few of these, and the crawler's last resort uses them.
        Returns (rows, overflow); ``overflow`` is True when strictly more
        than ``k`` tuples match.
        """
        self._charge(1)
        return self._execute(spec, order)

    def query_batch(
        self, specs: Sequence[QuerySpec], order: Optional[tuple[str, str]] = None
    ) -> list[QueryResult]:
        """Issue several queries as one parallel iteration (QR2 section II-B)."""
        if not specs:
            return []
        self._charge(len(specs))
        return self._execute_batch(list(specs), order)

    # ----- implementation hooks -----------------------------------------
    @abstractmethod
    def _execute(self, spec: QuerySpec, order: Optional[tuple[str, str]]) -> QueryResult:
        ...

    def _execute_batch(
        self, specs: list[QuerySpec], order: Optional[tuple[str, str]]
    ) -> list[QueryResult]:
        return [self._execute(s, order) for s in specs]

    # ----- database-side metadata (NOT visible to the service) ----------
    @abstractmethod
    def true_domain(self, attr: str) -> tuple[float, float]:
        """Ground-truth min/max of a numeric attribute (tests/oracle only)."""

    @abstractmethod
    def true_size(self) -> int:
        """Ground-truth row count (tests/oracle only)."""

    def _order_clause(self, order: Optional[tuple[str, str]]) -> tuple[str, bool]:
        """(sort expression, ascending) for a query; default = system ranking."""
        if order is None:
            return self.system_ranking.expr, True
        attr, direction = order
        if attr not in self.numeric_attrs:
            raise ValueError(f"cannot sort by {attr}")
        if direction not in ("asc", "desc"):
            raise ValueError(f"bad direction {direction}")
        return attr, direction == "asc"


class LocalWebDB(WebDB):
    """Pandas-backed implementation; semantics identical to SparkWebDB."""

    def __init__(
        self,
        pdf: pd.DataFrame,
        *,
        name: str,
        k: int,
        system_ranking: SystemRanking,
        numeric_attrs: Sequence[str],
        cat_domains: Mapping[str, Sequence] = {},
    ):
        super().__init__(name, k, system_ranking, numeric_attrs, cat_domains)
        if self.id_col not in pdf.columns:
            raise ValueError(f"data must carry an {self.id_col!r} column")
        self.pdf = pdf.reset_index(drop=True)
        self._sys_scores = system_ranking.pandas_scores(self.pdf)

    def _execute(self, spec: QuerySpec, order) -> QueryResult:
        m = spec.mask(self.pdf)
        sub = self.pdf[m]
        expr, asc = self._order_clause(order)
        scores = self._sys_scores[m] if order is None else sub[expr]
        key = pd.DataFrame({"s": scores, "t": sub[self.id_col]})
        # the tid tie-break follows the sort direction: a reversed sort is
        # the exact reversal of the forward one (matters for the crawler's
        # dual-order peel over duplicate values)
        idx = key.sort_values(["s", "t"], ascending=[asc, asc]).index
        top = self.pdf.loc[idx[: self.k + 1]]
        rows = top.to_dict("records")
        overflow = len(rows) > self.k
        return rows[: self.k], overflow

    def true_domain(self, attr: str) -> tuple[float, float]:
        col = self.pdf[attr]
        return float(col.min()), float(col.max())

    def true_size(self) -> int:
        return len(self.pdf)


class SparkWebDB(WebDB):
    """Spark-backed implementation: each batch of queries is one Spark job.

    The hidden table is cached as one partition. A batch compiles to one SQL
    statement: every row is tagged with the ids of the specs it matches
    (``explode(array(IF(<spec_i>, i, NULL), ...)) AS _qid``), and
    ``row_number() OVER (PARTITION BY _qid ORDER BY <score>, tid) <= k+1``
    keeps each spec's top k+1 rows. One partition needs no Exchange, so the
    plan runs as a single task: scan, generate, sort, window group limit,
    window, filter. The extra row detects overflow. A single query, and a
    secondary sort order, take the same path with one spec.

    The statements run in a session of their own, so the caller's
    SparkSession configuration is never changed. It turns off adaptive
    execution and whole-stage code generation, whose planning and compile
    time cost more than they save on a few thousand cached rows.
    """

    def __init__(
        self,
        df,
        *,
        name: str,
        k: int,
        system_ranking: SystemRanking,
        numeric_attrs: Sequence[str],
        cat_domains: Mapping[str, Sequence] = {},
    ):
        super().__init__(name, k, system_ranking, numeric_attrs, cat_domains)
        if self.id_col not in df.columns:
            raise ValueError(f"data must carry an {self.id_col!r} column")
        self.df = df.coalesce(1).cache()
        self._n = self.df.count()  # materialises the cache
        self._spark = df.sparkSession.newSession()
        self._spark.conf.set("spark.sql.adaptive.enabled", "false")
        self._spark.conf.set("spark.sql.codegen.wholeStage", "false")
        # a global temp view is how another session reaches the cached table
        view = f"webdb_{id(self):x}"
        self.df.createOrReplaceGlobalTempView(view)
        self._table = f"{self._spark.conf.get('spark.sql.globalTempDatabase')}.{view}"

    def _execute(self, spec: QuerySpec, order) -> QueryResult:
        return self._execute_batch([spec], order)[0]

    def _execute_batch(self, specs, order):
        expr, asc = self._order_clause(order)
        # tid tie-break follows the sort direction (see LocalWebDB._execute)
        d = "ASC" if asc else "DESC"
        tags = ", ".join(f"IF({s.to_sql()}, {i}, NULL)" for i, s in enumerate(specs))
        sql = (
            f"SELECT * FROM (SELECT *, row_number() OVER (PARTITION BY _qid "
            f"ORDER BY ({expr}) {d}, {self.id_col} {d}) AS _rn "
            f"FROM (SELECT *, explode(array({tags})) AS _qid FROM {self._table}) "
            f"WHERE _qid IS NOT NULL) WHERE _rn <= {self.k + 1}"
        )
        found = [[] for _ in specs]
        for r in sorted(self._spark.sql(sql).collect(), key=lambda r: (r._qid, r._rn)):
            row = r.asDict()
            found[row.pop("_qid")].append(row)
            del row["_rn"]
        return [(rows[: self.k], len(rows) > self.k) for rows in found]

    def true_domain(self, attr: str) -> tuple[float, float]:
        from pyspark.sql import functions as F

        row = self.df.agg(F.min(attr).alias("lo"), F.max(attr).alias("hi")).first()
        return float(row["lo"]), float(row["hi"])

    def true_size(self) -> int:
        return self._n

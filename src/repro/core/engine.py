"""The get-next frame shared by the algorithms of [11].

Two search loops run on it: the box engine of :mod:`~repro.core.multidim`
(every 1-D and MD algorithm) and MD-TA (:mod:`~repro.core.ta`).
:class:`GetNext` owns what both need besides their search loop:
the site, the attribute domains the crawler splits on, the dense index (a
fresh one for the indexing variants when none is shared), repeated get-next
(``get_top_h``), the one place that answers a spec (``_recall`` what the
dense index or the session already knows, else ``_send`` one batch to the
site), keeping a crawled region (``_store_crawl``) and the query budget
``max_queries``, which the search loops enforce by running each get-next in
a ``WebDB.counting(max_queries)`` block (crawls included).
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Mapping, Optional, Sequence

from ..webdb.crawler import CrawlResult
from ..webdb.interface import QueryResult, Row, WebDB
from ..webdb.predicates import QuerySpec
from ..webdb.ranking import LinearRanking
from .dense_index import DenseIndex
from .session import Session

#: region width below which a still-overflowing region must be crawled
#: (float limit): the termination guard of BASELINE and BINARY
MACHINE_EPS = 1e-9


class GetNext(ABC):
    """Common frame of every get-next algorithm."""

    #: overflowing regions narrower than this are crawled; MACHINE_EPS means
    #: "only as a termination guard", larger means on-the-fly dense indexing
    crawl_width = MACHINE_EPS
    #: whether crawled regions go into the shared dense index, so other
    #: sessions get them for free (RERANK, MD-TA); otherwise they re-pay them
    index_crawls = False

    def __init__(
        self,
        db: WebDB,
        bounds: Mapping[str, tuple[float, float]],
        *,
        dense_index: Optional[DenseIndex] = None,
        max_queries: Optional[int] = None,
    ):
        self.db = db
        #: attribute domains used by the crawler for splitting (discovered
        #: once per source through the public interface)
        self.bounds = dict(bounds)
        if dense_index is None and self.index_crawls:
            dense_index = DenseIndex(db.name)
        self.dense_index = dense_index
        #: site queries one get-next may send (None: unlimited); a query
        #: that would pass it raises ``BudgetExceeded`` instead of going out
        self.max_queries = max_queries

    @abstractmethod
    def get_next(self, session: Session, ranking: LinearRanking) -> Optional[Row]:
        """Deliver the next-best undelivered tuple, or None when exhausted."""

    def get_top_h(self, session: Session, ranking: LinearRanking, h: int) -> list[Row]:
        """Deliver the next ``h`` tuples (repeated get-next)."""
        out = []
        for _ in range(h):
            r = self.get_next(session, ranking)
            if r is None:
                break
            out.append(r)
        return out

    def _recall(self, session: Session, spec: QuerySpec) -> Optional[QueryResult]:
        """The known answer to ``spec`` at zero site queries, else None.

        The dense index comes first: a hit is every matching tuple, so it
        never overflows. Then the session's cache of site responses.
        """
        if self.dense_index is not None:
            hit = self.dense_index.rows_matching(spec)
            if hit is not None:
                return hit, False
        return session.query_cache.get(spec.to_sql())

    def _send(self, session: Session, specs: Sequence[QuerySpec]) -> list[QueryResult]:
        """Ask the site for ``specs`` in one parallel batch; cache every response."""
        results = self.db.query_batch(specs)
        for spec, result in zip(specs, results):
            session.query_cache[spec.to_sql()] = result
        return results

    def _store_crawl(self, session: Session, spec: QuerySpec, result: CrawlResult) -> None:
        """Keep a crawl of ``spec``: in the session, and indexed if this variant indexes."""
        session.absorb(result.rows.values())
        if self.index_crawls:
            self.dense_index.add(spec, result.rows)

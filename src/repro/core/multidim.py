"""MD reranking: MD-BASELINE, MD-BINARY, MD-RERANK (from [11] via QR2).

The user function is a signed linear combination of two or more normalised
attributes; internally a minimisation over the unit cube with non-negative
weights (axis flips for negative sliders — section II-C's [-1,1] sliders).

The search keeps a work-queue of boxes covering the not-yet-ruled-out part
of the space. Every loop iteration queries **all** live boxes as one
parallel batch — QR2's parallel processing (section II-B); the per-iteration
batch sizes feed the Fig. 2 statistic. A box is retired when it

* is *certified* — fully enumerated earlier (session certified set, or the
  shared dense index for RERANK): zero queries;
* is *pruned* — its minimum possible score exceeds the best undelivered
  candidate's score (the rank-contour bound of the best-known solution);
* *underflows* — its query returned every tuple inside: certify it;
* otherwise it is narrowed: BASELINE clips it by the best candidate's rank
  contour (broad narrowed re-query), BINARY midpoint-splits the widest
  dimension, RERANK additionally crawls boxes denser than threshold
  ``delta`` into the persistent index.

When the queue drains, the best undelivered pool row is provably the next
tuple in the user's ranking.
"""
from __future__ import annotations

from typing import Mapping, Optional

from ..webdb.crawler import crawl
from ..webdb.interface import Row, WebDB
from ..webdb.predicates import QuerySpec
from ..webdb.ranking import LinearRanking
from .dense_index import DenseIndex
from .engine import GetNext
from .geometry import Box
from .session import ContextMD, Session


class MDAlgorithm(GetNext):
    """Common box-queue frame for the three MD get-next algorithms."""

    name = "md"
    #: when an iteration has a single live box, also issue its children
    #: speculatively in the same parallel batch (section II-B: "this may,
    #: sometimes, increase the number of queries issued to the web database")
    speculate = False

    def __init__(
        self,
        db: WebDB,
        bounds: Mapping[str, tuple[float, float]],
        *,
        dense_index: Optional[DenseIndex] = None,
        max_queries: Optional[int] = None,
    ):
        super().__init__(db, bounds, dense_index=dense_index)
        self.max_queries = max_queries

    # ----- public primitive ---------------------------------------------
    def get_next(self, session: Session, ranking: LinearRanking) -> Optional[Row]:
        """Deliver the next-best undelivered tuple, or None when exhausted."""
        if len(ranking.attrs) < 2:
            raise ValueError("MD algorithm requires >= 2 ranking attributes")
        ctx = session.ctx("md", ranking, ContextMD)
        w = {d: ranking.internal_weight(d) for d in ranking.attrs}
        best = session.best_undelivered(
            ranking, session.pool.values(), session.filter_spec
        )
        queue: list[Box] = [Box.unit(ranking.attrs)]
        with self.db.counting() as cost:
            while queue:
                self._check_budget(cost, best)
                best_s = None if best is None else ranking.internal_score(best)
                live = []
                for box in queue:
                    if box.is_empty():
                        continue
                    if ctx.is_certified(box):
                        continue
                    if best_s is not None and box.min_score(w) > best_s + 1e-12:
                        continue  # rank-contour prune
                    live.append(box)
                if not live:
                    break
                # dense-index hits and session-cached responses are free
                pending: list[tuple[Box, QuerySpec]] = []
                ready: list[tuple[Box, QuerySpec, list, bool]] = []
                for box in live:
                    spec = session.filter_spec.merged(box.to_spec(ranking))
                    if self._indexed(session, spec) is not None:
                        ctx.add(box)
                        continue
                    cached = session.query_cache.get(spec.to_sql())
                    if cached is not None:
                        ready.append((box, spec, cached[0], cached[1]))
                    else:
                        pending.append((box, spec))
                # one parallel iteration over the genuinely new queries (Fig. 2);
                # a lone query gets its box's children added speculatively so the
                # web-database round-trip is still parallel
                speculative: list[tuple[Box, QuerySpec]] = []
                if self.speculate and len(pending) == 1:
                    for child in pending[0][0].split_widest():
                        if child.is_empty():
                            continue
                        cspec = session.filter_spec.merged(child.to_spec(ranking))
                        if cspec.to_sql() not in session.query_cache:
                            speculative.append((child, cspec))
                batch = pending + speculative
                results = self.db.query_batch([s for _, s in batch])
                for (box, spec), (rows, overflow) in zip(batch, results):
                    session.query_cache[spec.to_sql()] = (rows, overflow)
                for (box, spec) in pending:
                    rows, overflow = session.query_cache[spec.to_sql()]
                    ready.append((box, spec, rows, overflow))
                queue = []
                for box, spec, rows, overflow in ready:
                    session.absorb(rows)
                    if not overflow:
                        ctx.add(box)
                        continue
                    if box.max_width() <= self.crawl_width:
                        # the crawl stays here under this module's ``crawl`` name, which perfbench traces
                        self._store_crawl(session, spec, crawl(self.db, spec, self.bounds))
                        ctx.add(box)
                        continue
                    queue.extend(self._narrow(box, ranking, best_s))
                best = session.best_undelivered(
                    ranking, session.pool.values(), session.filter_spec
                )
        if best is None:
            return None
        return session.deliver(best)

    # ----- per-algorithm narrowing ---------------------------------------
    def _narrow(self, box: Box, ranking: LinearRanking, best_s: Optional[float]) -> list[Box]:
        """Children replacing an overflowing box (never returns it unchanged)."""
        return list(box.split_widest())


class MDBaseline(MDAlgorithm):
    """Broad queries narrowed by the best-known rank contour (MD-BASELINE)."""

    name = "md-baseline"

    def _narrow(self, box, ranking, best_s):
        if best_s is not None:
            clipped = box.clip_by_contour(ranking, best_s)
            if clipped != box and not clipped.is_empty():
                return [clipped]
            if clipped.is_empty():
                return []
        return list(box.split_widest())


class MDBinary(MDAlgorithm):
    """Midpoint binary space partitioning (MD-BINARY)."""

    name = "md-binary"
    speculate = True


class MDRerank(MDAlgorithm):
    """MD-BINARY plus on-the-fly dense-region indexing (MD-RERANK)."""

    name = "md-rerank"
    index_crawls = True
    speculate = True

    def __init__(
        self,
        db,
        bounds,
        *,
        dense_index: Optional[DenseIndex] = None,
        delta: float = 0.05,
        max_queries: Optional[int] = None,
    ):
        super().__init__(db, bounds, dense_index=dense_index, max_queries=max_queries)
        self.crawl_width = delta


ALGORITHMS_MD = {
    "md-baseline": MDBaseline,
    "md-binary": MDBinary,
    "md-rerank": MDRerank,
}

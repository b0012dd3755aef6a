"""1-D reranking: 1D-BASELINE, 1D-BINARY, 1D-RERANK (from [11] via QR2).

All three implement the **get-next** primitive for a single-attribute
ranking (ascending or descending — descending is an axis flip) using only
the database's top-k interface.

* BASELINE — a frontier search. The session keeps a *frontier* ``F`` on the
  internal unit axis such that every tuple with unit value <= F is already
  in the pool; ``get_next`` serves from the pool below F (zero queries — the
  session-cache acceleration of section II-A) and only then searches
  ``(F, 1]``: query the whole remaining range; on overflow, narrow the upper
  bound to the best (minimum-unit) value returned; on underflow, resolve
  duplicates at the boundary value with a point query (crawling when the
  point itself overflows — the "general positioning" fix of section II-B).
  Anti-correlated system rankings make the narrowing crawl forward k tuples
  at a time: O(n/k) queries.
* BINARY — the box engine of :mod:`~repro.core.multidim` with d=1 and no
  speculation: an overflowing interval is halved, and an interval wholly
  after the lowest one waits until the tuple found there may prune it.
  Dense regions force the halving down to machine resolution before an
  (unindexed) crawl — the pathology the paper describes.
* RERANK — BINARY plus on-the-fly indexing: an overflowing interval
  narrower than the dense threshold ``delta`` is crawled once into the
  shared persistent :class:`~repro.core.dense_index.DenseIndex`; any
  interval covered by the index is answered with zero queries forever after.
"""
from __future__ import annotations

from typing import Optional

from ..webdb.crawler import crawl
from ..webdb.interface import Row
from ..webdb.predicates import QuerySpec, Range, point
from ..webdb.ranking import LinearRanking
from .dense_index import DenseIndex
from .engine import GetNext
from .multidim import MDAlgorithm
from .session import Context1D, Session


def _raw_beyond(amap, v: float) -> Range:
    """Raw-space constraint "unit value strictly greater than unit(v)"."""
    return Range(hi=v, hi_incl=False) if amap.flip else Range(lo=v, lo_incl=False)


def _raw_below(amap, v: float) -> Range:
    """Raw-space constraint "unit value strictly less than unit(v)"."""
    return Range(lo=v, lo_incl=False) if amap.flip else Range(hi=v, hi_incl=False)


class OneDBaseline(GetNext):
    """Broad queries, narrowed by the best-known value (1D-BASELINE).

    Narrowing bounds come from *row values*, so they are kept in raw
    attribute space end to end (a unit<->raw float roundtrip could re-admit
    an already-delivered boundary duplicate and stall the narrowing).
    """

    name = "1d-baseline"

    def get_next(self, session: Session, ranking: LinearRanking) -> Optional[Row]:
        """Deliver the next-best undelivered tuple, or None when exhausted."""
        if len(ranking.attrs) != 1:
            raise ValueError(f"{self.name} requires a single-attribute ranking")
        ctx = session.ctx("1d", ranking, Context1D)
        row = self._pool_candidate(session, ranking, ctx)
        if row is None and not (ctx.started and ctx.frontier >= 1.0):
            row = self._search(session, ranking, ctx)
        return None if row is None else session.deliver(row)

    def _pool_candidate(self, session, ranking, ctx: Context1D) -> Optional[Row]:
        """Best undelivered pool row at or below the frontier (0 queries): the
        pool's best row, since one attribute's score is monotone in its unit
        value, ties included."""
        if not ctx.started:
            return None
        best = session.best_undelivered(ranking)
        amap = ranking.attr_map(ranking.attrs[0])
        if best is None or amap.to_unit(best[amap.attr]) > ctx.frontier + 1e-12:
            return None
        return best

    def _fetch(self, session, spec: QuerySpec):
        """``spec``'s answer, recalled or sent; its rows join the pool."""
        rows, overflow = self._recall(session, spec) or self._send(session, [spec])[0]
        session.absorb(rows)
        return rows, overflow

    def _resolve_point(self, session, amap, v_raw: float) -> None:
        """Enumerate every tuple whose ranked attribute equals ``v_raw``.

        Handles duplicate values (> system-k tuples sharing one value): a
        point query that overflows triggers the crawler, which splits that
        answer on the other attributes — QR2's general-positioning fix.
        Takes the *raw* attribute value to avoid unit-axis float roundtrip
        error.
        """
        spec = session.filter_spec.with_range(amap.attr, point(v_raw))
        rows, overflow = self._fetch(session, spec)
        if overflow:
            # the crawl stays here under this module's ``crawl`` name, which perfbench traces
            self._store_crawl(session, spec, crawl(self.db, spec, (rows, True), self.bounds))

    def _finish(self, session, ranking, ctx: Context1D, new_frontier: float) -> Optional[Row]:
        """Advance the frontier and return the best candidate under it."""
        ctx.frontier = max(ctx.frontier, new_frontier)
        ctx.started = True
        return self._pool_candidate(session, ranking, ctx)

    def _search(self, session, ranking, ctx: Context1D) -> Optional[Row]:
        """Find the minimum undelivered tuple in ``(frontier, 1]``."""
        amap = ranking.attr_map(ranking.attrs[0])
        hi_raw = None  # exclusive upper bound (in unit order) from best row seen
        while True:
            if ctx.frontier_raw is not None:
                spec = session.filter_spec.with_range(
                    amap.attr, _raw_beyond(amap, ctx.frontier_raw)
                )
            else:
                interval = Range(ctx.frontier, 1.0, not ctx.started, True)
                spec = session.filter_spec.with_range(amap.attr, amap.unit_range_to_raw(interval))
            if hi_raw is not None:
                spec = spec.with_range(amap.attr, _raw_below(amap, hi_raw))
            if spec.is_empty():
                rows, overflow = [], False
            else:
                rows, overflow = self._fetch(session, spec)
            if not overflow:
                if hi_raw is None:  # searched all the way to the top of the axis
                    return self._finish(session, ranking, ctx, 1.0)
                # everything strictly before hi_raw is known; enumerate the
                # duplicates at the boundary value itself, then advance
                self._resolve_point(session, amap, hi_raw)
                ctx.frontier_raw = hi_raw
                return self._finish(session, ranking, ctx, amap.to_unit(hi_raw))
            best_row = min(rows, key=lambda r: amap.to_unit(r[amap.attr]))
            hi_raw = best_row[amap.attr]


class OneDBinary(MDAlgorithm):
    """Midpoint halving of the search axis (1D-BINARY): the box engine with d=1."""

    name = "1d-binary"
    single_attribute = True
    #: a lone interval's halves are not sent along with it: on one axis the
    #: lower half usually holds the answer, so speculation only adds queries
    speculate = False


class OneDRerank(OneDBinary):
    """1D-BINARY plus on-the-fly dense-region indexing (1D-RERANK).

    An overflowing interval narrower than ``delta`` (relative to the unit
    axis) is crawled once into the shared :class:`DenseIndex`; subsequent
    queries covered by the index cost nothing — the paper's amortisation.
    """

    name = "1d-rerank"
    index_crawls = True

    def __init__(
        self,
        db,
        bounds,
        *,
        dense_index: Optional[DenseIndex] = None,
        delta: float = 0.02,
        max_queries: Optional[int] = None,
    ):
        super().__init__(db, bounds, dense_index=dense_index, max_queries=max_queries)
        self.crawl_width = delta


ALGORITHMS_1D = {
    "1d-baseline": OneDBaseline,
    "1d-binary": OneDBinary,
    "1d-rerank": OneDRerank,
}

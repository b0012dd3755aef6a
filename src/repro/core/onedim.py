"""1-D reranking: 1D-BASELINE, 1D-BINARY, 1D-RERANK (from [11] via QR2).

All three implement the **get-next** primitive for a single-attribute
ranking (ascending or descending — descending is an axis flip) using only
the database's top-k interface.

Shared machinery: the session keeps a *frontier* ``F`` on the internal unit
axis such that every tuple with unit value <= F is already in the pool.
``get_next`` first serves from the pool below the frontier (zero queries —
the session-cache acceleration of section II-A); only when the pool below F
is exhausted does it search ``(F, 1]``:

* BASELINE — query the whole remaining range; on overflow, narrow the upper
  bound to the best (minimum-unit) value returned; on underflow, resolve
  duplicates at the boundary value with a point query (crawling when the
  point itself overflows — the "general positioning" fix of section II-B).
  Anti-correlated system rankings make the narrowing crawl forward k tuples
  at a time: O(n/k) queries.
* BINARY — recursive halving, left interval first; an underflowed interval
  is fully enumerated and advances F. Dense regions force the halving down
  to machine resolution before an (unindexed) crawl — the pathology the
  paper describes.
* RERANK — BINARY plus on-the-fly indexing: an overflowing interval
  narrower than the dense threshold ``delta`` is crawled once into the
  shared persistent :class:`~repro.core.dense_index.DenseIndex`; any
  interval covered by the index is answered with zero queries forever after.
"""
from __future__ import annotations

from abc import abstractmethod
from typing import Optional

from ..webdb.crawler import crawl
from ..webdb.interface import Row
from ..webdb.predicates import QuerySpec, Range, point
from ..webdb.ranking import LinearRanking
from .dense_index import DenseIndex
from .engine import GetNext
from .session import Context1D, Session


class OneDAlgorithm(GetNext):
    """Common frame for the three 1-D get-next algorithms."""

    name = "1d"

    def get_next(self, session: Session, ranking: LinearRanking) -> Optional[Row]:
        """Deliver the next-best undelivered tuple, or None when exhausted."""
        self._attr(ranking)  # rejects a multi-attribute ranking up front
        ctx = session.ctx("1d", ranking, Context1D)
        cand = self._pool_candidate(session, ranking, ctx)
        if cand is not None:
            return session.deliver(cand)
        if ctx.started and ctx.frontier >= 1.0:
            return None
        row = self._search(session, ranking, ctx)
        if row is None:
            return None
        return session.deliver(row)

    # ----- shared helpers -------------------------------------------------
    @staticmethod
    def _attr(ranking: LinearRanking) -> str:
        if len(ranking.attrs) != 1:
            raise ValueError("1-D algorithm requires a single-attribute ranking")
        return ranking.attrs[0]

    def _pool_candidate(self, session, ranking, ctx) -> Optional[Row]:
        """Best undelivered pool row at or below the frontier (0 queries)."""
        if not ctx.started:
            return None
        amap = ranking.attr_map(self._attr(ranking))
        rows = [
            r
            for r in session.pool.values()
            if amap.to_unit(r[amap.attr]) <= ctx.frontier + 1e-12
            and session.filter_spec.matches(r)
        ]
        return session.best_undelivered(ranking, rows)

    def _interval_spec(self, session, ranking, r: Range) -> QuerySpec:
        amap = ranking.attr_map(self._attr(ranking))
        return session.filter_spec.with_range(amap.attr, amap.unit_range_to_raw(r))

    def _fetch(self, session, spec: QuerySpec):
        """Query with dense-index short-circuit; returns (rows, overflow).

        An index hit is free and complete (overflow False).
        """
        hit = self._indexed(session, spec)
        if hit is not None:
            return hit, False
        rows, overflow = self.db.query(spec)
        session.absorb(rows)
        return rows, overflow

    def _crawl_region(self, session, spec: QuerySpec) -> None:
        """Fully enumerate ``spec``, which the caller just missed in the index."""
        # the crawl stays here under this module's ``crawl`` name, which perfbench traces
        self._store_crawl(session, spec, crawl(self.db, spec, self.bounds))

    def _resolve_point(self, session, ranking, v_raw: float) -> None:
        """Enumerate every tuple whose ranked attribute equals ``v_raw``.

        Handles duplicate values (> system-k tuples sharing one value): a
        point query that overflows triggers the crawler, splitting on the
        other attributes — QR2's general-positioning fix. Takes the *raw*
        attribute value to avoid unit-axis float roundtrip error.
        """
        amap = ranking.attr_map(self._attr(ranking))
        spec = session.filter_spec.with_range(amap.attr, point(v_raw))
        _, overflow = self._fetch(session, spec)
        if overflow:
            self._crawl_region(session, spec)

    def _finish(self, session, ranking, ctx: Context1D, new_frontier: float) -> Optional[Row]:
        """Advance the frontier and return the best candidate under it."""
        ctx.frontier = max(ctx.frontier, new_frontier)
        ctx.started = True
        return self._pool_candidate(session, ranking, ctx)

    # ----- per-algorithm search ------------------------------------------
    @abstractmethod
    def _search(self, session, ranking, ctx: Context1D) -> Optional[Row]:
        """Find the minimum undelivered tuple in ``(frontier, 1]``."""


def _raw_beyond(amap, v: float) -> Range:
    """Raw-space constraint "unit value strictly greater than unit(v)"."""
    return Range(hi=v, hi_incl=False) if amap.flip else Range(lo=v, lo_incl=False)


def _raw_below(amap, v: float) -> Range:
    """Raw-space constraint "unit value strictly less than unit(v)"."""
    return Range(lo=v, lo_incl=False) if amap.flip else Range(hi=v, hi_incl=False)


class OneDBaseline(OneDAlgorithm):
    """Broad queries, narrowed by the best-known value (1D-BASELINE).

    Narrowing bounds come from *row values*, so they are kept in raw
    attribute space end to end (a unit<->raw float roundtrip could re-admit
    an already-delivered boundary duplicate and stall the narrowing).
    """

    name = "1d-baseline"

    def _search(self, session, ranking, ctx):
        amap = ranking.attr_map(self._attr(ranking))
        hi_raw = None  # exclusive upper bound (in unit order) from best row seen
        while True:
            if ctx.frontier_raw is not None:
                spec = session.filter_spec.with_range(
                    amap.attr, _raw_beyond(amap, ctx.frontier_raw)
                )
            else:
                interval = Range(ctx.frontier, 1.0, not ctx.started, True)
                spec = self._interval_spec(session, ranking, interval)
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
                self._resolve_point(session, ranking, hi_raw)
                ctx.frontier_raw = hi_raw
                return self._finish(session, ranking, ctx, amap.to_unit(hi_raw))
            best_row = min(rows, key=lambda r: amap.to_unit(r[amap.attr]))
            hi_raw = best_row[amap.attr]


class OneDBinary(OneDAlgorithm):
    """Left-first binary halving of the search axis (1D-BINARY)."""

    name = "1d-binary"

    def _search(self, session, ranking, ctx):
        # stack of (lo, lo_incl, hi, hi_incl); right pushed first so the
        # leftmost interval is always resolved next (frontier contiguity)
        stack = [(ctx.frontier, not ctx.started, 1.0, True)]
        while stack:
            lo, lo_incl, hi, hi_incl = stack.pop()
            interval = Range(lo, hi, lo_incl, hi_incl)
            if interval.is_empty():
                cand = self._finish(session, ranking, ctx, hi)
                if cand is not None:
                    return cand
                continue
            spec = self._interval_spec(session, ranking, interval)
            _, overflow = self._fetch(session, spec)
            if not overflow:
                cand = self._finish(session, ranking, ctx, hi)
                if cand is not None:
                    return cand
                continue
            if hi - lo <= self.crawl_width:
                # dense region: halving has stopped paying off — crawl it
                self._crawl_region(session, spec)
                cand = self._finish(session, ranking, ctx, hi)
                if cand is not None:
                    return cand
                continue
            mid = (lo + hi) / 2.0
            stack.append((mid, False, hi, hi_incl))
            stack.append((lo, lo_incl, mid, True))
        return self._finish(session, ranking, ctx, 1.0)


class OneDRerank(OneDBinary):
    """1D-BINARY plus on-the-fly dense-region indexing (1D-RERANK).

    An overflowing interval narrower than ``delta`` (relative to the unit
    axis) is crawled once into the shared :class:`DenseIndex`; subsequent
    queries covered by the index cost nothing — the paper's amortisation.
    """

    name = "1d-rerank"
    index_crawls = True

    def __init__(self, db, bounds, *, dense_index: Optional[DenseIndex] = None, delta: float = 0.02):
        super().__init__(db, bounds, dense_index=dense_index)
        self.crawl_width = delta


ALGORITHMS_1D = {
    "1d-baseline": OneDBaseline,
    "1d-binary": OneDBinary,
    "1d-rerank": OneDRerank,
}

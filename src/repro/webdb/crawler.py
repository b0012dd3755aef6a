"""Hidden-database crawler (Sheng et al., VLDB 2012 — reference [8] of QR2).

Enumerates *every* tuple matching a predicate despite the top-k result
limit, by recursively bisecting the predicate region until every leaf query
underflows. QR2 invokes this when more than system-k tuples share one
attribute value (the "general positioning" violation, section II-B) and when
(1D/MD)-RERANK decides to index a dense region.

Splitting strategy: bisect the numeric attribute with the widest remaining
relative range (domain-normalised); when every numeric range is degenerate,
split categorical IN-lists; as a last resort use the site's secondary sort
orders (attr asc + attr desc) to peel a point region of at most 2k-1
tuples.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from .interface import BudgetExceeded, QueryResult, Row, WebDB
from .predicates import QuerySpec, Range


class CrawlError(RuntimeError):
    """Raised when a region cannot be fully enumerated through the interface."""


@dataclass
class CrawlResult:
    """All tuples in the crawled region, keyed by tuple id."""

    rows: dict = field(default_factory=dict)
    n_queries: int = 0


def _split_candidates(db: WebDB, spec: QuerySpec, bounds: Mapping[str, tuple[float, float]]):
    """Numeric attrs still splittable in ``spec``, widest relative range first."""
    out = []
    for a in db.numeric_attrs:
        dom = bounds.get(a) or (0.0, 1.0)
        width = dom[1] - dom[0]
        if width <= 0:
            continue
        r = spec.ranges.get(a, Range())
        lo = dom[0] if r.lo is None else max(r.lo, dom[0])
        hi = dom[1] if r.hi is None else min(r.hi, dom[1])
        rel = (hi - lo) / width
        # stop bisecting below float-resolution slivers
        if hi - lo > 1e-9 * max(1.0, abs(width)):
            out.append((rel, a, lo, hi, r))
    out.sort(reverse=True, key=lambda t: t[0])
    return out


def crawl(
    db: WebDB,
    spec: QuerySpec,
    held: Optional[QueryResult],
    bounds: Mapping[str, tuple[float, float]],
    *,
    max_queries: int = 100_000,
) -> CrawlResult:
    """Fully enumerate the tuples matching ``spec``.

    ``held`` is the site's answer to ``spec`` when the caller already has
    it, so the crawl splits it without asking again; None asks. ``bounds``
    supplies attribute domains for unbounded range sides (the service
    learns them via ``discovery``). The result's ``n_queries`` is what this
    crawl sent. Raises :class:`BudgetExceeded` past ``max_queries``.
    """
    res = CrawlResult()
    with db.counting() as cost:
        # level-synchronous BFS: sibling sub-regions are independent, so each
        # level is one parallel batch (QR2's parallel processing, section II-B)
        answered = [(spec, db.query(spec) if held is None else held)]
        while answered:
            nxt: list[QuerySpec] = []
            for cur, (rows, overflow) in answered:
                for r in rows:
                    res.rows[r[db.id_col]] = r
                if not overflow:
                    continue
                numeric = _split_candidates(db, cur, bounds)
                if numeric:
                    _, a, lo, hi, r = numeric[0]
                    mid = (lo + hi) / 2.0
                    nxt.append(cur.with_range(a, Range(None, mid, hi_incl=True)))
                    nxt.append(cur.with_range(a, Range(mid, None, lo_incl=False)))
                    continue
                cat = next(
                    (a for a in db.cat_domains if len(cur.cats.get(a, ())) > 1), None
                )
                if cat is not None:
                    vals = sorted(cur.cats[cat])
                    half = len(vals) // 2
                    nxt.append(QuerySpec(cur.ranges, {**cur.cats, cat: frozenset(vals[:half])}))
                    nxt.append(QuerySpec(cur.ranges, {**cur.cats, cat: frozenset(vals[half:])}))
                    continue
                unused_cat = next((a for a in db.cat_domains if a not in cur.cats), None)
                if unused_cat is not None:
                    # constrain an untouched categorical facet to every option its
                    # search form lists, so it becomes splittable
                    domain = frozenset(db.cat_domains[unused_cat])
                    nxt.append(QuerySpec(cur.ranges, {**cur.cats, unused_cat: domain}))
                    continue
                got = _peel_with_orders(db, cur, res)
                if not got:
                    raise CrawlError(
                        f"region {cur.to_sql()} has at least 2k={2 * db.k} "
                        "indistinguishable tuples; at most 2k-1 can be enumerated"
                    )
            nxt = [s for s in nxt if not s.is_empty()]
            if nxt and cost.n_queries > max_queries:
                raise BudgetExceeded(cost.n_queries)
            answered = list(zip(nxt, db.query_batch(nxt)))
    res.n_queries = cost.n_queries
    return res


def _peel_with_orders(db: WebDB, spec: QuerySpec, res: CrawlResult) -> bool:
    """Last resort for a point region: grab top-k under asc and desc sorts.

    Returns True when the two sorted views provably cover the region: one
    side underflowed, or the asc and desc windows share a tuple. That holds
    for at most 2k-1 tuples; with 2k or more the windows are disjoint and
    cannot show that nothing lies between them.
    """
    attr = db.numeric_attrs[0]
    rows_a, ovf_a = db.query(spec, order=(attr, "asc"))
    rows_d, ovf_d = db.query(spec, order=(attr, "desc"))
    ids = {r[db.id_col] for r in rows_a} | {r[db.id_col] for r in rows_d}
    covered = (not ovf_a) or (not ovf_d) or (
        len(ids) < len(rows_a) + len(rows_d)
    )
    if covered:
        for r in rows_a + rows_d:
            res.rows[r[db.id_col]] = r
        return True
    return False

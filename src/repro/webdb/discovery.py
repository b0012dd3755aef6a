"""Attribute-extent discovery through the public top-k interface.

QR2 min-max-normalises ranking attributes (section II-B) and notes that
"obtaining the min and max values on each attribute is simply doable using
the 1D-RERANK algorithm". This module is that bootstrap: it finds the exact
min (resp. max) of an attribute using only top-k queries, by repeatedly
narrowing an upper (resp. lower) bound to the best value seen so far —
the 1-D narrowing step of the rerank algorithms, without needing bounds
to already exist.

The service runs discovery once per source and caches the result (the
paper's system keeps it with the shared cache), so its cost is amortised
across all users.
"""
from __future__ import annotations

from .interface import WebDB
from .predicates import QuerySpec, Range


def _discover(db: WebDB, attr: str, base: QuerySpec, pick) -> float:
    """Exact ``pick`` (``min`` or ``max``) of ``attr`` over tuples matching ``base``.

    Narrow an exclusive bound to the most extreme value returned until the
    query underflows; when the database's own ranking correlates with the
    direction this takes O(1) queries, and O(n/k) when anti-correlated —
    exactly the 1D narrowing cost profile.
    """
    rows, _ = db.query(base)
    if not rows:
        raise ValueError(f"no tuples match {base.to_sql()}")
    while True:
        best = pick(r[attr] for r in rows)
        beyond = (Range(None, best, hi_incl=False) if pick is min
                  else Range(best, None, lo_incl=False))
        rows, overflow = db.query(base.with_range(attr, beyond))
        if not overflow:
            return float(pick((r[attr] for r in rows), default=best))


def discover_min(db: WebDB, attr: str, base: QuerySpec = QuerySpec()) -> float:
    """Exact minimum of ``attr`` over tuples matching ``base``."""
    return _discover(db, attr, base, min)


def discover_max(db: WebDB, attr: str, base: QuerySpec = QuerySpec()) -> float:
    """Exact maximum of ``attr`` over tuples matching ``base``."""
    return _discover(db, attr, base, max)


def discover_bounds(
    db: WebDB, attrs=None, base: QuerySpec = QuerySpec()
) -> dict[str, tuple[float, float]]:
    """Min/max for each attribute, via the public interface only."""
    attrs = list(attrs) if attrs is not None else list(db.numeric_attrs)
    return {a: (discover_min(db, a, base), discover_max(db, a, base)) for a in attrs}

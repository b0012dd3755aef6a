"""Predicate model for top-k web-database queries.

A web-database search form is a conjunction of per-attribute constraints:
numeric range sliders (``Range``) and categorical multi-selects (IN lists).
``QuerySpec`` models one such form submission and renders to both a Spark
SQL condition string and a pandas boolean mask, so the Spark-backed and the
pandas-backed database implementations interpret a query identically.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional

import pandas as pd


@dataclass(frozen=True)
class Range:
    """A (possibly half-open, possibly unbounded) interval over one attribute.

    ``lo=None`` / ``hi=None`` mean unbounded on that side. Inclusivity flags
    only matter for bounded sides.
    """

    lo: Optional[float] = None
    hi: Optional[float] = None
    lo_incl: bool = True
    hi_incl: bool = True

    # ----- algebra -------------------------------------------------------
    def is_empty(self) -> bool:
        """True when no real number can satisfy the interval."""
        if self.lo is None or self.hi is None:
            return False
        if self.lo > self.hi:
            return True
        if self.lo == self.hi:
            return not (self.lo_incl and self.hi_incl)
        return False

    def contains(self, v: float) -> bool:
        """Membership test for a scalar value."""
        if self.lo is not None:
            if v < self.lo or (v == self.lo and not self.lo_incl):
                return False
        if self.hi is not None:
            if v > self.hi or (v == self.hi and not self.hi_incl):
                return False
        return True

    def contains_range(self, other: "Range") -> bool:
        """True when ``other`` is a subset of ``self`` (interval containment)."""
        if other.is_empty():
            return True
        if self.lo is not None:
            if other.lo is None:
                return False
            if other.lo < self.lo:
                return False
            if other.lo == self.lo and other.lo_incl and not self.lo_incl:
                return False
        if self.hi is not None:
            if other.hi is None:
                return False
            if other.hi > self.hi:
                return False
            if other.hi == self.hi and other.hi_incl and not self.hi_incl:
                return False
        return True

    def intersect(self, other: "Range") -> "Range":
        """Interval intersection (may be empty; check :meth:`is_empty`)."""
        if other.lo is None:
            lo, lo_incl = self.lo, self.lo_incl
        elif self.lo is None or other.lo > self.lo:
            lo, lo_incl = other.lo, other.lo_incl
        elif other.lo < self.lo:
            lo, lo_incl = self.lo, self.lo_incl
        else:
            lo, lo_incl = self.lo, self.lo_incl and other.lo_incl
        if other.hi is None:
            hi, hi_incl = self.hi, self.hi_incl
        elif self.hi is None or other.hi < self.hi:
            hi, hi_incl = other.hi, other.hi_incl
        elif other.hi > self.hi:
            hi, hi_incl = self.hi, self.hi_incl
        else:
            hi, hi_incl = self.hi, self.hi_incl and other.hi_incl
        return Range(lo, hi, lo_incl, hi_incl)

    def width(self, domain: tuple[float, float]) -> float:
        """Interval width, substituting the attribute domain for open sides."""
        lo = domain[0] if self.lo is None else max(self.lo, domain[0])
        hi = domain[1] if self.hi is None else min(self.hi, domain[1])
        return max(0.0, hi - lo)

    # ----- rendering -----------------------------------------------------
    def to_sql(self, attr: str) -> str:
        """Render as a SQL boolean condition on column ``attr``."""
        parts = []
        if self.lo is not None:
            parts.append(f"{attr} {'>=' if self.lo_incl else '>'} {self.lo!r}")
        if self.hi is not None:
            parts.append(f"{attr} {'<=' if self.hi_incl else '<'} {self.hi!r}")
        return " AND ".join(parts) if parts else "TRUE"

    def mask(self, s: pd.Series) -> pd.Series:
        """Boolean mask for a pandas Series."""
        m = pd.Series(True, index=s.index)
        if self.lo is not None:
            m &= (s >= self.lo) if self.lo_incl else (s > self.lo)
        if self.hi is not None:
            m &= (s <= self.hi) if self.hi_incl else (s < self.hi)
        return m


@dataclass(frozen=True)
class QuerySpec:
    """One search-form submission: a conjunction of ranges and IN lists.

    ``ranges`` maps numeric attribute name -> Range; ``cats`` maps
    categorical attribute name -> allowed value set. An empty spec matches
    every tuple.
    """

    ranges: Mapping[str, Range] = field(default_factory=dict)
    cats: Mapping[str, frozenset] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "ranges", dict(self.ranges))
        object.__setattr__(
            self, "cats", {a: frozenset(v) for a, v in self.cats.items()}
        )

    def is_empty(self) -> bool:
        """True when the spec is unsatisfiable on its face."""
        return any(r.is_empty() for r in self.ranges.values()) or any(
            len(v) == 0 for v in self.cats.values()
        )

    def merged(self, other: "QuerySpec") -> "QuerySpec":
        """Conjunction of two specs (range intersection, IN-list intersection)."""
        ranges = dict(self.ranges)
        for a, r in other.ranges.items():
            ranges[a] = ranges[a].intersect(r) if a in ranges else r
        cats = dict(self.cats)
        for a, v in other.cats.items():
            cats[a] = cats[a] & v if a in cats else v
        return QuerySpec(ranges, cats)

    def with_range(self, attr: str, r: Range) -> "QuerySpec":
        """New spec with ``attr`` further constrained to ``r``."""
        return self.merged(QuerySpec({attr: r}))

    def contains_spec(self, inner: "QuerySpec") -> bool:
        """Conservative region containment: region(self) superset of region(inner).

        Every constraint of ``self`` must be implied by ``inner``'s
        constraints; attributes unconstrained in ``self`` impose nothing.
        """
        if inner.is_empty():
            return True
        for a, r in self.ranges.items():
            ir = inner.ranges.get(a)
            if ir is None or not r.contains_range(ir):
                return False
        for a, v in self.cats.items():
            iv = inner.cats.get(a)
            if iv is None or not iv <= v:
                return False
        return True

    def matches(self, row: Mapping) -> bool:
        """Membership test for a single tuple (dict-like)."""
        for a, r in self.ranges.items():
            v = row[a]
            if v is None or (isinstance(v, float) and math.isnan(v)):
                return False
            if not r.contains(v):
                return False
        for a, allowed in self.cats.items():
            if row[a] not in allowed:
                return False
        return True

    # ----- rendering -----------------------------------------------------
    def to_sql(self) -> str:
        """Render as a SQL boolean condition (``TRUE`` for the empty spec)."""
        parts = [r.to_sql(a) for a, r in sorted(self.ranges.items())]
        for a, vals in sorted(self.cats.items()):
            quoted = ", ".join("'" + str(v).replace("'", "''") + "'" for v in sorted(vals))
            parts.append(f"{a} IN ({quoted})" if vals else "FALSE")
        parts = [p for p in parts if p != "TRUE"]
        return " AND ".join(parts) if parts else "TRUE"

    def mask(self, pdf: pd.DataFrame) -> pd.Series:
        """Boolean mask over a pandas DataFrame."""
        m = pd.Series(True, index=pdf.index)
        for a, r in self.ranges.items():
            m &= r.mask(pdf[a])
        for a, vals in self.cats.items():
            m &= pdf[a].isin(list(vals))
        return m

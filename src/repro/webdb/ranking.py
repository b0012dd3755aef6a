"""Ranking functions: the database's hidden system rank and the user's.

The user-specified function is a linear combination of *min-max normalised*
attribute values, ``f(t) = sum_i w_i * norm_i(t[A_i])`` with slider weights
``w_i`` in [-1, 1]; lower score = better rank (QR2 section II-C). Internally
every ranking is mapped to a minimisation over the unit cube with
non-negative weights: a negative weight flips its axis (``u' = 1 - u``),
which shifts the score by a constant and so preserves the order exactly.

The system ranking is an opaque SQL arithmetic expression over raw columns,
evaluated identically by Spark (``F.expr``), pandas (``DataFrame.eval``) and
DuckDB — so all database implementations return the same top-k.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .predicates import Range


@dataclass(frozen=True)
class AttrMap:
    """Affine map between one raw attribute and the internal unit axis.

    ``to_unit`` sends raw values into [0, 1] (clipping is NOT applied: values
    outside [lo, hi] map outside the unit interval, which keeps the map
    invertible). ``flip=True`` reverses the axis, used for negative user
    weights and for descending 1-D rankings.
    """

    attr: str
    lo: float
    hi: float
    flip: bool = False

    @property
    def width(self) -> float:
        """Raw-domain width; degenerate domains get width 1 to avoid /0."""
        return (self.hi - self.lo) or 1.0

    def to_unit(self, x: float) -> float:
        """Raw value -> internal unit axis."""
        u = (x - self.lo) / self.width
        return 1.0 - u if self.flip else u

    def to_raw(self, u: float) -> float:
        """Internal unit value -> raw value."""
        if self.flip:
            u = 1.0 - u
        return self.lo + u * self.width

    def unit_range_to_raw(self, r: Range) -> Range:
        """Map an interval on the unit axis to the raw attribute interval.

        Flipping swaps the endpoints and their inclusivity flags.
        """
        lo_raw = None if r.lo is None else self.to_raw(r.lo)
        hi_raw = None if r.hi is None else self.to_raw(r.hi)
        if self.flip:
            return Range(hi_raw, lo_raw, r.hi_incl, r.lo_incl)
        return Range(lo_raw, hi_raw, r.lo_incl, r.hi_incl)


@dataclass(frozen=True)
class LinearRanking:
    """A user ranking: signed weights over raw attributes + domain bounds.

    ``weights`` maps attribute -> signed slider weight (non-zero).
    ``bounds`` maps attribute -> (min, max) of its domain, used for the
    min-max normalisation; QR2 obtains these through the public interface
    (see ``webdb.discovery``).
    """

    weights: Mapping[str, float]
    bounds: Mapping[str, tuple[float, float]]

    def __post_init__(self):
        object.__setattr__(self, "weights", dict(self.weights))
        object.__setattr__(self, "bounds", {a: tuple(b) for a, b in self.bounds.items()})
        if not self.weights:
            raise ValueError("ranking needs at least one attribute")
        for a, w in self.weights.items():
            if w == 0:
                raise ValueError(f"zero weight for {a}")
            if a not in self.bounds:
                raise ValueError(f"missing bounds for {a}")

    # ----- internal representation --------------------------------------
    @property
    def attrs(self) -> list[str]:
        """Ranking attributes in deterministic order."""
        return sorted(self.weights)

    def attr_map(self, attr: str) -> AttrMap:
        """Unit-axis map for one attribute (flipped when its weight < 0)."""
        lo, hi = self.bounds[attr]
        return AttrMap(attr, lo, hi, flip=self.weights[attr] < 0)

    def internal_weight(self, attr: str) -> float:
        """Non-negative weight used in the internal minimisation."""
        return abs(self.weights[attr])

    # ----- scoring -------------------------------------------------------
    def norm(self, attr: str, x: float) -> float:
        """Plain (unflipped) min-max normalisation of one raw value."""
        lo, hi = self.bounds[attr]
        return (x - lo) / ((hi - lo) or 1.0)

    def score(self, row: Mapping) -> float:
        """The user-facing score ``sum w_i * norm_i`` (lower is better)."""
        return sum(w * self.norm(a, row[a]) for a, w in self.weights.items())

    def internal_score(self, row: Mapping) -> float:
        """Order-equivalent all-positive-weight score over flipped axes."""
        return sum(
            self.internal_weight(a) * self.attr_map(a).to_unit(row[a])
            for a in self.weights
        )

    def key(self, row: Mapping) -> tuple:
        """Total-order sort key: (score, tid) — ties broken by tuple id."""
        return (self.score(row), row["tid"])

    def score_sql(self) -> str:
        """The user score as a SQL arithmetic expression over raw columns."""
        terms = []
        for a in self.attrs:
            lo, hi = self.bounds[a]
            w = self.weights[a] / ((hi - lo) or 1.0)
            terms.append(f"({w!r}) * ({a} - ({lo!r}))")
        return " + ".join(terms)

    def signature(self) -> tuple:
        """Hashable identity used to key per-ranking session state."""
        return tuple(
            (a, self.weights[a], self.bounds[a][0], self.bounds[a][1])
            for a in self.attrs
        )


def one_d(attr: str, bounds: tuple[float, float], *, descending: bool = False) -> LinearRanking:
    """Convenience constructor for a single-attribute ORDER BY ranking."""
    return LinearRanking({attr: -1.0 if descending else 1.0}, {attr: bounds})


@dataclass(frozen=True)
class SystemRanking:
    """The database's proprietary ranking: an opaque SQL expression.

    ``expr`` must use only arithmetic on raw numeric columns so that Spark's
    ``F.expr``, ``pandas.DataFrame.eval`` and DuckDB agree bit-for-bit.
    Lower value = higher system rank (returned first). Ties broken by tid.
    """

    expr: str

    def pandas_scores(self, pdf) -> "object":
        """Vectorised score column for a pandas DataFrame."""
        return pdf.eval(self.expr)

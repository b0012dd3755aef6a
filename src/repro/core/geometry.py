"""Geometry over the internal unit search space.

MD algorithms search the unit cube spanned by the (flipped-normalised)
ranking attributes. A :class:`Box` is an axis-aligned hyperrectangle of unit
:class:`~repro.webdb.predicates.Range` intervals; the rank contour of the
best-known tuple (``sum w_i u_i = s``) prunes and clips boxes.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..webdb.predicates import QuerySpec, Range
from ..webdb.ranking import LinearRanking


@dataclass(frozen=True)
class Box:
    """Hyperrectangle in internal unit space: one Range per ranking attr."""

    dims: tuple[str, ...]
    ranges: tuple[Range, ...]

    def __post_init__(self):
        if len(self.dims) != len(self.ranges):
            raise ValueError("dims/ranges length mismatch")

    @staticmethod
    def unit(dims: Sequence[str]) -> "Box":
        """The full unit cube over ``dims``."""
        return Box(tuple(dims), tuple(Range(0.0, 1.0) for _ in dims))

    def range_of(self, dim: str) -> Range:
        """Unit interval of one dimension."""
        return self.ranges[self.dims.index(dim)]

    def is_empty(self) -> bool:
        """True when any side is an empty interval."""
        return any(r.is_empty() for r in self.ranges)

    def contains(self, other: "Box") -> bool:
        """Box containment (same dims assumed)."""
        return all(
            a.contains_range(b) for a, b in zip(self.ranges, other.ranges)
        )

    def widths(self) -> list[float]:
        """Per-dimension widths (unit domain substituted for open sides)."""
        return [r.width((0.0, 1.0)) for r in self.ranges]

    def max_width(self) -> float:
        """Longest side — the dense-region trigger in MD-RERANK."""
        return max(self.widths())

    # ----- scores --------------------------------------------------------
    def _lo_corner(self) -> list[float]:
        return [0.0 if r.lo is None else max(0.0, r.lo) for r in self.ranges]

    def min_score(self, weights: Mapping[str, float]) -> float:
        """Lowest achievable internal score inside the box (all w >= 0)."""
        return sum(w * c for w, c in zip((weights[d] for d in self.dims), self._lo_corner()))

    # ----- transforms ----------------------------------------------------
    def split(self, dim_idx: int, at: float) -> tuple["Box", "Box"]:
        """Binary split of one dimension at ``at`` into (<=at, >at) halves."""
        r = self.ranges[dim_idx]
        left = Range(r.lo, at, r.lo_incl, True)
        right = Range(at, r.hi, False, r.hi_incl)
        mk = lambda nr: Box(self.dims, tuple(nr if i == dim_idx else x for i, x in enumerate(self.ranges)))
        return mk(left), mk(right)

    def split_widest(self) -> tuple["Box", "Box"]:
        """Midpoint split on the widest dimension (MD-BINARY step)."""
        ws = self.widths()
        i = max(range(len(ws)), key=lambda j: ws[j])
        r = self.ranges[i]
        lo = 0.0 if r.lo is None else r.lo
        hi = 1.0 if r.hi is None else r.hi
        return self.split(i, (lo + hi) / 2.0)

    def clip_by_contour(self, ranking: LinearRanking, s: float) -> "Box":
        """Intersect with the half-space ``sum w'_i u_i <= s`` conservatively.

        For each dimension i, any point with
        ``u_i > (s - sum_{j != i} w'_j lo_j) / w'_i`` scores above ``s``
        regardless of the other coordinates, so that part of the box cannot
        contain a tuple beating the contour — clip it off. This is the
        MD-BASELINE narrowing step: the result is a single (broad) box.
        """
        w = {d: ranking.internal_weight(d) for d in self.dims}
        lo_corner = self._lo_corner()
        total_lo = sum(w[d] * c for d, c in zip(self.dims, lo_corner))
        new_ranges = []
        for i, (d, r) in enumerate(zip(self.dims, self.ranges)):
            wi = w[d]
            if wi <= 0:
                new_ranges.append(r)
                continue
            cap = (s - (total_lo - wi * lo_corner[i])) / wi
            hi = 1.0 if r.hi is None else r.hi
            if cap < hi:
                new_ranges.append(Range(r.lo, cap, r.lo_incl, True))
            else:
                new_ranges.append(r)
        return Box(self.dims, tuple(new_ranges))

    def to_spec(self, ranking: LinearRanking) -> QuerySpec:
        """Translate unit-space box to a raw-attribute query (flip-aware)."""
        ranges = {}
        for d, r in zip(self.dims, self.ranges):
            ranges[d] = ranking.attr_map(d).unit_range_to_raw(r)
        return QuerySpec(ranges)

"""1-D reranking: 1D-BASELINE, 1D-BINARY, 1D-RERANK (from [11] via QR2).

All three implement the **get-next** primitive for a single-attribute
ranking (ascending or descending — descending is an axis flip) using only
the database's top-k interface.

* BASELINE — the box engine of :mod:`~repro.core.multidim` with d=1, as
  MD-BASELINE: query the whole remaining interval; on overflow, drop the
  prefix already certified and clip the rest at the best value known (its
  rank contour on one axis), then query the narrowed interval. When that no
  longer narrows it, split it just below the best value, so tuples tied at
  that value are crawled if more than k share it. Anti-correlated system
  rankings make the narrowing crawl forward about k tuples at a time:
  O(n/k) queries.
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

# not used here: perfbench's traced run patches ``onedim.crawl`` by name
from ..webdb.crawler import crawl  # noqa: F401
from .dense_index import DenseIndex
from .multidim import MDAlgorithm, MDBaseline


class OneDBaseline(MDBaseline):
    """Broad queries narrowed by the best-known value (1D-BASELINE): the box engine with d=1."""

    name = "1d-baseline"
    single_attribute = True

    def _split(self, box, ranking, best):
        """Split just below the best value when it lies inside ``box``.

        Below is new ground; the slab at the value is narrower than
        ``crawl_width``, so if it still overflows it is crawled — the
        general-positioning fix for more than k tuples sharing one value.
        """
        if best is not None:
            amap = ranking.attr_map(box.dims[0])
            at = amap.to_unit(best[amap.attr]) - 1e-12
            if box.ranges[0].lo < at < box.ranges[0].hi:
                return list(box.split(0, at))
        return super()._split(box, ranking, best)


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

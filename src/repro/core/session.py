"""Per-user session state (QR2's "session variable", section II-A).

A session remembers every tuple fetched from the web database (the pool),
which tuples were already delivered to the user, and per-ranking search
progress — the box engine's certified boxes and search frontier, MD-TA's
streams — so that subsequent get-next calls reuse earlier work instead of
re-querying or re-walking it.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Optional

from ..webdb.interface import Row
from ..webdb.predicates import QuerySpec, Range
from ..webdb.ranking import LinearRanking
from .geometry import Box


@dataclass
class ContextMD:
    """Box-engine search progress (every 1-D and MD algorithm but MD-TA):
    boxes proven fully enumerated in earlier calls, and the frontier where
    the next call continues.

    The frontier is the boxes the last completed get-next pruned, each with
    the round in which a search from the unit box reaches it; the next call
    holds a box until its round. It is replaced only when a get-next
    completes, so after ``BudgetExceeded`` the previous one still covers
    the unsearched space. BASELINE keeps none and restarts every call.
    """

    certified: list = field(default_factory=list)
    #: the ``(box, round)`` pairs the last completed get-next pruned, where
    #: the next one continues (None before the first)
    frontier: Optional[list] = None

    def is_certified(self, box: Box) -> bool:
        """Conservative: box contained in a single certified box."""
        return any(c.contains(box) for c in self.certified)

    def add(self, box: Box) -> None:
        """Record a fully-enumerated box, dropping boxes it subsumes."""
        self.certified = [c for c in self.certified if not box.contains(c)]
        self.certified.append(box)

    def trim(self, box: Box) -> Box:
        """``box`` less each certified box that holds its low end on one
        dimension and all of it on the others, so the rest is still a box
        (empty when the certified boxes hold all of it)."""
        trimmed = True
        while trimmed and not box.is_empty():
            trimmed = False
            for c in self.certified:
                for i, (cr, r) in enumerate(zip(c.ranges, box.ranges)):
                    low_end = box.with_range(i, Range(r.lo, cr.hi, r.lo_incl, cr.hi_incl))
                    if cr.hi > r.lo and c.contains(low_end):
                        box = box.with_range(i, Range(cr.hi, r.hi, not cr.hi_incl, r.hi_incl))
                        trimmed = True
        return box


class Session:
    """One user's interaction state with one data source."""

    def __init__(self, filter_spec: QuerySpec = QuerySpec()):
        self.filter_spec = filter_spec
        self.pool: dict = {}  # tid -> row, every tuple ever fetched (first copy)
        self._delivered: set = set()  # tids already returned to the user
        #: ranking signature -> (ranking, min-heap of (key, row)) over the pool
        #: rows matching ``filter_spec``; each tid is in each heap once, and
        #: delivered entries are popped when they reach the top
        self._heaps: dict = {}
        self._ctx: dict = {}  # (kind, ranking signature) -> context
        #: deterministic response cache (spec SQL -> (rows, overflow)): the
        #: paper's session variable re-uses already-seen responses so
        #: subsequent get-next calls do not re-issue identical queries
        self.query_cache: dict = {}

    # ----- pool ----------------------------------------------------------
    def absorb(self, rows) -> None:
        """Add fetched rows to the pool; a tuple already there keeps its first copy."""
        for r in rows:
            if r["tid"] in self.pool:
                continue
            self.pool[r["tid"]] = r
            if self._heaps and self.filter_spec.matches(r):
                for ranking, heap in self._heaps.values():
                    heapq.heappush(heap, (ranking.key(r), r))

    def deliver(self, row: Row) -> Row:
        """Mark a pool tuple as returned to the user (the get-next output)."""
        self._delivered.add(row["tid"])
        return row

    def best_undelivered(self, ranking: LinearRanking) -> Optional[Row]:
        """Minimum-(score, tid) undelivered pool row within ``filter_spec``.

        The one place that picks a get-next candidate. The ranking's heap is
        built from the pool on first use and kept up to date by ``absorb``.
        """
        sig = ranking.signature()
        if sig not in self._heaps:
            heap = [
                (ranking.key(r), r) for r in self.pool.values() if self.filter_spec.matches(r)
            ]
            heapq.heapify(heap)
            self._heaps[sig] = (ranking, heap)
        heap = self._heaps[sig][1]
        while heap and heap[0][1]["tid"] in self._delivered:
            heapq.heappop(heap)
        return heap[0][1] if heap else None

    # ----- contexts ------------------------------------------------------
    def ctx(self, kind: str, ranking: LinearRanking, factory):
        """Search progress of one algorithm ``kind`` for one ranking
        signature, made by ``factory()`` on first use."""
        key = (kind, ranking.signature())
        if key not in self._ctx:
            self._ctx[key] = factory()
        return self._ctx[key]

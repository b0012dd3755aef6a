"""MD-TA: Fagin's Threshold Algorithm over 1D-RERANK streams (footnote 3).

Each ranking attribute gets a sorted-access stream — a 1D-RERANK get-next
over that attribute in the direction of its weight's sign. A web-database
"sorted access" returns whole tuples, so every streamed tuple's full user
score is known immediately (no random access needed). The stop condition is
the classic TA threshold: once the best undelivered score is below
``tau = sum_i w'_i * frontier_i`` (frontiers in the internal flipped unit
axes), no unseen tuple can do better.

Stream state persists in the session, so subsequent get-next calls resume
the streams instead of restarting — often answering from already-streamed
tuples with zero queries.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Mapping, Optional

from ..webdb.interface import Row, WebDB
from ..webdb.ranking import LinearRanking, one_d
from .dense_index import DenseIndex
from .engine import GetNext
from .onedim import OneDRerank
from .session import Session


@dataclass
class _Stream:
    """Sorted access on one attribute: its own 1-D session + frontier."""

    ranking: LinearRanking
    session: Session
    frontier: float = 0.0
    exhausted: bool = False


@dataclass
class _TAState:
    """Per-(ranking signature) TA progress kept in the user's session."""

    streams: list = field(default_factory=list)
    seen: dict = field(default_factory=dict)  # tid -> row, union of streams
    #: lazy min-heap of (ranking key, tid, row) over all streamed tuples;
    #: delivered entries are popped on access (keeps each TA round O(log n)
    #: instead of rescanning every seen tuple)
    heap: list = field(default_factory=list)


class MDTA(GetNext):
    """The TA implementation of MD get-next (MD-TA)."""

    name = "md-ta"
    #: the 1D-RERANK streams index their dense crawls
    index_crawls = True

    def __init__(
        self,
        db: WebDB,
        bounds: Mapping[str, tuple[float, float]],
        *,
        dense_index: Optional[DenseIndex] = None,
        delta: float = 0.02,
        max_queries: Optional[int] = None,
    ):
        super().__init__(db, bounds, dense_index=dense_index)
        self.max_queries = max_queries
        self._engine = OneDRerank(db, bounds, dense_index=self.dense_index, delta=delta)

    def _state(self, session: Session, ranking: LinearRanking) -> _TAState:
        def make():
            st = _TAState()
            for a in ranking.attrs:
                r1 = one_d(a, ranking.bounds[a], descending=ranking.weights[a] < 0)
                st.streams.append(_Stream(r1, Session(session.filter_spec)))
            return st

        return session.ctx("ta", ranking, make)

    def get_next(self, session: Session, ranking: LinearRanking) -> Optional[Row]:
        """Deliver the next-best undelivered tuple, or None when exhausted."""
        if len(ranking.attrs) < 2:
            raise ValueError("MD-TA requires >= 2 ranking attributes")
        st = self._state(session, ranking)

        def best_undelivered():
            while st.heap and session.is_delivered(st.heap[0][1]):
                heapq.heappop(st.heap)
            return st.heap[0][2] if st.heap else None

        with self.db.counting() as cost:
            while True:
                best = best_undelivered()
                tau = sum(
                    ranking.internal_weight(a) * s.frontier
                    for a, s in zip(ranking.attrs, st.streams)
                )
                if best is not None and ranking.internal_score(best) < tau - 1e-12:
                    session.absorb([best])
                    return session.deliver(best)
                live = [s for s in st.streams if not s.exhausted]
                if not live:
                    if best is None:
                        return None
                    session.absorb([best])
                    return session.deliver(best)
                self._check_budget(cost, best)
                # one round of sorted access: advance the laggard stream first
                stream = min(live, key=lambda s: s.frontier)
                row = self._engine.get_next(stream.session, stream.ranking)
                if row is None:
                    stream.exhausted = True
                    stream.frontier = 1.0
                    continue
                if row["tid"] not in st.seen:
                    st.seen[row["tid"]] = row
                    heapq.heappush(st.heap, (ranking.key(row), row["tid"], row))
                amap = stream.ranking.attr_map(stream.ranking.attrs[0])
                stream.frontier = max(stream.frontier, amap.to_unit(row[amap.attr]))

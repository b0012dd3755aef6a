"""MD-TA: Fagin's Threshold Algorithm over 1D-RERANK streams (footnote 3).

Each ranking attribute gets a sorted-access stream — a 1D-RERANK get-next
over that attribute in the direction of its weight's sign. A web-database
"sorted access" returns whole tuples, so every streamed tuple's full user
score is known immediately (no random access needed). The stop condition is
the classic TA threshold: once the best undelivered score is below
``tau = sum_i w'_i * frontier_i`` (frontiers in the internal flipped unit
axes), no unseen tuple can do better.

Stream state persists in the session, so subsequent get-next calls resume
the streams instead of restarting. Every streamed tuple goes into the
user's session pool, whose ``best_undelivered`` is the TA candidate, so a
later get-next often answers from already-streamed tuples with zero queries.
"""
from __future__ import annotations

from dataclasses import dataclass
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
        max_queries: Optional[int] = None,
    ):
        super().__init__(db, bounds, dense_index=dense_index, max_queries=max_queries)
        self._engine = OneDRerank(db, bounds, dense_index=self.dense_index)

    def get_next(self, session: Session, ranking: LinearRanking) -> Optional[Row]:
        """Deliver the next-best undelivered tuple, or None when exhausted."""
        if len(ranking.attrs) < 2:
            raise ValueError("MD-TA requires >= 2 ranking attributes")
        # one sorted-access stream per attribute, kept in the user's session
        streams = session.ctx("ta", ranking, lambda: [
            _Stream(
                one_d(a, ranking.bounds[a], descending=ranking.weights[a] < 0),
                Session(session.filter_spec),
            )
            for a in ranking.attrs
        ])
        with self.db.counting(self.max_queries):
            while True:
                best = session.best_undelivered(ranking)
                tau = sum(
                    ranking.internal_weight(a) * s.frontier
                    for a, s in zip(ranking.attrs, streams)
                )
                if best is not None and ranking.internal_score(best) < tau - 1e-12:
                    return session.deliver(best)
                live = [s for s in streams if not s.exhausted]
                if not live:
                    return None if best is None else session.deliver(best)
                # one round of sorted access: advance the laggard stream first
                stream = min(live, key=lambda s: s.frontier)
                row = self._engine.get_next(stream.session, stream.ranking)
                if row is None:
                    stream.exhausted = True
                    stream.frontier = 1.0
                    continue
                session.absorb([row])
                amap = stream.ranking.attr_map(stream.ranking.attrs[0])
                stream.frontier = max(stream.frontier, amap.to_unit(row[amap.attr]))

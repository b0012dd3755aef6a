"""QR2 service facade: sources, sessions, get-next paging, statistics panel.

The architecture of Fig. 1 minus the browser: a service owns the registered
web databases (Blue Nile, Zillow), one shared dense-region index per source
(the "MySQL" cache), and per-user sessions. A user submits a filter + a
ranking (1-D order-by or MD slider weights) and pages through results with
get-next; each page comes back with the statistics the demo UI displays —
queries issued to the web database and processing time (section II-C).
"""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Mapping, Optional

from ..webdb.discovery import discover_bounds
from ..webdb.interface import Row, WebDB
from ..webdb.predicates import QuerySpec
from ..webdb.ranking import LinearRanking, one_d
from .dense_index import DenseIndex
from .multidim import MDRerank
from .onedim import OneDRerank
from .session import Session

#: dense-region width below which the service's 1D- and MD-RERANK crawl an
#: overflowing region into the shared dense index
DELTA = 0.05


@dataclass
class PageStats:
    """The statistics panel shown next to each page of results."""

    n_queries: int
    elapsed_s: float
    n_parallel_queries: int = 0


@dataclass
class UserQuery:
    """One submitted search: filter + ranking + page size."""

    source: str
    filter_spec: QuerySpec
    ranking: LinearRanking
    page_size: int = 10


class QR2Service:
    """The third-party reranking service over registered web databases."""

    def __init__(self):
        self.dbs: dict[str, WebDB] = {}
        self.bounds: dict[str, dict] = {}
        self.indexes: dict[str, DenseIndex] = {}
        self._sessions: dict[int, tuple[UserQuery, Session, object]] = {}
        self._sids = itertools.count(1)

    # ----- source management ---------------------------------------------
    def register_source(
        self, db: WebDB, bounds: Optional[Mapping[str, tuple[float, float]]] = None
    ) -> None:
        """Attach a web database; discover attribute extents if not given.

        Discovery uses only the public interface (section II-B, min-max
        normalisation); it runs once and is shared by every user.
        """
        self.dbs[db.name] = db
        self.bounds[db.name] = (
            dict(bounds) if bounds is not None else discover_bounds(db)
        )
        self.indexes.setdefault(db.name, DenseIndex(db.name))

    def boot_verify(self) -> dict[str, int]:
        """Re-validate every source's dense cache against the live database
        ("before the system boots up we verify the cache", section II-B)."""
        return {
            name: idx.verify_against(self.dbs[name], self.bounds[name])
            for name, idx in self.indexes.items()
        }

    def save_caches(self, spark, root: str) -> None:
        """Persist all dense indexes (the MySQL role) under ``root``."""
        import os

        for name, idx in self.indexes.items():
            idx.save(spark, os.path.join(root, name))

    def load_caches(self, spark, root: str) -> None:
        """Reload previously-saved dense indexes."""
        import os

        for name in self.dbs:
            path = os.path.join(root, name)
            if os.path.exists(path):
                self.indexes[name] = DenseIndex.load(spark, path)

    # ----- ranking construction (the UI's ranking section) ----------------
    def ranking_1d(self, source: str, attr: str, *, descending: bool = False) -> LinearRanking:
        """ORDER BY one attribute, asc/desc (section II-C, 1D)."""
        return one_d(attr, self.bounds[source][attr], descending=descending)

    def ranking_md(self, source: str, weights: Mapping[str, float]) -> LinearRanking:
        """Slider weights in [-1, 1] over normalised attributes (MD)."""
        for a, w in weights.items():
            if not -1.0 <= w <= 1.0:
                raise ValueError(f"slider weight out of [-1,1] for {a}: {w}")
        return LinearRanking(weights, {a: self.bounds[source][a] for a in weights})

    # ----- query lifecycle -------------------------------------------------
    def _algorithm(self, db: WebDB, ranking: LinearRanking):
        """The deployed algorithm: 1D-RERANK for one attribute, else MD-RERANK."""
        algo = OneDRerank if len(ranking.attrs) == 1 else MDRerank
        return algo(db, self.bounds[db.name], dense_index=self.indexes[db.name], delta=DELTA)

    def submit(self, q: UserQuery) -> tuple[int, list[Row], PageStats]:
        """Process a new user query; returns (session id, first page, stats)."""
        db = self.dbs[q.source]
        session = Session(q.filter_spec)
        algo = self._algorithm(db, q.ranking)
        sid = next(self._sids)
        self._sessions[sid] = (q, session, algo)
        rows, stats = self._page(sid)
        return sid, rows, stats

    def get_next_page(self, sid: int) -> tuple[list[Row], PageStats]:
        """The get-next button: the following page of results."""
        return self._page(sid)

    def _page(self, sid: int) -> tuple[list[Row], PageStats]:
        q, session, algo = self._sessions[sid]
        db = self.dbs[q.source]
        t0 = time.perf_counter()
        with db.counting() as cost:
            rows = algo.get_top_h(session, q.ranking, q.page_size)
        return rows, PageStats(
            n_queries=cost.n_queries,
            elapsed_s=time.perf_counter() - t0,
            n_parallel_queries=cost.n_parallel_queries,
        )

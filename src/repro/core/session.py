"""Per-user session state (QR2's "session variable", section II-A).

A session remembers every tuple fetched from the web database (the pool),
which tuples were already delivered to the user, and per-(ranking, filter)
search progress — the 1-D frontier and the MD certified-box set — so that
subsequent get-next calls reuse earlier work instead of re-querying.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from ..webdb.interface import Row
from ..webdb.predicates import QuerySpec
from ..webdb.ranking import LinearRanking
from .geometry import Box


@dataclass
class Context1D:
    """1-D search progress: everything with unit value <= ``frontier`` is
    already in the session pool (enumerated prefix of the search axis).

    ``frontier_raw`` is the raw attribute value at the frontier boundary when
    it came from a resolved point (BASELINE); raw-space narrowing restarts
    strictly beyond it, immune to unit<->raw float roundtrip error.
    """

    frontier: float = 0.0
    started: bool = False  # frontier==0 is meaningful only after the first query
    frontier_raw: Optional[float] = None


@dataclass
class ContextMD:
    """MD search progress: boxes proven fully enumerated in earlier calls."""

    certified: list = field(default_factory=list)

    def is_certified(self, box: Box) -> bool:
        """Conservative: box contained in a single certified box."""
        return any(c.contains(box) for c in self.certified)

    def add(self, box: Box) -> None:
        """Record a fully-enumerated box, dropping boxes it subsumes."""
        self.certified = [c for c in self.certified if not box.contains(c)]
        self.certified.append(box)


class Session:
    """One user's interaction state with one data source."""

    def __init__(self, filter_spec: QuerySpec = QuerySpec()):
        self.filter_spec = filter_spec
        self.pool: dict = {}  # tid -> row, every tuple ever fetched
        self.delivered_ids: list = []  # in delivery order (the served ranking)
        self._delivered_set: set = set()  # membership mirror of delivered_ids
        self._ctx: dict = {}  # (kind, ranking signature) -> context
        #: deterministic response cache (spec SQL -> (rows, overflow)): the
        #: paper's session variable re-uses already-seen responses so
        #: subsequent get-next calls do not re-issue identical queries
        self.query_cache: dict = {}

    # ----- pool ----------------------------------------------------------
    def absorb(self, rows) -> None:
        """Add fetched rows to the pool."""
        for r in rows:
            self.pool[r["tid"]] = r

    def is_delivered(self, tid) -> bool:
        """Has this tuple already been returned to the user?"""
        return tid in self._delivered_set

    def deliver(self, row: Row) -> Row:
        """Mark a tuple as returned to the user (the get-next output)."""
        self.pool[row["tid"]] = row
        self.delivered_ids.append(row["tid"])
        self._delivered_set.add(row["tid"])
        return row

    def best_undelivered(
        self, ranking: LinearRanking, rows, spec: Optional[QuerySpec] = None
    ) -> Optional[Row]:
        """Minimum-(score, tid) undelivered row, optionally within ``spec``."""
        seen = self._delivered_set
        best = None
        for r in rows:
            if r["tid"] in seen:
                continue
            if spec is not None and not spec.matches(r):
                continue
            if best is None or ranking.key(r) < ranking.key(best):
                best = r
        return best

    # ----- contexts ------------------------------------------------------
    def ctx(self, kind: str, ranking: LinearRanking, factory):
        """Search progress of one algorithm ``kind`` for one ranking
        signature, made by ``factory()`` on first use."""
        key = (kind, ranking.signature())
        if key not in self._ctx:
            self._ctx[key] = factory()
        return self._ctx[key]

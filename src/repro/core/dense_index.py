"""Dense-region index — the on-the-fly cache behind (1D/MD)-RERANK.

The paper stores crawled dense regions in MySQL so the (shared, potentially
larger-than-RAM) index survives across users and sessions (section II-A/B).
Substitution (DESIGN.md section 3): rows persist as Spark parquet and region
descriptors as a JSON sidecar; the in-memory handle is a list of
(region spec, rows-by-id) entries with conservative containment lookup.

``verify_against`` is the paper's boot-time step "before the system boots up
we verify the cache and update the changes from the web database": every
stored region is re-crawled and replaced.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Mapping, Optional

from ..webdb.crawler import crawl
from ..webdb.interface import Row, WebDB
from ..webdb.predicates import QuerySpec, Range


def _range_to_json(r: Range) -> dict:
    return {"lo": r.lo, "hi": r.hi, "lo_incl": r.lo_incl, "hi_incl": r.hi_incl}


def _range_from_json(d: dict) -> Range:
    return Range(d["lo"], d["hi"], d["lo_incl"], d["hi_incl"])


def _spec_to_json(s: QuerySpec) -> dict:
    return {
        "ranges": {a: _range_to_json(r) for a, r in s.ranges.items()},
        "cats": {a: sorted(v) for a, v in s.cats.items()},
    }


def _spec_from_json(d: dict) -> QuerySpec:
    return QuerySpec(
        {a: _range_from_json(r) for a, r in d["ranges"].items()},
        {a: frozenset(v) for a, v in d["cats"].items()},
    )


@dataclass
class IndexEntry:
    """One fully-enumerated region: its predicate and every tuple inside."""

    spec: QuerySpec
    rows: dict = field(default_factory=dict)


@dataclass
class DenseIndex:
    """Shared, persistent store of crawled dense regions for one source."""

    source: str
    entries: list = field(default_factory=list)

    def add(self, spec: QuerySpec, rows: Mapping) -> None:
        """Record that ``spec``'s region is fully enumerated by ``rows``."""
        self.entries.append(IndexEntry(spec, dict(rows)))

    def covering(self, spec: QuerySpec) -> Optional[IndexEntry]:
        """An entry whose region provably contains ``spec``'s region, if any."""
        for e in self.entries:
            if e.spec.contains_spec(spec):
                return e
        return None

    def rows_matching(self, spec: QuerySpec) -> Optional[list[Row]]:
        """All tuples matching ``spec`` if some entry covers it, else None.

        A hit costs zero web-database queries — the RERANK amortisation.
        """
        e = self.covering(spec)
        if e is None:
            return None
        return [r for r in e.rows.values() if spec.matches(r)]

    @property
    def n_rows(self) -> int:
        """Total stored tuples (across entries, with multiplicity)."""
        return sum(len(e.rows) for e in self.entries)

    # ----- persistence (the "MySQL" role) --------------------------------
    def save(self, spark, path: str) -> None:
        """Persist rows as parquet (one table, entry-tagged) + spec sidecar."""
        os.makedirs(path, exist_ok=True)
        meta = [_spec_to_json(e.spec) for e in self.entries]
        with open(os.path.join(path, "regions.json"), "w") as fh:
            json.dump({"source": self.source, "specs": meta}, fh)
        flat = [
            {"_entry": i, **r}
            for i, e in enumerate(self.entries)
            for r in e.rows.values()
        ]
        rows_path = os.path.join(path, "rows.parquet")
        if flat:
            spark.createDataFrame(flat).write.mode("overwrite").parquet(rows_path)
        elif os.path.exists(rows_path):
            import shutil

            shutil.rmtree(rows_path)

    @staticmethod
    def load(spark, path: str) -> "DenseIndex":
        """Rebuild an index previously written by :meth:`save`."""
        with open(os.path.join(path, "regions.json")) as fh:
            meta = json.load(fh)
        idx = DenseIndex(meta["source"])
        idx.entries = [IndexEntry(_spec_from_json(s)) for s in meta["specs"]]
        rows_path = os.path.join(path, "rows.parquet")
        if os.path.exists(rows_path):
            for r in spark.read.parquet(rows_path).collect():
                d = r.asDict()
                e = idx.entries[d.pop("_entry")]
                e.rows[d["tid"]] = d
        return idx

    def verify_against(self, db: WebDB, bounds: Mapping[str, tuple[float, float]]) -> int:
        """Boot-time cache verification: re-crawl every region from the DB.

        Returns the number of rows that changed (added/removed/updated).
        """
        changed = 0
        for e in self.entries:
            fresh = crawl(db, e.spec, None, bounds).rows
            for tid in set(e.rows) | set(fresh):
                if e.rows.get(tid) != fresh.get(tid):
                    changed += 1
            e.rows = fresh
        return changed

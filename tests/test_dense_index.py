"""Tests for the dense-region index (the "MySQL" cache) and its persistence."""
import pytest

from repro.webdb import sources
from repro.webdb.crawler import crawl
from repro.webdb.predicates import QuerySpec, Range
from repro.core.dense_index import DenseIndex


@pytest.fixture()
def db():
    return sources.bluenile(n=400, k=10)


@pytest.fixture()
def bounds(db):
    return {a: db.true_domain(a) for a in db.numeric_attrs}


def _crawled_entry(db, bounds, spec):
    return spec, crawl(db, spec, None, bounds).rows


class TestLookup:
    def test_exact_region_hit(self, db, bounds):
        spec, rows = _crawled_entry(db, bounds, QuerySpec({"price": Range(1000, 4000)}))
        idx = DenseIndex("bluenile")
        idx.add(spec, rows)
        got = idx.rows_matching(spec)
        assert {r["tid"] for r in got} == set(rows)

    def test_subregion_hit_filters_rows(self, db, bounds):
        spec, rows = _crawled_entry(db, bounds, QuerySpec({"price": Range(1000, 4000)}))
        idx = DenseIndex("bluenile")
        idx.add(spec, rows)
        sub = QuerySpec({"price": Range(2000, 3000), "carat": Range(None, 0.8)})
        got = idx.rows_matching(sub)
        assert got is not None
        want = {t for t, r in rows.items() if 2000 <= r["price"] <= 3000 and r["carat"] <= 0.8}
        assert {r["tid"] for r in got} == want

    def test_superregion_misses(self, db, bounds):
        spec, rows = _crawled_entry(db, bounds, QuerySpec({"price": Range(1000, 4000)}))
        idx = DenseIndex("bluenile")
        idx.add(spec, rows)
        assert idx.rows_matching(QuerySpec({"price": Range(500, 4000)})) is None

    def test_unconstrained_attr_misses(self, db, bounds):
        spec, rows = _crawled_entry(db, bounds, QuerySpec({"price": Range(1000, 4000)}))
        idx = DenseIndex("bluenile")
        idx.add(spec, rows)
        assert idx.rows_matching(QuerySpec({"carat": Range(0.5, 0.6)})) is None

    def test_empty_index_misses(self):
        assert DenseIndex("x").rows_matching(QuerySpec()) is None

    def test_n_rows(self, db, bounds):
        idx = DenseIndex("bluenile")
        spec, rows = _crawled_entry(db, bounds, QuerySpec({"lwr": Range(1.0, 1.0)}))
        idx.add(spec, rows)
        assert idx.n_rows == len(rows)


class TestPersistence:
    def test_save_load_roundtrip(self, db, bounds, spark, tmp_path):
        idx = DenseIndex("bluenile")
        for spec in [
            QuerySpec({"lwr": Range(1.0, 1.0)}),
            QuerySpec({"price": Range(1000, 3000)}, {"shape": frozenset({"Round"})}),
        ]:
            s, rows = _crawled_entry(db, bounds, spec)
            idx.add(s, rows)
        path = str(tmp_path / "cache")
        idx.save(spark, path)
        loaded = DenseIndex.load(spark, path)
        assert loaded.source == "bluenile"
        assert len(loaded.entries) == len(idx.entries)
        for a, b in zip(idx.entries, loaded.entries):
            assert a.spec == b.spec
            assert set(a.rows) == set(b.rows)
            t = next(iter(a.rows))
            assert a.rows[t] == b.rows[t]

    def test_save_load_empty(self, spark, tmp_path):
        idx = DenseIndex("zillow")
        path = str(tmp_path / "empty")
        idx.save(spark, path)
        loaded = DenseIndex.load(spark, path)
        assert loaded.entries == [] and loaded.source == "zillow"


class TestBootVerification:
    def test_verify_detects_changes(self, bounds):
        db = sources.bluenile(n=400, k=10)
        spec = QuerySpec({"price": Range(1000, 4000)})
        idx = DenseIndex("bluenile")
        idx.add(spec, crawl(db, spec, None, bounds).rows)
        # the web database changes under the cache: reprice one cached tuple
        entry = idx.entries[0]
        victim = next(iter(entry.rows))
        db.pdf.loc[db.pdf["tid"] == victim, "price"] = 3999.0
        db._sys_scores = db.system_ranking.pandas_scores(db.pdf)
        changed = idx.verify_against(db, bounds)
        assert changed >= 1
        assert idx.entries[0].rows[victim]["price"] == 3999.0

    def test_verify_clean_cache_reports_zero(self, db, bounds):
        spec = QuerySpec({"price": Range(1000, 4000)})
        idx = DenseIndex("bluenile")
        idx.add(spec, crawl(db, spec, None, bounds).rows)
        assert idx.verify_against(db, bounds) == 0

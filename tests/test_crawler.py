"""Tests for the hidden-database crawler (reference [8])."""
import pandas as pd
import pytest

from repro.webdb import sources
from repro.webdb.crawler import CrawlError, crawl
from repro.webdb.interface import BudgetExceeded, LocalWebDB
from repro.webdb.predicates import QuerySpec, Range
from repro.webdb.ranking import SystemRanking


@pytest.fixture(scope="module")
def db():
    return sources.bluenile(n=600, k=10)


@pytest.fixture(scope="module")
def bounds(db):
    return {a: db.true_domain(a) for a in db.numeric_attrs}


class TestCompleteness:
    def test_crawls_entire_database(self, db, bounds):
        res = crawl(db, QuerySpec(), None, bounds)
        assert set(res.rows) == set(db.pdf["tid"])

    def test_crawls_dense_point_region(self, db, bounds):
        """The paper's worst case: all tuples with lwr == 1 (~20% of the db)."""
        spec = QuerySpec({"lwr": Range(1.0, 1.0)})
        res = crawl(db, spec, None, bounds)
        want = set(db.pdf.loc[db.pdf["lwr"] == 1.0, "tid"])
        assert set(res.rows) == want
        assert len(want) > db.k  # the region genuinely overflows system-k

    def test_crawls_filtered_region(self, db, bounds):
        spec = QuerySpec({"price": Range(1000, 6000)}, {"shape": frozenset({"Round"})})
        res = crawl(db, spec, None, bounds)
        m = db.pdf["price"].between(1000, 6000) & (db.pdf["shape"] == "Round")
        assert set(res.rows) == set(db.pdf.loc[m, "tid"])

    def test_empty_region(self, db, bounds):
        res = crawl(db, QuerySpec({"price": Range(1, 2)}), None, bounds)
        assert res.rows == {}
        assert res.n_queries == 1

    def test_underflow_region_single_query(self, db, bounds):
        row = db.pdf.iloc[0]
        price, carat = float(row["price"]), float(row["carat"])
        spec = QuerySpec({"price": Range(price, price), "carat": Range(carat, carat)})
        res = crawl(db, spec, None, bounds)
        assert res.n_queries == 1
        assert row["tid"] in res.rows

    def test_rows_carry_full_tuples(self, db, bounds):
        res = crawl(db, QuerySpec({"price": Range(None, 2000)}), None, bounds)
        for r in res.rows.values():
            assert set(r) == set(db.pdf.columns)


class TestCostAccounting:
    def test_queries_charged_to_db_stats(self, db, bounds):
        before = db.stats.n_queries
        res = crawl(db, QuerySpec({"carat": Range(0.4, 0.8)}), None, bounds)
        assert db.stats.n_queries - before == res.n_queries
        assert res.n_queries >= 1

    def test_held_answer_is_not_asked_again(self, db, bounds):
        """A crawl from the answer its caller holds sends one query fewer
        than a crawl from scratch, and enumerates the same tuples."""
        spec = QuerySpec({"lwr": Range(1.0, 1.0)})
        fresh = crawl(db, spec, None, bounds)
        held = db.query(spec)
        assert held[1]
        res = crawl(db, spec, held, bounds)
        assert res.rows == fresh.rows
        assert res.n_queries == fresh.n_queries - 1

    def test_budget_enforced(self, db, bounds):
        with pytest.raises(BudgetExceeded), db.counting(max_queries=3):
            crawl(db, QuerySpec(), None, bounds)


class TestDegenerateRegions:
    def _identical_db(self, n_dupes, k=10, with_cat=False):
        pdf = pd.DataFrame(
            {
                "tid": range(1, n_dupes + 1),
                "x": [5.0] * n_dupes,
                "c": (["a", "b"] * n_dupes)[:n_dupes] if with_cat else ["a"] * n_dupes,
            }
        )
        return LocalWebDB(
            pdf,
            name="dup",
            k=k,
            system_ranking=SystemRanking("x"),
            numeric_attrs=["x"],
            cat_domains={"c": ["a", "b"]} if with_cat else {},
        )

    def test_point_region_peeled_with_dual_orders(self, bounds):
        """< 2k tuples indistinguishable on every facet: the asc+desc peel
        recovers all of them."""
        db = self._identical_db(15, k=10)
        res = crawl(db, QuerySpec({"x": Range(5.0, 5.0)}), None, {"x": (5.0, 5.0)})
        assert set(res.rows) == set(range(1, 16))

    def test_peel_recovers_2k_minus_1(self):
        """2k-1 identical tuples: the asc and desc windows share one tuple."""
        db = self._identical_db(19, k=10)
        res = crawl(db, QuerySpec({"x": Range(5.0, 5.0)}), None, {"x": (5.0, 5.0)})
        assert set(res.rows) == set(range(1, 20))

    def test_peel_raises_at_exactly_2k(self):
        """2k identical tuples: the two windows are disjoint, so the peel
        cannot prove there is no tuple between them."""
        db = self._identical_db(20, k=10)
        with pytest.raises(CrawlError, match="at least 2k=20 indistinguishable"):
            crawl(db, QuerySpec({"x": Range(5.0, 5.0)}), None, {"x": (5.0, 5.0)})

    def test_unreachable_region_raises(self):
        """>= 2k indistinguishable tuples cannot be enumerated through the
        interface — the crawler must say so rather than silently miss rows."""
        db = self._identical_db(25, k=10)
        with pytest.raises(CrawlError):
            crawl(db, QuerySpec({"x": Range(5.0, 5.0)}), None, {"x": (5.0, 5.0)})

    def test_cat_split_rescues_point_region(self):
        """Tuples identical numerically but distinguishable by a facet."""
        pdf = pd.DataFrame(
            {
                "tid": range(1, 31),
                "x": [5.0] * 30,
                "c": ["a"] * 15 + ["b"] * 15,
            }
        )
        db = LocalWebDB(
            pdf, name="dup", k=10, system_ranking=SystemRanking("x"),
            numeric_attrs=["x"], cat_domains={"c": ["a", "b"]},
        )
        spec = QuerySpec({"x": Range(5.0, 5.0)}, {"c": frozenset({"a", "b"})})
        res = crawl(db, spec, None, {"x": (5.0, 5.0)})
        assert set(res.rows) == set(range(1, 31))

    def test_lwr_point_via_other_attr_splits(self, db, bounds):
        """Dense lwr==1 region splits on price/carat — no peel needed."""
        spec = QuerySpec({"lwr": Range(1.0, 1.0), "price": Range(None, 10000)})
        res = crawl(db, spec, None, bounds)
        m = (db.pdf["lwr"] == 1.0) & (db.pdf["price"] <= 10000)
        assert set(res.rows) == set(db.pdf.loc[m, "tid"])

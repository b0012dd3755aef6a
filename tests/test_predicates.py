"""Unit tests for the predicate model (Range / QuerySpec)."""
import duckdb
import pandas as pd
import pytest

from repro.synth_data import diamonds_pdf
from repro.webdb.predicates import QuerySpec, Range


# ---------------------------------------------------------------- Range ----
class TestRangeEmptiness:
    def test_unbounded_not_empty(self):
        assert not Range().is_empty()

    def test_ordered_not_empty(self):
        assert not Range(1, 2).is_empty()

    def test_inverted_empty(self):
        assert Range(2, 1).is_empty()

    def test_point_closed_not_empty(self):
        assert not Range(3.0, 3.0).is_empty()

    def test_point_half_open_empty(self):
        assert Range(3, 3, True, False).is_empty()
        assert Range(3, 3, False, True).is_empty()
        assert Range(3, 3, False, False).is_empty()


class TestRangeContains:
    @pytest.mark.parametrize("v,expected", [(0.5, False), (1.0, True), (1.5, True), (2.0, True), (2.5, False)])
    def test_closed(self, v, expected):
        assert Range(1, 2).contains(v) is expected

    @pytest.mark.parametrize("v,expected", [(1.0, False), (1.5, True), (2.0, False)])
    def test_open(self, v, expected):
        assert Range(1, 2, False, False).contains(v) is expected

    def test_unbounded_sides(self):
        assert Range(None, 2).contains(-1e18)
        assert Range(1, None).contains(1e18)
        assert not Range(None, 2).contains(2.5)


class TestRangeContainsRange:
    def test_reflexive(self):
        r = Range(1, 2, False, True)
        assert r.contains_range(r)

    def test_strict_subset(self):
        assert Range(0, 10).contains_range(Range(2, 3))

    def test_not_subset(self):
        assert not Range(0, 10).contains_range(Range(2, 11))

    def test_open_does_not_contain_closed_endpoint(self):
        assert not Range(1, 2, False, True).contains_range(Range(1, 2, True, True))

    def test_closed_contains_open(self):
        assert Range(1, 2).contains_range(Range(1, 2, False, False))

    def test_unbounded_contains_bounded(self):
        assert Range().contains_range(Range(-1e9, 1e9))

    def test_bounded_not_contains_unbounded(self):
        assert not Range(0, 1).contains_range(Range())

    def test_empty_inner_always_contained(self):
        assert Range(5, 6).contains_range(Range(2, 1))


class TestRangeIntersect:
    def test_overlap(self):
        r = Range(0, 5).intersect(Range(3, 8))
        assert (r.lo, r.hi) == (3, 5)

    def test_disjoint_empty(self):
        assert Range(0, 1).intersect(Range(2, 3)).is_empty()

    def test_incl_flags_on_equal_bounds(self):
        r = Range(0, 5, True, False).intersect(Range(0, 5, False, True))
        assert (r.lo_incl, r.hi_incl) == (False, False)

    def test_unbounded_identity(self):
        r = Range(1, 2, False, True)
        assert Range().intersect(r) == r
        assert r.intersect(Range()) == r

    def test_touching_point(self):
        r = Range(0, 2).intersect(Range(2, 4))
        assert not r.is_empty() and r.lo == r.hi == 2


class TestRangeWidth:
    def test_bounded(self):
        assert Range(1, 3).width((0, 10)) == 2

    def test_unbounded_uses_domain(self):
        assert Range().width((0, 10)) == 10
        assert Range(None, 4).width((0, 10)) == 4

    def test_clamped_to_domain(self):
        assert Range(-5, 15).width((0, 10)) == 10


class TestRangeRendering:
    @pytest.mark.parametrize(
        "r",
        [
            Range(1, 2),
            Range(1, 2, False, False),
            Range(None, 2, hi_incl=False),
            Range(1, None, lo_incl=False),
            Range(),
            Range(1.5, 1.5),
        ],
    )
    def test_sql_matches_mask(self, r):
        s = pd.Series([0.0, 1.0, 1.2, 1.5, 2.0, 2.5])
        via_sql = duckdb.sql(
            f"SELECT v FROM (SELECT unnest([0.0,1.0,1.2,1.5,2.0,2.5]) AS v) WHERE {r.to_sql('v')}"
        ).df()["v"].tolist()
        via_mask = s[r.mask(s)].tolist()
        assert via_sql == via_mask


# ------------------------------------------------------------- QuerySpec ----
@pytest.fixture(scope="module")
def dpdf():
    return diamonds_pdf(n=400, seed=3)


class TestQuerySpec:
    def test_empty_matches_everything(self, dpdf):
        assert QuerySpec().mask(dpdf).all()
        assert QuerySpec().to_sql() == "TRUE"

    def test_range_and_cat_conjunction(self, dpdf):
        spec = QuerySpec({"price": Range(1000, 5000)}, {"shape": {"Round"}})
        m = spec.mask(dpdf)
        sub = dpdf[m]
        assert (sub["price"].between(1000, 5000)).all()
        assert (sub["shape"] == "Round").all()

    def test_sql_matches_mask_on_data(self, dpdf):
        spec = QuerySpec(
            {"price": Range(500, 20000, False, True), "lwr": Range(1.0, 1.0)},
            {"cut": {"Ideal", "Good"}},
        )
        con = duckdb.connect()
        con.register("d", dpdf)
        got = con.execute(f"SELECT tid FROM d WHERE {spec.to_sql()} ORDER BY tid").fetchdf()
        want = sorted(dpdf[spec.mask(dpdf)]["tid"].tolist())
        assert got["tid"].tolist() == want

    def test_merged_intersects(self):
        a = QuerySpec({"x": Range(0, 10)}, {"c": {"a", "b"}})
        b = QuerySpec({"x": Range(5, 20), "y": Range(1, 2)}, {"c": {"b", "z"}})
        m = a.merged(b)
        assert m.ranges["x"] == Range(5, 10)
        assert m.ranges["y"] == Range(1, 2)
        assert m.cats["c"] == frozenset({"b"})

    def test_merged_empty_cat(self):
        m = QuerySpec(cats={"c": {"a"}}).merged(QuerySpec(cats={"c": {"b"}}))
        assert m.is_empty()

    def test_with_range_narrows(self):
        s = QuerySpec({"x": Range(0, 10)}).with_range("x", Range(5, 20))
        assert s.ranges["x"] == Range(5, 10)

    def test_contains_spec_reflexive(self):
        s = QuerySpec({"x": Range(0, 1, False, True)}, {"c": {"a"}})
        assert s.contains_spec(s)

    def test_contains_spec_subset(self):
        outer = QuerySpec({"x": Range(0, 10)})
        inner = QuerySpec({"x": Range(2, 3), "y": Range(0, 1)}, {"c": {"a"}})
        assert outer.contains_spec(inner)
        assert not inner.contains_spec(outer)

    def test_contains_spec_unconstrained_inner_attr(self):
        outer = QuerySpec({"x": Range(0, 10)})
        inner = QuerySpec({"y": Range(0, 1)})
        assert not outer.contains_spec(inner)

    def test_matches_row(self):
        spec = QuerySpec({"x": Range(0, 1, False, True)}, {"c": {"a"}})
        assert spec.matches({"x": 1.0, "c": "a"})
        assert not spec.matches({"x": 0.0, "c": "a"})
        assert not spec.matches({"x": 0.5, "c": "b"})

    def test_matches_nan_is_false(self):
        assert not QuerySpec({"x": Range(0, 1)}).matches({"x": float("nan")})

    def test_sql_quotes_strings(self):
        spec = QuerySpec(cats={"c": {"O'Hare"}})
        assert "O''Hare" in spec.to_sql()

    def test_immutable_copies(self):
        d = {"x": Range(0, 1)}
        s = QuerySpec(d)
        d["y"] = Range(2, 3)
        assert "y" not in s.ranges

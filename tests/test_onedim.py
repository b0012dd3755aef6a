"""Correctness and cost tests for 1D-BASELINE / 1D-BINARY / 1D-RERANK.

Every exactness test checks the *sequence* of get-next outputs against the
ground-truth ranking computed over the full hidden table (which the
algorithms can only access through the top-k interface).
"""
import itertools

import pytest

from repro.core.dense_index import DenseIndex
from repro.core.onedim import ALGORITHMS_1D, OneDBaseline, OneDBinary, OneDRerank
from repro.core.rerank_op import ground_truth_topk
from repro.core.session import Session
from repro.webdb import sources
from repro.webdb.predicates import QuerySpec, Range
from repro.webdb.ranking import one_d

ALGOS = list(ALGORITHMS_1D.values())


@pytest.fixture(scope="module")
def bluenile():
    return sources.bluenile(n=500, k=10)


@pytest.fixture(scope="module")
def zillow():
    return sources.zillow(n=500, k=10)


def _bounds(db):
    return {a: db.true_domain(a) for a in db.numeric_attrs}


def _ids(rows):
    return [r["tid"] for r in rows]


def _run(db, algo_cls, attr, *, descending=False, h=12, spec=QuerySpec(), **kw):
    bounds = _bounds(db)
    rk = one_d(attr, bounds[attr], descending=descending)
    algo = algo_cls(db, bounds, **kw)
    session = Session(spec)
    with db.counting() as cost:
        got = algo.get_top_h(session, rk, h)
    truth = ground_truth_topk(db, spec, rk, h)
    return got, truth, cost.n_queries, session, algo, rk


class TestExactness:
    @pytest.mark.parametrize("algo_cls", ALGOS, ids=lambda c: c.name)
    @pytest.mark.parametrize("attr", ["price", "carat", "depth", "lwr"])
    @pytest.mark.parametrize("descending", [False, True])
    def test_bluenile_sequences(self, bluenile, algo_cls, attr, descending):
        got, truth, _, _, _, _ = _run(bluenile, algo_cls, attr, descending=descending)
        assert _ids(got) == _ids(truth)

    @pytest.mark.parametrize("algo_cls", ALGOS, ids=lambda c: c.name)
    @pytest.mark.parametrize("attr", ["price", "sqft", "beds"])
    def test_zillow_sequences(self, zillow, algo_cls, attr):
        got, truth, _, _, _, _ = _run(zillow, algo_cls, attr)
        assert _ids(got) == _ids(truth)

    @pytest.mark.parametrize("algo_cls", ALGOS, ids=lambda c: c.name)
    def test_with_filter_predicates(self, bluenile, algo_cls):
        spec = QuerySpec({"price": Range(2000, 30000)}, {"shape": frozenset({"Round"})})
        got, truth, _, _, _, _ = _run(bluenile, algo_cls, "carat", spec=spec)
        assert _ids(got) == _ids(truth)

    @pytest.mark.parametrize("algo_cls", ALGOS, ids=lambda c: c.name)
    def test_dense_duplicates_attribute(self, bluenile, algo_cls):
        """lwr ascending starts inside the 20% spike at 1.0 — ~100 ties."""
        got, truth, _, _, _, _ = _run(bluenile, algo_cls, "lwr", h=30)
        assert _ids(got) == _ids(truth)

    @pytest.mark.parametrize("algo_cls", ALGOS, ids=lambda c: c.name)
    def test_deep_page_through_ties(self, algo_cls):
        """Carat descending, 30 deep: narrowing stops on values that several
        tuples share, and the tie is broken by tid."""
        db = sources.bluenile(n=600, k=10)
        got, truth, _, _, _, _ = _run(db, algo_cls, "carat", descending=True, h=30)
        assert _ids(got) == _ids(truth)

    @pytest.mark.parametrize("algo_cls", ALGOS, ids=lambda c: c.name)
    def test_exhaustion_returns_all_then_none(self, algo_cls):
        db = sources.bluenile(n=35, k=10)
        got, truth, _, session, algo, rk = _run(db, algo_cls, "carat", h=100)
        assert _ids(got) == _ids(truth)
        assert len(got) == 35
        assert algo.get_next(session, rk) is None

    @pytest.mark.parametrize("algo_cls", ALGOS, ids=lambda c: c.name)
    def test_empty_filter_yields_nothing(self, bluenile, algo_cls):
        spec = QuerySpec({"price": Range(1, 2)})
        got, truth, _, _, _, _ = _run(bluenile, algo_cls, "price", spec=spec, h=3)
        assert got == [] and truth == []

    @pytest.mark.parametrize("algo_cls", ALGOS, ids=lambda c: c.name)
    def test_session_continuation(self, bluenile, algo_cls):
        """Two pages through one session == one long page (get-next resumes)."""
        bounds = _bounds(bluenile)
        rk = one_d("carat", bounds["carat"])
        algo = algo_cls(bluenile, bounds)
        session = Session()
        page1 = algo.get_top_h(session, rk, 7)
        page2 = algo.get_top_h(session, rk, 7)
        truth = ground_truth_topk(bluenile, QuerySpec(), rk, 14)
        assert _ids(page1) + _ids(page2) == _ids(truth)


class TestCostShape:
    def test_baseline_anticorrelated_much_worse(self, bluenile):
        """System rank is price asc; user price desc is the adversarial case."""
        _, _, asc_cost, _, _, _ = _run(bluenile, OneDBaseline, "price")
        _, _, desc_cost, _, _, _ = _run(bluenile, OneDBaseline, "price", descending=True)
        assert desc_cost > 2 * asc_cost

    def test_binary_robust_to_anticorrelation(self, bluenile):
        _, _, asc_cost, _, _, _ = _run(bluenile, OneDBinary, "price")
        _, _, desc_cost, _, _, _ = _run(bluenile, OneDBinary, "price", descending=True)
        assert desc_cost < 3 * asc_cost

    def test_binary_beats_baseline_when_anticorrelated(self, bluenile):
        _, _, base_cost, _, _, _ = _run(bluenile, OneDBaseline, "price", descending=True)
        _, _, bin_cost, _, _, _ = _run(bluenile, OneDBinary, "price", descending=True)
        assert bin_cost < base_cost / 2

    def test_frontier_serves_from_pool(self, bluenile):
        """After a dense crawl the next answers come from the session pool
        with zero new queries."""
        bounds = _bounds(bluenile)
        rk = one_d("lwr", bounds["lwr"])
        algo = OneDRerank(bluenile, bounds)
        session = Session()
        algo.get_next(session, rk)  # pays for the crawl of the lwr=1 spike
        before = bluenile.stats.n_queries
        for _ in range(10):
            algo.get_next(session, rk)
        assert bluenile.stats.n_queries == before  # all from the session pool

    def test_rerank_index_amortises_across_sessions(self, bluenile):
        """Fresh session, same shared DenseIndex: the dense region is free."""
        bounds = _bounds(bluenile)
        rk = one_d("lwr", bounds["lwr"])
        idx = DenseIndex("bluenile")
        first = OneDRerank(bluenile, bounds, dense_index=idx)
        s1 = Session()
        before = bluenile.stats.n_queries
        first.get_top_h(s1, rk, 10)
        cost1 = bluenile.stats.n_queries - before
        second = OneDRerank(bluenile, bounds, dense_index=idx)
        s2 = Session()
        before = bluenile.stats.n_queries
        got = second.get_top_h(s2, rk, 10)
        cost2 = bluenile.stats.n_queries - before
        assert _ids(got) == _ids(ground_truth_topk(bluenile, QuerySpec(), rk, 10))
        assert cost2 < cost1 / 2

    def test_binary_repays_dense_cost_without_index(self, bluenile):
        """Same two-session experiment with BINARY: no shared index, so the
        second session pays the dense region again."""
        bounds = _bounds(bluenile)
        rk = one_d("lwr", bounds["lwr"])
        costs = []
        for _ in range(2):
            before = bluenile.stats.n_queries
            OneDBinary(bluenile, bounds).get_top_h(Session(), rk, 10)
            costs.append(bluenile.stats.n_queries - before)
        assert costs[1] > costs[0] * 0.5  # no amortisation


def _wholly_before(a: Range, b: Range) -> bool:
    """Raw interval ``a`` ends before ``b`` begins."""
    if a.hi is None or b.lo is None:
        return False
    return a.hi < b.lo or (a.hi == b.lo and not (a.hi_incl and b.lo_incl))


class TestBoxEngine:
    def test_no_batch_holds_an_interval_after_another(self, monkeypatch):
        """An interval wholly after the lowest live one waits a round, so no
        batch sends two intervals where one lies wholly after the other."""
        db = sources.zillow(n=600, k=10)
        batches = []
        query_batch = db.query_batch

        def recording(specs, order=None):
            batches.append([s.ranges["price"] for s in specs])
            return query_batch(specs, order)

        monkeypatch.setattr(db, "query_batch", recording)
        got, truth, cost, _, _, _ = _run(db, OneDBinary, "price", descending=True)
        assert _ids(got) == _ids(truth)
        assert sum(map(len, batches)) == cost
        for ranges in batches:
            for a, b in itertools.combinations(ranges, 2):
                assert not (_wholly_before(a, b) or _wholly_before(b, a)), (a, b)


class TestValidation:
    def test_rejects_md_ranking(self, bluenile):
        from repro.webdb.ranking import LinearRanking

        bounds = _bounds(bluenile)
        rk = LinearRanking({"price": 1.0, "carat": 1.0}, bounds)
        with pytest.raises(ValueError):
            OneDBinary(bluenile, bounds).get_next(Session(), rk)

    def test_sparse_attribute_zero_extra_queries_after_exhaust(self):
        db = sources.bluenile(n=8, k=10)  # whole db fits in one response
        bounds = _bounds(db)
        rk = one_d("price", bounds["price"])
        algo = OneDBinary(db, bounds)
        s = Session()
        assert len(algo.get_top_h(s, rk, 8)) == 8
        before = db.stats.n_queries
        assert algo.get_next(s, rk) is None
        assert db.stats.n_queries == before


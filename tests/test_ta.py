"""Correctness tests for MD-TA (TA over 1D-RERANK streams)."""
import pytest

from repro.core.rerank_op import ground_truth_topk
from repro.core.session import Session
from repro.core.ta import MDTA
from repro.webdb import sources
from repro.webdb.interface import BudgetExceeded
from repro.webdb.predicates import QuerySpec, Range
from repro.webdb.ranking import LinearRanking


@pytest.fixture(scope="module")
def bluenile():
    return sources.bluenile(n=500, k=10)


def _bounds(db):
    return {a: db.true_domain(a) for a in db.numeric_attrs}


def _ids(rows):
    return [r["tid"] for r in rows]


def _run(db, weights, *, h=5, spec=QuerySpec()):
    bounds = _bounds(db)
    rk = LinearRanking(weights, {a: bounds[a] for a in weights})
    algo = MDTA(db, bounds, max_queries=6000)
    session = Session(spec)
    before = db.stats.n_queries
    got = algo.get_top_h(session, rk, h)
    cost = db.stats.n_queries - before
    return got, ground_truth_topk(db, spec, rk, h), cost, session, algo, rk


class TestExactness:
    @pytest.mark.parametrize(
        "weights",
        [
            {"price": 1.0, "carat": 0.3},
            {"price": 1.0, "carat": -0.5},
            {"price": -0.4, "carat": -0.6},
            {"price": 1.0, "carat": -0.1, "depth": -0.5},
            {"price": 0.5, "carat": 0.5, "depth": 0.2},
        ],
        ids=["2d-pos", "2d-neg", "2d-allneg", "3d-paper", "3d-pos"],
    )
    def test_bluenile(self, bluenile, weights):
        got, truth, _, _, _, _ = _run(bluenile, weights)
        assert _ids(got) == _ids(truth)

    def test_zillow(self):
        db = sources.zillow(n=400, k=10)
        got, truth, _, _, _, _ = _run(db, {"price": 1.0, "sqft": -0.3})
        assert _ids(got) == _ids(truth)

    def test_with_filter(self, bluenile):
        spec = QuerySpec({"price": Range(2000, 50000)})
        got, truth, _, _, _, _ = _run(
            bluenile, {"price": 1.0, "carat": -0.3}, spec=spec
        )
        assert _ids(got) == _ids(truth)

    def test_session_continuation(self, bluenile):
        bounds = _bounds(bluenile)
        w = {"price": 1.0, "carat": 0.4}
        rk = LinearRanking(w, {a: bounds[a] for a in w})
        algo = MDTA(bluenile, bounds, max_queries=6000)
        session = Session()
        page1 = algo.get_top_h(session, rk, 4)
        page2 = algo.get_top_h(session, rk, 4)
        truth = ground_truth_topk(bluenile, QuerySpec(), rk, 8)
        assert _ids(page1) + _ids(page2) == _ids(truth)

    def test_exhaustion(self):
        db = sources.bluenile(n=25, k=10)
        got, truth, _, session, algo, rk = _run(db, {"price": 1.0, "carat": 1.0}, h=30)
        assert _ids(got) == _ids(truth)
        assert len(got) == 25
        assert algo.get_next(session, rk) is None


class TestBehaviour:
    def test_streams_resume_not_restart(self, bluenile):
        """Stream state persists in the session: ranks 2..8 together must
        cost less than rank 1 did (frontiers and crawled regions are reused,
        not rebuilt per call)."""
        bounds = _bounds(bluenile)
        w = {"price": 1.0, "carat": 0.3}
        rk = LinearRanking(w, {a: bounds[a] for a in w})
        algo = MDTA(bluenile, bounds, max_queries=6000)
        session = Session()
        before = bluenile.stats.n_queries
        algo.get_next(session, rk)
        first = bluenile.stats.n_queries - before
        before = bluenile.stats.n_queries
        algo.get_top_h(session, rk, 7)
        rest = bluenile.stats.n_queries - before
        assert rest < max(first, 10) * 7

    def test_rejects_1d(self, bluenile):
        bounds = _bounds(bluenile)
        rk = LinearRanking({"price": 1.0}, {"price": bounds["price"]})
        with pytest.raises(ValueError):
            MDTA(bluenile, bounds).get_next(Session(), rk)

    def test_budget(self, bluenile):
        bounds = _bounds(bluenile)
        w = {"price": -1.0, "carat": -1.0}
        rk = LinearRanking(w, {a: bounds[a] for a in w})
        algo = MDTA(bluenile, bounds, max_queries=2)
        with pytest.raises(BudgetExceeded) as ei:
            algo.get_top_h(Session(), rk, 5)
        assert ei.value.n_queries > 2

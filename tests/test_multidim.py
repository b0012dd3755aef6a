"""Correctness and behaviour tests for MD-BASELINE / MD-BINARY / MD-RERANK."""
import pytest

from repro.core.dense_index import DenseIndex
from repro.core.multidim import (
    ALGORITHMS_MD,
    MDBaseline,
    MDBinary,
    MDRerank,
)
from repro.core.rerank_op import ground_truth_topk
from repro.core.session import Session
from repro.webdb import sources
from repro.webdb.interface import BudgetExceeded
from repro.webdb.predicates import QuerySpec, Range
from repro.webdb.ranking import LinearRanking

ALGOS = list(ALGORITHMS_MD.values())

FUNCS_BLUENILE = {
    "2d-pos": {"price": 1.0, "carat": 0.3},
    "2d-neg": {"price": 1.0, "carat": -0.5},
    "2d-both-neg": {"price": -0.6, "carat": -0.4},
    "3d-paper": {"price": 1.0, "carat": -0.1, "depth": -0.5},
}


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


def _run(db, algo_cls, weights, *, h=5, spec=QuerySpec(), **kw):
    bounds = _bounds(db)
    rk = LinearRanking(weights, {a: bounds[a] for a in weights})
    kw.setdefault("max_queries", 4000)
    algo = algo_cls(db, bounds, **kw)
    session = Session(spec)
    with db.counting() as cost:
        got = algo.get_top_h(session, rk, h)
    truth = ground_truth_topk(db, spec, rk, h)
    return got, truth, cost, session, algo, rk


class TestExactness:
    @pytest.mark.parametrize("algo_cls", ALGOS, ids=lambda c: c.name)
    @pytest.mark.parametrize("fname", list(FUNCS_BLUENILE))
    def test_bluenile_sequences(self, bluenile, algo_cls, fname):
        got, truth, _, _, _, _ = _run(bluenile, algo_cls, FUNCS_BLUENILE[fname])
        assert _ids(got) == _ids(truth)

    @pytest.mark.parametrize("algo_cls", ALGOS, ids=lambda c: c.name)
    def test_zillow_paper_function(self, zillow, algo_cls):
        """The demo's Zillow example: price - 0.3 * squarefeet."""
        got, truth, _, _, _, _ = _run(zillow, algo_cls, {"price": 1.0, "sqft": -0.3})
        assert _ids(got) == _ids(truth)

    @pytest.mark.parametrize("algo_cls", ALGOS, ids=lambda c: c.name)
    def test_with_filter_predicates(self, bluenile, algo_cls):
        spec = QuerySpec({"price": Range(2000, 40000)}, {"cut": frozenset({"Ideal", "Astor"})})
        got, truth, _, _, _, _ = _run(
            bluenile, algo_cls, {"price": 1.0, "carat": -0.4}, spec=spec
        )
        assert _ids(got) == _ids(truth)

    @pytest.mark.parametrize("algo_cls", ALGOS, ids=lambda c: c.name)
    def test_session_continuation(self, bluenile, algo_cls):
        bounds = _bounds(bluenile)
        w = {"price": 1.0, "carat": 0.5}
        rk = LinearRanking(w, {a: bounds[a] for a in w})
        algo = algo_cls(bluenile, bounds, max_queries=4000)
        session = Session()
        page1 = algo.get_top_h(session, rk, 4)
        page2 = algo.get_top_h(session, rk, 4)
        truth = ground_truth_topk(bluenile, QuerySpec(), rk, 8)
        assert _ids(page1) + _ids(page2) == _ids(truth)

    @pytest.mark.parametrize("algo_cls", ALGOS, ids=lambda c: c.name)
    def test_exhaustion(self, algo_cls):
        db = sources.bluenile(n=30, k=10)
        got, truth, _, session, algo, rk = _run(
            db, algo_cls, {"price": 1.0, "carat": -1.0}, h=40
        )
        assert _ids(got) == _ids(truth)
        assert len(got) == 30
        assert algo.get_next(session, rk) is None

    @pytest.mark.parametrize("algo_cls", ALGOS, ids=lambda c: c.name)
    def test_dense_attribute_in_ranking(self, bluenile, algo_cls):
        """lwr has a 20% point mass — the MD dense-region stressor."""
        got, truth, _, _, _, _ = _run(bluenile, algo_cls, {"price": 1.0, "lwr": 1.0}, h=5)
        assert _ids(got) == _ids(truth)


class TestBehaviour:
    def test_budget_exception_carries_progress(self, bluenile):
        with pytest.raises(BudgetExceeded) as ei:
            _run(bluenile, MDBinary, {"price": -1.0, "carat": -1.0}, h=5, max_queries=3)
        assert ei.value.n_queries > 3

    def test_certified_boxes_accelerate_next_page(self, bluenile):
        """Second get-next re-walks the box tree but skips certified leaves,
        so it must cost less than the first."""
        bounds = _bounds(bluenile)
        w = {"price": 1.0, "carat": 0.4}
        rk = LinearRanking(w, {a: bounds[a] for a in w})
        algo = MDBinary(bluenile, bounds, max_queries=4000)
        session = Session()
        before = bluenile.stats.n_queries
        algo.get_next(session, rk)
        first = bluenile.stats.n_queries - before
        before = bluenile.stats.n_queries
        algo.get_next(session, rk)
        second = bluenile.stats.n_queries - before
        assert second <= first

    def test_rerank_index_amortises_across_sessions(self, bluenile):
        bounds = _bounds(bluenile)
        w = {"price": 1.0, "lwr": 1.0}
        rk = LinearRanking(w, {a: bounds[a] for a in w})
        idx = DenseIndex("bluenile")
        costs = []
        for _ in range(2):
            algo = MDRerank(bluenile, bounds, dense_index=idx, max_queries=6000)
            before = bluenile.stats.n_queries
            got = algo.get_top_h(Session(), rk, 5)
            costs.append(bluenile.stats.n_queries - before)
            assert _ids(got) == _ids(ground_truth_topk(bluenile, QuerySpec(), rk, 5))
        assert costs[1] < costs[0]

    def test_binary_parallel_batches(self, bluenile):
        """BSP iterations issue several boxes at once (Fig. 2 behaviour)."""
        _, _, cost, _, _, _ = _run(bluenile, MDBinary, {"price": 1.0, "carat": -0.5})
        assert cost.parallel_fraction() > 0.5

    def test_baseline_mostly_sequential(self, bluenile):
        """Contour narrowing issues one broad query at a time."""
        _, _, cost, _, _, _ = _run(bluenile, MDBaseline, {"price": 1.0, "carat": 0.3})
        assert cost.parallel_fraction() < 0.7

    def test_rejects_1d_ranking(self, bluenile):
        bounds = _bounds(bluenile)
        rk = LinearRanking({"price": 1.0}, {"price": bounds["price"]})
        with pytest.raises(ValueError):
            MDBinary(bluenile, bounds).get_next(Session(), rk)

    def test_anticorrelated_costs_more_for_baseline(self, bluenile):
        """The correlation sensitivity is BASELINE's: its contour narrowing
        only advances as fast as the system's result order improves the
        user-best candidate."""
        _, _, d_pos, _, _, _ = _run(bluenile, MDBaseline, {"price": 1.0, "carat": 0.3})
        _, _, d_neg, _, _, _ = _run(bluenile, MDBaseline, {"price": -1.0, "carat": -0.3})
        assert d_neg.n_queries > d_pos.n_queries

"""No get-next sends more site queries than its ``max_queries`` budget.

The budget is enforced where queries are charged (``WebDB.counting``), so it
bounds everything a get-next sends: box-engine rounds, crawls and MD-TA's
sorted-access stream steps alike. Each get-next either returns or raises
:class:`BudgetExceeded`, and in both cases an outer ``counting()`` block
sees at most the budget go out. A refused get-next changes no search
frontier, so the next call continues from the last completed one.
"""
import pytest

from repro.core.multidim import ALGORITHMS_MD
from repro.core.onedim import ALGORITHMS_1D
from repro.core.rerank_op import ground_truth_topk
from repro.core.session import ContextMD, Session
from repro.core.ta import MDTA
from repro.webdb import sources
from repro.webdb.interface import BudgetExceeded
from repro.webdb.predicates import QuerySpec
from repro.webdb.ranking import LinearRanking, one_d

ALGOS = [*ALGORITHMS_1D.values(), *ALGORITHMS_MD.values(), MDTA]
#: get-next calls per case: enough to reach the budget or page past it
CALLS = 6
#: tuples delivered in all, before and after a refused get-next
PAGED = 30


@pytest.fixture(scope="module")
def bluenile():
    return sources.bluenile(n=500, k=10)


def _ranking(db, algo_cls):
    bounds = {a: db.true_domain(a) for a in db.numeric_attrs}
    if algo_cls in ALGORITHMS_1D.values():
        return bounds, one_d("lwr", bounds["lwr"])
    w = {"price": 1.0, "lwr": 1.0}
    return bounds, LinearRanking(w, {a: bounds[a] for a in w})


@pytest.mark.parametrize("budget", [10, 20])
@pytest.mark.parametrize("algo_cls", ALGOS, ids=lambda c: c.name)
def test_no_get_next_overspends(bluenile, algo_cls, budget):
    bounds, rk = _ranking(bluenile, algo_cls)
    algo = algo_cls(bluenile, bounds, max_queries=budget)
    session = Session()
    got = []
    for _ in range(CALLS):
        with bluenile.counting() as sent:
            try:
                row = algo.get_next(session, rk)
            except BudgetExceeded as e:
                assert sent.n_queries <= budget
                assert e.n_queries == sent.n_queries
                break
        assert sent.n_queries <= budget
        if row is None:
            break
        got.append(row)
    truth = ground_truth_topk(bluenile, QuerySpec(), rk, len(got))
    assert [r["tid"] for r in got] == [r["tid"] for r in truth]


def _frontiers(session, ranking):
    """The box-engine frontiers of ``ranking``'s search in ``session``: its
    own, or one per sorted-access stream of MD-TA."""
    streams = session.ctx("ta", ranking, list)
    if streams:
        return [_frontiers(s.session, s.ranking) for s in streams]
    frontier = session.ctx("md", ranking, ContextMD).frontier
    return None if frontier is None else list(frontier)


@pytest.mark.parametrize("algo_cls", ALGOS, ids=lambda c: c.name)
def test_refused_get_next_keeps_the_frontier(bluenile, algo_cls):
    """A get-next refused by its budget leaves every search frontier as the
    last completed get-next left it; paging on without a budget continues
    from there and still delivers the exact ranking."""
    bounds = {a: bluenile.true_domain(a) for a in bluenile.numeric_attrs}
    if algo_cls in ALGORITHMS_1D.values():
        rk = one_d("carat", bounds["carat"], descending=True)
    else:
        w = {"price": 1.0, "carat": 0.3}
        rk = LinearRanking(w, {a: bounds[a] for a in w})
    algo = algo_cls(bluenile, bounds)
    session = Session()
    got = algo.get_top_h(session, rk, 5)
    # a budget of 0 refuses the first get-next that must ask the site
    algo.max_queries = 0
    with pytest.raises(BudgetExceeded):
        while len(got) < PAGED:
            before = _frontiers(session, rk)
            got.append(algo.get_next(session, rk))
    assert _frontiers(session, rk) == before
    algo.max_queries = None
    got += algo.get_top_h(session, rk, PAGED - len(got))
    truth = ground_truth_topk(bluenile, QuerySpec(), rk, PAGED)
    assert [r["tid"] for r in got] == [r["tid"] for r in truth]

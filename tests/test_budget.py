"""No get-next sends more site queries than its ``max_queries`` budget.

The budget is enforced where queries are charged (``WebDB.counting``), so it
bounds everything a get-next sends: box-engine rounds, crawls and MD-TA's
sorted-access stream steps alike. Each get-next either returns or raises
:class:`BudgetExceeded`, and in both cases an outer ``counting()`` block
sees at most the budget go out.
"""
import pytest

from repro.core.multidim import ALGORITHMS_MD
from repro.core.onedim import ALGORITHMS_1D
from repro.core.rerank_op import ground_truth_topk
from repro.core.session import Session
from repro.core.ta import MDTA
from repro.webdb import sources
from repro.webdb.interface import BudgetExceeded
from repro.webdb.predicates import QuerySpec
from repro.webdb.ranking import LinearRanking, one_d

ALGOS = [*ALGORITHMS_1D.values(), *ALGORITHMS_MD.values(), MDTA]
#: get-next calls per case: enough to reach the budget or page past it
CALLS = 6


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

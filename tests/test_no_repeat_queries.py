"""A session never asks the site the same question twice.

Everything a session has seen answers a repeat of the same spec: the dense
index, the session's response cache, or the overflowing answer a crawl
starts from. Each case pages one fresh session through one algorithm on a
small Blue Nile or Zillow site and records every ``(spec, order)`` that
reaches the site; none may appear twice, and the answer must be exact.
"""
from collections import Counter

import pytest

from repro.core.multidim import ALGORITHMS_MD
from repro.core.onedim import ALGORITHMS_1D
from repro.core.rerank_op import ground_truth_topk
from repro.core.session import Session
from repro.core.ta import MDTA
from repro.webdb import sources
from repro.webdb.predicates import QuerySpec
from repro.webdb.ranking import LinearRanking

SITES = {"bluenile": sources.bluenile, "zillow": sources.zillow}
#: single-attribute rankings, each run ascending and descending
ONE_D = [("bluenile", "price"), ("bluenile", "lwr"), ("zillow", "price"), ("zillow", "sqft")]
#: the multi-attribute functions of T4, T5 and T6
MULTI_D = {
    "t4-worst": ("bluenile", {"price": 1.0, "lwr": 1.0}),
    "t4-best": ("zillow", {"price": 1.0, "sqft": 1.0}),
    "t5-2d": ("bluenile", {"price": 1.0, "carat": -0.3}),
    "t5-3d": ("bluenile", {"price": 1.0, "carat": -0.1, "depth": -0.5}),
    "t6": ("zillow", {"price": 1.0, "sqft": -0.3}),
}
ALGORITHMS = {**ALGORITHMS_MD, "md-ta": MDTA}


def _sent_twice(algo_cls, source, weights, h=15):
    """Page ``h`` tuples through one session; the repeated site queries."""
    db = SITES[source](n=800, k=10)
    sent = Counter()
    execute = db._execute

    def recorded(spec, order):
        sent[(spec.to_sql(), order)] += 1
        return execute(spec, order)

    db._execute = recorded
    bounds = {a: db.true_domain(a) for a in db.numeric_attrs}
    rk = LinearRanking(weights, {a: bounds[a] for a in weights})
    got = algo_cls(db, bounds).get_top_h(Session(), rk, h)
    truth = ground_truth_topk(db, QuerySpec(), rk, h)
    assert [r["tid"] for r in got] == [r["tid"] for r in truth]
    assert sent
    return {q: n for q, n in sent.items() if n > 1}


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["asc", "desc"])
@pytest.mark.parametrize("source,attr", ONE_D, ids=lambda v: v if isinstance(v, str) else None)
@pytest.mark.parametrize("algo_cls", list(ALGORITHMS_1D.values()), ids=lambda c: c.name)
def test_1d_session_never_repeats_a_query(algo_cls, source, attr, sign):
    assert _sent_twice(algo_cls, source, {attr: sign}) == {}


@pytest.mark.parametrize("source,weights", MULTI_D.values(), ids=list(MULTI_D))
@pytest.mark.parametrize("algo_cls", list(ALGORITHMS.values()), ids=lambda c: c.name)
def test_md_session_never_repeats_a_query(algo_cls, source, weights):
    assert _sent_twice(algo_cls, source, weights) == {}

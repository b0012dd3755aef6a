"""End-to-end exactness on random tiny sites (hypothesis).

Each example builds a small ``LocalWebDB`` with a duplicate-heavy column, a
random system ranking and k in {1, 2, 3}, then pages a random filter and
order through one 1-D or MD algorithm until the site is exhausted. Every
delivered sequence must equal the full-table ground truth, tuple for tuple.
"""
from collections import Counter

import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.multidim import ALGORITHMS_MD
from repro.core.onedim import ALGORITHMS_1D
from repro.core.rerank_op import ground_truth_topk
from repro.core.session import Session
from repro.webdb.interface import LocalWebDB
from repro.webdb.predicates import QuerySpec, Range
from repro.webdb.ranking import LinearRanking, SystemRanking

#: (x, y, c): x takes three values, y seven, c is a two-option facet; x's
#: values do not survive the unit<->raw float round trip exactly (1.48 maps
#: back to 1.4800000000000002), as real prices and carats do not
TUPLES = st.lists(
    st.tuples(
        st.sampled_from([0.2, 1.48, 2.71]),
        st.integers(0, 6).map(float),
        st.sampled_from(["a", "b"]),
    ),
    min_size=1,
    max_size=18,
)
SYSTEM_RANKINGS = st.sampled_from(["y", "x", "0 - x", "x + y"])
FILTERS = st.sampled_from(
    [
        QuerySpec(),
        QuerySpec({"y": Range(1.0, 4.0)}),
        QuerySpec({"x": Range(None, 1.48, hi_incl=False)}),
        QuerySpec({}, {"c": frozenset({"a"})}),
    ]
)
SIGNED = st.sampled_from([-1.0, -0.5, 0.5, 1.0])


def _site(tuples, k: int, system: str) -> LocalWebDB:
    """A site over ``tuples``, each group of fully identical tuples cut to
    2k-1: the most that the interface's asc+desc orders can enumerate."""
    copies = Counter()
    rows = []
    for x, y, c in tuples:
        copies[(x, y, c)] += 1
        if copies[(x, y, c)] < 2 * k:
            rows.append({"tid": len(rows) + 1, "x": x, "y": y, "c": c})
    return LocalWebDB(
        pd.DataFrame(rows),
        name="tiny",
        k=k,
        system_ranking=SystemRanking(system),
        numeric_attrs=["x", "y"],
        cat_domains={"c": ["a", "b"]},
    )


def _exhaust(algo_cls, db, spec, weights):
    """Every tuple ``algo_cls`` delivers, and the ground truth, as tid lists."""
    bounds = {a: db.true_domain(a) for a in db.numeric_attrs}
    rk = LinearRanking(weights, {a: bounds[a] for a in weights})
    got = algo_cls(db, bounds).get_top_h(Session(spec), rk, db.true_size() + 1)
    return [r["tid"] for r in got], [r["tid"] for r in ground_truth_topk(db, spec, rk)]


@pytest.mark.parametrize("algo_cls", list(ALGORITHMS_1D.values()), ids=lambda c: c.name)
@settings(derandomize=True, deadline=None, max_examples=40)
@given(tuples=TUPLES, k=st.integers(1, 3), system=SYSTEM_RANKINGS, spec=FILTERS, w=SIGNED)
def test_1d_matches_ground_truth(algo_cls, tuples, k, system, spec, w):
    """Ranking on the duplicate-heavy x, ascending or descending."""
    got, truth = _exhaust(algo_cls, _site(tuples, k, system), spec, {"x": w})
    assert got == truth


@pytest.mark.parametrize("algo_cls", list(ALGORITHMS_MD.values()), ids=lambda c: c.name)
@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    tuples=TUPLES, k=st.integers(1, 3), system=SYSTEM_RANKINGS, spec=FILTERS,
    wx=SIGNED, wy=SIGNED,
)
def test_md_matches_ground_truth(algo_cls, tuples, k, system, spec, wx, wy):
    """Signed weights over x and y (d=2)."""
    got, truth = _exhaust(algo_cls, _site(tuples, k, system), spec, {"x": wx, "y": wy})
    assert got == truth

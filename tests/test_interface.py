"""Unit tests for the top-k interface semantics (pandas backend)."""
import sys
import threading

import pandas as pd
import pytest

from repro.webdb.interface import LocalWebDB, QueryStats
from repro.webdb.predicates import QuerySpec, Range
from repro.webdb.ranking import SystemRanking
from repro.webdb import sources


@pytest.fixture()
def tiny_db():
    pdf = pd.DataFrame(
        {
            "tid": range(1, 9),
            "x": [5.0, 3.0, 3.0, 8.0, 1.0, 9.0, 2.0, 7.0],
            "y": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
            "c": list("aabbccdd"),
        }
    )
    return LocalWebDB(
        pdf,
        name="tiny",
        k=3,
        system_ranking=SystemRanking("x"),
        numeric_attrs=["x", "y"],
        cat_domains={"c": list("abcd")},
    )


class TestTopKSemantics:
    def test_returns_system_topk(self, tiny_db):
        rows, overflow = tiny_db.query(QuerySpec())
        assert [r["tid"] for r in rows] == [5, 7, 2]  # x = 1, 2, 3(tid 2 before 3)
        assert overflow is True

    def test_tid_tiebreak_ascending(self, tiny_db):
        rows, _ = tiny_db.query(QuerySpec({"x": Range(3, 3)}))
        assert [r["tid"] for r in rows] == [2, 3]

    def test_underflow_returns_all(self, tiny_db):
        rows, overflow = tiny_db.query(QuerySpec({"x": Range(None, 2)}))
        assert {r["tid"] for r in rows} == {5, 7}
        assert overflow is False

    def test_exactly_k_is_not_overflow(self, tiny_db):
        rows, overflow = tiny_db.query(QuerySpec({"y": Range(None, 3)}))
        assert len(rows) == 3
        assert overflow is False

    def test_k_plus_one_is_overflow(self, tiny_db):
        rows, overflow = tiny_db.query(QuerySpec({"x": Range(None, 5)}))
        assert len(rows) == 3
        assert overflow is True

    def test_empty_result(self, tiny_db):
        rows, overflow = tiny_db.query(QuerySpec({"x": Range(100, 200)}))
        assert rows == [] and overflow is False

    def test_cat_filter(self, tiny_db):
        rows, _ = tiny_db.query(QuerySpec(cats={"c": {"a"}}))
        assert {r["tid"] for r in rows} == {1, 2}

    def test_rows_are_full_tuples(self, tiny_db):
        rows, _ = tiny_db.query(QuerySpec({"x": Range(None, 1)}))
        assert set(rows[0]) == {"tid", "x", "y", "c"}


class TestOrderOverride:
    def test_asc(self, tiny_db):
        rows, _ = tiny_db.query(QuerySpec(), order=("y", "asc"))
        assert [r["tid"] for r in rows] == [1, 2, 3]

    def test_desc(self, tiny_db):
        rows, _ = tiny_db.query(QuerySpec(), order=("y", "desc"))
        assert [r["tid"] for r in rows] == [8, 7, 6]

    def test_desc_is_exact_reversal_on_ties(self, tiny_db):
        """tid tie-break follows sort direction — the crawler peel relies on it."""
        spec = QuerySpec({"x": Range(3, 3)})
        asc, _ = tiny_db.query(spec, order=("x", "asc"))
        desc, _ = tiny_db.query(spec, order=("x", "desc"))
        assert [r["tid"] for r in asc] == [2, 3]
        assert [r["tid"] for r in desc] == [3, 2]

    def test_rejects_unknown_attr(self, tiny_db):
        with pytest.raises(ValueError):
            tiny_db.query(QuerySpec(), order=("c", "asc"))

    def test_rejects_bad_direction(self, tiny_db):
        with pytest.raises(ValueError):
            tiny_db.query(QuerySpec(), order=("x", "sideways"))


class TestStats:
    def test_each_query_counted(self, tiny_db):
        tiny_db.query(QuerySpec())
        tiny_db.query(QuerySpec())
        assert tiny_db.stats.n_queries == 2
        assert tiny_db.stats.batch_sizes == [1, 1]

    def test_batch_counts_once(self, tiny_db):
        tiny_db.query_batch([QuerySpec(), QuerySpec(), QuerySpec()])
        assert tiny_db.stats.n_queries == 3
        assert tiny_db.stats.batch_sizes == [3]
        assert tiny_db.stats.n_parallel_queries == 3

    def test_empty_batch_free(self, tiny_db):
        assert tiny_db.query_batch([]) == []
        assert tiny_db.stats.n_queries == 0

    def test_batch_results_match_sequential(self, tiny_db):
        specs = [QuerySpec({"x": Range(None, 3)}), QuerySpec(cats={"c": {"d"}})]
        batched = tiny_db.query_batch(specs)
        single = [tiny_db.query(s) for s in specs]
        assert batched == single

    def test_parallel_fraction(self):
        st = QueryStats(n_queries=10, batch_sizes=[1, 3, 1, 5])
        assert st.n_parallel_queries == 8
        assert st.parallel_fraction() == pytest.approx(0.8)

    def test_counting_blocks_nest_per_thread(self, tiny_db):
        tiny_db.query(QuerySpec())
        with tiny_db.counting() as outer:
            tiny_db.query_batch([QuerySpec(), QuerySpec()])
            with tiny_db.counting() as inner:
                tiny_db.query(QuerySpec())
                other = threading.Thread(target=tiny_db.query_batch, args=([QuerySpec()] * 3,))
                other.start()
                other.join()
            tiny_db.query(QuerySpec())
        tiny_db.query(QuerySpec())
        assert (inner.n_queries, inner.batch_sizes) == (1, [1])
        assert (outer.n_queries, outer.batch_sizes) == (4, [2, 1, 1])
        assert tiny_db.stats.n_queries == 1 + 2 + 1 + 3 + 1 + 1
        assert tiny_db.stats.batch_sizes == [1, 2, 1, 3, 1, 1]

    def test_counting_stress_no_lost_updates(self, tiny_db):
        """More threads than cores, each counting its own queries, with the
        interpreter switching threads as often as it can."""
        n_threads, n_calls = 8, 100
        counted = {}

        def user(i):
            with tiny_db.counting() as cost:
                for j in range(n_calls):
                    if j % 2:
                        tiny_db.query(QuerySpec())
                    else:
                        tiny_db.query_batch([QuerySpec(), QuerySpec()])
            counted[i] = (cost.n_queries, len(cost.batch_sizes))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=user, args=(i,)) for i in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert counted == {i: (3 * n_calls // 2, n_calls) for i in range(n_threads)}
        assert tiny_db.stats.n_queries == n_threads * 3 * n_calls // 2
        assert len(tiny_db.stats.batch_sizes) == n_threads * n_calls

    def test_true_metadata(self, tiny_db):
        assert tiny_db.true_size() == 8
        assert tiny_db.true_domain("x") == (1.0, 9.0)


class TestSourcesFactory:
    def test_bluenile_local(self):
        db = sources.bluenile(n=100)
        rows, _ = db.query(QuerySpec())
        assert len(rows) == 10
        assert db.name == "bluenile"

    def test_zillow_local(self):
        db = sources.zillow(n=100)
        rows, _ = db.query(QuerySpec())
        assert "sqft" in rows[0]

    def test_zillow_system_rank_is_price_dominated(self):
        db = sources.zillow(n=400)
        rows, _ = db.query(QuerySpec())
        assert max(r["price"] for r in rows) < db.pdf["price"].median()

    def test_registry(self):
        assert sources.make_source("bluenile", n=50).name == "bluenile"
        with pytest.raises(KeyError):
            sources.make_source("amazon")

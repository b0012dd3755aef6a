"""Smoke tests: every table harness runs (pandas backend, small n), its
measured shape matches the paper's qualitative claims, and every query-count
column equals its pinned value. A refactor of the algorithms must not move a
single query; a pin changes only when a change to the algorithms is meant to
save queries, and then only downward. One pin rose, and why:

* T1 BASELINE, bluenile price desc, 61 -> 68, all in the first get-next.
  1D-BASELINE became the d=1 box engine's contour clip. The clip keeps the
  boundary value, since tuples tied with the best must be fetched (ties
  are broken by tid). So 67 of the 68 queries return the best tuple again
  and bring 7-9 new tuples, not k=10. Every other BASELINE pin fell, and
  at n=3000, k=25 this row fell too (237 -> 128)."""
import pytest

from repro.experiments import ALL_TABLES, t1_onedim, t2_md, t3_index, t4_cases, t5_parallel, t6_zillow

#: T1 queries, in CONFIGS order, each as (baseline, binary, rerank)
T1_QUERIES = [
    (9, 12, 43), (68, 2, 2), (3, 8, 11), (18, 5, 5),
    (9, 8, 8), (28, 6, 6), (8, 9, 14), (13, 2, 2),
]
#: T2 (quick) queries, per function as (baseline, binary, rerank, ta)
T2_QUERIES = [(5, 21, 24, 46), (71, 50, 46, 185), (21, 21, 21, 148)]
#: T3 queries per session as (rerank, binary)
T3_QUERIES = [(61, 79), (6, 79), (6, 79), (6, 79)]
#: T4 queries: worst first, worst re-run, best first, best re-run
T4_QUERIES = [83, 6, 24, 13]
#: T5 (total_queries, parallel_queries, iterations) for the 2-D and 3-D search
T5_COUNTS = [(108, 108, 30), (35, 35, 13)]
#: T6 (queries, parallel_queries) for the first page and the next page
T6_COUNTS = [(36, 36), (18, 18)]


def _flat(groups):
    return [q for g in groups for q in g]


class TestHarnesses:
    def test_t1_runs_and_shape_holds(self):
        df = t1_onedim.run(None, n=600, h=8)
        assert len(df) == len(t1_onedim.CONFIGS) * 3
        t1_onedim.check_shape(df)
        assert df.queries.tolist() == _flat(T1_QUERIES)

    def test_t2_runs_and_shape_holds(self):
        df = t2_md.run(None, n=500, h=4, quick=True)
        assert set(df.algorithm) == {"md-baseline", "md-binary", "md-rerank", "md-ta"}
        t2_md.check_shape(df)
        assert df.queries.tolist() == _flat(T2_QUERIES)

    def test_t3_runs_and_shape_holds(self):
        df = t3_index.run(None, n=600, h=8, n_sessions=4)
        t3_index.check_shape(df)
        assert df.queries.tolist() == _flat(T3_QUERIES)

    def test_t4_runs_and_shape_holds(self):
        df = t4_cases.run(None, n=800, h=4)
        t4_cases.check_shape(df)
        assert df.queries.tolist() == T4_QUERIES

    def test_t5_runs_and_shape_holds(self):
        df = t5_parallel.run(None, n=600, h=6)
        t5_parallel.check_shape(df)
        got = df[["total_queries", "parallel_queries", "iterations"]]
        assert [tuple(r) for r in got.itertuples(index=False)] == T5_COUNTS

    def test_t6_runs_and_shape_holds(self):
        df = t6_zillow.run(None, n=600)
        t6_zillow.check_shape(df)
        got = df[["queries", "parallel_queries"]]
        assert [tuple(r) for r in got.itertuples(index=False)] == T6_COUNTS

    def test_registry_complete(self):
        assert set(ALL_TABLES) == {"t1", "t2", "t3", "t4", "t5", "t6"}
        for mod in ALL_TABLES.values():
            assert hasattr(mod, "run") and hasattr(mod, "PAPER_CLAIMS")

    @pytest.mark.parametrize("name", list(ALL_TABLES))
    def test_claims_documented(self, name):
        assert len(ALL_TABLES[name].PAPER_CLAIMS) >= 2

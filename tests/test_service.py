"""End-to-end tests for the QR2 service facade."""
import threading

import pytest

from repro.core.rerank_op import ground_truth_topk
from repro.core.service import QR2Service, UserQuery
from repro.webdb import sources
from repro.webdb.predicates import QuerySpec, Range


def _ids(rows):
    return [r["tid"] for r in rows]


@pytest.fixture()
def service():
    svc = QR2Service()
    bn = sources.bluenile(n=400, k=10)
    zl = sources.zillow(n=400, k=10)
    svc.register_source(bn, bounds={a: bn.true_domain(a) for a in bn.numeric_attrs})
    svc.register_source(zl, bounds={a: zl.true_domain(a) for a in zl.numeric_attrs})
    return svc


class TestRegistration:
    def test_register_with_discovery(self):
        svc = QR2Service()
        db = sources.bluenile(n=200, k=10)
        svc.register_source(db)  # bounds discovered through the interface
        assert svc.bounds["bluenile"] == {
            a: db.true_domain(a) for a in db.numeric_attrs
        }

    def test_ranking_md_validates_sliders(self, service):
        with pytest.raises(ValueError):
            service.ranking_md("bluenile", {"price": 1.5})


class TestQueryLifecycle:
    def test_1d_first_page_matches_truth(self, service):
        db = service.dbs["bluenile"]
        rk = service.ranking_1d("bluenile", "carat")
        sid, rows, stats = service.submit(
            UserQuery("bluenile", QuerySpec(), rk, page_size=8)
        )
        assert _ids(rows) == _ids(ground_truth_topk(db, QuerySpec(), rk, 8))
        assert stats.n_queries > 0
        assert stats.elapsed_s >= 0

    def test_get_next_pages_continue_ranking(self, service):
        db = service.dbs["bluenile"]
        rk = service.ranking_md("bluenile", {"price": 1.0, "carat": -0.5})
        sid, page1, _ = service.submit(
            UserQuery("bluenile", QuerySpec(), rk, page_size=5)
        )
        page2, stats2 = service.get_next_page(sid)
        truth = ground_truth_topk(db, QuerySpec(), rk, 10)
        assert _ids(page1) + _ids(page2) == _ids(truth)

    def test_filtered_query(self, service):
        db = service.dbs["zillow"]
        spec = QuerySpec({"beds": Range(3, None)}, {"zipcode": frozenset({"76010", "75001"})})
        rk = service.ranking_md("zillow", {"price": 1.0, "sqft": -0.3})
        sid, rows, _ = service.submit(UserQuery("zillow", spec, rk, page_size=6))
        assert _ids(rows) == _ids(ground_truth_topk(db, spec, rk, 6))

    def test_1d_descending(self, service):
        db = service.dbs["zillow"]
        rk = service.ranking_1d("zillow", "sqft", descending=True)
        sid, rows, _ = service.submit(UserQuery("zillow", QuerySpec(), rk, page_size=5))
        assert _ids(rows) == _ids(ground_truth_topk(db, QuerySpec(), rk, 5))

    def test_concurrent_sessions_isolated(self, service):
        db = service.dbs["bluenile"]
        rk_a = service.ranking_1d("bluenile", "price")
        rk_d = service.ranking_1d("bluenile", "price", descending=True)
        sid_a, page_a, _ = service.submit(UserQuery("bluenile", QuerySpec(), rk_a, 4))
        sid_d, page_d, _ = service.submit(UserQuery("bluenile", QuerySpec(), rk_d, 4))
        next_a, _ = service.get_next_page(sid_a)
        assert _ids(page_a) + _ids(next_a) == _ids(
            ground_truth_topk(db, QuerySpec(), rk_a, 8)
        )
        assert _ids(page_d) == _ids(ground_truth_topk(db, QuerySpec(), rk_d, 4))


class TestStatisticsPanel:
    def test_dense_region_amortised_across_users(self, service):
        """Two users, same dense 1-D query: the second is far cheaper thanks
        to the shared dense index (the paper's on-the-fly indexing demo)."""
        rk = service.ranking_1d("bluenile", "lwr")
        _, _, stats1 = service.submit(UserQuery("bluenile", QuerySpec(), rk, 10))
        _, _, stats2 = service.submit(UserQuery("bluenile", QuerySpec(), rk, 10))
        assert stats2.n_queries < stats1.n_queries / 2

    def test_md_reports_parallel_queries(self, service):
        rk = service.ranking_md("bluenile", {"price": 1.0, "depth": -0.5})
        _, _, stats = service.submit(UserQuery("bluenile", QuerySpec(), rk, 5))
        assert stats.n_parallel_queries > 0


class TestConcurrentUsers:
    def test_each_user_panel_equals_solo_run(self):
        """Two users on one service submit at the same moment (one MD, one
        1-D search) and page on; each page's panel shows exactly the cost
        of the same search run alone."""
        db = sources.bluenile(n=3000, k=25)
        bounds = {a: db.true_domain(a) for a in db.numeric_attrs}

        def fresh_service():
            svc = QR2Service()
            svc.register_source(db, bounds=bounds)
            return svc

        svc = fresh_service()
        queries = {
            "md": UserQuery("bluenile", QuerySpec(), svc.ranking_md("bluenile", {"price": 1.0, "carat": -0.3}), 10),
            "1d": UserQuery("bluenile", QuerySpec(), svc.ranking_1d("bluenile", "carat", descending=True), 10),
        }

        def pages(svc, q):
            sid, rows, first = svc.submit(q)
            more, second = svc.get_next_page(sid)
            return _ids(rows + more), [first, second]

        def panels(run):
            ids, stats = run
            return ids, [(s.n_queries, s.n_parallel_queries) for s in stats]

        solo = {name: panels(pages(fresh_service(), q)) for name, q in queries.items()}
        barrier = threading.Barrier(len(queries))
        together = {}

        def user(name):
            barrier.wait()
            together[name] = panels(pages(svc, queries[name]))

        threads = [threading.Thread(target=user, args=(name,)) for name in queries]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert together == solo
        for name, q in queries.items():
            assert solo[name][0] == _ids(ground_truth_topk(db, QuerySpec(), q.ranking, 20))


class TestCachePersistence:
    def test_save_load_roundtrip(self, service, spark, tmp_path):
        rk = service.ranking_1d("bluenile", "lwr")
        service.submit(UserQuery("bluenile", QuerySpec(), rk, 10))  # populates index
        assert service.indexes["bluenile"].entries
        root = str(tmp_path / "caches")
        service.save_caches(spark, root)

        svc2 = QR2Service()
        for name, db in service.dbs.items():
            svc2.register_source(db, bounds=service.bounds[name])
        svc2.load_caches(spark, root)
        assert len(svc2.indexes["bluenile"].entries) == len(
            service.indexes["bluenile"].entries
        )
        # the reloaded cache serves the dense region cheaply
        _, _, stats = svc2.submit(UserQuery("bluenile", QuerySpec(), rk, 10))
        assert stats.n_queries < 15

    def test_boot_verify_clean(self, service):
        rk = service.ranking_1d("bluenile", "lwr")
        service.submit(UserQuery("bluenile", QuerySpec(), rk, 5))
        changed = service.boot_verify()
        assert changed["bluenile"] == 0 and changed["zillow"] == 0


class TestSparkBackend:
    @pytest.mark.parametrize("source, ranking", [
        ("bluenile", lambda svc: svc.ranking_1d("bluenile", "lwr")),
        ("zillow", lambda svc: svc.ranking_md("zillow", {"price": 1.0, "sqft": -0.3})),
    ], ids=["1d-lwr", "md-price-0.3sqft"])
    def test_pages_match_pandas(self, spark, source, ranking):
        """One search on the Spark and on the pandas site: every page has the
        same tids and the same site queries, and the pages are exact."""
        local = sources.make_source(source, n=400, k=10)
        bounds = {a: local.true_domain(a) for a in local.numeric_attrs}

        def three_pages(db):
            svc = QR2Service()
            svc.register_source(db, bounds=bounds)
            sid, rows, stats = svc.submit(UserQuery(source, QuerySpec(), ranking(svc), 10))
            pages = [(_ids(rows), stats.n_queries)]
            for _ in range(2):
                rows, stats = svc.get_next_page(sid)
                pages.append((_ids(rows), stats.n_queries))
            return pages, svc

        want, svc = three_pages(local)
        got, _ = three_pages(sources.make_source(source, spark, n=400, k=10))
        assert got == want
        truth = _ids(ground_truth_topk(local, QuerySpec(), ranking(svc), 30))
        assert [t for ids, _ in want for t in ids] == truth

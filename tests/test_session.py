"""Tests for per-user session state."""
from repro.core.geometry import Box
from repro.core.session import Context1D, ContextMD, Session
from repro.webdb.predicates import QuerySpec, Range
from repro.webdb.ranking import LinearRanking, one_d

RK = one_d("x", (0.0, 10.0))


def _rows(*vals):
    return [{"x": float(v), "tid": i + 1} for i, v in enumerate(vals)]


class TestPool:
    def test_absorb_and_dedup(self):
        s = Session()
        s.absorb(_rows(1, 2))
        s.absorb(_rows(1, 2))
        assert len(s.pool) == 2

    def test_deliver_tracks_order(self):
        s = Session()
        r = _rows(3, 1, 2)
        for row in sorted(r, key=RK.key):
            s.deliver(row)
        assert s.delivered_ids == [2, 3, 1]

    def test_undelivered_filter(self):
        s = Session()
        rows = _rows(1, 2, 3)
        s.absorb(rows)
        s.deliver(rows[0])
        assert {r["tid"] for r in rows if not s.is_delivered(r["tid"])} == {2, 3}

    def test_best_undelivered_min_key(self):
        s = Session()
        rows = _rows(5, 1, 3)
        s.absorb(rows)
        assert s.best_undelivered(RK, rows)["x"] == 1.0
        s.deliver(rows[1])
        assert s.best_undelivered(RK, rows)["x"] == 3.0

    def test_best_undelivered_respects_spec(self):
        s = Session()
        rows = _rows(1, 2, 3)
        best = s.best_undelivered(RK, rows, QuerySpec({"x": Range(1.5, None)}))
        assert best["x"] == 2.0

    def test_best_undelivered_empty(self):
        assert Session().best_undelivered(RK, []) is None


class TestContexts:
    def test_ctx_1d_identity_per_signature(self):
        s = Session()
        c1 = s.ctx("1d", RK, Context1D)
        c1.frontier = 0.5
        assert s.ctx("1d", one_d("x", (0.0, 10.0)), Context1D).frontier == 0.5  # same signature
        assert s.ctx("1d", one_d("x", (0.0, 10.0), descending=True), Context1D).frontier == 0.0
        assert s.ctx("md", RK, ContextMD) is not c1  # kinds never share a slot

    def test_ctx_1d_defaults(self):
        c = Session().ctx("1d", RK, Context1D)
        assert c.frontier == 0.0 and c.started is False

    def test_ctx_md_certified(self):
        s = Session()
        rk = LinearRanking({"a": 1.0, "b": 1.0}, {"a": (0, 1), "b": (0, 1)})
        ctx = s.ctx("md", rk, ContextMD)
        big = Box.unit(["a", "b"])
        small = Box(("a", "b"), (Range(0.1, 0.2), Range(0.1, 0.2)))
        ctx.add(small)
        assert ctx.is_certified(small)
        assert not ctx.is_certified(big)
        ctx.add(big)  # subsumes small
        assert ctx.certified == [big]
        assert ctx.is_certified(small)

    def test_ctx_named_factory_once(self):
        s = Session()
        made = []
        f = lambda: made.append(1) or {"n": len(made)}
        a = s.ctx("ta", RK, f)
        b = s.ctx("ta", RK, f)
        assert a is b and made == [1]

    def test_filter_spec_stored(self):
        spec = QuerySpec({"x": Range(0, 5)})
        assert Session(spec).filter_spec is spec

"""Tests for per-user session state."""
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.geometry import Box
from repro.core.session import ContextMD, Session
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
        assert s.best_undelivered(RK)["x"] == 1.0
        s.deliver(rows[1])
        assert s.best_undelivered(RK)["x"] == 3.0

    def test_best_undelivered_respects_spec(self):
        s = Session(QuerySpec({"x": Range(1.5, None)}))
        s.absorb(_rows(1, 2, 3))
        assert s.best_undelivered(RK)["x"] == 2.0

    def test_best_undelivered_empty(self):
        assert Session().best_undelivered(RK) is None


#: a ranking over x, both directions, with many duplicate values; the
#: filter is on a second attribute y
XS = st.sampled_from([0.0, 1.0, 1.0, 2.5, 4.0])
RANKINGS = [one_d("x", (0.0, 4.0)), one_d("x", (0.0, 4.0), descending=True)]
FILTERS = [QuerySpec(), QuerySpec({"y": Range(1.0, None)}), QuerySpec({"y": Range(None, 1.0, hi_incl=False)})]
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("absorb"), st.integers(1, 8), XS, st.integers(0, 2)),
        st.tuples(st.just("deliver"), st.integers(0, 7)),
    ),
    max_size=40,
)


class TestPoolProperty:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(ops=OPS, spec=st.sampled_from(FILTERS), late=st.integers(0, 40))
    def test_best_undelivered_is_brute_force_min(self, ops, spec, late):
        """Random absorb / re-absorb / deliver sequences: the heap answer is
        the minimum over the undelivered pool rows that match the filter.
        The second ranking's heap is first built after ``late`` steps."""
        s = Session(spec)
        first = {}  # tid -> first absorbed copy, what the pool must keep
        for step, op in enumerate(ops):
            if op[0] == "absorb":
                _, tid, x, y = op
                row = {"tid": tid, "x": x, "y": float(y)}  # a fresh dict, also for a known tid
                first.setdefault(tid, row)
                s.absorb([row])
            elif first:
                s.deliver(first[sorted(first)[op[1] % len(first)]])
            assert all(s.pool[t] is r for t, r in first.items()) and len(s.pool) == len(first)
            for rk in RANKINGS if step >= late else RANKINGS[:1]:
                live = [r for r in first.values() if not s.is_delivered(r["tid"]) and spec.matches(r)]
                expect = min(live, key=rk.key, default=None)
                assert s.best_undelivered(rk) is expect

class TestContexts:
    def test_ctx_1d_identity_per_signature(self):
        s = Session()
        c1 = s.ctx("md", RK, ContextMD)
        c1.add(Box.unit(["x"]))
        assert s.ctx("md", one_d("x", (0.0, 10.0)), ContextMD) is c1  # same signature
        assert s.ctx("md", one_d("x", (0.0, 10.0), descending=True), ContextMD).certified == []
        assert s.ctx("ta", RK, list) == []  # kinds never share a slot

    def test_ctx_1d_defaults(self):
        c = Session().ctx("md", RK, ContextMD)
        assert c.certified == [] and not c.is_certified(Box.unit(["x"]))

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

    def test_ctx_md_trim(self):
        ctx = ContextMD()
        box = Box.unit(["a", "b"])
        ctx.add(Box(("a", "b"), (Range(0.0, 0.3), Range(0.0, 0.5))))
        assert ctx.trim(box) == box  # holds a's low end, but only half of b
        ctx.add(Box(("a", "b"), (Range(0.0, 0.3), Range(0.0, 1.0))))
        assert ctx.trim(box) == Box(("a", "b"), (Range(0.3, 1.0, False, True), Range(0.0, 1.0)))
        ctx.add(Box(("a", "b"), (Range(0.3, 1.0, False, True), Range(0.0, 1.0))))
        assert ctx.trim(box).is_empty()  # two certified boxes hold all of it

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

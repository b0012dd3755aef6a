"""Tests for unit-space boxes and contour clipping."""

import numpy as np
import pytest

from repro.core.geometry import Box
from repro.webdb.predicates import Range
from repro.webdb.ranking import LinearRanking

RK2 = LinearRanking({"a": 1.0, "b": 0.5}, {"a": (0, 1), "b": (0, 1)})
RK2_NEG = LinearRanking({"a": 1.0, "b": -0.5}, {"a": (0, 1), "b": (0, 1)})
W2 = {"a": 1.0, "b": 0.5}


class TestBoxBasics:
    def test_unit_box(self):
        b = Box.unit(["a", "b"])
        assert b.widths() == [1.0, 1.0]
        assert b.max_width() == 1.0

    def test_contains(self):
        outer = Box.unit(["a", "b"])
        inner = Box(("a", "b"), (Range(0.2, 0.4), Range(0.0, 1.0)))
        assert outer.contains(inner)
        assert not inner.contains(outer)

    def test_scores(self):
        b = Box(("a", "b"), (Range(0.2, 0.4), Range(0.5, 1.0)))
        assert b.min_score(W2) == pytest.approx(0.2 + 0.25)

    def test_max_score_uses_hi_corner_clipped_to_unit(self):
        b = Box(("a", "b"), (Range(0.2, 0.4), Range(0.5, 1.0)))
        assert b.max_score(W2) == pytest.approx(0.4 + 0.5)
        open_sides = Box(("a", "b"), (Range(0.2, None), Range(None, 1.7)))
        assert open_sides.max_score(W2) == pytest.approx(1.0 + 0.5)
        assert Box.unit(["a"]).max_score({"a": 2.0}) == pytest.approx(2.0)

    def test_mismatched_dims_rejected(self):
        with pytest.raises(ValueError):
            Box(("a",), (Range(0, 1), Range(0, 1)))


class TestSplit:
    def test_split_partitions_without_overlap_or_gap(self):
        b = Box.unit(["a", "b"])
        left, right = b.split(0, 0.5)
        for u in [0.0, 0.25, 0.5, 0.5000001, 0.75, 1.0]:
            in_left = left.ranges[0].contains(u)
            in_right = right.ranges[0].contains(u)
            assert in_left != in_right, u  # exactly one side

    def test_split_widest_picks_longest(self):
        b = Box(("a", "b"), (Range(0.0, 0.2), Range(0.0, 1.0)))
        left, right = b.split_widest()
        assert left.ranges[0] == b.ranges[0]  # dim a untouched
        assert left.ranges[1].hi == pytest.approx(0.5)

    def test_children_contained_in_parent(self):
        b = Box(("a", "b"), (Range(0.1, 0.9, False, True), Range(0.2, 0.8)))
        left, right = b.split_widest()
        assert b.contains(left) and b.contains(right)


class TestContourClip:
    def test_clip_removes_unreachable_part(self):
        b = Box.unit(["a", "b"])
        clipped = b.clip_by_contour(RK2, 0.3)
        # dim a capped at 0.3 (with b at its lo corner 0), dim b at 0.6
        assert clipped.ranges[0].hi == pytest.approx(0.3)
        assert clipped.ranges[1].hi == pytest.approx(0.6)

    def test_clip_at_a_tuple_keeps_its_raw_value(self):
        """A cap at a tuple's own unit value still admits the tuple's raw
        value once the box is mapped back to a raw query (here the bare
        round trip gives 1.4800000000000002)."""
        rk = LinearRanking({"carat": -1.0}, {"carat": (0.2, 2.71)})
        u = rk.attr_map("carat").to_unit(1.48)
        spec = Box.unit(["carat"]).clip_by_contour(rk, u).to_spec(rk)
        assert spec.ranges["carat"].contains(1.48)

    def test_clip_never_cuts_contour_region(self):
        """Every point of the box with score <= s survives the clip."""
        rng = np.random.default_rng(0)
        b = Box(("a", "b"), (Range(0.1, 0.9), Range(0.0, 0.7)))
        s = 0.5
        clipped = b.clip_by_contour(RK2, s)
        pts = rng.random((500, 2))
        for a, bb in pts:
            if not (b.ranges[0].contains(a) and b.ranges[1].contains(bb)):
                continue
            if W2["a"] * a + W2["b"] * bb <= s:
                assert clipped.ranges[0].contains(a) and clipped.ranges[1].contains(bb)

    def test_clip_noop_when_contour_above_box(self):
        b = Box(("a", "b"), (Range(0.0, 0.2), Range(0.0, 0.2)))
        assert b.clip_by_contour(RK2, 10.0) == b

    def test_clip_with_negative_weight_uses_internal_space(self):
        """Flipped axes: clipping operates on |w| in the flipped cube."""
        b = Box.unit(["a", "b"])
        clipped = b.clip_by_contour(RK2_NEG, 0.25)
        assert clipped.ranges[0].hi == pytest.approx(0.25)
        assert clipped.ranges[1].hi == pytest.approx(0.5)


class TestToSpec:
    def test_positive_weights_map_directly(self):
        rk = LinearRanking({"x": 1.0}, {"x": (10.0, 20.0)})
        b = Box(("x",), (Range(0.2, 0.5, False, True),))
        spec = b.to_spec(rk)
        r = spec.ranges["x"]
        assert (r.lo, r.hi, r.lo_incl, r.hi_incl) == (12.0, 15.0, False, True)

    def test_negative_weight_flips_interval(self):
        rk = LinearRanking({"x": -1.0}, {"x": (10.0, 20.0)})
        b = Box(("x",), (Range(0.0, 0.5, True, True),))
        spec = b.to_spec(rk)
        r = spec.ranges["x"]
        # u in [0, 0.5] on the flipped axis = x in [15, 20]
        assert (r.lo, r.hi) == (15.0, 20.0)

    def test_membership_consistency_random(self):
        rng = np.random.default_rng(1)
        rk = LinearRanking({"x": 1.0, "y": -0.4}, {"x": (0.0, 10.0), "y": (-5.0, 5.0)})
        b = Box(("x", "y"), (Range(0.1, 0.6, False, True), Range(0.3, 0.9)))
        spec = b.to_spec(rk)
        for _ in range(300):
            x, y = rng.uniform(0, 10), rng.uniform(-5, 5)
            ux = rk.attr_map("x").to_unit(x)
            uy = rk.attr_map("y").to_unit(y)
            in_box = b.ranges[0].contains(ux) and b.ranges[1].contains(uy)
            assert in_box == spec.matches({"x": x, "y": y})

"""Tests for bounding-box arithmetic and the proximity predicate."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from troopnet.geometry import BBox, ProximityParams, center_distance, iou, is_proximal


def test_bbox_rejects_degenerate_sides():
    with pytest.raises(ValueError):
        BBox(0, 0, 0, 5)
    with pytest.raises(ValueError):
        BBox(0, 0, 5, -1)


def test_bbox_rejects_non_finite():
    with pytest.raises(ValueError):
        BBox(math.nan, 0, 1, 1)
    with pytest.raises(ValueError):
        BBox(0, math.inf, 1, 1)
    with pytest.raises(ValueError):
        BBox(0, 0, 1, math.inf)


def test_bbox_rejects_bool_fields():
    with pytest.raises(ValueError):
        BBox(True, 0, 1, 1)


def _per_field_check(x, y, w, h) -> None:
    """The box rule field by field, as BBox held every box to before its
    whole-box test, then the right and bottom edges in float arithmetic."""
    for name, v in zip(("x", "y", "w", "h"), (x, y, w, h)):
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            raise ValueError(f"bbox field {name!r} must be a finite number, got {v!r}")
    if w <= 0 or h <= 0:
        raise ValueError(f"bbox sides must be positive, got w={w}, h={h}")
    right, bottom = float(x) + float(w), float(y) + float(h)
    if math.isinf(right) or math.isinf(bottom):
        raise ValueError(f"bbox right and bottom edges must be finite, got x + w = {right}, y + h = {bottom}")


def _box_outcome(check, sides) -> str:
    try:
        check(*sides)
    except (ValueError, OverflowError) as exc:  # math.isfinite overflows on an int past float range
        return f"{type(exc).__name__}: {exc}"
    return "accepted"


_sides = st.one_of(
    st.floats(-100.0, 100.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1e308, -1e308, math.nan, math.inf, -math.inf]),
    st.integers(-2, 50),
    st.sampled_from([True, False, 10**400, np.float64(1.5), np.float64(math.nan), None, "1"]),
)


def _with_non_finite_sides(test):
    """One example per slot and value: NaN, inf and -inf in each of x, y, w and h."""
    for k in range(4):
        for bad in (math.nan, math.inf, -math.inf):
            test = example([bad if i == k else side for i, side in enumerate((0.0, 0.0, 1.0, 1.0))])(test)
    return test


@given(st.lists(_sides, min_size=4, max_size=4))
@settings(max_examples=500, deadline=None)
@example([1e308, 0.0, 1e308, 1.0])  # the right edge overflows; the box is rejected
@example([1e308, 1e308, 1e307, 1e307])  # the corner sum overflows; both edges are finite, the box is valid
@example([0.0, 1e308, 1.0, 1e308])  # the bottom edge overflows
@example([-1e308, -1e308, 1.0, 1.0])
@example([0.0, 0.0, 0.0, 1.0])
@example([0.0, 0.0, 1.0, -0.0])
@example([-0.0, -0.0, 1.0, 1.0])
@example([0, 0, 1, 1])
@example([0, 0, 0, 1])
@example([0.0, True, 1.0, 1.0])
@example([0.0, 0.0, 1.0, False])
@example([np.float64(0.5), 0.0, np.float64(2.0), 1.0])
@example([0.0, 0.0, np.float64(math.inf), 1.0])
@example([0.0, 0.0, 10**400, 1.0])
@example([0.0, 0.0, 1.0, 10**400])
@_with_non_finite_sides
def test_bbox_rule_agrees_with_the_per_field_check(sides):
    assert _box_outcome(BBox, sides) == _box_outcome(_per_field_check, sides)


def test_bbox_center():
    b = BBox(2, 4, 6, 8)
    assert b.center == (5.0, 8.0)


def test_iou_identical_boxes_is_exactly_one():
    b = BBox(0, 0, 10, 10)
    assert iou(b, b) == 1.0


def test_iou_disjoint_is_zero():
    assert iou(BBox(0, 0, 2, 2), BBox(5, 5, 2, 2)) == 0.0


def test_iou_touching_edges_is_zero():
    assert iou(BBox(0, 0, 2, 2), BBox(2, 0, 2, 2)) == 0.0


def test_iou_hand_case_one_seventh():
    # inter = 1, union = 4 + 4 - 1 = 7
    assert iou(BBox(0, 0, 2, 2), BBox(1, 1, 2, 2)) == pytest.approx(1 / 7, abs=1e-15)


def test_iou_quarter_overlap():
    # (0,0,10,10) vs (5,5,10,10): inter 25, union 175
    assert iou(BBox(0, 0, 10, 10), BBox(5, 5, 10, 10)) == pytest.approx(1 / 7, abs=1e-15)


def _raster_iou(a: BBox, b: BBox) -> float:
    # Pixel-rasterization oracle for integer-cornered boxes: count unit
    # cells in each region.
    cells_a = {(x, y) for x in range(int(a.x), int(a.x + a.w)) for y in range(int(a.y), int(a.y + a.h))}
    cells_b = {(x, y) for x in range(int(b.x), int(b.x + b.w)) for y in range(int(b.y), int(b.y + b.h))}
    union = len(cells_a | cells_b)
    return len(cells_a & cells_b) / union if union else 0.0


@given(
    st.tuples(
        st.integers(0, 20), st.integers(0, 20), st.integers(1, 15), st.integers(1, 15)
    ),
    st.tuples(
        st.integers(0, 20), st.integers(0, 20), st.integers(1, 15), st.integers(1, 15)
    ),
)
def test_iou_matches_rasterization_oracle(raw_a, raw_b):
    a = BBox(*raw_a)
    b = BBox(*raw_b)
    assert iou(a, b) == pytest.approx(_raster_iou(a, b), abs=1e-12)


_box_strategy = st.builds(
    BBox,
    st.floats(-100, 100, allow_nan=False),
    st.floats(-100, 100, allow_nan=False),
    st.floats(0.1, 50, allow_nan=False),
    st.floats(0.1, 50, allow_nan=False),
)


@given(_box_strategy, _box_strategy, st.integers(-300, 300))
@example(BBox(0.0, 0.0, 1.0, 1.0), BBox(0.0, 0.0, 1.0, 1.0), -200)
def test_iou_symmetric_and_bounded(a, b, e):
    # both boxes scaled by 10**e, so products may leave the normal float range
    s = 10.0**e
    a, b = (BBox(box.x * s, box.y * s, box.w * s, box.h * s) for box in (a, b))
    v = iou(a, b)
    assert 0.0 <= v <= 1.0
    assert v == iou(b, a)


@pytest.mark.parametrize("k", [-1070, -1000, -600, -300, 300, 600, 1000])
def test_iou_keeps_its_value_under_power_of_two_scaling(k):
    # below about 1e-154 px the overlap's area underflowed (0.0, or 0 / 0), above about 1e154 it overflowed (NaN)
    a, b = BBox(10.0, 20.0, 30.0, 40.0), BBox(25.0, 5.0, 50.0, 45.0)
    s = 2.0**k
    a2, b2 = (BBox(box.x * s, box.y * s, box.w * s, box.h * s) for box in (a, b))
    assert iou(a2, a2) == 1.0
    assert iou(a2, b2) == iou(a, b) > 0.0


@given(_box_strategy, _box_strategy, st.floats(-50, 50), st.floats(-50, 50))
def test_iou_translation_invariant(a, b, dx, dy):
    a2 = BBox(a.x + dx, a.y + dy, a.w, a.h)
    b2 = BBox(b.x + dx, b.y + dy, b.w, b.h)
    assert iou(a2, b2) == pytest.approx(iou(a, b), abs=1e-9)


@given(_box_strategy, _box_strategy, st.floats(0.25, 4.0))
def test_iou_scale_invariant(a, b, s):
    a2 = BBox(a.x * s, a.y * s, a.w * s, a.h * s)
    b2 = BBox(b.x * s, b.y * s, b.w * s, b.h * s)
    assert iou(a2, b2) == pytest.approx(iou(a, b), abs=1e-9)


def test_center_distance_same_box():
    b = BBox(3, 3, 4, 4)
    assert center_distance(b, b) == 0.0


def test_center_distance_hand_cases():
    assert center_distance(BBox(0, 0, 2, 2), BBox(3, 0, 2, 2)) == 3.0
    assert center_distance(BBox(0, 0, 2, 2), BBox(3, 4, 2, 2)) == 5.0


@given(_box_strategy, _box_strategy, _box_strategy)
def test_center_distance_triangle_inequality(a, b, c):
    assert center_distance(a, c) <= center_distance(a, b) + center_distance(b, c) + 1e-9


def test_proximity_params_validation():
    with pytest.raises(ValueError):
        ProximityParams(max_gap=0)
    for bad in (math.nextafter(1.0, 0.0), 0.0, -1.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="max_height_ratio"):
            ProximityParams(max_height_ratio=bad)
    # a ratio of 1 is allowed: equal heights only
    ProximityParams(max_height_ratio=1.0)


def test_is_proximal_same_box_always_true():
    b = BBox(10, 10, 30, 30)
    assert is_proximal(b, b, ProximityParams(max_gap=0.001, max_height_ratio=1.0))


def test_is_proximal_hand_case_within_gap():
    a = BBox(0, 0, 100, 100)
    b = BBox(150, 0, 100, 100)  # centers 150 apart, mean height 100 -> gap 1.5
    p = ProximityParams(max_gap=2.0, max_height_ratio=1.5)
    assert is_proximal(a, b, p)


def test_is_proximal_depth_disparity_rejects():
    # heights 100 vs 300: a ratio of 3 > 1.5 regardless of distance
    a = BBox(0, 0, 100, 100)
    b = BBox(0, 0, 100, 300)
    p = ProximityParams(max_gap=100.0, max_height_ratio=1.5)
    assert not is_proximal(a, b, p)


@pytest.mark.parametrize("taller,proximal", [(96.0, True), (math.nextafter(96.0, math.inf), False)])
def test_is_proximal_height_ratio_is_exact(taller, proximal):
    # 1.5 * 64 is exactly 96: the gate holds at the ratio and fails one ulp past it, in either order
    short, tall = BBox(0, 0, 64, 64), BBox(0, 0, 64, taller)
    p = ProximityParams()
    assert is_proximal(short, tall, p) is is_proximal(tall, short, p) is proximal


def test_is_proximal_distance_rejects():
    a = BBox(0, 0, 10, 10)
    b = BBox(500, 0, 10, 10)
    assert not is_proximal(a, b, ProximityParams(max_gap=2.0))


@given(_box_strategy, _box_strategy)
def test_is_proximal_symmetric(a, b):
    p = ProximityParams()
    assert is_proximal(a, b, p) == is_proximal(b, a, p)


@given(_box_strategy, _box_strategy, st.floats(-50, 50), st.floats(-50, 50), st.floats(0.25, 4.0))
def test_is_proximal_translation_and_scale_invariant(a, b, dx, dy, s):
    p = ProximityParams()
    moved_a = BBox((a.x + dx) * s, (a.y + dy) * s, a.w * s, a.h * s)
    moved_b = BBox((b.x + dx) * s, (b.y + dy) * s, b.w * s, b.h * s)
    # skip knife-edge cases where rounding could legitimately flip the predicate
    gap = center_distance(a, b) / ((a.h + b.h) / 2.0)
    ratio = max(a.h, b.h) / min(a.h, b.h)
    if abs(gap - p.max_gap) < 1e-6 or abs(ratio - p.max_height_ratio) < 1e-6:
        return
    assert is_proximal(moved_a, moved_b, p) == is_proximal(a, b, p)

"""Axis-aligned bounding boxes: IoU, center distance, proximity predicate.

Boxes use a top-left origin and (x, y, w, h) layout so annotation exports
load without any coordinate conversion. BBox's constructor holds the one box
rule, whoever builds the box: four finite numbers (no bools) with positive
width and height and finite right and bottom edges (x + w and y + h).
Degenerate boxes are rejected rather than clamped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["BBox", "ProximityParams", "iou", "center_distance", "is_proximal"]


@dataclass(frozen=True)
class BBox:
    """Axis-aligned pixel rectangle; (x, y) is the top-left corner."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        x, y, w, h = self.x, self.y, self.w, self.h
        # four floats whose corner sum is finite have four finite sides and
        # finite right and bottom edges: inf and NaN carry through the sum
        if type(x) is type(y) is type(w) is type(h) is float and w > 0.0 and h > 0.0:
            if -math.inf < (x + w) + (y + h) < math.inf:
                return
        for name, v in zip(("x", "y", "w", "h"), (x, y, w, h)):  # the rest, and sums that overflow
            if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
                raise ValueError(f"bbox field {name!r} must be a finite number, got {v!r}")
        if w <= 0 or h <= 0:
            raise ValueError(f"bbox sides must be positive, got w={w}, h={h}")
        right, bottom = float(x) + w, float(y) + h
        if not (math.isfinite(right) and math.isfinite(bottom)):
            raise ValueError(f"bbox right and bottom edges must be finite, got x + w = {right}, y + h = {bottom}")

    @property
    def center(self) -> tuple[float, float]:
        return (self.x + self.w / 2.0, self.y + self.h / 2.0)


@dataclass(frozen=True)
class ProximityParams:
    """Thresholds for the proximity predicate.

    max_gap bounds the center distance in units of the mean box height;
    max_height_ratio bounds the taller box's height over the shorter's, using
    apparent face size as a stand-in for distance from the camera. The
    defaults (2.0 face-heights, a ratio of 1.5) are configurable stand-ins; no
    calibrated pixel threshold exists for the field protocol.
    """

    max_gap: float = 2.0
    max_height_ratio: float = 1.5

    def __post_init__(self):
        if not (self.max_gap > 0 and math.isfinite(self.max_gap)):
            raise ValueError(f"max_gap must be positive, got {self.max_gap}")
        if not (self.max_height_ratio >= 1 and math.isfinite(self.max_height_ratio)):
            raise ValueError(f"max_height_ratio must be finite and at least 1, got {self.max_height_ratio}")


_MIN_NORMAL = 2.0**-1022  # the least normal float


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes, in [0, 1].

    Returns exactly 1.0 for identical boxes, at any size, and 0.0 when the
    interiors are disjoint (touching edges count as disjoint). All widths
    derive from the same corner differences, which keeps the ratio at or
    below 1 even when x + w - x does not round back to w: each area is a
    product of corner differences at least as large as iw and ih, so
    union >= inter. Where a product leaves the normal float range (boxes
    below about 1e-154 or above about 1e154 px), each axis is measured in
    units of a power of two near its wider side; as that rescaling is
    exact, a box pair scaled by a power of two keeps its IoU bit for bit.
    """
    ax2 = a.x + a.w
    ay2 = a.y + a.h
    bx2 = b.x + b.w
    by2 = b.y + b.h
    iw = min(ax2, bx2) - max(a.x, b.x)
    ih = min(ay2, by2) - max(a.y, b.y)
    if iw <= 0 or ih <= 0:
        return 0.0
    aw = ax2 - a.x
    ah = ay2 - a.y
    bw = bx2 - b.x
    bh = by2 - b.y
    inter = iw * ih
    union = aw * ah + bw * bh - inter
    if inter >= _MIN_NORMAL and union < math.inf:
        return inter / union
    ex = math.frexp(max(aw, bw))[1]
    ey = math.frexp(max(ah, bh))[1]
    iw, aw, bw = (math.ldexp(v, -ex) for v in (iw, aw, bw))
    ih, ah, bh = (math.ldexp(v, -ey) for v in (ih, ah, bh))
    inter = iw * ih  # every side is now at most 1, so nothing overflows
    union = aw * ah + bw * bh - inter
    return inter / union if inter else 0.0  # 0.0 when the ratio itself underflows


def center_distance(a: BBox, b: BBox) -> float:
    """Euclidean distance between box centers, in pixels."""
    ax, ay = a.center
    bx, by = b.center
    return math.hypot(ax - bx, ay - by)


def is_proximal(a: BBox, b: BBox, params: ProximityParams = ProximityParams()) -> bool:
    """Whether two boxes plausibly show individuals near each other.

    True iff the center distance normalized by the mean box height is at
    most max_gap and the taller box's height is at most max_height_ratio
    times the shorter's. Both tests are invariant under common translation
    and common uniform scaling of the two boxes. The height test is one
    correctly rounded product and a comparison, so it gives the same answer
    on any platform.
    """
    mean_h = (a.h + b.h) / 2.0
    if center_distance(a, b) / mean_h > params.max_gap:
        return False
    return max(a.h, b.h) <= params.max_height_ratio * min(a.h, b.h)

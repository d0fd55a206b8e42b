"""Analytic circle/sphere interfaces immersed in the unit box.

Provides the exact distance-to-surface weight, the inside/outside sign
test, and exact distance ranges over boxes, from which the cut-cell rules of
``quadrature`` are built.
"""

from __future__ import annotations

import math

import numpy as np

from .mesh import _check_box

#: the smallest radius per unit of max(1, max_k |c_k|), where the load's sum is off 5e-9
RADIUS_FLOOR = 1e-8


def _length(columns) -> np.ndarray:
    """Euclidean length of vectors given one component array per axis:
    squares summed in axis order, then the root; bitwise equal to
    ``np.linalg.norm(v, axis=-1)`` of the stacked vectors ``v``.  Each square
    is ``np.square``, the correctly rounded product ``x * x`` for one point as
    for an array (a numpy scalar's ``** 2`` calls libm ``pow``, which is not;
    ``column * column`` gives the same bits but is slower on arrays)."""
    squares = np.square(columns[0])
    for column in columns[1:]:
        squares = squares + np.square(column)
    return np.sqrt(squares)


def _offsets(points, center) -> list:
    """The components of ``points - center`` (points of shape (..., dim)), one
    array per axis, so that each subtraction runs along the points; points
    of another number of coordinates raise ValueError."""
    if points.shape[-1:] != center.shape:
        raise ValueError(f"points must have {center.size} coordinates, got shape {points.shape}")
    return [points[..., k] - c for k, c in enumerate(center.tolist())]


class SphericalInterface:
    """Circle (2D) or sphere (3D) with centre ``c`` and radius ``R``.

    The surface must have positive distance to the boundary of the unit box
    [0,1]^dim: it may lie entirely inside or entirely outside the box, but
    must not touch or cross its boundary, and its radius must be at least
    ``RADIUS_FLOOR * max(1, max_k |c_k|)``, the smallest the rules resolve.
    """

    def __init__(self, center, radius: float):
        # integers or floats: a bool (dtype kind "b"), a string or an object
        # is no coordinate or radius
        point = np.asarray(center)
        if point.dtype.kind not in "iuf" or point.ndim != 1 or point.shape[0] not in (2, 3):
            raise ValueError(f"center must be a point in 2 or 3 dimensions, got {center!r}")
        if not np.all(np.isfinite(point)):
            raise ValueError(f"center must be finite, got {center!r}")
        floor = RADIUS_FLOOR * max(1.0, *np.abs(point).tolist())
        if (np.asarray(radius).dtype.kind not in "iuf" or np.ndim(radius) != 0
                or not floor <= radius < math.inf):
            raise ValueError(f"radius must be finite and at least {floor:.3e}, got {radius!r}")
        self.center = point.astype(float)
        self.radius = float(radius)
        self.dim = point.shape[0]
        # the faces x_k = 0 and x_k = 1 of the unit box, one box per row
        axis = np.repeat(np.eye(self.dim, dtype=bool), 2, axis=0)
        low = axis * np.tile([[0.0], [1.0]], (self.dim, 1))
        gap = float(self.distance_range_over_box(low, low + ~axis)[0].min())
        if gap <= 0.0:
            raise ValueError(
                "surface touches or crosses the boundary of the unit box "
                f"(distance {gap:.3e})"
            )

    def distance(self, points) -> np.ndarray | float:
        """Exact distance from ``points`` (shape (..., dim)) to the surface."""
        return np.abs(self._center_distance(points) - self.radius)

    def side(self, points) -> np.ndarray:
        """Vectorised sign test: -1 inside, +1 outside (ties count outside)."""
        return np.where(self._center_distance(points) < self.radius, -1, 1)

    def _center_distance(self, points) -> np.ndarray:
        """|x - c| at ``points`` (shape (..., dim)), one axis at a time."""
        return _length(_offsets(np.asarray(points, dtype=float), self.center))

    def distance_range_over_box(self, low, high):
        """Exact (min, max) of dist(x, surface) over boxes [low, high].

        ``low``/``high`` may be (dim,) or (n, dim); degenerate boxes (faces,
        points) are allowed.  dist = | |x-c| - R | is piecewise monotone in
        |x-c|, so extremising |x-c| over the box and folding by the radius
        gives closed forms.  A box with some ``low > high`` raises
        ValueError (``mesh._check_box``).
        """
        low, high = np.asarray(low, dtype=float), np.asarray(high, dtype=float)
        _check_box(low, high)
        lows, highs = _offsets(low, self.center), _offsets(high, self.center)
        t_min = _length([np.clip(0.0, lo, hi) for lo, hi in zip(lows, highs)])
        t_max = _length([np.maximum(np.abs(lo), np.abs(hi)) for lo, hi in zip(lows, highs)])
        r = self.radius
        d_min = np.maximum(0.0, np.maximum(t_min - r, r - t_max))
        d_max = np.maximum(r - t_min, t_max - r)
        return d_min, d_max

    def cuts_box(self, low, high) -> np.ndarray:
        """True where the closed box [low, high] meets the surface."""
        return self.distance_range_over_box(low, high)[0] == 0.0

"""Analytic circle/sphere interfaces immersed in the unit box.

Provides the exact distance-to-surface weight, outward normals, the
inside/outside sign test, and a surface quadrature rule built cell by cell
from the height-function rule of ``quadrature``, so that integrals of
piecewise-polynomial test functions over the surface keep full accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import surface_rule

#: Gauss points per piece of the surface rule
SURFACE_ORDER = 8


def _length(columns) -> np.ndarray:
    """Euclidean length of vectors given one component array per axis:
    squares summed in axis order, then the root; bitwise equal to
    ``np.linalg.norm(v, axis=-1)`` of the stacked vectors ``v``."""
    squares = columns[0] ** 2
    for column in columns[1:]:
        squares = squares + column ** 2
    return np.sqrt(squares)


def _offsets(points, center) -> list:
    """The components of ``points - center`` (points of shape (..., dim)), one
    array per axis, so that each subtraction runs along the points."""
    return [points[..., k] - c for k, c in enumerate(center.tolist())]


class SphericalInterface:
    """Circle (2D) or sphere (3D) with centre ``c`` and radius ``R``.

    The surface must have positive distance to the boundary of the unit box
    [0,1]^dim: it may lie entirely inside or entirely outside the box, but
    must not touch or cross its boundary.
    """

    def __init__(self, center, radius: float):
        center = np.asarray(center, dtype=float)
        if center.ndim != 1 or center.shape[0] not in (2, 3):
            raise ValueError("center must be a point in 2 or 3 dimensions")
        if not np.all(np.isfinite(center)):
            raise ValueError(f"center must be finite, got {center}")
        if not 0.0 < radius < math.inf:
            raise ValueError(f"radius must be positive and finite, got {radius}")
        self.center = center
        self.radius = float(radius)
        self.dim = center.shape[0]
        gap = self.boundary_gap()
        if gap <= 0.0:
            raise ValueError(
                "surface touches or crosses the boundary of the unit box "
                f"(distance {gap:.3e})"
            )

    @property
    def measure(self) -> float:
        """Length of the circle / area of the sphere."""
        if self.dim == 2:
            return 2.0 * math.pi * self.radius
        return 4.0 * math.pi * self.radius**2

    def boundary_gap(self) -> float:
        """Distance between the surface and the boundary of the unit box."""
        gap = math.inf
        for axis in range(self.dim):
            for value in (0.0, 1.0):
                low = np.zeros(self.dim)
                high = np.ones(self.dim)
                low[axis] = high[axis] = value
                dmin, _ = self.distance_range_over_box(low, high)
                gap = min(gap, float(dmin))
        return gap

    def distance(self, points) -> np.ndarray | float:
        """Exact distance from ``points`` (shape (..., dim)) to the surface."""
        return np.abs(self._center_distance(points) - self.radius)

    def normal(self, points) -> np.ndarray:
        """Unit outward normal (pointing away from the enclosed region)."""
        points = np.asarray(points, dtype=float)
        rho = _length(_offsets(points, self.center))[..., None]
        if np.any(rho == 0.0):
            raise ValueError("normal direction undefined at the centre")
        return (points - self.center) / rho

    def side(self, points) -> np.ndarray:
        """Vectorised sign test: -1 inside, +1 outside (ties count outside)."""
        return np.where(self._center_distance(points) < self.radius, -1, 1)

    def _center_distance(self, points) -> np.ndarray:
        """|x - c| at ``points`` (shape (..., dim)), one axis at a time."""
        return _length(_offsets(np.asarray(points, dtype=float), self.center))

    def center_distance_range_over_box(self, low, high):
        """Range of |x - c| over axis-aligned boxes [low, high].

        ``low``/``high`` may be (dim,) or (n, dim); degenerate boxes (faces,
        points) are allowed.  Returns (t_min, t_max).
        """
        low = np.asarray(low, dtype=float)
        high = np.asarray(high, dtype=float)
        lows, highs = _offsets(low, self.center), _offsets(high, self.center)
        t_min = _length([np.clip(0.0, lo, hi) for lo, hi in zip(lows, highs)])
        t_max = _length([np.maximum(np.abs(lo), np.abs(hi)) for lo, hi in zip(lows, highs)])
        return t_min, t_max

    def distance_range_over_box(self, low, high):
        """Exact (min, max) of dist(x, surface) over boxes [low, high].

        dist = | |x-c| - R | is piecewise monotone in |x-c|, so extremising
        |x-c| over the box and folding by the radius gives closed forms.
        """
        t_min, t_max = self.center_distance_range_over_box(low, high)
        r = self.radius
        d_min = np.maximum(0.0, np.maximum(t_min - r, r - t_max))
        d_max = np.maximum(r - t_min, t_max - r)
        return d_min, d_max

    def cuts_box(self, low, high) -> np.ndarray:
        """True where the closed box [low, high] meets the surface."""
        t_min, t_max = self.center_distance_range_over_box(low, high)
        return (t_min <= self.radius) & (self.radius <= t_max)


@dataclass(frozen=True)
class InterfaceQuadrature:
    """Surface quadrature with per-point owner cells of a background mesh.

    Weights carry the surface measure: their total equals the length/area of
    the surface, and every point lies on the surface and inside the closed
    box of its owner cell.
    """

    points: np.ndarray      # (n, dim), on the surface
    weights: np.ndarray     # (n,), positive
    owner_cell: np.ndarray  # (n,), cell ids of the background mesh

    def total_weight(self) -> float:
        return float(np.sum(self.weights))

    def weight_per_cell(self, n_cells: int) -> np.ndarray:
        """Sum of weights per owner cell (approximates |K ∩ surface|)."""
        return np.bincount(self.owner_cell, weights=self.weights, minlength=n_cells)


def immersed_quadrature(interface: SphericalInterface, mesh) -> InterfaceQuadrature:
    """Surface rule of ``quadrature.surface_rule`` with ``SURFACE_ORDER`` Gauss
    points per piece on every cell of ``mesh`` the surface cuts, which owns the
    points in it.  Raises ValueError if the surface meets no cell."""
    if interface.dim != mesh.dim:
        raise ValueError("interface and mesh dimensions differ")
    lows = mesh.cell_lows
    cut = np.nonzero(interface.cuts_box(lows, lows + mesh.edge))[0]
    if cut.size == 0:
        raise ValueError("surface meets no cell of the mesh")
    parent, points, weights = surface_rule(lows[cut], mesh.edge, interface, SURFACE_ORDER)
    return InterfaceQuadrature(points=points, weights=weights, owner_cell=cut[parent])

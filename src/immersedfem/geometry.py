"""Analytic circle/sphere interfaces immersed in the unit box.

Provides the exact distance-to-surface weight, outward normals, the
inside/outside sign test, and a surface quadrature rule whose pieces are split
at the boundaries of a background grid, so that integrals of piecewise-polynomial
test functions over the surface keep full quadrature accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import gauss_points_1d

#: default number of Gauss points per arc / per patch direction
DEFAULT_SURFACE_ORDER = 4


def _length(vectors) -> np.ndarray:
    """Euclidean length over the last axis: squared components summed in axis
    order, then the root; bitwise equal to ``np.linalg.norm(v, axis=-1)``."""
    squares = vectors[..., 0] ** 2
    for axis in range(1, vectors.shape[-1]):
        squares = squares + vectors[..., axis] ** 2
    return np.sqrt(squares)


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
        if radius <= 0.0:
            raise ValueError(f"radius must be positive, got {radius}")
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
        points = np.asarray(points, dtype=float)
        return np.abs(_length(points - self.center) - self.radius)

    def normal(self, points) -> np.ndarray:
        """Unit outward normal (pointing away from the enclosed region)."""
        points = np.asarray(points, dtype=float)
        r = points - self.center
        rho = _length(r)[..., None]
        if np.any(rho == 0.0):
            raise ValueError("normal direction undefined at the centre")
        return r / rho

    def side(self, points) -> np.ndarray:
        """Vectorised sign test: -1 inside, +1 outside (ties count outside)."""
        points = np.asarray(points, dtype=float)
        return np.where(_length(points - self.center) < self.radius, -1, 1)

    def center_distance_range_over_box(self, low, high):
        """Range of |x - c| over axis-aligned boxes [low, high].

        ``low``/``high`` may be (dim,) or (n, dim); degenerate boxes (faces,
        points) are allowed.  Returns (t_min, t_max).
        """
        low = np.asarray(low, dtype=float)
        high = np.asarray(high, dtype=float)
        nearest = np.clip(self.center, low, high)
        t_min = _length(nearest - self.center)
        t_max = _length(np.maximum(np.abs(low - self.center), np.abs(high - self.center)))
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

    def __len__(self) -> int:
        return self.points.shape[0]

    def total_weight(self) -> float:
        return float(np.sum(self.weights))

    def weight_per_cell(self, n_cells: int) -> np.ndarray:
        """Sum of weights per owner cell (approximates |K ∩ surface|)."""
        return np.bincount(self.owner_cell, weights=self.weights, minlength=n_cells)


def immersed_quadrature(interface: SphericalInterface, mesh, order: int = DEFAULT_SURFACE_ORDER) -> InterfaceQuadrature:
    """Surface rule split at the grid planes of ``mesh``.

    2D: all intersection angles of the circle with the grid lines are found
    in closed form; each resulting arc lies in a single cell and carries a
    Gauss rule with exact arc-length weights.  3D: the (theta, phi) parameter
    rectangle is subdivided until each patch fits in one cell (or a depth
    limit is hit), then a tensor Gauss rule with the exact surface Jacobian
    is laid on every patch.

    Raises ValueError if any quadrature point falls outside the mesh and so
    cannot be assigned an owner cell.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if interface.dim != mesh.dim:
        raise ValueError("interface and mesh dimensions differ")
    if interface.dim == 2:
        points, weights = _circle_rule(interface, mesh.cells_per_axis, order)
    else:
        points, weights = _sphere_rule(interface, mesh.cells_per_axis, order)
    return InterfaceQuadrature(points=points, weights=weights, owner_cell=mesh.locate(points))


def _circle_rule(interface, n_c, order):
    c, r = interface.center, interface.radius
    angles = []
    lines = np.arange(n_c + 1) / n_c
    for axis in range(2):
        t = (lines - c[axis]) / r
        t = t[np.abs(t) <= 1.0]
        if axis == 0:  # cos(theta) = t
            a = np.arccos(t)
            angles.extend(a)
            angles.extend(2.0 * math.pi - a)
        else:  # sin(theta) = t
            a = np.arcsin(t)
            angles.extend(np.mod(a, 2.0 * math.pi))
            angles.extend(np.mod(math.pi - a, 2.0 * math.pi))
    angles = np.sort(np.asarray(angles, dtype=float))
    # merge duplicates (tangencies and corner hits produce repeated angles)
    if angles.size:
        keep = np.concatenate(([True], np.diff(angles) > 1e-12))
        angles = angles[keep]
        if angles.size > 1 and (angles[0] + 2.0 * math.pi) - angles[-1] <= 1e-12:
            angles = angles[:-1]
    if angles.size == 0:
        arcs = [(0.0, 2.0 * math.pi)]
    else:
        arcs = list(zip(angles[:-1], angles[1:]))
        arcs.append((angles[-1], angles[0] + 2.0 * math.pi))
    xi, wq = gauss_points_1d(order)
    pts, wts = [], []
    for a, b in arcs:
        span = b - a
        if span <= 1e-14:
            continue
        theta = a + span * xi
        pts.append(c + r * np.column_stack([np.cos(theta), np.sin(theta)]))
        wts.append(r * span * wq)
    return np.concatenate(pts), np.concatenate(wts)


def _interval_cos_range(a, b):
    """Range of cos over [a, b] (vectorised over patch arrays)."""
    lo = np.minimum(np.cos(a), np.cos(b))
    hi = np.maximum(np.cos(a), np.cos(b))
    # cos attains +1 at multiples of 2*pi, -1 at odd multiples of pi
    k_hi = np.ceil(a / (2.0 * math.pi))
    hi = np.where(2.0 * math.pi * k_hi <= b, 1.0, hi)
    k_lo = np.ceil((a - math.pi) / (2.0 * math.pi))
    lo = np.where(2.0 * math.pi * k_lo + math.pi <= b, -1.0, lo)
    return lo, hi


def _interval_product(alo, ahi, blo, bhi):
    cands = np.stack([alo * blo, alo * bhi, ahi * blo, ahi * bhi])
    return cands.min(axis=0), cands.max(axis=0)


def _sphere_rule(interface, n_c, order, max_depth: int = 12, size_floor: float = 32.0):
    c, r = interface.center, interface.radius
    xi, wq = gauss_points_1d(order)
    edge = 1.0 / n_c

    # patch stack: columns [theta0, theta1, phi0, phi1]
    patches = np.array([[0.0, math.pi, 0.0, 2.0 * math.pi]])
    leaves = []
    for depth in range(max_depth + 1):
        if patches.shape[0] == 0:
            break
        t0, t1, p0, p1 = patches.T
        # coordinate bounds from exact interval arithmetic on the parameterisation
        sin_lo = np.minimum(np.sin(t0), np.sin(t1))
        sin_hi = np.where((t0 <= 0.5 * math.pi) & (0.5 * math.pi <= t1), 1.0,
                          np.maximum(np.sin(t0), np.sin(t1)))
        cos_t_lo, cos_t_hi = np.cos(t1), np.cos(t0)
        cphi_lo, cphi_hi = _interval_cos_range(p0, p1)
        sphi_lo, sphi_hi = _interval_cos_range(p0 - 0.5 * math.pi, p1 - 0.5 * math.pi)
        x_lo, x_hi = _interval_product(sin_lo, sin_hi, cphi_lo, cphi_hi)
        y_lo, y_hi = _interval_product(sin_lo, sin_hi, sphi_lo, sphi_hi)
        lo = c + r * np.column_stack([x_lo, y_lo, cos_t_lo])
        hi = c + r * np.column_stack([x_hi, y_hi, cos_t_hi])
        cell = np.floor(np.clip(lo, 0.0, None) * n_c).astype(int)
        cell = np.minimum(cell, n_c - 1)
        single = np.all(hi <= (cell + 1) / n_c, axis=1) & np.all(lo >= cell / n_c, axis=1)
        # grid planes tangent to the sphere would force every surrounding
        # patch down to max_depth; a patch much smaller than a cell may
        # straddle a cell boundary at negligible quadrature cost, so it
        # becomes a leaf as well
        tiny = ((r * (t1 - t0) <= edge / size_floor)
                & (r * sin_hi * (p1 - p0) <= edge / size_floor))
        done = (single | tiny) if depth < max_depth else np.ones_like(single, dtype=bool)
        if np.any(done):
            leaves.append(patches[done])
        rest = patches[~done]
        if rest.shape[0] == 0:
            patches = rest
            continue
        t0, t1, p0, p1 = rest.T
        tm, pm = 0.5 * (t0 + t1), 0.5 * (p0 + p1)
        patches = np.concatenate([
            np.column_stack([t0, tm, p0, pm]),
            np.column_stack([t0, tm, pm, p1]),
            np.column_stack([tm, t1, p0, pm]),
            np.column_stack([tm, t1, pm, p1]),
        ])

    leaves = np.concatenate(leaves)
    t0, t1, p0, p1 = leaves.T
    theta = t0[:, None] + (t1 - t0)[:, None] * xi[None, :]
    phi = p0[:, None] + (p1 - p0)[:, None] * xi[None, :]
    # tensor rule per patch: (n_patch, order, order)
    st = np.sin(theta)[:, :, None]
    ct = np.cos(theta)[:, :, None]
    cp = np.cos(phi)[:, None, :]
    sp = np.sin(phi)[:, None, :]
    x, y = st * cp, st * sp
    z = np.broadcast_to(ct, x.shape)
    pts = c + r * np.stack([x, y, z], axis=-1).reshape(-1, 3)
    jac = r**2 * st  # surface Jacobian R^2 sin(theta)
    w = (t1 - t0)[:, None, None] * (p1 - p0)[:, None, None] * jac \
        * wq[None, :, None] * wq[None, None, :]
    return pts, w.reshape(-1)

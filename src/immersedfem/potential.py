"""Boundary-integral verification path: Green kernels, single layer
potentials over the interface, and finite-difference checks of the normal
derivative jump.  Used by the test suite only, never in the solve path.
The Green function takes (..., dim) displacement arrays; the density and the
function whose jump is checked are called once on an (n, dim) point array."""

from __future__ import annotations

import math

import numpy as np

from .space import _field_values

#: quadrature sizes: points on the circle / per polar direction
DEFAULT_N_QUAD_2D = 512
DEFAULT_N_QUAD_3D = 64

#: closest admissible evaluation distance for the single layer
MIN_EVAL_DISTANCE = 1e-8


def green(dim: int, r) -> np.ndarray:
    """Free-space Green function of the Laplacian at displacements ``r`` of
    shape (..., dim): -log|r| / (2 pi) in 2D, 1 / (4 pi |r|) in 3D, shape
    (...)."""
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    norm = np.linalg.norm(np.asarray(r, dtype=float), axis=-1)
    if np.any(norm == 0.0):
        raise ValueError("Green function is singular at r = 0")
    if dim == 2:
        return -np.log(norm) / (2.0 * math.pi)
    return 1.0 / (4.0 * math.pi * norm)


def surface_samples(interface, n: int) -> np.ndarray:
    """Deterministic, roughly even sample points on the surface."""
    c, r = interface.center, interface.radius
    if interface.dim == 2:
        theta = 2.0 * math.pi * (np.arange(n) + 0.5) / n + 0.1
        return c + r * np.column_stack([np.cos(theta), np.sin(theta)])
    k = np.arange(n)
    z = 1.0 - 2.0 * (k + 0.5) / n
    phi = k * math.pi * (3.0 - math.sqrt(5.0))  # golden-angle spiral
    s = np.sqrt(1.0 - z**2)
    return c + r * np.column_stack([s * np.cos(phi), s * np.sin(phi), z])


def _surface_rule(interface, n_quad):
    """Quadrature over the whole parameterised surface (no cell splitting)."""
    c, r = interface.center, interface.radius
    if interface.dim == 2:
        theta = 2.0 * math.pi * np.arange(n_quad) / n_quad
        pts = c + r * np.column_stack([np.cos(theta), np.sin(theta)])
        w = np.full(n_quad, 2.0 * math.pi * r / n_quad)
        return pts, w
    # Gauss in cos(theta) removes the polar Jacobian; periodic trapezoid in phi
    u, wu = np.polynomial.legendre.leggauss(n_quad)
    n_phi = 2 * n_quad
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    s = np.sqrt(1.0 - u**2)
    x = s[:, None] * np.cos(phi)[None, :]
    y = s[:, None] * np.sin(phi)[None, :]
    z = np.broadcast_to(u[:, None], x.shape)
    pts = c + r * np.stack([x, y, z], axis=-1).reshape(-1, 3)
    w = (r**2 * (2.0 * math.pi / n_phi) * np.broadcast_to(wu[:, None], x.shape)).reshape(-1)
    return pts, w


def single_layer(interface, f, x) -> float:
    """Single layer potential at ``x``: integral over the surface of
    G(x - y) f(y).  The point must keep some distance from the surface."""
    n_quad = DEFAULT_N_QUAD_2D if interface.dim == 2 else DEFAULT_N_QUAD_3D
    x = np.asarray(x, dtype=float)
    if interface.distance(x) <= MIN_EVAL_DISTANCE:
        raise ValueError("evaluation point too close to the surface")
    pts, w = _surface_rule(interface, n_quad)
    return float(np.sum(w * _field_values(f, pts) * green(interface.dim, x - pts)))


def jump_check(interface, u, f) -> float:
    """Largest mismatch between the measured normal-derivative jump of ``u``
    across the surface and the prescribed density ``f``.

    At each of 32 samples y the one-sided normal derivatives are taken with
    second-order stencils anchored on the surface (u at y, y +/- h nu,
    y +/- 2h nu, h = 1e-4), so the estimates converge to the one-sided limits
    at y itself.  Returns max |(d_nu u+ - d_nu u-) + f(y)|, which vanishes
    for the sign convention under which the layer load reproduces the
    reference solutions."""
    n_samples, fd_step = 32, 1e-4
    samples = surface_samples(interface, n_samples)
    # the five stencil points of every sample, offsets 0, h, -h, 2h, -2h
    offsets = fd_step * np.array([0.0, 1.0, -1.0, 2.0, -2.0])
    stencils = samples + offsets[:, None, None] * interface.normal(samples)
    u0, up1, um1, up2, um2 = _field_values(
        u, stencils.reshape(-1, interface.dim)).reshape(5, n_samples)
    plus = (-3.0 * u0 + 4.0 * up1 - up2) / (2.0 * fd_step)
    minus = (3.0 * u0 - 4.0 * um1 + um2) / (2.0 * fd_step)
    return float(np.max(np.abs(plus - minus + _field_values(f, samples))))

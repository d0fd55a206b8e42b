"""Distance-weighted error norms and empirical convergence orders.

The L2 and H1 errors are weighted by d(x)^(2*alpha) with d the exact distance
to the interface.  Cells farther than one cell width from the interface carry
one tensor rule of degree + EXTRA_POINTS points per axis, on which the shape
functions are tabulated once, in blocks sized by ``quadrature._batch``.
Every other cell carries the height-function rule line by line, one run of
whole lines of at most ``quadrature.BATCH_POINTS`` points at a time
(``quadrature._near_runs``): its pieces never cross the surface and are
graded toward it, where d^(2*alpha) is singular.  On a run the FE function is
evaluated on the face axes once per line, on the height axis per point.  The
exact solution's batched ``evaluate(points)`` is called once per block or run
on its (n, dim) point array and returns the values and the gradients
together; it picks its own branch at each point, which matters only within
rounding of the surface, as the solution is continuous there.  The per-point
arithmetic works on one contiguous column per coordinate or component.  The
weights of every exponent come from one log per point and one exp over an
(exponent, point) buffer, and all the weighted sums of a block or run from
one ``np.einsum`` contraction, which numpy forms itself: through BLAS, a dot
product of more than 10,000 points is threaded and its bits depend on the
thread count.  They add up in one (exponent, 2) array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import _length, _offsets
from .mesh import _check_dim
from .quadrature import _batch, gauss_rule, _near_runs
from .space import FeSpace, _coefficients, _line_sum_factorised


#: Gauss points per axis of the error pass's tensor rule beyond the degree;
#: cells near the surface take twice degree + EXTRA_POINTS per piece
EXTRA_POINTS = 3


def _check_alphas(alphas) -> list:
    """The weight exponents ``alphas`` as floats, -0.0 as 0.0; ValueError for
    anything but a one-dimensional sequence of numbers (a bool, a string or
    None is none), an empty or repeated list and a value outside [0, 1/2),
    NaN included: the height-function rule is converged only for exponents
    in that range."""
    try:
        values = np.asarray(alphas)
    except ValueError:  # a ragged list such as [0.1, [0.2]]
        values = None
    if values is None or values.ndim != 1 or values.dtype.kind not in "iuf":
        raise ValueError(f"alphas must be a sequence of numbers, got {alphas!r}")
    alphas = [float(a) + 0.0 for a in values.tolist()]
    if not alphas:
        raise ValueError("need at least one alpha")
    if not all(0.0 <= a < 0.5 for a in alphas):
        raise ValueError(f"alphas must lie in [0, 1/2), got {alphas}")
    if len(set(alphas)) != len(alphas):
        raise ValueError(f"alphas must be distinct, got {alphas}")
    return alphas


class RadialSolution:
    """The reference problem: the harmonic field -log|x - c| (2D) or
    1/|x - c| (3D) outside the surface and its value on the surface inside,
    whose flux jump across the surface is the constant layer density
    1/R^(dim-1).

    ``evaluate`` takes (n, dim) points; points on the surface take the
    outside branch.  The gradient is zero inside and radial outside.
    ``values`` and ``density`` are fields.
    """

    def __init__(self, interface):
        self.interface = interface
        self.dim = interface.dim
        radius = interface.radius
        self._inner_value = -math.log(radius) if self.dim == 2 else 1.0 / radius

    def evaluate(self, points):
        """Values (n,) and gradients (n, dim) at the (n, dim) ``points``,
        from one offset x - c and one distance |x - c| per point, which also
        gives the side of each point."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        r = _offsets(points, self.interface.center)
        rho = _length(r)
        # the test of ``SphericalInterface.side``
        inner = rho < self.interface.radius
        np.copyto(rho, 1.0, where=inner)
        if self.dim == 2:
            values, slope = -np.log(rho), -1.0 / rho
        else:
            values, slope = 1.0 / rho, -1.0 / rho**2
        np.copyto(values, self._inner_value, where=inner)
        scale = slope / rho
        # one component per row: the (n, dim) result is a transposed view
        grads = np.empty((self.dim, points.shape[0]))
        for k, component in enumerate(r):
            np.multiply(scale, component, out=grads[k])
            np.copyto(grads[k], 0.0, where=inner)
        return values, grads.T

    def values(self, points) -> np.ndarray:
        return self.evaluate(points)[0]

    def density(self, points) -> np.ndarray:
        """The layer density -[grad u . n] at the (n, dim) ``points``."""
        radius = self.interface.radius  # R² by multiplication: a float's ** calls libm pow
        return np.full(np.shape(points)[0], 1.0 / (radius if self.dim == 2 else radius * radius))


def reference_solution(interface) -> RadialSolution:
    """The reference problem on ``interface``."""
    return RadialSolution(interface)


@dataclass
class ConvergenceRecord:
    """Weighted errors of one refinement level at one weight exponent."""

    dim: int
    n_cells_per_axis: int
    h: float
    n_dofs: int
    alpha: float
    err_l2: float
    err_h1_semi: float
    eoc_l2: float | None = None
    eoc_h1: float | None = None


def _cell_batches(space: FeSpace, interface, points, weights, n: int, cells):
    """Quadrature blocks ``(dofs, points, weights, lines)`` over ``cells``,
    every cell for None, of which only those of the surface's bounding box
    widened by one cell width (``Mesh.cells_meeting``) are tested.

    Cells farther than one cell width from the surface come first, in blocks
    of cells sized by ``quadrature._batch``, on the tensor rule ``points``
    (n_q, dim) and ``weights`` (n_q,) of ``n`` points per axis on [0, 1]^dim
    scaled to each cell; ``dofs`` holds the cells' dof rows and ``lines`` is
    None.  The other cells carry the height-function rule with ``2 * n``
    points per piece, as its grading triples the degree of a polynomial
    integrand, one run of whole lines of at most that many points (or one
    line) at a time (``quadrature._near_runs``); ``dofs`` holds the dof row
    of each line's cell and ``lines`` the other ``_line_sum_factorised``
    arguments.
    """
    mesh = space.mesh
    if cells is None:
        pad = interface.radius + mesh.edge
        candidates = mesh.cells_meeting(interface.center - pad, interface.center + pad)
    else:
        candidates = cells
    lows = mesh.cell_lows(candidates)
    d_min, _ = interface.distance_range_over_box(lows, lows + mesh.edge)
    is_near = d_min <= mesh.edge
    near = candidates[is_near]
    # plain cells by position in ``cells`` (the id, for every cell): the
    # p-th follows each near cell with at most p plain cells before it
    skip = (near if cells is None else np.flatnonzero(is_near)) - np.arange(near.size)
    n_plain = (mesh.n_cells if cells is None else cells.size) - near.size
    n_q, dim = points.shape
    step = _batch(n_plain, n_q)
    for start in range(0, n_plain, step):
        block = np.arange(start, min(start + step, n_plain))
        block += np.searchsorted(skip, block, side="right")
        if cells is not None:
            block = cells[block]
        block_lows = mesh.cell_lows(block)
        # one coordinate per row: the (n, dim) points are a transposed view
        pts = np.empty((dim, block.size, n_q))
        for k in range(dim):
            np.add(block_lows[:, k, None], mesh.edge * points[:, k], out=pts[k])
        w = np.tile(weights * mesh.edge ** dim, block.size)
        yield space.cell_dofs(block), pts.reshape(dim, -1).T, w, None
    dofs = space.cell_dofs(near)
    for rows, pts, w, lines in _near_runs(lows[is_near], mesh.edge, interface, 2 * n):
        yield dofs[rows], pts, w, lines


def weighted_errors(space: FeSpace, coeffs, exact, interface, alphas, cell_ids=None) -> dict:
    """Weighted L2 and H1-seminorm errors for several exponents at once.

    Returns {(alpha, m): error} for m in {0, 1}, each alpha in [0, 1/2).
    ``exact.evaluate(points)`` returns the exact values (n,) and gradients
    (n, dim) at an (n, dim) point array, called once per block or run, with
    no side tags.  The quadrature samples and distances are computed once
    and reused across exponents.  ``cell_ids``, distinct integer ids of
    cells of the mesh, restricts the integration to a subset of cells
    (broken norms); other ids raise ValueError, as do an empty or repeated
    list of exponents or one outside [0, 1/2), ``coeffs`` of the wrong
    shape, an interface of another dimension, exact output of another shape
    and errors that are not finite.
    """
    alphas = _check_alphas(alphas)
    mesh = space.mesh
    _check_dim(mesh, interface)
    coeffs = _coefficients(space, coeffs)
    n = space.degree + EXTRA_POINTS
    points, weights = gauss_rule(mesh.dim, n)
    values, grads = space.tabulate(points)
    # (n_loc, n_q * dim): one product gives every reference gradient of a cell
    grads = grads.transpose(1, 0, 2).reshape(grads.shape[1], -1)
    cells = _cell_ids(cell_ids, mesh.n_cells)
    sums = np.zeros((len(alphas), 2))
    for dofs, pts, w, lines in _cell_batches(space, interface, points, weights, n, cells):
        local = coeffs[dofs]
        if lines is None:
            uh = (local @ values.T).ravel()
            guh = (local @ grads).reshape(-1, mesh.dim)
        else:
            uh, guh = _line_sum_factorised(space.degree, local, *lines)
        sums += _weighted_sums(alphas, interface, exact, pts, w, uh, guh / mesh.edge)
    if not np.all(np.isfinite(sums)):
        raise ValueError("weighted errors are not finite: check exact.evaluate and coeffs")
    return {(a, m): math.sqrt(sums[i, m]) for i, a in enumerate(alphas) for m in (0, 1)}


def _cell_ids(cell_ids, n_cells: int) -> np.ndarray:
    """``cell_ids`` as an integer array, None (every cell) for None;
    ValueError unless they are distinct integers in [0, n_cells)."""
    if cell_ids is None:
        return None
    cells = np.asarray(cell_ids)
    if cells.size and (cells.ndim != 1 or not np.issubdtype(cells.dtype, np.integer)
                       or cells.min() < 0 or cells.max() >= n_cells
                       or np.unique(cells).size != cells.size):
        raise ValueError(f"cell_ids must be distinct integers in [0, {n_cells})")
    return cells.reshape(-1).astype(int)


def _weighted_sums(alphas, interface, exact, pts, w, uh, guh):
    """Per alpha, the sums of d^(2 alpha) w e0^2 and d^(2 alpha) w |e1|^2."""
    values, grads = (np.asarray(out, dtype=float) for out in exact.evaluate(pts))
    if values.shape != uh.shape or grads.shape != guh.shape:
        raise ValueError(f"exact.evaluate must return shapes {uh.shape} and {guh.shape}, "
                         f"got {values.shape} and {grads.shape}")
    # rows w e0^2 and w |e1|^2, the squares summed in axis order, as
    # ``geometry._length`` does
    terms = np.empty((2, uh.size))
    e = np.subtract(values, uh)
    np.multiply(w, np.multiply(e, e, out=e), out=terms[0])
    np.subtract(grads[:, 0], guh[:, 0], out=e)
    np.multiply(e, e, out=terms[1])
    for k in range(1, guh.shape[1]):
        np.subtract(grads[:, k], guh[:, k], out=e)
        terms[1] += np.multiply(e, e, out=e)
    terms[1] *= w
    # the sums of every alpha in one contraction, which numpy forms itself, not BLAS
    return np.einsum("kn,mn->km", _distance_weights(interface.distance(pts), alphas), terms)


def _distance_weights(d, alphas):
    """The weights d^(2 alpha), one row per alpha of ``alphas``, each in
    [0, 1/2): 1 for alpha = 0, d = 0 included; for alpha > 0, 0 where d
    rounds to zero (only at pieces of rounding size), the limit of
    d^(2 alpha) at d = 0.

    ``d`` is overwritten with log d, taken once per point; the weights are
    exp(2 alpha log d), from one exp over the (len(alphas), n) buffer."""
    zero = d == 0.0
    powers = 2.0 * np.asarray(alphas, dtype=float)
    weights = np.multiply.outer(powers, np.log(d, out=d, where=~zero))
    np.exp(weights, out=weights)
    weights[np.ix_(powers > 0.0, zero)] = 0.0
    return weights


def eoc(errors) -> list:
    """Empirical convergence orders from (h, error) pairs under halving.

    The mesh sizes must halve exactly from one entry to the next; the rate
    between levels k-1 and k is log2(e_{k-1} / e_k), or None when either
    error vanishes.  A mesh size that is not finite and positive, or an
    error that is negative or not finite, raises ValueError."""
    pairs = list(errors)
    if len(pairs) < 1:
        raise ValueError("need at least one (h, error) pair")
    hs = [float(h) for h, _ in pairs]
    es = [float(e) for _, e in pairs]
    if not all(0.0 < h < math.inf for h in hs):
        raise ValueError(f"mesh sizes must be finite and positive, got {hs}")
    if not all(0.0 <= e < math.inf for e in es):
        raise ValueError(f"errors must be finite and non-negative, got {es}")
    for coarse, fine in zip(hs[:-1], hs[1:]):
        if abs(2.0 * fine - coarse) > 1e-9 * coarse:
            raise ValueError(f"mesh sizes do not halve: {coarse} -> {fine}")
    rates = []
    for e_coarse, e_fine in zip(es[:-1], es[1:]):
        if e_coarse == 0.0 or e_fine == 0.0:
            rates.append(None)
        else:
            rates.append(math.log2(e_coarse / e_fine))
    return rates

"""Distance-weighted error norms and empirical convergence orders.

The L2 and H1 errors are weighted by d(x)^(2*alpha) with d the exact distance
to the interface.  Cells farther than one cell width from the interface carry
one tensor rule of degree + EXTRA_POINTS points per axis, on which the shape
functions are tabulated once.  Every other cell carries the height-function
rule line by line (``quadrature._line_rule``, the lines of
``split_cut_cell``): its pieces never cross the surface and carry a side
tag, so the piecewise exact solution is always evaluated on a single branch
per quadrature point, and they are graded toward the surface, where
d^(2*alpha) is singular.  The height boxes of these cells are found once
per call, and the rule is built on blocks of consecutive boxes, as many as a
plain rule with the same points per piece fits in ``BATCH_POINTS``.  There
the FE function is evaluated in runs of whole lines: the face axes once per
line of the rule, the height axis per point.  The exact solution's batched
``values(points, side)`` and ``gradients(points, side)`` are called once per
block or run on its (n, dim) point array; the per-point arithmetic works on
one contiguous column per coordinate or component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import _length, _offsets
from .mesh import Mesh, CellClassification
from .quadrature import gauss_rule, _height_boxes, _line_rule, _unpermute
from .space import FeSpace, _line_sum_factorised


#: Gauss points per axis of the error pass's tensor rule beyond the degree;
#: cells near the surface take twice degree + EXTRA_POINTS per piece
EXTRA_POINTS = 3
#: points per block of the error pass away from the surface and per run of
#: whole lines near it, which bounds the arrays of the FE and exact
#: evaluations; near it the height-function rule is built for
#: BATCH_POINTS // (points per piece)^dim height boxes at a time, so a
#: block's rule exceeds BATCH_POINTS only by the pieces its lines are split
#: into, not by the boxes of the level
BATCH_POINTS = 32768


def _check_alpha(alpha: float) -> None:
    if not -0.5 < alpha < 0.5:
        raise ValueError(f"alpha must lie in (-1/2, 1/2), got {alpha}")


class RadialSolution:
    """Piecewise field: constant inside the surface, radial outside.

    ``outer_value``/``outer_slope`` are vectorised functions of the distance
    to the centre; the gradient is zero inside and radial outside.  Values
    of the two branches agree on the surface, so the field is continuous.
    ``values``/``gradients`` take (n, dim) points and optional side tags;
    without tags, points on the surface take the outside branch.
    """

    def __init__(self, interface, outer_value, outer_slope, inner_value: float):
        self.interface = interface
        self.dim = interface.dim
        self._outer_value = outer_value
        self._outer_slope = outer_slope
        self._inner_value = float(inner_value)

    def values(self, points, side=None) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        outer = self._outer_mask(points, side)
        rho = np.where(outer, _length(_offsets(points, self.interface.center)), 1.0)
        return np.where(outer, self._outer_value(rho), self._inner_value)

    def gradients(self, points, side=None) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        outer = self._outer_mask(points, side)
        r = _offsets(points, self.interface.center)
        rho = np.where(outer, _length(r), 1.0)
        scale = self._outer_slope(rho) / rho
        inner = ~outer
        # one component per row: the (n, dim) result is a transposed view
        grads = np.empty((self.dim, points.shape[0]))
        for k, component in enumerate(r):
            np.multiply(scale, component, out=grads[k])
            np.copyto(grads[k], 0.0, where=inner)
        return grads.T

    def _outer_mask(self, points, side):
        if side is None:
            side = self.interface.side(points)
        side = np.broadcast_to(np.asarray(side), (points.shape[0],))
        return side > 0


def reference_solution(interface) -> RadialSolution:
    """The harmonic validation fields: -log|r| outside a circle (constant
    -log R inside), 1/|r| outside a sphere (constant 1/R inside)."""
    radius = interface.radius
    if interface.dim == 2:
        return RadialSolution(interface,
                              outer_value=lambda rho: -np.log(rho),
                              outer_slope=lambda rho: -1.0 / rho,
                              inner_value=-math.log(radius))
    return RadialSolution(interface,
                          outer_value=lambda rho: 1.0 / rho,
                          outer_slope=lambda rho: -1.0 / rho**2,
                          inner_value=1.0 / radius)


def layer_source_strength(interface) -> float:
    """Constant flux-jump density reproducing the reference solution."""
    return 1.0 / interface.radius ** (interface.dim - 1)


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


def _cell_batches(mesh: Mesh, interface, rule, cells):
    """Quadrature blocks ``(owners, points, weights, sides, lines)`` over ``cells``.

    Cells farther than one cell width from the surface come first, in blocks
    of at most ``BATCH_POINTS`` points (or one cell) on ``rule`` with the side
    of their centre; ``owners`` lists the cells and ``lines`` is None.  The
    other cells carry the height-function rule with twice the rule's points
    per piece, as its grading triples the degree of a polynomial integrand.
    Their height boxes are found once, and the rule is built for as many
    consecutive boxes at a time as a plain rule with that many points fits
    in ``BATCH_POINTS``, so a cell's boxes may fall into two blocks; it is
    handed on in runs of whole lines of at most ``BATCH_POINTS`` points (or
    one line); ``owners`` names each line's cell and ``lines`` the other
    ``_line_sum_factorised`` arguments.
    """
    low = mesh.cell_lows[cells]
    d_min, _ = interface.distance_range_over_box(low, low + mesh.edge)
    near = d_min <= mesh.edge
    plain = cells[~near]
    step = max(1, BATCH_POINTS // rule.n_points)
    for start in range(0, plain.size, step):
        block = plain[start:start + step]
        lows = mesh.cell_lows[block]
        pts, w = rule.on_boxes(lows, mesh.edge)
        sides = np.repeat(interface.side(lows + 0.5 * mesh.edge), rule.n_points)
        yield block, pts, w, sides, None
    near = cells[near]
    if not near.size:
        return
    boxes = _height_boxes(mesh.cell_lows[near], mesh.edge, interface)
    points = 2 * rule.points_per_axis
    step = max(1, BATCH_POINTS // points ** mesh.dim)
    for start in range(0, boxes[0].size, step):
        parent, frame, x, line, t, w, sides = _line_rule(
            tuple(b[start:start + step] for b in boxes), interface, points)
        owners = near[parent]
        lows = np.take_along_axis(mesh.cell_lows[owners], frame, axis=1)
        face_ref = (x - lows[:, :-1]) / mesh.edge
        # the first point of every line, and one past the last
        bounds = np.searchsorted(line, np.arange(owners.size + 1))
        first = 0
        while first < owners.size:
            last = max(first + 1, np.searchsorted(bounds, bounds[first] + BATCH_POINTS,
                                                  side="right") - 1)
            part, lines = slice(bounds[first], bounds[last]), slice(first, last)
            on = line[part] - first
            t_ref = (t[part] - lows[line[part], -1]) / mesh.edge
            yield (owners[lines], _unpermute(x[lines], frame[lines], on, t[part]), w[part],
                   sides[part], (frame[lines], face_ref[lines], on, t_ref))
            first = last


def weighted_errors(space: FeSpace, coeffs, exact, interface, alphas, cell_ids=None) -> dict:
    """Weighted L2 and H1-seminorm errors for several exponents at once.

    Returns {(alpha, m): error} for m in {0, 1}, each alpha in (-1/2, 1/2).
    The quadrature samples and distances are computed once and reused across
    exponents.  ``cell_ids``, distinct integer ids of cells of the mesh,
    restricts the integration to a subset of cells (broken norms); other
    ids raise ValueError, as do ``coeffs`` of the wrong shape and an
    interface of another dimension than the mesh.
    """
    alphas = [float(a) for a in alphas]
    for a in alphas:
        _check_alpha(a)
    mesh = space.mesh
    if interface.dim != mesh.dim:
        raise ValueError("interface and mesh dimensions differ")
    coeffs = _coefficients(space, coeffs)
    rule = gauss_rule(mesh.dim, space.degree + EXTRA_POINTS)
    values, grads = space.tabulate(rule.points)
    # (n_loc, n_q * dim): one product gives every reference gradient of a cell
    grads = grads.transpose(1, 0, 2).reshape(grads.shape[1], -1)
    cells = _cell_ids(cell_ids, mesh.n_cells)
    acc = {(a, m): 0.0 for a in alphas for m in (0, 1)}
    for owners, pts, w, sides, lines in _cell_batches(mesh, interface, rule, cells):
        local = coeffs[space.cell_dofs[owners]]
        if lines is None:
            uh = (local @ values.T).ravel()
            guh = ((local @ grads) / mesh.edge).reshape(-1, mesh.dim)
        else:
            uh, guh = _line_sum_factorised(space.degree, local, *lines)
            guh = guh / mesh.edge
        _accumulate(acc, alphas, interface, exact, pts, w, sides, uh, guh)
    return {key: math.sqrt(value) for key, value in acc.items()}


def _coefficients(space: FeSpace, coeffs) -> np.ndarray:
    """``coeffs`` as a float array; ValueError unless it has one entry per dof."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (space.n_dofs,):
        raise ValueError(f"coeffs must have shape ({space.n_dofs},), got {coeffs.shape}")
    return coeffs


def _cell_ids(cell_ids, n_cells: int) -> np.ndarray:
    """``cell_ids`` as an integer array, every cell for None; ValueError
    unless they are distinct integers in [0, n_cells)."""
    if cell_ids is None:
        return np.arange(n_cells)
    cells = np.asarray(cell_ids)
    if cells.size and (cells.ndim != 1 or not np.issubdtype(cells.dtype, np.integer)
                       or cells.min() < 0 or cells.max() >= n_cells
                       or np.unique(cells).size != cells.size):
        raise ValueError(f"cell_ids must be distinct integers in [0, {n_cells})")
    return cells.reshape(-1).astype(int)


def _accumulate(acc, alphas, interface, exact, pts, w, side, uh, guh):
    e0 = exact.values(pts, side=side) - uh
    grads = exact.gradients(pts, side=side)
    e1 = [grads[:, k] - guh[:, k] for k in range(guh.shape[1])]
    we0 = w * e0**2
    # squares summed in axis order, as ``geometry._length`` does
    we1 = w * sum((e ** 2 for e in e1[1:]), e1[0] ** 2)
    for a, weight in _distance_weights(interface.distance(pts), alphas):
        acc[(a, 0)] += float(np.sum(we0 * weight))
        acc[(a, 1)] += float(np.sum(we1 * weight))


def _distance_weights(d, alphas):
    """``(alpha, d^(2 alpha))`` per alpha: 1 at alpha = 0, and 0 where d
    rounds to zero (only at pieces of rounding size) for every other alpha.

    ``d`` is overwritten with log d, taken once per point; every weight is
    exp(2 alpha log d) in one buffer, overwritten by the next alpha."""
    zero = np.flatnonzero(d == 0.0)
    log_d = np.log(d, out=d, where=d > 0.0)
    weight = np.empty_like(d)
    for a in alphas:
        if a == 0.0:
            yield a, 1.0
            continue
        np.exp(np.multiply(log_d, 2.0 * a, out=weight), out=weight)
        weight[zero] = 0.0
        yield a, weight


def discrete_norm(space: FeSpace, coeffs, classification: CellClassification,
                  alpha: float) -> float:
    """Cellwise weighted norm: sum over cells of dist_max^(2*alpha) times the
    squared L2 norm of the FE function on the cell.

    At alpha = 0 this is the plain L2 norm (0^0 counts as 1); cells sitting
    on the surface contribute nothing when alpha > 0.  ``coeffs`` of the
    wrong shape raise ValueError."""
    _check_alpha(alpha)
    mesh = space.mesh
    rule = gauss_rule(mesh.dim, space.degree + 2)
    values_tab, _ = space.tabulate(rule.points)
    local = _coefficients(space, coeffs)[space.cell_dofs]
    uh = local @ values_tab.T  # (n_cells, n_q)
    cell_sq = mesh.edge ** mesh.dim * (uh**2 @ rule.weights)
    return math.sqrt(float(np.sum(np.power(classification.dist_max, 2.0 * alpha) * cell_sq)))


def eoc(errors) -> list:
    """Empirical convergence orders from (h, error) pairs under halving.

    The mesh sizes must halve exactly from one entry to the next; the rate
    between levels k-1 and k is log2(e_{k-1} / e_k), or None when either
    error vanishes."""
    pairs = list(errors)
    if len(pairs) < 1:
        raise ValueError("need at least one (h, error) pair")
    hs = [float(h) for h, _ in pairs]
    es = [float(e) for _, e in pairs]
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

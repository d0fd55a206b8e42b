"""Distance-weighted error norms and empirical convergence orders.

The L2 and H1 errors are weighted by d(x)^(2*alpha) with d the exact distance
to the interface.  They are integrated over boxes that all carry one tensor
rule: every cell the interface misses is a box, and every cell it crosses is
bisected into sub-boxes that carry a side tag, so the piecewise exact solution
is always evaluated on a single branch per quadrature point.  On a sub-box the
FE function is the cell polynomial restricted to it, so the shape functions
are tabulated once, on the reference rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import _length
from .mesh import Mesh, CellClassification
from .quadrature import gauss_rule, split_cut_cell
from .space import FeSpace


#: boxes per quadrature batch of the error pass; bounds the number of points,
#: and so the memory, one batch holds on fine grids
PLAIN_BATCH_CELLS = 4096


def default_cut_depth(dim: int) -> int:
    # bisecting a cut cell costs O(2^((dim-1)*depth)) leaves, so 3D uses a
    # shallower default; the mis-attributed sliver shrinks like 2^-depth and
    # scales with the same power of h as the layer error itself
    return 6 if dim == 2 else 4


def default_norm_points(degree: int) -> int:
    return degree + 3


def _check_alpha(alpha: float) -> None:
    if not -0.5 < alpha < 0.5:
        raise ValueError(f"alpha must lie in (-1/2, 1/2), got {alpha}")


class RadialSolution:
    """Piecewise field: constant inside the surface, radial outside.

    ``outer_value``/``outer_slope`` are vectorised functions of the distance
    to the centre; the gradient is zero inside and radial outside.  Values
    of the two branches agree on the surface, so the field is continuous.
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
        rho = _length(points - self.interface.center)
        out = np.full(points.shape[0], self._inner_value)
        out[outer] = self._outer_value(rho[outer])
        return out

    def gradients(self, points, side=None) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        outer = self._outer_mask(points, side)
        r = points - self.interface.center
        rho = _length(r)
        grad = np.zeros_like(points)
        grad[outer] = (self._outer_slope(rho[outer]) / rho[outer])[:, None] * r[outer]
        return grad

    def _outer_mask(self, points, side):
        if side is None:
            side = self.interface.side(points)
        side = np.broadcast_to(np.asarray(side), (points.shape[0],))
        return side > 0

    def value(self, x) -> float:
        """Pointwise value; points on the surface take the outside branch."""
        return float(self.values(np.asarray(x, dtype=float)[None, :])[0])

    def gradient(self, x) -> np.ndarray:
        return self.gradients(np.asarray(x, dtype=float)[None, :])[0]


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


def _cell_batches(mesh: Mesh, interface, rule, cut_depth: int | None, cells):
    """Integration boxes ``(cells, lows, sizes, sides)`` over ``cells``.

    Every entry is one box: its cell, low corner, edge length and side tag.
    All boxes carry ``rule`` scaled to the box, so its points are
    ``low + size * rule.points``.  Cells the surface misses come first, each
    a box of edge ``mesh.edge`` with the side of its centre; then the leaves
    of every cut cell, split together by one ``split_cut_cell`` call.  Both
    come in blocks of at most ``PLAIN_BATCH_CELLS`` boxes.
    """
    if cut_depth is None:
        cut_depth = default_cut_depth(mesh.dim)
    low = mesh.cell_lows[cells]
    cut = interface.cuts_box(low, low + mesh.edge)
    plain = cells[~cut]
    for start in range(0, plain.size, PLAIN_BATCH_CELLS):
        block = plain[start:start + PLAIN_BATCH_CELLS]
        lows = mesh.cell_lows[block]
        yield (block, lows, np.full(block.size, mesh.edge),
               interface.side(lows + 0.5 * mesh.edge))
    if not np.any(cut):
        return
    split = split_cut_cell(low[cut], mesh.edge, interface, rule, cut_depth)
    owners = cells[cut][split.parent]
    for start in range(0, split.n_leaves, PLAIN_BATCH_CELLS):
        block = slice(start, start + PLAIN_BATCH_CELLS)
        yield owners[block], split.lows[block], split.sizes[block], split.sides[block]


def weighted_errors(space: FeSpace, coeffs, exact, interface, alphas,
                    quad_points: int | None = None, cut_depth: int | None = None,
                    cell_ids=None) -> dict:
    """Weighted L2 and H1-seminorm errors for several exponents at once.

    Returns {(alpha, m): error} for m in {0, 1}, each alpha in (-1/2, 1/2).
    The quadrature samples and distances are computed once and reused across
    exponents.  ``cell_ids`` restricts the integration to a subset of cells
    (broken norms).
    """
    alphas = [float(a) for a in alphas]
    for a in alphas:
        _check_alpha(a)
    mesh = space.mesh
    coeffs = np.asarray(coeffs, dtype=float)
    q = quad_points if quad_points is not None else default_norm_points(space.degree)
    rule = gauss_rule(mesh.dim, q)
    values, grads = space.tabulate(rule.points)
    # (n_loc, n_q * dim): one product gives every reference gradient of a box
    grads = grads.transpose(1, 0, 2).reshape(grads.shape[1], -1)
    cells = np.arange(mesh.n_cells) if cell_ids is None else np.asarray(cell_ids, dtype=int)
    acc = {(a, m): 0.0 for a in alphas for m in (0, 1)}
    for batch, lows, sizes, side in _cell_batches(mesh, interface, rule, cut_depth, cells):
        pts, w = rule.on_boxes(lows, sizes)
        local = coeffs[space.cell_dofs[batch]]
        if np.any(sizes != mesh.edge):
            local = space.restrict(local, (lows - mesh.cell_lows[batch]) / mesh.edge,
                                   sizes / mesh.edge)
        uh = (local @ values.T).ravel()
        guh = ((local @ grads) / sizes[:, None]).reshape(-1, mesh.dim)
        _accumulate(acc, alphas, interface, exact, pts, w, np.repeat(side, rule.n_points),
                    uh, guh)
    return {key: math.sqrt(value) for key, value in acc.items()}


def _accumulate(acc, alphas, interface, exact, pts, w, side, uh, guh):
    e0 = exact.values(pts, side=side) - uh
    e1 = exact.gradients(pts, side=side) - guh
    we0 = w * e0**2
    we1 = w * np.sum(e1**2, axis=-1)
    d = interface.distance(pts)
    for a in alphas:
        weight = np.power(d, 2.0 * a) if a != 0.0 else 1.0
        acc[(a, 0)] += float(np.sum(we0 * weight))
        acc[(a, 1)] += float(np.sum(we1 * weight))


def weight_integral(interface, alpha: float, mesh: Mesh,
                    quad_points: int = 4, cut_depth: int | None = None) -> float:
    """Integral of the weight d(x)^(2*alpha) over the unit box (diagnostic)."""
    if 2.0 * alpha <= -1.0:
        raise ValueError(f"weight exponent 2*alpha must exceed -1, got {2 * alpha}")
    rule = gauss_rule(mesh.dim, quad_points)
    total = 0.0
    for _, lows, sizes, _ in _cell_batches(mesh, interface, rule, cut_depth,
                                           np.arange(mesh.n_cells)):
        pts, w = rule.on_boxes(lows, sizes)
        total += float(np.sum(w * np.power(interface.distance(pts), 2.0 * alpha)))
    return total


def discrete_norm(space: FeSpace, coeffs, classification: CellClassification,
                  alpha: float) -> float:
    """Cellwise weighted norm: sum over cells of dist_max^(2*alpha) times the
    squared L2 norm of the FE function on the cell.

    At alpha = 0 this is the plain L2 norm (0^0 counts as 1); cells sitting
    on the surface contribute nothing when alpha > 0."""
    _check_alpha(alpha)
    mesh = space.mesh
    rule = gauss_rule(mesh.dim, space.degree + 2)
    values_tab, _ = space.tabulate(rule.points)
    local = np.asarray(coeffs, dtype=float)[space.cell_dofs]
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

"""Layer devices of the analysis, used by acceptance criteria 6, 7a and 7b:
the mask of the cells in the interface layer, the interpolant that zeroes
every degree of freedom trapped inside it, and the weighted norm frozen per
cell.  The package's study never uses them.  Each takes the interface it is
built from, not a precomputed layer, so a layer of another mesh cannot reach
them."""

from __future__ import annotations

import math

import numpy as np

from immersedfem.quadrature import gauss_rule
from immersedfem.mesh import _check_dim
from immersedfem.norms import _check_alphas
from immersedfem.space import _coefficients, _field_values


def classify_cells(mesh, interface, sigma: float) -> np.ndarray:
    """Boolean mask, shape (n_cells,), of the cells in the interface layer:
    those whose maximum of dist(x, surface) is at most sigma * h_cell.

    The per-cell maximum is closed-form (box extremisation of |x - c| folded
    by the radius, ``interface.distance_range_over_box``), so the split is
    exact.  A sigma that is not positive and finite raises ValueError.
    """
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    _check_dim(mesh, interface)
    lows = mesh.cell_lows(np.arange(mesh.n_cells))
    _, d_max = interface.distance_range_over_box(lows, lows + mesh.edge)
    return d_max <= sigma * mesh.h_cell


def interpolate_outside_layer(space, interface, sigma: float, g) -> np.ndarray:
    """Nodal interpolation with the dofs of the layer
    ``classify_cells(space.mesh, interface, sigma)`` set to zero.

    A dof survives iff it is a node of at least one cell outside the layer;
    dofs all of whose adjacent cells sit in the layer are zeroed, and g is
    called on the surviving dofs only.
    """
    keep = np.zeros(space.n_dofs, dtype=bool)
    keep[space.cell_dofs(np.flatnonzero(~classify_cells(space.mesh, interface, sigma)))] = True
    coeffs = np.zeros(space.n_dofs)
    coeffs[keep] = _field_values(g, space.dof_coords(np.flatnonzero(keep)))
    return coeffs


def discrete_norm(space, coeffs, interface, alpha: float) -> float:
    """Cellwise weighted norm: sum over cells of dist_max^(2*alpha) times the
    squared L2 norm of the FE function on the cell, dist_max being the
    cell's maximum distance to ``interface``.

    At alpha = 0 this is the plain L2 norm (0^0 counts as 1); cells sitting
    on the surface contribute nothing when alpha > 0.  An exponent outside
    [0, 1/2), ``coeffs`` of the wrong shape and an interface of another
    dimension raise ValueError."""
    [alpha] = _check_alphas([alpha])
    mesh = space.mesh
    _check_dim(mesh, interface)
    points, weights = gauss_rule(mesh.dim, space.degree + 2)
    values_tab, _ = space.tabulate(points)
    cells = np.arange(mesh.n_cells)
    local = _coefficients(space, coeffs)[space.cell_dofs(cells)]
    uh = local @ values_tab.T  # (n_cells, n_q)
    cell_sq = mesh.edge ** mesh.dim * (uh**2 @ weights)
    lows = mesh.cell_lows(cells)
    _, dist_max = interface.distance_range_over_box(lows, lows + mesh.edge)
    return math.sqrt(float(np.sum(np.power(dist_max, 2.0 * alpha) * cell_sq)))

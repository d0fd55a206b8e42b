"""Load vectors of the Poisson problem: volume sources and the surface layer
source that carries the flux-jump data.  The stiffness operator and the
Dirichlet data are the solver's (``solver.solve``).

Every scatter is one ``np.bincount`` over the cells' local vectors in
ascending cell-id order, so serial assembly is bitwise deterministic.
"""

from __future__ import annotations

import numpy as np

from .geometry import InterfaceQuadrature
from .mesh import BOX_TOL
from .quadrature import gauss_rule
from .space import FeSpace, _field_values


def assemble_volume_load(space: FeSpace, b) -> np.ndarray:
    """Load vector of the volume source: entry i = integral of b * phi_i,
    with degree + 2 Gauss points per axis; b is called once on all of them."""
    mesh = space.mesh
    rule = gauss_rule(mesh.dim, space.degree + 2)
    values, _ = space.tabulate(rule.points)  # (n_q, n_loc)
    pts = mesh.cell_lows[:, None, :] + mesh.edge * rule.points[None, :, :]
    bvals = _field_values(b, pts.reshape(-1, mesh.dim)).reshape(mesh.n_cells, -1)
    local = mesh.edge ** mesh.dim * (bvals * rule.weights) @ values
    return np.bincount(space.cell_dofs.ravel(), weights=local.ravel(), minlength=space.n_dofs)


def assemble_interface_load(space: FeSpace, quadrature: InterfaceQuadrature, f) -> np.ndarray:
    """Load vector of the surface layer source: entry i = sum over surface
    quadrature of w * f(y) * phi_i(y), accumulated through owner cells.

    The density ``f`` is called once, on the (n, dim) array of quadrature
    points (see ``space._field_values``).  Nonzero entries appear only at
    dofs of cells met by the surface."""
    mesh = space.mesh
    pts, w, owners = quadrature.points, quadrature.weights, quadrature.owner_cell
    low = mesh.cell_lows[owners]
    inside = (np.all(pts >= low - BOX_TOL, axis=1)
              & np.all(pts <= low + mesh.edge + BOX_TOL, axis=1))
    if not np.all(inside):
        raise ValueError("surface quadrature point lies outside its owner cell")
    fvals = _field_values(f, pts)
    if owners.size == 0:
        return np.zeros(space.n_dofs)
    # one tabulation of every point; each cell sums its points, sorted by owner
    order = np.argsort(owners, kind="stable")
    cells, starts = np.unique(owners[order], return_index=True)
    values = space.tabulate((pts[order] - low[order]) / mesh.edge)[0]  # (n, n_loc)
    values *= (w * fvals)[order, None]
    local = np.add.reduceat(values, starts, axis=0)
    return np.bincount(space.cell_dofs[cells].ravel(), weights=local.ravel(),
                       minlength=space.n_dofs)

"""Assembly of the Poisson stiffness form, volume loads, the surface layer
load that carries the flux-jump data, and symmetric Dirichlet elimination.

Every scatter adds cell contributions in ascending cell-id order, so serial
assembly is bitwise deterministic.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .geometry import InterfaceQuadrature
from .mesh import BOX_TOL
from .quadrature import gauss_rule
from .space import FeSpace, _field_values

#: surface quadrature points the interface load tabulates at once (more only
#: when one cell holds more); bounds the memory of its shape tables
LOAD_CHUNK_POINTS = 16384


def assemble_stiffness(space: FeSpace) -> sp.csr_matrix:
    """Stiffness matrix of the gradient form on the whole grid.

    All cells are congruent, so one reference element matrix is computed
    with degree + 2 Gauss points per axis and scattered; the result is
    symmetric positive semidefinite with the constants in its kernel (rows
    sum to zero).
    """
    mesh = space.mesh
    rule = gauss_rule(mesh.dim, space.degree + 2)
    _, grads = space.tabulate(rule.points)  # (n_q, n_loc, dim)
    element = np.einsum("q,qid,qjd->ij", rule.weights, grads, grads)
    element = 0.5 * (element + element.T) * mesh.edge ** (mesh.dim - 2)
    n_loc = element.shape[0]
    rows = np.repeat(space.cell_dofs, n_loc, axis=1).ravel()
    cols = np.tile(space.cell_dofs, (1, n_loc)).ravel()
    data = np.tile(element.ravel(), mesh.n_cells)
    matrix = sp.coo_matrix((data, (rows, cols)), shape=(space.n_dofs, space.n_dofs))
    return matrix.tocsr()


def assemble_volume_load(space: FeSpace, b) -> np.ndarray:
    """Load vector of the volume source: entry i = integral of b * phi_i,
    with degree + 2 Gauss points per axis; b is called once on all of them."""
    mesh = space.mesh
    rule = gauss_rule(mesh.dim, space.degree + 2)
    values, _ = space.tabulate(rule.points)  # (n_q, n_loc)
    pts = mesh.cell_lows[:, None, :] + mesh.edge * rule.points[None, :, :]
    bvals = _field_values(b, pts.reshape(-1, mesh.dim)).reshape(mesh.n_cells, -1)
    local = mesh.edge ** mesh.dim * (bvals * rule.weights) @ values
    out = np.zeros(space.n_dofs)
    np.add.at(out, space.cell_dofs, local)
    return out


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
    # cells with the same number of points are summed together, with the
    # same matrix product per cell as a cell-by-cell loop, so the load keeps
    # its bits; one scatter then adds the cells in ascending order
    order = np.argsort(owners, kind="stable")
    cells, starts, counts = np.unique(owners[order], return_index=True, return_counts=True)
    scaled = w * fvals
    local = np.empty((cells.size, space.cell_dofs.shape[1]))
    for k in np.unique(counts):
        same = np.nonzero(counts == k)[0]
        step = max(1, LOAD_CHUNK_POINTS // k)
        for first in range(0, same.size, step):
            group = same[first:first + step]
            idx = order[starts[group][:, None] + np.arange(k)]  # (cells, k) point ids
            values, _ = space.tabulate((pts[idx] - low[idx]) / mesh.edge)
            local[group] = (scaled[idx][:, None, :] @ values)[:, 0]
    return np.bincount(space.cell_dofs[cells].ravel(), weights=local.ravel(),
                       minlength=space.n_dofs)


def apply_dirichlet(matrix: sp.csr_matrix, rhs: np.ndarray, space: FeSpace, g):
    """Impose u = g on the boundary dofs by symmetric elimination.

    Boundary values are nodal interpolants of g, called once on the boundary
    dof coordinates; their columns move to the right-hand side and the
    boundary rows/columns become identity, keeping the matrix symmetric
    positive definite.  Inputs are not modified.
    """
    boundary = space.boundary_dofs
    lifted = np.zeros(space.n_dofs)
    lifted[boundary] = _field_values(g, space.dof_coords[boundary])
    keep = np.ones(space.n_dofs)
    keep[boundary] = 0.0
    keep_diag = sp.diags(keep)
    eliminated = keep_diag @ matrix @ keep_diag + sp.diags(1.0 - keep)
    new_rhs = keep * (rhs - matrix @ lifted) + (1.0 - keep) * lifted
    return eliminated.tocsr(), new_rhs

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
from .quadrature import CellQuadrature, gauss_rule
from .space import FeSpace

#: surface quadrature points the interface load tabulates at once (more only
#: when one cell holds more); bounds the memory of its shape tables
LOAD_CHUNK_POINTS = 16384


def default_assembly_rule(space: FeSpace) -> CellQuadrature:
    return gauss_rule(space.mesh.dim, space.degree + 2)


def assemble_stiffness(space: FeSpace, cell_rule: CellQuadrature | None = None) -> sp.csr_matrix:
    """Stiffness matrix of the gradient form on the whole grid.

    All cells are congruent, so one reference element matrix is computed and
    scattered; the result is symmetric positive semidefinite with the
    constants in its kernel (rows sum to zero).  The rule must integrate
    degree 2*degree - 1 per axis exactly.
    """
    if cell_rule is None:
        cell_rule = default_assembly_rule(space)
    if cell_rule.points_per_axis < space.degree:
        raise ValueError(
            f"rule with {cell_rule.points_per_axis} points per axis is not exact "
            f"for the degree-{space.degree} stiffness integrand"
        )
    mesh = space.mesh
    _, grads = space.tabulate(cell_rule.points)  # (n_q, n_loc, dim)
    element = np.einsum("q,qid,qjd->ij", cell_rule.weights, grads, grads)
    element = 0.5 * (element + element.T) * mesh.edge ** (mesh.dim - 2)
    n_loc = element.shape[0]
    rows = np.repeat(space.cell_dofs, n_loc, axis=1).ravel()
    cols = np.tile(space.cell_dofs, (1, n_loc)).ravel()
    data = np.tile(element.ravel(), mesh.n_cells)
    matrix = sp.coo_matrix((data, (rows, cols)), shape=(space.n_dofs, space.n_dofs))
    return matrix.tocsr()


def assemble_volume_load(space: FeSpace, b, cell_rule: CellQuadrature | None = None) -> np.ndarray:
    """Load vector of the volume source: entry i = integral of b * phi_i."""
    if cell_rule is None:
        cell_rule = default_assembly_rule(space)
    mesh = space.mesh
    values, _ = space.tabulate(cell_rule.points)  # (n_q, n_loc)
    pts = mesh.cell_lows[:, None, :] + mesh.edge * cell_rule.points[None, :, :]
    bvals = np.array([b(x) for x in pts.reshape(-1, mesh.dim)], dtype=float)
    bvals = bvals.reshape(mesh.n_cells, -1)
    local = mesh.edge ** mesh.dim * (bvals * cell_rule.weights) @ values
    out = np.zeros(space.n_dofs)
    np.add.at(out, space.cell_dofs, local)
    return out


def assemble_interface_load(space: FeSpace, quadrature: InterfaceQuadrature, f) -> np.ndarray:
    """Load vector of the surface layer source: entry i = sum over surface
    quadrature of w * f(y) * phi_i(y), accumulated through owner cells.

    The density ``f`` is called once, on the (n, dim) array of quadrature
    points; it returns either one value per point, shape (n,), or a scalar
    for a constant density.  Every value must be finite.  Nonzero entries
    appear only at dofs of cells met by the surface."""
    mesh = space.mesh
    pts, w, owners = quadrature.points, quadrature.weights, quadrature.owner_cell
    low = mesh.cell_lows[owners]
    inside = (np.all(pts >= low - BOX_TOL, axis=1)
              & np.all(pts <= low + mesh.edge + BOX_TOL, axis=1))
    if not np.all(inside):
        raise ValueError("surface quadrature point lies outside its owner cell")
    fvals = np.asarray(f(pts), dtype=float)
    if fvals.ndim == 0:
        fvals = np.full(pts.shape[0], fvals)
    if fvals.shape != (pts.shape[0],):
        raise ValueError(f"density must return a scalar or shape ({pts.shape[0]},), "
                         f"got shape {fvals.shape}")
    if not np.all(np.isfinite(fvals)):
        raise ValueError("density values must be finite")
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

    Boundary values are nodal interpolants of g; their columns move to the
    right-hand side and the boundary rows/columns become identity, keeping
    the matrix symmetric positive definite.  Inputs are not modified.  Raises
    ValueError if g is not finite at every boundary dof.
    """
    boundary = space.boundary_dofs
    lifted = np.zeros(space.n_dofs)
    lifted[boundary] = [g(x) for x in space.dof_coords[boundary]]
    if not np.all(np.isfinite(lifted)):
        raise ValueError("Dirichlet boundary values must be finite")
    keep = np.ones(space.n_dofs)
    keep[boundary] = 0.0
    keep_diag = sp.diags(keep)
    eliminated = keep_diag @ matrix @ keep_diag + sp.diags(1.0 - keep)
    new_rhs = keep * (rhs - matrix @ lifted) + (1.0 - keep) * lifted
    return eliminated.tocsr(), new_rhs

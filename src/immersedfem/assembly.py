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
from .space import FeSpace, _field_values, _lagrange_1d

#: surface quadrature points the interface load tabulates at once (more only
#: when one cell holds more); bounds the memory of its shape tables
LOAD_CHUNK_POINTS = 16384


def _factors_1d(space: FeSpace):
    """Mass and stiffness matrices (CSR) of the 1D ``Q^degree`` space on the
    grid's cells per axis, from degree + 2 Gauss points per cell.  Every
    axis of the grid carries this same pair."""
    degree, cells = space.degree, space.mesh.cells_per_axis
    rule = gauss_rule(1, degree + 2)
    values, derivs = _lagrange_1d(degree, rule.points[:, 0])  # (n_q, degree + 1)
    dofs = degree * np.arange(cells)[:, None] + np.arange(degree + 1)
    rows = np.repeat(dofs, degree + 1, axis=1).ravel()
    cols = np.tile(dofs, (1, degree + 1)).ravel()
    factors = []
    for table, scale in ((values, space.mesh.edge), (derivs, 1.0 / space.mesh.edge)):
        element = np.einsum("q,qi,qj->ij", rule.weights, table, table)
        element = 0.5 * (element + element.T) * scale
        factors.append(sp.csr_matrix((np.tile(element.ravel(), cells), (rows, cols)),
                                     shape=(degree * cells + 1,) * 2))
    return factors


def assemble_stiffness(space: FeSpace) -> sp.csr_matrix:
    """Stiffness matrix of the gradient form on the whole grid.

    The grid is uniform and the elements are tensor products, so the matrix
    is the Kronecker sum of the 1D factors (``_factors_1d``): the sum over
    the axes of mass ⊗ … ⊗ stiffness ⊗ … ⊗ mass.  It is symmetric positive
    semidefinite with the constants in its kernel (rows sum to zero).
    """
    mass, stiffness = _factors_1d(space)
    terms = []
    for axis in range(space.mesh.dim):
        term = sp.identity(1, format="csr")
        for other in range(space.mesh.dim):
            term = sp.kron(stiffness if other == axis else mass, term, format="csr")
        terms.append(term)
    return sum(terms).tocsr()


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
    # bit for bit diag(keep) A diag(keep) + diag(1 - keep), without its products
    on_boundary = keep == 0.0
    eliminated = matrix.tocsr(copy=True)
    eliminated.data[np.repeat(on_boundary, np.diff(eliminated.indptr))
                    | on_boundary[eliminated.indices]] = 0.0
    eliminated[boundary, boundary] = 1.0
    eliminated.eliminate_zeros()
    new_rhs = keep * (rhs - matrix @ lifted) + (1.0 - keep) * lifted
    return eliminated, new_rhs

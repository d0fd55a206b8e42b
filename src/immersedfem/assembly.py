"""Load vectors of the Poisson problem: volume sources and the surface layer
source that carries the flux-jump data.  The stiffness operator and the
Dirichlet data are the solver's (``solver.solve``).

Every scatter adds cell contributions in ascending cell-id order, so serial
assembly is bitwise deterministic.
"""

from __future__ import annotations

import numpy as np

from .geometry import InterfaceQuadrature
from .mesh import BOX_TOL
from .quadrature import gauss_rule
from .space import FeSpace, _field_values

#: surface quadrature points the interface load tabulates at once (more only
#: when one cell holds more); bounds the memory of its shape tables
LOAD_CHUNK_POINTS = 16384


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

"""Load vector of the Poisson problem: the surface layer source that carries
the flux-jump data, integrated by a surface rule of its own on the cells the
surface cuts.  The stiffness operator and the Dirichlet data are the
solver's (``solver.solve``).

The scatter is one ``np.bincount`` over the cells' local vectors in
ascending cell-id order, so serial assembly is bitwise deterministic.
"""

from __future__ import annotations

import numpy as np

from .mesh import _check_dim
from .quadrature import surface_rule
from .space import FeSpace, _field_values, _lagrange_values, _tensor_values

#: Gauss points per piece of the surface rule
SURFACE_ORDER = 8


def assemble_interface_load(space: FeSpace, interface, f) -> np.ndarray:
    """Load vector of the surface layer source on ``interface``: entry i =
    integral over the surface of f * phi_i.

    The integral is the surface rule of ``quadrature.surface_rule`` with
    ``SURFACE_ORDER`` Gauss points per piece on every cell the surface cuts,
    which owns the points in it; only the cells of the surface's bounding
    box (``Mesh.cells_meeting``) are tested.  The density ``f`` is called
    once, on the (n, dim) array of the rule's points (see
    ``space._field_values``).  Nonzero entries appear only at dofs of cut
    cells.  Raises ValueError for an interface of another dimension than
    the mesh, or one that meets no cell of it."""
    mesh = space.mesh
    _check_dim(mesh, interface)
    cells = mesh.cells_meeting(interface.center - interface.radius,
                               interface.center + interface.radius)
    lows = mesh.cell_lows(cells)
    cut = interface.cuts_box(lows, lows + mesh.edge)
    cells, lows = cells[cut], lows[cut]
    parent, pts, w = surface_rule(lows, mesh.edge, interface, SURFACE_ORDER)
    if not parent.size:
        raise ValueError("surface meets no cell of the mesh")
    # the basis values of every point, without gradients; parent ascends, so
    # each cell's points are one run, summed in point order
    ref = (pts - lows[parent]) / mesh.edge
    values = _tensor_values([_lagrange_values(space.degree, x).T for x in ref.T])  # (n, n_loc)
    values *= (w * _field_values(f, pts))[:, None]
    rows, starts = np.unique(parent, return_index=True)
    local = np.add.reduceat(values, starts, axis=0)
    return np.bincount(space.cell_dofs(cells[rows]).ravel(), weights=local.ravel(),
                       minlength=space.n_dofs)

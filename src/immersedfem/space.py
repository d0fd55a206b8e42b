"""Continuous tensor-product Lagrange elements on uniform grids: shape
functions, nodal interpolation, and the interpolant that zeroes every degree
of freedom trapped inside the interface layer.  Every field the library
evaluates is called once on an (n, dim) point array, by ``_field_values``."""

from __future__ import annotations

import numpy as np

from .mesh import Mesh, CellClassification, _lattice, _ravel_index


def _lagrange_1d(degree: int, x: np.ndarray):
    """Values and derivatives of the 1D Lagrange basis on nodes k/degree."""
    x = np.asarray(x, dtype=float)
    nodes = np.arange(degree + 1) / degree if degree > 0 else np.zeros(1)
    n = degree + 1
    values = np.ones(x.shape + (n,))
    derivs = np.zeros(x.shape + (n,))
    for a in range(n):
        denom = np.prod([nodes[a] - nodes[b] for b in range(n) if b != a])
        num = np.ones_like(x)
        for b in range(n):
            if b != a:
                num = num * (x - nodes[b])
        values[..., a] = num / denom
        der = np.zeros_like(x)
        for b in range(n):
            if b == a:
                continue
            term = np.ones_like(x)
            for cc in range(n):
                if cc != a and cc != b:
                    term = term * (x - nodes[cc])
            der = der + term
        derivs[..., a] = der / denom
    return values, derivs


def shape_eval(degree: int, ref_points):
    """Shape function values and reference gradients at points in [0,1]^dim.

    The basis is the tensor product of 1D Lagrange polynomials on equispaced
    nodes, ordered lexicographically with the first axis fastest; values sum
    to one and gradients sum to zero at every point.  Both are products of 1D
    tables gathered per local dof: values multiply the axes in ascending
    order, and the gradient along axis k takes the derivative factor first,
    then the other axes in ascending order.
    """
    ref_points = np.atleast_2d(np.asarray(ref_points, dtype=float))
    dim = ref_points.shape[-1]
    local = _lattice(degree + 1, dim).astype(int)  # (n_loc, dim), first axis fastest
    vals, ders = zip(*(_lagrange_1d(degree, ref_points[..., k]) for k in range(dim)))
    tables = [vals[k][..., local[:, k]] for k in range(dim)]
    # C order: the layout decides how BLAS sums the products callers form
    values = np.ones(ref_points.shape[:-1] + (local.shape[0],))
    for table in tables:
        values *= table
    grads = np.empty(values.shape + (dim,))
    for k in range(dim):
        g = ders[k][..., local[:, k]]
        for other in range(dim):
            if other != k:
                g = g * tables[other]
        grads[..., k] = g
    return values, grads


def _sum_factorised(degree: int, local, ref):
    """Values and reference gradients at the points ``ref`` (n, dim) of the
    functions with local coefficients ``local`` (n, n_loc), one per point.

    Sum factorisation: the coefficients are contracted with the 1D value and
    derivative tables of one axis at a time, first axis first, so no
    (n, n_loc) shape table is formed.
    """
    n, dim = ref.shape
    p = degree + 1

    def contract(coeffs, table):
        total = coeffs[..., 0] * table[..., 0]
        for a in range(1, p):
            total += coeffs[..., a] * table[..., a]
        return total

    # C order puts the first local axis, which runs fastest, last
    value = local.reshape((n,) + (p,) * dim)
    grads = []
    for k in range(dim):
        vals, ders = (t.reshape((n,) + (1,) * (dim - 1 - k) + (p,))
                      for t in _lagrange_1d(degree, ref[:, k]))
        grads = [contract(g, vals) for g in grads] + [contract(value, ders)]
        value = contract(value, vals)
    return value, np.stack(grads, axis=-1)


class FeSpace:
    """Continuous piecewise Q^degree space with nodal degrees of freedom.

    Dof coordinates form the lattice with spacing 1/(degree * n) and the
    cell-to-dof map lists (degree+1)^dim local dofs per cell in the same
    lexicographic order used by ``shape_eval``.
    """

    def __init__(self, mesh: Mesh, degree: int = 1):
        if degree < 1:
            raise ValueError(f"degree must be >= 1, got {degree}")
        self.mesh = mesh
        self.degree = degree
        n_axis = degree * mesh.cells_per_axis + 1
        self.n_axis_dofs = n_axis
        self.n_dofs = n_axis ** mesh.dim
        lattice = _lattice(n_axis, mesh.dim)
        self.dof_coords = lattice / (degree * mesh.cells_per_axis)
        on_face = (lattice == 0) | (lattice == n_axis - 1)
        self.boundary_dofs = np.nonzero(on_face.any(axis=1))[0]
        cell_idx = _lattice(mesh.cells_per_axis, mesh.dim).astype(int)
        local = _lattice(degree + 1, mesh.dim).astype(int)
        idx = degree * cell_idx[:, None, :] + local[None, :, :]
        self.cell_dofs = _ravel_index(idx, n_axis)

    def interior_dofs(self) -> np.ndarray:
        mask = np.ones(self.n_dofs, dtype=bool)
        mask[self.boundary_dofs] = False
        return np.nonzero(mask)[0]

    def tabulate(self, ref_points):
        """Shape values/gradients of this space at reference points."""
        return shape_eval(self.degree, ref_points)

    def evaluate(self, coeffs, points) -> np.ndarray:
        """FE function values at arbitrary points of the unit box."""
        return self._at_points(coeffs, points)[0]

    def evaluate_gradient(self, coeffs, points) -> np.ndarray:
        return self._at_points(coeffs, points)[1] / self.mesh.edge

    def _at_points(self, coeffs, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        cells = self.mesh.locate(points)
        ref = (points - self.mesh.cell_lows[cells]) / self.mesh.edge
        return _sum_factorised(self.degree, np.asarray(coeffs)[self.cell_dofs[cells]], ref)


def _field_values(field, points) -> np.ndarray:
    """Values of ``field`` at the (n, dim) array ``points``, called once: it
    returns shape (n,), or a scalar that is broadcast.  Any other shape (a
    field written for one point at a time) or a non-finite value raises
    ValueError."""
    values = np.asarray(field(points), dtype=float)
    if values.ndim == 0:
        values = np.full(points.shape[0], values)
    if values.shape != (points.shape[0],):
        raise ValueError(f"field must return a scalar or shape ({points.shape[0]},), "
                         f"got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("field values must be finite")
    return values


def interpolate(space: FeSpace, g) -> np.ndarray:
    """Nodal interpolation: coefficient i equals g at dof coordinate i."""
    return _field_values(g, space.dof_coords)


def interpolate_outside_layer(space: FeSpace, classification: CellClassification,
                              g) -> np.ndarray:
    """Nodal interpolation with the interface-layer dofs set to zero.

    A dof survives iff it is a node of at least one cell outside the layer;
    dofs all of whose adjacent cells sit in the layer are zeroed, and g is
    called on the surviving dofs only.
    """
    keep = np.zeros(space.n_dofs, dtype=bool)
    keep[space.cell_dofs[classification.out_cells].ravel()] = True
    coeffs = np.zeros(space.n_dofs)
    coeffs[keep] = _field_values(g, space.dof_coords[keep])
    return coeffs

"""Continuous tensor-product Lagrange elements on uniform grids: shape
functions, nodal interpolation, and the interpolant that zeroes every degree
of freedom trapped inside the interface layer.  Every field the library
evaluates is called once on an (n, dim) point array, by ``_field_values``."""

from __future__ import annotations

import numpy as np

from .mesh import Mesh, CellClassification, _lattice, _ravel_index


def _lagrange_1d(degree: int, x: np.ndarray):
    """Values and derivatives of the 1D Lagrange basis on nodes k/degree, for
    all basis functions at once; products take their factors x - node_b, and
    derivatives their terms, in ascending b, as a loop per function would."""
    x = np.asarray(x, dtype=float)
    n = degree + 1
    nodes = np.arange(n) / degree if degree > 0 else np.zeros(1)
    # row j holds the j-th node b != a of every basis function a
    others = np.array([[b for b in range(n) if b != a] for a in range(n)], dtype=int).T
    diffs = x - nodes.reshape((n,) + (1,) * x.ndim)  # row b: x - node_b

    def product(rows):
        # 1 * f == f, so starting from the first factor keeps every bit
        out = diffs[rows[0]] if len(rows) else np.ones(diffs.shape)
        for b in rows[1:]:
            out = out * diffs[b]
        return out

    denom = np.prod(nodes[:, None] - nodes[others.T], axis=1).reshape((n,) + (1,) * x.ndim)
    derivs = np.zeros(diffs.shape)
    for j in range(n - 1):
        derivs = derivs + product(np.delete(others, j, axis=0))
    return np.moveaxis(product(others) / denom, 0, -1), np.moveaxis(derivs / denom, 0, -1)


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


def _line_sum_factorised(degree: int, local, frame, face_ref, line, t_ref):
    """Values and reference gradients of FE functions at points on lines.

    Line i has the coefficients ``local[i]`` of its cell, the physical axis
    of each frame axis ``frame[i]`` (its direction last) and the reference
    coordinates ``face_ref[i]`` of the others; point j sits at ``t_ref[j]``
    on line ``line[j]``.  Per line the face axes are contracted with 1D
    tables, first frame axis first, leaving the value and the gradient as
    polynomials along the line (its own component from the value's slope at
    the nodes); per point one 1D value table evaluates them.
    """
    dim = frame.shape[1]
    p = degree + 1

    def contract(coeffs, table):
        total = coeffs[..., 0] * table[..., 0]
        for a in range(1, p):
            total += coeffs[..., a] * table[..., a]
        return total

    # coefficients in frame order; C order puts the first frame axis last
    index = (p ** frame) @ _lattice(p, dim).astype(int).T
    value = np.take_along_axis(local, index, axis=1).reshape((-1,) + (p,) * dim)
    grads = []
    for k in range(dim - 1):
        vals, ders = (t.reshape((-1,) + (1,) * (dim - 1 - k) + (p,))
                      for t in _lagrange_1d(degree, face_ref[:, k]))
        grads = [contract(g, vals) for g in grads] + [contract(value, ders)]
        value = contract(value, vals)
    grads.append(contract(value[:, None, :], _lagrange_1d(degree, np.arange(p) / degree)[1]))
    # (gradient in physical axes, line, node): physical axis k is frame axis
    # argsort(frame)[k]
    grads = np.take_along_axis(np.stack(grads), np.argsort(frame, axis=1).T[:, :, None], axis=0)
    vals, _ = _lagrange_1d(degree, t_ref)
    # per point, one row per component and one gathered column per node: the
    # (n, dim) gradients are a transposed view
    total = np.empty((dim + 1, line.size))
    for poly, out in zip([value, *grads], total):
        np.multiply(poly[line, 0], vals[:, 0], out=out)
        for a in range(1, p):
            out += poly[line, a] * vals[:, a]
    return total[0], total[1:].T


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
        frame = np.broadcast_to(np.arange(ref.shape[1]), ref.shape)
        return _line_sum_factorised(self.degree, np.asarray(coeffs)[self.cell_dofs[cells]],
                                    frame, ref[:, :-1], np.arange(ref.shape[0]), ref[:, -1])


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

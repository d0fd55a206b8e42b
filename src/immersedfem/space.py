"""Continuous tensor-product Lagrange elements on uniform grids: shape
functions, evaluation at points and nodal interpolation.  Every field the library
evaluates is called once on an (n, dim) point array, by ``_field_values``.
Points on axis-parallel lines are evaluated by sum factorisation
(``_line_sum_factorised``): the face axes once per line, with the lines as
contiguous rows and the orders of a frame made once per height axis (the
frames of ``mesh._frames``), then one table of 1D basis values per point."""

from __future__ import annotations

import functools

import numpy as np

from .mesh import Mesh, _frames, _integer, _lattice_index, _ravel_index


def _basis_factors(degree: int, x):
    """The values of the 1D Lagrange basis on nodes k/degree at ``x``, one
    row per basis function, and their factors: x - node_b in row b, the
    other nodes b != a of each basis function a (row j holds the j-th) and
    the denominators prod_b (node_a - node_b), shaped to broadcast on a row
    of factors."""
    x = np.asarray(x, dtype=float)
    n = degree + 1
    nodes = np.arange(n) / degree
    others = np.array([[b for b in range(n) if b != a] for a in range(n)], dtype=int).T
    denom = np.prod(nodes[:, None] - nodes[others.T], axis=1).reshape((n,) + (1,) * x.ndim)
    diffs = x - nodes.reshape((n,) + (1,) * x.ndim)
    values = _product(diffs, others)
    values /= denom
    return values, diffs, others, denom


def _product(diffs, rows):
    """The product of the factors ``diffs[b]`` over the rows ``rows``, in
    ascending b, as a loop per basis function would form it."""
    # 1 * f == f, so starting from the first factor keeps every bit
    out = diffs[rows[0]] if len(rows) else np.ones(diffs.shape)
    for b in rows[1:]:
        out *= diffs[b]
    return out


def _lagrange_values(degree: int, x) -> np.ndarray:
    """Values of the 1D Lagrange basis at ``x``, one row per basis function:
    shape (degree + 1,) + x.shape."""
    return _basis_factors(degree, x)[0]


def _local_lattice(p: int, dim: int) -> np.ndarray:
    """Lattice index (n_loc, dim) of each local dof of a cell with p nodes
    per axis, first axis fastest."""
    return _lattice_index(np.arange(p ** dim), p, dim)


def _tensor_values(tables) -> np.ndarray:
    """Values (..., n_loc) of the tensor-product basis, or of one gradient
    component with a derivative table at its axis, from the 1D tables (...,
    degree + 1) of each axis, gathered per local dof and multiplied in
    ascending axis order."""
    local = _local_lattice(tables[0].shape[-1], len(tables))
    # C order: the layout decides how BLAS sums the products callers form
    values = np.ones(tables[0].shape[:-1] + (local.shape[0],))
    for k, table in enumerate(tables):
        values *= table[..., local[:, k]]
    return values


def _lagrange_1d(degree: int, x):
    """Values and derivatives of the 1D Lagrange basis at ``x``, for all
    basis functions at once (the last axis); derivatives sum their terms in
    ascending b, as a loop per function would."""
    values, diffs, others, denom = _basis_factors(degree, x)
    derivs = np.zeros(diffs.shape)
    for j in range(others.shape[0]):
        derivs = derivs + _product(diffs, np.delete(others, j, axis=0))
    return np.moveaxis(values, 0, -1), np.moveaxis(derivs / denom, 0, -1)


def _line_sum_factorised(degree: int, local, axis, face_ref, line, t_ref):
    """Values and reference gradients of FE functions at points on lines.

    Line i has the coefficients ``local[i]`` of its cell, its direction
    ``axis[i]`` and the reference coordinates ``face_ref[i]`` of the other
    axes in frame order (``mesh._frames``); point j sits at ``t_ref[j]`` on
    line ``line[j]``.  Per line the face axes are contracted with 1D tables,
    first frame axis first, leaving the value and the gradient as polynomials
    along the line (its own component from the value's slope at the nodes);
    per point one 1D value table evaluates them.  The orders of the
    coefficients and gradients are made once per height axis, not per line.
    """
    dim = face_ref.shape[1] + 1
    p = degree + 1

    def contract(coeffs, table):
        # over the axis before the lines, one contiguous row per line
        total = coeffs[..., 0, :] * table[0]
        for a in range(1, p):
            total += coeffs[..., a, :] * table[a]
        return total

    index, inverse, slopes = _line_tables(degree, dim)
    # (coefficient, line): the lines last throughout, one contiguous row each
    flat = (index[axis] + p ** dim * np.arange(axis.size)[:, None]).T
    value = local.reshape(-1)[flat].reshape((p,) * dim + (-1,))
    # (basis function, face axis, line)
    vals, ders = (np.moveaxis(t, -1, 0) for t in _lagrange_1d(degree, face_ref.T))
    grads = []
    for k in range(dim - 1):
        grads = [contract(g, vals[:, k]) for g in grads] + [contract(value, ders[:, k])]
        value = contract(value, vals[:, k])
    grads.append(contract(value, slopes.T[:, :, None]))
    # (component, node, line), the gradient in physical axes: every node's
    # coefficients are one contiguous row
    polys = np.empty((dim + 1, p, axis.size))
    polys[0] = value
    # physical axis k of a line is its frame axis inverse[axis][k], gathered
    # from the flat (frame axis, node, line) stack of the gradients
    rows = inverse[axis].T[:, None, :] * (p * axis.size)
    polys[1:] = np.stack(grads).reshape(-1)[rows + np.arange(p * axis.size).reshape(p, -1)]
    vals = _lagrange_values(degree, t_ref)
    # per point, one row per component and one gathered row per node: the
    # (n, dim) gradients are a transposed view
    total = np.empty((dim + 1, line.size))
    for poly, out in zip(polys, total):
        np.multiply(poly[0][line], vals[0], out=out)
        for a in range(1, p):
            out += poly[a][line] * vals[a]
    return total[0], total[1:].T


@functools.lru_cache(maxsize=None)
def _line_tables(degree: int, dim: int):
    """The tables of ``_line_sum_factorised``, read-only and made once per
    degree and dimension: per height axis, the local dof of each coefficient
    in the order of its frame (``mesh._frames``; C order puts the first frame
    axis last) and the frame axis of each physical axis; and the slopes of
    the 1D basis at its nodes (node, basis function)."""
    p = degree + 1
    frames = _frames(dim)
    tables = ((p ** frames) @ _local_lattice(p, dim).T,
              np.argsort(frames, axis=1), _lagrange_1d(degree, np.arange(p) / degree)[1])
    for table in tables:
        table.flags.writeable = False
    return tables


class FeSpace:
    """Continuous piecewise Q^degree space with nodal degrees of freedom.

    Dof coordinates form the lattice with spacing 1/(degree * n), and each
    cell has (degree+1)^dim local dofs in the lexicographic order used by
    ``tabulate``.  Both are computed from ids (``dof_coords``,
    ``cell_dofs``); only the ascending ``boundary_dofs`` are stored.
    """

    def __init__(self, mesh: Mesh, degree: int = 1):
        self.mesh = mesh
        self.degree = degree = _integer("degree", degree, 1)
        n_axis = degree * mesh.cells_per_axis + 1
        self.n_dofs = n_axis ** mesh.dim
        # the dof lattice less its interior, one byte per dof
        on_boundary = np.ones((n_axis,) * mesh.dim, dtype=bool)
        on_boundary[(slice(1, -1),) * mesh.dim] = False
        self.boundary_dofs = np.flatnonzero(on_boundary)

    def cell_dofs(self, cells) -> np.ndarray:
        """Global dofs, shape ``np.shape(cells) + ((degree+1)^dim,)``, of the
        cells with ids ``cells``; ids outside the mesh raise ValueError."""
        n_axis = self.degree * self.mesh.cells_per_axis + 1
        p, dim = self.degree + 1, self.mesh.dim
        corner = self.degree * _lattice_index(cells, self.mesh.cells_per_axis, dim)
        local = _ravel_index(_local_lattice(p, dim), n_axis)
        return _ravel_index(corner, n_axis)[..., None] + local

    def dof_coords(self, dofs) -> np.ndarray:
        """Coordinates, shape ``np.shape(dofs) + (dim,)``, of the dofs
        ``dofs``; ids outside [0, n_dofs) raise ValueError."""
        n = self.degree * self.mesh.cells_per_axis
        return _lattice_index(dofs, n + 1, self.mesh.dim) / n

    def tabulate(self, ref_points):
        """Shape function values and reference gradients at points in
        [0,1]^dim.

        The basis is the tensor product of 1D Lagrange polynomials on
        equispaced nodes, ordered lexicographically with the first axis
        fastest; values sum to one and gradients sum to zero at every point.
        Both are products of 1D tables gathered per local dof, the axes
        multiplied in ascending order (``_tensor_values``); the gradient
        along axis k takes the derivative table at axis k.  Points whose
        last axis is not the mesh's dimension raise ValueError.
        """
        ref_points = np.atleast_2d(np.asarray(ref_points, dtype=float))
        dim = self.mesh.dim
        if ref_points.shape[-1] != dim:
            raise ValueError(f"points must have {dim} coordinates, got shape {ref_points.shape}")
        vals, ders = zip(*(_lagrange_1d(self.degree, ref_points[..., k]) for k in range(dim)))
        grads = [_tensor_values(vals[:k] + (ders[k],) + vals[k + 1:]) for k in range(dim)]
        return _tensor_values(vals), np.stack(grads, axis=-1)

    def evaluate(self, coeffs, points):
        """Values (n,) and gradients (n, dim) of the FE function with
        coefficients ``coeffs`` at the (n, dim) ``points`` of the unit box,
        each point one line of ``_line_sum_factorised`` along the last axis."""
        coeffs = _coefficients(self, coeffs)
        points = np.atleast_2d(np.asarray(points, dtype=float))
        cells = self.mesh.locate(points)
        ref = (points - self.mesh.cell_lows(cells)) / self.mesh.edge
        axis = np.full(ref.shape[0], ref.shape[1] - 1)
        values, grads = _line_sum_factorised(self.degree, coeffs[self.cell_dofs(cells)], axis,
                                             ref[:, :-1], np.arange(ref.shape[0]), ref[:, -1])
        return values, grads / self.mesh.edge


def _coefficients(space: FeSpace, coeffs) -> np.ndarray:
    """``coeffs`` as a float array; ValueError unless it has one entry per dof."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (space.n_dofs,):
        raise ValueError(f"coeffs must have shape ({space.n_dofs},), got {coeffs.shape}")
    return coeffs


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
    return _field_values(g, space.dof_coords(np.arange(space.n_dofs)))

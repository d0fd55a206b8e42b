import numpy as np
import pytest
import scipy.sparse as sp

from immersedfem import solver
from immersedfem.mesh import _ravel_index
from immersedfem.quadrature import gauss_rule


def lattice(n_per_axis, dim):
    """The points of {0, ..., n_per_axis - 1}^dim as floats, one row each,
    first axis fastest, from a meshgrid (test oracle of the package's
    ``mesh._lattice_index``)."""
    grids = np.meshgrid(*[np.arange(n_per_axis, dtype=float)] * dim, indexing="ij")
    return np.column_stack([g.ravel(order="F") for g in grids])


def frames_of(axis, dim):
    """The frame of a line along each of the axes ``axis``: the other axes
    ascending, then its own, one comprehension per line (test oracle of the
    package's ``mesh._frames``)."""
    return np.array([[j for j in range(dim) if j != k] + [k] for k in axis],
                    dtype=int).reshape(-1, dim)


@pytest.fixture(params=["C", "F", "strided"])
def in_layout(request):
    """Copy a 2D array into C order, Fortran order, or a strided slice of a
    larger array, so that column views of every layout are exercised."""

    def convert(array):
        array = np.asarray(array)
        if request.param == "C":
            return np.ascontiguousarray(array)
        if request.param == "F":
            return np.asfortranarray(array)
        wide = np.zeros((2 * array.shape[0], array.shape[1] + 1), dtype=array.dtype)
        wide[::2, 1:] = array
        return wide[::2, 1:]

    return convert


def bitwise_equal(got, want) -> bool:
    """Same shape, dtype and bytes in logical order, so the sign of a zero counts."""
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and got.dtype == want.dtype
            and np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes())


def element_scatter_stiffness(space):
    """Stiffness matrix (CSR) from one reference element matrix of the shape
    gradients, scattered per cell (test oracle for the solver's Kronecker-sum
    operator)."""
    mesh = space.mesh
    points, weights = gauss_rule(mesh.dim, space.degree + 2)
    _, grads = space.tabulate(points)  # (n_q, n_loc, dim)
    element = np.einsum("q,qid,qjd->ij", weights, grads, grads)
    element = 0.5 * (element + element.T) * mesh.edge ** (mesh.dim - 2)
    n_loc = element.shape[0]
    cell_dofs = space.cell_dofs(np.arange(mesh.n_cells))
    rows = np.repeat(cell_dofs, n_loc, axis=1).ravel()
    cols = np.tile(cell_dofs, (1, n_loc)).ravel()
    data = np.tile(element.ravel(), mesh.n_cells)
    return sp.coo_matrix((data, (rows, cols)), shape=(space.n_dofs, space.n_dofs)).tocsr()


def lattice_tables(space):
    """The per-cell and per-dof tables of ``space`` built whole from index
    lattices, as the grid once stored them (test oracle for the methods that
    compute rows from ids): ``(cell_lows, cell_dofs, dof_coords,
    boundary_dofs)``."""
    mesh, degree = space.mesh, space.degree
    cell_lows = lattice(mesh.cells_per_axis, mesh.dim) / mesh.cells_per_axis
    n_axis = degree * mesh.cells_per_axis + 1
    nodes = lattice(n_axis, mesh.dim)
    dof_coords = nodes / (degree * mesh.cells_per_axis)
    boundary_dofs = np.nonzero(((nodes == 0) | (nodes == n_axis - 1)).any(axis=1))[0]
    cell_idx = lattice(mesh.cells_per_axis, mesh.dim).astype(int)
    local = lattice(degree + 1, mesh.dim).astype(int)
    cell_dofs = _ravel_index(degree * cell_idx[:, None, :] + local[None, :, :], n_axis)
    return cell_lows, cell_dofs, dof_coords, boundary_dofs


def eliminate(matrix, load, space, g):
    """Symmetric elimination of u = g on the boundary dofs (test oracle):
    boundary rows and columns become identity and the boundary columns of
    the nodal data move to the right-hand side.  Returns ``(system, rhs)``."""
    keep = np.ones(space.n_dofs)
    keep[space.boundary_dofs] = 0.0
    lifted = np.zeros(space.n_dofs)
    lifted[space.boundary_dofs] = g(space.dof_coords(space.boundary_dofs))
    system = sp.diags(keep) @ matrix @ sp.diags(keep) + sp.diags(1.0 - keep)
    return system.tocsr(), keep * (load - matrix @ lifted) + lifted


def stiffness_apply(space):
    """``u -> A u`` on dof vectors, for the solver's banded matrix-free
    stiffness."""
    mass, stiffness = (solver._bands(element, space.mesh.cells_per_axis)
                       for element in solver._elements_1d(space))
    shape = (mass[0].size,) * space.mesh.dim
    return lambda u: solver._kronecker_sum(mass, stiffness, np.reshape(u, shape)).ravel()


def operator_matrix(space):
    """Dense matrix of the solver's stiffness operator, one column per unit
    vector."""
    apply = stiffness_apply(space)
    return np.column_stack([apply(unit) for unit in np.eye(space.n_dofs)])

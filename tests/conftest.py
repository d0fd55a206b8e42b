import numpy as np
import pytest
import scipy.sparse as sp

from immersedfem import gauss_rule, solver


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
    rule = gauss_rule(mesh.dim, space.degree + 2)
    _, grads = space.tabulate(rule.points)  # (n_q, n_loc, dim)
    element = np.einsum("q,qid,qjd->ij", rule.weights, grads, grads)
    element = 0.5 * (element + element.T) * mesh.edge ** (mesh.dim - 2)
    n_loc = element.shape[0]
    rows = np.repeat(space.cell_dofs, n_loc, axis=1).ravel()
    cols = np.tile(space.cell_dofs, (1, n_loc)).ravel()
    data = np.tile(element.ravel(), mesh.n_cells)
    return sp.coo_matrix((data, (rows, cols)), shape=(space.n_dofs, space.n_dofs)).tocsr()


def eliminate(matrix, load, space, g):
    """Symmetric elimination of u = g on the boundary dofs (test oracle):
    boundary rows and columns become identity and the boundary columns of
    the nodal data move to the right-hand side.  Returns ``(system, rhs)``."""
    keep = np.ones(space.n_dofs)
    keep[space.boundary_dofs] = 0.0
    lifted = np.zeros(space.n_dofs)
    lifted[space.boundary_dofs] = g(space.dof_coords[space.boundary_dofs])
    system = sp.diags(keep) @ matrix @ sp.diags(keep) + sp.diags(1.0 - keep)
    return system.tocsr(), keep * (load - matrix @ lifted) + lifted


def stiffness_apply(space):
    """``u -> A u`` on dof vectors, for the solver's matrix-free stiffness."""
    mass, stiffness = solver._factors_1d(space)
    shape = (mass.shape[0],) * space.mesh.dim
    return lambda u: solver._kronecker_sum(mass, stiffness, np.reshape(u, shape)).ravel()


def operator_matrix(space):
    """Dense matrix of the solver's stiffness operator, one column per unit
    vector."""
    apply = stiffness_apply(space)
    return np.column_stack([apply(unit) for unit in np.eye(space.n_dofs)])

import math

import numpy as np
import pytest
import scipy.sparse as sp

from immersedfem import assembly
from immersedfem import (FeSpace, InterfaceQuadrature, SphericalInterface,
                         apply_dirichlet, assemble_interface_load, assemble_stiffness,
                         assemble_volume_load, build_uniform_mesh, gauss_rule,
                         immersed_quadrature, interpolate, reference_solution, solve)

CIRCLE = SphericalInterface((0.3, 0.3), 0.2)
SPHERE = SphericalInterface((0.3, 0.3, 0.3), 0.2)


def reference_q1_gradients(p):
    """Hand-written bilinear gradients on the unit square (test oracle)."""
    x, y = p[:, 0], p[:, 1]
    return np.stack([
        np.stack([-(1 - y), -(1 - x)], axis=-1),
        np.stack([(1 - y), -x], axis=-1),
        np.stack([-y, (1 - x)], axis=-1),
        np.stack([y, x], axis=-1),
    ], axis=1)


def element_scatter_stiffness(space):
    """One reference element matrix from the shape gradients, scattered per
    cell (test oracle for the Kronecker sum)."""
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


class TestStiffness:
    @pytest.mark.parametrize("dim, degree, n", [(2, 1, 16), (2, 2, 8), (2, 3, 4), (3, 1, 4),
                                                (3, 2, 2)])
    def test_kronecker_sum_matches_element_scatter(self, dim, degree, n):
        space = FeSpace(build_uniform_mesh(dim, n), degree)
        want = element_scatter_stiffness(space)
        got = assemble_stiffness(space)
        assert isinstance(got, sp.csr_matrix)
        assert np.max(np.abs((got - want).toarray())) <= 2e-15 * np.max(np.abs(want.data))

    def test_q1_element_matrix(self):
        # oracle: integrate the hand-written gradients with a dense rule
        rule = gauss_rule(2, 6)
        grads = reference_q1_gradients(rule.points)
        oracle = np.einsum("q,qid,qjd->ij", rule.weights, grads, grads)
        # known closed forms on the unit cell
        expected = np.full((4, 4), -1.0 / 6.0)
        np.fill_diagonal(expected, 2.0 / 3.0)
        expected[0, 3] = expected[3, 0] = -1.0 / 3.0
        expected[1, 2] = expected[2, 1] = -1.0 / 3.0
        assert np.allclose(oracle, expected, atol=1e-14)

        space = FeSpace(build_uniform_mesh(2, 1), 1)
        matrix = assemble_stiffness(space).toarray()
        assert np.allclose(matrix, oracle, atol=1e-13)

    def test_element_matrix_h_independent_2d(self):
        for n in (2, 8):
            space = FeSpace(build_uniform_mesh(2, n), 1)
            matrix = assemble_stiffness(space)
            assert matrix[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-13)

    def test_row_sums_vanish(self):
        for dim in (2, 3):
            space = FeSpace(build_uniform_mesh(dim, 4), 1)
            matrix = assemble_stiffness(space)
            row_sums = np.asarray(matrix.sum(axis=1)).ravel()
            assert np.max(np.abs(row_sums)) <= 1e-12

    def test_symmetry(self):
        space = FeSpace(build_uniform_mesh(2, 8), 1)
        matrix = assemble_stiffness(space)
        asym = (matrix - matrix.T).tocoo()
        assert (np.max(np.abs(asym.data)) if asym.nnz else 0.0) <= 1e-12

    def test_positive_off_constants(self):
        rng = np.random.default_rng(21)
        space = FeSpace(build_uniform_mesh(2, 4), 1)
        matrix = assemble_stiffness(space)
        for _ in range(5):
            x = rng.standard_normal(space.n_dofs)
            x -= x.mean()
            assert x @ (matrix @ x) > 0.0


class TestVolumeLoad:
    def test_zero_source(self):
        space = FeSpace(build_uniform_mesh(2, 4), 1)
        assert np.array_equal(assemble_volume_load(space, lambda x: 0.0),
                              np.zeros(space.n_dofs))

    def test_constant_source_sums_to_volume(self):
        for dim in (2, 3):
            space = FeSpace(build_uniform_mesh(dim, 3), 1)
            load = assemble_volume_load(space, lambda x: 1.0)
            assert np.sum(load) == pytest.approx(1.0, abs=1e-12)

    def test_linear_source(self):
        space = FeSpace(build_uniform_mesh(2, 4), 1)
        load = assemble_volume_load(space, lambda x: x[:, 0])
        assert np.sum(load) == pytest.approx(0.5, abs=1e-12)


class TestInterfaceLoad:
    def test_zero_density(self):
        mesh = build_uniform_mesh(2, 8)
        space = FeSpace(mesh, 1)
        quad = immersed_quadrature(CIRCLE, mesh)
        load = assemble_interface_load(space, quad, lambda y: 0.0)
        assert np.array_equal(load, np.zeros(space.n_dofs))

    def test_partition_of_unity_2d(self):
        mesh = build_uniform_mesh(2, 8)
        space = FeSpace(mesh, 1)
        quad = immersed_quadrature(CIRCLE, mesh)
        load = assemble_interface_load(space, quad, lambda y: 1.0 / 0.2)
        assert np.sum(load) == pytest.approx(2.0 * math.pi, abs=1e-8)

    def test_partition_of_unity_3d(self):
        mesh = build_uniform_mesh(3, 4)
        space = FeSpace(mesh, 1)
        quad = immersed_quadrature(SPHERE, mesh)
        load = assemble_interface_load(space, quad, lambda y: 25.0)
        assert np.sum(load) == pytest.approx(4.0 * math.pi, abs=1e-4)

    def test_batched_density_matches_pointwise(self):
        # oracle by linearity in the density: load(x0 + 2) = load(x0) + 2 load(1)
        mesh = build_uniform_mesh(2, 8)
        space = FeSpace(mesh, 1)
        quad = immersed_quadrature(CIRCLE, mesh)
        batched = assemble_interface_load(space, quad, lambda y: y[:, 0] + 2.0)
        linear = assemble_interface_load(space, quad, lambda y: y[:, 0])
        unit = assemble_interface_load(space, quad, lambda y: 1.0)
        assert np.allclose(batched, linear + 2.0 * unit, rtol=0.0, atol=1e-14)
        # a density written for one point at a time is not guessed at
        with pytest.raises(ValueError):
            assemble_interface_load(space, quad, lambda y: y[0] + 2.0)

    def test_rejects_non_finite_density(self):
        mesh = build_uniform_mesh(2, 8)
        space = FeSpace(mesh, 1)
        quad = immersed_quadrature(CIRCLE, mesh)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                assemble_interface_load(space, quad,
                                        lambda y: np.where(y[:, 0] > 0.45, bad, 5.0))

    def test_rejects_point_outside_owner_cell(self):
        mesh = build_uniform_mesh(2, 4)
        space = FeSpace(mesh, 1)
        point = np.array([[0.25 + 1e-13, 0.1]])  # within the box slack of cell 0
        ok = InterfaceQuadrature(points=point, weights=np.ones(1), owner_cell=np.array([0]))
        assert np.sum(assemble_interface_load(space, ok, lambda y: 1.0)) == pytest.approx(1.0)
        far = InterfaceQuadrature(points=np.array([[0.6, 0.6]]), weights=np.ones(1),
                                  owner_cell=np.array([0]))
        with pytest.raises(ValueError, match="owner cell"):
            assemble_interface_load(space, far, lambda y: 1.0)

    @pytest.mark.parametrize("interface, n, degree", [
        (CIRCLE, 16, 1), (CIRCLE, 8, 3), (SPHERE, 4, 1), (SPHERE, 4, 2)])
    def test_scatter_matches_owner_cell_loop(self, interface, n, degree):
        # oracle: tabulate each owner cell's points and add its local vector
        mesh = build_uniform_mesh(interface.dim, n)
        space = FeSpace(mesh, degree)
        quad = immersed_quadrature(interface, mesh)
        density = lambda y: 1.0 + y[:, 0] ** 2  # noqa: E731
        want = np.zeros(space.n_dofs)
        f = density(quad.points)
        for cell in np.unique(quad.owner_cell):
            sel = quad.owner_cell == cell
            values, _ = space.tabulate((quad.points[sel] - mesh.cell_lows[cell]) / mesh.edge)
            want[space.cell_dofs[cell]] += (quad.weights[sel] * f[sel]) @ values
        got = assemble_interface_load(space, quad, density)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        # serial runs are deterministic down to the last bit
        assert got.tobytes() == assemble_interface_load(space, quad, density).tobytes()

    def test_chunk_size_does_not_change_the_load(self, monkeypatch):
        # each cell is summed on its own, so splitting the tabulation into
        # chunks of a few cells leaves every bit of the load in place
        mesh = build_uniform_mesh(2, 16)
        space = FeSpace(mesh, 2)
        quad = immersed_quadrature(CIRCLE, mesh)
        whole = assemble_interface_load(space, quad, lambda y: 1.0 + y[:, 1])
        monkeypatch.setattr(assembly, "LOAD_CHUNK_POINTS", 8)
        chunked = assemble_interface_load(space, quad, lambda y: 1.0 + y[:, 1])
        assert chunked.tobytes() == whole.tobytes()

    def test_locality(self):
        # nonzeros are exactly the dofs of cells carrying surface quadrature;
        # cells the circle only grazes in a single point (the tangency at
        # x = 0.5) belong to the box-cut set but receive no load
        mesh = build_uniform_mesh(2, 8)
        space = FeSpace(mesh, 1)
        quad = immersed_quadrature(CIRCLE, mesh)
        load = assemble_interface_load(space, quad, lambda y: 5.0)
        loaded = set(space.cell_dofs[np.unique(quad.owner_cell)].ravel())
        assert set(np.nonzero(load)[0]) == loaded
        cut = CIRCLE.cuts_box(mesh.cell_lows, mesh.cell_lows + mesh.edge)
        assert loaded <= set(space.cell_dofs[cut].ravel())


class TestDirichlet:
    def test_homogeneous_data(self):
        space = FeSpace(build_uniform_mesh(2, 4), 1)
        matrix = assemble_stiffness(space)
        rhs = np.zeros(space.n_dofs)
        elim, new_rhs = apply_dirichlet(matrix, rhs, space, lambda x: 0.0)
        b = space.boundary_dofs
        assert np.allclose(new_rhs[b], 0.0)
        dense = elim.toarray()
        for i in b:
            assert dense[i, i] == 1.0
            assert np.all(dense[i, np.arange(space.n_dofs) != i] == 0.0)
            assert np.all(dense[np.arange(space.n_dofs) != i, i] == 0.0)

    def test_rejects_non_finite_data(self):
        space = FeSpace(build_uniform_mesh(2, 4), 1)
        matrix = assemble_stiffness(space)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                apply_dirichlet(matrix, np.zeros(space.n_dofs), space,
                                lambda x: np.where(x[:, 0] == 0.0, bad, 0.0))

    def test_symmetry_preserved(self):
        space = FeSpace(build_uniform_mesh(2, 6), 1)
        matrix = assemble_stiffness(space)
        elim, _ = apply_dirichlet(matrix, np.zeros(space.n_dofs), space,
                                  lambda x: x[:, 0])
        asym = (elim - elim.T).tocoo()
        assert (np.max(np.abs(asym.data)) if asym.nnz else 0.0) <= 1e-12

    @pytest.mark.parametrize("dim, degree, n", [(2, 2, 16), (3, 1, 8)])
    def test_bitwise_equal_to_product_formula(self, dim, degree, n):
        space = FeSpace(build_uniform_mesh(dim, n), degree)
        matrix = assemble_stiffness(space)
        rhs = np.random.default_rng(dim + degree).standard_normal(space.n_dofs)
        g = lambda x: np.sin(3.0 * x[:, 0]) + x[:, -1]
        elim, new_rhs = apply_dirichlet(matrix, rhs, space, g)
        # oracle: diag(keep) A diag(keep) + diag(1 - keep), with the boundary
        # columns of the lifted data moved to the right-hand side
        keep = np.ones(space.n_dofs)
        keep[space.boundary_dofs] = 0.0
        lifted = (1.0 - keep) * g(space.dof_coords)
        want = (sp.diags(keep) @ matrix @ sp.diags(keep) + sp.diags(1.0 - keep)).tocsr()
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(elim, name), getattr(want, name)), name
        assert np.array_equal(new_rhs, keep * (rhs - matrix @ lifted) + (1.0 - keep) * lifted)

    def test_linear_data_reproduced_by_solve(self):
        # discrete harmonic extension of linear data is the linear itself
        g = lambda x: 2.0 * x[:, 0] - 3.0 * x[:, 1] + 0.5
        space = FeSpace(build_uniform_mesh(2, 8), 1)
        matrix = assemble_stiffness(space)
        elim, rhs = apply_dirichlet(matrix, np.zeros(space.n_dofs), space, g)
        solution, residual = solve(space, elim, rhs)
        assert residual <= 1e-12
        assert np.allclose(solution, interpolate(space, g), atol=1e-9)

    def test_corner_value_on_model_problem(self):
        # full 2D layer-source solve; the corner dof carries the boundary data
        mesh = build_uniform_mesh(2, 64)
        space = FeSpace(mesh, 1)
        exact = reference_solution(CIRCLE)
        quad = immersed_quadrature(CIRCLE, mesh)
        stiffness = assemble_stiffness(space)
        load = assemble_interface_load(space, quad, lambda y: 5.0)
        elim, rhs = apply_dirichlet(stiffness, load, space, exact.values)
        solution, residual = solve(space, elim, rhs)
        assert residual <= 1e-10
        value = space.evaluate(solution, [[1.0, 1.0]])[0]
        assert value == pytest.approx(-math.log(math.hypot(0.7, 0.7)), abs=5e-3)

    def test_galerkin_orthogonality_proxy(self):
        rng = np.random.default_rng(4)
        mesh = build_uniform_mesh(2, 16)
        space = FeSpace(mesh, 1)
        exact = reference_solution(CIRCLE)
        quad = immersed_quadrature(CIRCLE, mesh)
        stiffness = assemble_stiffness(space)
        load = assemble_interface_load(space, quad, lambda y: 5.0)
        elim, rhs = apply_dirichlet(stiffness, load, space, exact.values)
        tol = 1e-11
        solution, relative_residual = solve(space, elim, rhs)
        assert relative_residual <= tol
        residual = (stiffness @ solution - load)[space.interior_dofs()]
        scale = np.linalg.norm(rhs)
        for _ in range(10):
            v = rng.standard_normal(residual.shape[0])
            assert abs(v @ residual) <= 10.0 * tol * np.linalg.norm(v) * scale

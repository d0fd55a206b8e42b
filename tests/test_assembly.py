import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (element_scatter_stiffness, eliminate, operator_matrix,
                      stiffness_apply)
from immersedfem import (FeSpace, SphericalInterface, assemble_interface_load,
                         build_uniform_mesh, interpolate, reference_solution, solve)
from immersedfem import geometry
from immersedfem.assembly import SURFACE_ORDER
from immersedfem.quadrature import gauss_rule, surface_rule
from rules import surface_quadrature

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


class TestStiffness:
    """The solver's matrix-free Kronecker-sum stiffness operator."""

    @pytest.mark.parametrize("dim, degree, n", [(2, 1, 16), (2, 2, 8), (2, 3, 4), (3, 1, 4),
                                                (3, 2, 2)])
    def test_kronecker_sum_matches_element_scatter(self, dim, degree, n):
        space = FeSpace(build_uniform_mesh(dim, n), degree)
        want = element_scatter_stiffness(space).toarray()
        got = operator_matrix(space)
        assert np.max(np.abs(got - want)) <= 2e-15 * np.max(np.abs(want))

    def test_q1_element_matrix(self):
        # oracle: integrate the hand-written gradients with a dense rule
        points, weights = gauss_rule(2, 6)
        grads = reference_q1_gradients(points)
        oracle = np.einsum("q,qid,qjd->ij", weights, grads, grads)
        # known closed forms on the unit cell
        expected = np.full((4, 4), -1.0 / 6.0)
        np.fill_diagonal(expected, 2.0 / 3.0)
        expected[0, 3] = expected[3, 0] = -1.0 / 3.0
        expected[1, 2] = expected[2, 1] = -1.0 / 3.0
        assert np.allclose(oracle, expected, atol=1e-14)

        matrix = operator_matrix(FeSpace(build_uniform_mesh(2, 1), 1))
        assert np.allclose(matrix, oracle, atol=1e-13)

    def test_element_matrix_h_independent_2d(self):
        for n in (2, 8):
            space = FeSpace(build_uniform_mesh(2, n), 1)
            unit = np.zeros(space.n_dofs)
            unit[0] = 1.0
            assert stiffness_apply(space)(unit)[0] == pytest.approx(2.0 / 3.0, abs=1e-13)

    def test_row_sums_vanish(self):
        # the constants are in the kernel
        for dim, degree in ((2, 1), (2, 2), (3, 1)):
            space = FeSpace(build_uniform_mesh(dim, 4), degree)
            assert np.max(np.abs(stiffness_apply(space)(np.ones(space.n_dofs)))) <= 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        for dim, degree in ((2, 1), (2, 3), (3, 2)):
            space = FeSpace(build_uniform_mesh(dim, 4), degree)
            apply = stiffness_apply(space)
            u, v = rng.standard_normal((2, space.n_dofs))
            scale = np.linalg.norm(v) * np.linalg.norm(apply(u))
            assert abs(v @ apply(u) - u @ apply(v)) <= 1e-13 * scale

    def test_positive_off_constants(self):
        rng = np.random.default_rng(21)
        for dim in (2, 3):
            space = FeSpace(build_uniform_mesh(dim, 4), 1)
            apply = stiffness_apply(space)
            for _ in range(5):
                x = rng.standard_normal(space.n_dofs)
                x -= x.mean()
                assert x @ apply(x) > 0.0


class TestInterfaceLoad:
    def test_zero_density(self):
        space = FeSpace(build_uniform_mesh(2, 8), 1)
        load = assemble_interface_load(space, CIRCLE, lambda y: 0.0)
        assert np.array_equal(load, np.zeros(space.n_dofs))

    # the basis sums to one, so the load sums to the surface integral of
    # the density: 2π and 4π here, off by 4.2e-13 and 2.8e-11 at Q1 and Q2
    @pytest.mark.parametrize("degree", [1, 2])
    def test_partition_of_unity_2d(self, degree):
        space = FeSpace(build_uniform_mesh(2, 8), degree)
        load = assemble_interface_load(space, CIRCLE, lambda y: 1.0 / 0.2)
        assert np.sum(load) == pytest.approx(2.0 * math.pi, abs=1e-11)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_partition_of_unity_3d(self, degree):
        space = FeSpace(build_uniform_mesh(3, 4), degree)
        load = assemble_interface_load(space, SPHERE, lambda y: 25.0)
        assert np.sum(load) == pytest.approx(4.0 * math.pi, abs=1e-10)

    def test_batched_density_matches_pointwise(self):
        # oracle by linearity in the density: load(x0 + 2) = load(x0) + 2 load(1)
        space = FeSpace(build_uniform_mesh(2, 8), 1)
        batched = assemble_interface_load(space, CIRCLE, lambda y: y[:, 0] + 2.0)
        linear = assemble_interface_load(space, CIRCLE, lambda y: y[:, 0])
        unit = assemble_interface_load(space, CIRCLE, lambda y: 1.0)
        assert np.allclose(batched, linear + 2.0 * unit, rtol=0.0, atol=1e-14)
        # a density written for one point at a time is not guessed at
        with pytest.raises(ValueError):
            assemble_interface_load(space, CIRCLE, lambda y: y[0] + 2.0)

    def test_rejects_non_finite_density(self):
        space = FeSpace(build_uniform_mesh(2, 8), 1)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                assemble_interface_load(space, CIRCLE,
                                        lambda y: np.where(y[:, 0] > 0.45, bad, 5.0))

    def test_rejects_surface_meeting_no_cell(self):
        space = FeSpace(build_uniform_mesh(2, 4), 1)
        far = SphericalInterface((10.0, 10.0), 0.2)
        with pytest.raises(ValueError, match="meets no cell"):
            assemble_interface_load(space, far, lambda y: 1.0)

    @pytest.mark.parametrize("dim, radius", [(2, 1e-17), (2, 1e-300), (3, 1e-17), (3, 1e-200)])
    def test_rejects_surface_too_small_for_its_rule(self, dim, radius):
        # the rule has no point on a surface this small (at 0.3, the ulp is
        # 5.6e-17, and R² underflows below 1e-162); the interface refuses
        # it, so no load is ever asked for
        with pytest.raises(ValueError, match="radius must be finite and at least"):
            SphericalInterface((0.3,) * dim, radius)

    @given(dim=st.sampled_from([2, 3]), n=st.sampled_from([4, 8, 16]),
           scale=st.floats(0.0, 2.0), center=st.lists(st.floats(0.01, 0.99), min_size=3,
                                                      max_size=3))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_sum_resolved_down_to_the_radius_floor(self, dim, n, scale, center):
        # the basis sums to one, so the load of the density 1/R^(dim-1)
        # sums to the area of the unit sphere, on radii from the floor to
        # 100 times it (worst 4.8e-9 relative in 5,000 random cases)
        radius = geometry.RADIUS_FLOOR * 10.0 ** scale
        interface = SphericalInterface(tuple(center[:dim]), radius)
        density = radius ** (1 - dim)
        load = assemble_interface_load(FeSpace(build_uniform_mesh(dim, n), 1), interface,
                                       lambda y: density)
        area = 2.0 * math.pi if dim == 2 else 4.0 * math.pi
        assert np.sum(load) == pytest.approx(area, rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("dim, interface", [(3, CIRCLE), (2, SPHERE)],
                             ids=["circle-on-3d", "sphere-on-2d"])
    def test_rejects_interface_of_other_dimension(self, dim, interface):
        space = FeSpace(build_uniform_mesh(dim, 4), 1)
        with pytest.raises(ValueError, match="dimensions differ"):
            assemble_interface_load(space, interface, lambda y: 1.0)

    @pytest.mark.parametrize("interface, n, degree", [
        (CIRCLE, 16, 1), (CIRCLE, 8, 3), (SPHERE, 4, 1), (SPHERE, 4, 2)])
    def test_scatter_matches_owner_cell_loop(self, interface, n, degree):
        # oracle: tabulate each owner cell's points and add its local vector
        mesh = build_uniform_mesh(interface.dim, n)
        space = FeSpace(mesh, degree)
        points, weights, owners = surface_quadrature(interface, mesh)
        density = lambda y: 1.0 + y[:, 0] ** 2  # noqa: E731
        want = np.zeros(space.n_dofs)
        f = density(points)
        for cell in np.unique(owners):
            sel = owners == cell
            values, _ = space.tabulate((points[sel] - mesh.cell_lows(cell)) / mesh.edge)
            want[space.cell_dofs(cell)] += (weights[sel] * f[sel]) @ values
        got = assemble_interface_load(space, interface, density)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        # serial runs are deterministic down to the last bit
        assert got.tobytes() == assemble_interface_load(space, interface, density).tobytes()

    @pytest.mark.parametrize("dim, degree, n", [(2, 1, 512), (2, 2, 256), (3, 1, 16),
                                                (3, 2, 8)])
    def test_values_only_bitwise_equal_to_tabulate(self, dim, degree, n):
        # oracle: the same rule, cells and scatter, with the values of the
        # full FeSpace.tabulate tables, which build the gradients too
        interface = CIRCLE if dim == 2 else SPHERE
        mesh = build_uniform_mesh(dim, n)
        space = FeSpace(mesh, degree)
        density = reference_solution(interface).density
        cells = mesh.cells_meeting(interface.center - interface.radius,
                                   interface.center + interface.radius)
        lows = mesh.cell_lows(cells)
        cut = interface.cuts_box(lows, lows + mesh.edge)
        cells, lows = cells[cut], lows[cut]
        parent, pts, w = surface_rule(lows, mesh.edge, interface, SURFACE_ORDER)
        values = space.tabulate((pts - lows[parent]) / mesh.edge)[0]
        values *= (w * density(pts))[:, None]
        rows, starts = np.unique(parent, return_index=True)
        local = np.add.reduceat(values, starts, axis=0)
        want = np.bincount(space.cell_dofs(cells[rows]).ravel(), weights=local.ravel(),
                           minlength=space.n_dofs)
        got = assemble_interface_load(space, interface, density)
        assert got.tobytes() == want.tobytes()

    def test_peak_memory_3d(self):
        # the load of a 3D Q1 n_c = 32 level; tabulating values and
        # gradients of every surface point peaked at 56.2 MiB, the values
        # alone at 23.8 MiB
        space = FeSpace(build_uniform_mesh(3, 32), 1)
        density = reference_solution(SPHERE).density
        tracemalloc.start()
        try:
            assemble_interface_load(space, SPHERE, density)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20

    def test_locality(self):
        # nonzeros are exactly the dofs of cells carrying surface quadrature;
        # cells the circle only grazes in a single point (the tangency at
        # x = 0.5) belong to the box-cut set but receive no load
        mesh = build_uniform_mesh(2, 8)
        space = FeSpace(mesh, 1)
        load = assemble_interface_load(space, CIRCLE, lambda y: 5.0)
        loaded = set(space.cell_dofs(np.unique(surface_quadrature(CIRCLE, mesh)[2])).ravel())
        assert set(np.nonzero(load)[0]) == loaded
        lows = mesh.cell_lows(np.arange(mesh.n_cells))
        cut = np.flatnonzero(CIRCLE.cuts_box(lows, lows + mesh.edge))
        assert loaded <= set(space.cell_dofs(cut).ravel())


class TestDirichlet:
    """Dirichlet data through ``solve(space, load, g)``."""

    def test_homogeneous_data(self):
        space = FeSpace(build_uniform_mesh(2, 4), 1)
        # zero load and data give exact zeros
        solution, residual = solve(space, np.zeros(space.n_dofs), lambda x: 0.0)
        assert np.array_equal(solution, np.zeros(space.n_dofs)) and residual == 0.0
        # with a load, the boundary dofs still carry the data exactly
        load = np.random.default_rng(3).standard_normal(space.n_dofs)
        solution, _ = solve(space, load, lambda x: 0.0)
        assert np.all(solution[space.boundary_dofs] == 0.0)
        interior = np.setdiff1d(np.arange(space.n_dofs), space.boundary_dofs)
        assert np.any(solution[interior] != 0.0)

    def test_rejects_non_finite_data(self):
        space = FeSpace(build_uniform_mesh(2, 4), 1)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                solve(space, np.zeros(space.n_dofs),
                      lambda x: np.where(x[:, 0] == 0.0, bad, 0.0))

    def test_symmetry_preserved(self):
        # with homogeneous data the solve is the inverse of the symmetric
        # interior block: w . solve(v) = v . solve(w) for loads v and w
        rng = np.random.default_rng(6)
        space = FeSpace(build_uniform_mesh(2, 6), 2)
        v, w = rng.standard_normal((2, space.n_dofs))
        interior = np.setdiff1d(np.arange(space.n_dofs), space.boundary_dofs)
        u_v, _ = solve(space, v, lambda x: 0.0)
        u_w, _ = solve(space, w, lambda x: 0.0)
        lhs, rhs = w[interior] @ u_v[interior], v[interior] @ u_w[interior]
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))

    def test_linear_data_reproduced_by_solve(self):
        # discrete harmonic extension of linear data is the linear itself
        g = lambda x: 2.0 * x[:, 0] - 3.0 * x[:, 1] + 0.5  # noqa: E731
        space = FeSpace(build_uniform_mesh(2, 8), 1)
        solution, residual = solve(space, np.zeros(space.n_dofs), g)
        assert residual <= 1e-12
        assert np.allclose(solution, interpolate(space, g), atol=1e-9)

    def test_corner_value_on_model_problem(self):
        # full 2D layer-source solve; the corner dof carries the boundary data
        mesh = build_uniform_mesh(2, 64)
        space = FeSpace(mesh, 1)
        exact = reference_solution(CIRCLE)
        load = assemble_interface_load(space, CIRCLE, lambda y: 5.0)
        solution, residual = solve(space, load, exact.values)
        assert residual <= 1e-10
        value = space.evaluate(solution, [[1.0, 1.0]])[0][0]
        assert value == pytest.approx(-math.log(math.hypot(0.7, 0.7)), abs=5e-3)

    def test_galerkin_orthogonality_proxy(self):
        rng = np.random.default_rng(4)
        mesh = build_uniform_mesh(2, 16)
        space = FeSpace(mesh, 1)
        exact = reference_solution(CIRCLE)
        stiffness = element_scatter_stiffness(space)
        load = assemble_interface_load(space, CIRCLE, lambda y: 5.0)
        _, rhs = eliminate(stiffness, load, space, exact.values)
        tol = 1e-11
        solution, relative_residual = solve(space, load, exact.values)
        assert relative_residual <= tol
        interior = np.setdiff1d(np.arange(space.n_dofs), space.boundary_dofs)
        residual = (stiffness @ solution - load)[interior]
        scale = np.linalg.norm(rhs)
        for _ in range(10):
            v = rng.standard_normal(residual.shape[0])
            assert abs(v @ residual) <= 10.0 * tol * np.linalg.norm(v) * scale

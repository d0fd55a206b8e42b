import math
import tracemalloc

import numpy as np
import pytest

from conftest import bitwise_equal, frames_of, lattice, lattice_tables
from immersedfem import (FeSpace, SphericalInterface, assemble_interface_load,
                         build_uniform_mesh, interpolate,
                         reference_solution, solve, weighted_errors)
from immersedfem.space import _lagrange_1d, _lagrange_values, _line_sum_factorised
from layer import classify_cells, interpolate_outside_layer
from potential import jump_check, single_layer

CIRCLE = SphericalInterface((0.3, 0.3), 0.2)
FAR = SphericalInterface((10.0, 10.0), 0.2)
SPHERE = SphericalInterface((0.3, 0.3, 0.3), 0.2)


def loop_tabulate(degree, ref_points):
    """Shape values and gradients built one local dof at a time, factor by
    factor: both multiply the axes in ascending order, the gradient along
    axis k with the derivative factor at axis k (test oracle)."""
    ref_points = np.atleast_2d(np.asarray(ref_points, dtype=float))
    dim = ref_points.shape[-1]
    vals1d, ders1d = zip(*(_lagrange_1d(degree, ref_points[..., k]) for k in range(dim)))
    local = lattice(degree + 1, dim).astype(int)
    values = np.ones(ref_points.shape[:-1] + (local.shape[0],))
    grads = np.zeros(ref_points.shape[:-1] + (local.shape[0], dim))
    for j in range(local.shape[0]):
        for k in range(dim):
            values[..., j] = values[..., j] * vals1d[k][..., local[j, k]]
        for k in range(dim):
            g = np.ones(ref_points.shape[:-1])
            for axis in range(dim):
                table = ders1d[axis] if axis == k else vals1d[axis]
                g = g * table[..., local[j, axis]]
            grads[..., j, k] = g
    return values, grads


class TestShapeFunctions:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_bitwise_equal_to_loop_oracle(self, dim, degree):
        nodes = lattice(degree + 1, dim) / degree
        random = np.random.default_rng(dim * degree).uniform(0.0, 1.0, size=(50, dim))
        for pts in (nodes, random, random.reshape(5, 10, dim)):
            values, grads = FeSpace(build_uniform_mesh(dim, 1), degree).tabulate(pts)
            want_values, want_grads = loop_tabulate(degree, pts)
            assert np.array_equal(values, want_values)
            assert np.array_equal(grads, want_grads)
            # the memory order decides how BLAS sums products with these tables
            assert values.flags.c_contiguous and grads.flags.c_contiguous

    def test_q1_kronecker_at_corner(self):
        values, _ = FeSpace(build_uniform_mesh(2, 1), 1).tabulate([[0.0, 0.0]])
        assert np.allclose(values[0], [1.0, 0.0, 0.0, 0.0])

    def test_q1_center_symmetry(self):
        values, _ = FeSpace(build_uniform_mesh(2, 1), 1).tabulate([[0.5, 0.5]])
        assert np.allclose(values[0], 0.25)

    def test_partition_of_unity_and_gradient_sum(self):
        rng = np.random.default_rng(11)
        for degree in (1, 2):
            for dim in (2, 3):
                pts = rng.uniform(0.0, 1.0, size=(20, dim))
                values, grads = FeSpace(build_uniform_mesh(dim, 1), degree).tabulate(pts)
                assert np.allclose(values.sum(axis=-1), 1.0, atol=1e-13)
                assert np.allclose(grads.sum(axis=-2), 0.0, atol=1e-12)

    def test_kronecker_at_all_nodes(self):
        for degree in (1, 2):
            nodes1d = np.arange(degree + 1) / degree
            nodes = np.array([[x, y] for y in nodes1d for x in nodes1d])
            values, _ = FeSpace(build_uniform_mesh(2, 1), degree).tabulate(nodes)
            assert np.allclose(values, np.eye(len(nodes)), atol=1e-13)

    @pytest.mark.parametrize("dim, points", [(2, [[0.5, 0.5, 0.5]]), (2, [0.5]),
                                             (3, [0.5]), (3, [[0.5, 0.5]]), (2, np.zeros((4, 1)))])
    def test_rejects_points_of_other_dimension(self, dim, points):
        # a 2D space once returned the 8-function tables of a 3D element
        with pytest.raises(ValueError, match="coordinates"):
            FeSpace(build_uniform_mesh(dim, 2), 1).tabulate(points)


def loop_lagrange_1d(degree, x):
    """The 1D Lagrange basis one basis function at a time, factor by factor
    (test oracle)."""
    x = np.asarray(x, dtype=float)
    nodes = np.arange(degree + 1) / degree
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
            for c in range(n):
                if c != a and c != b:
                    term = term * (x - nodes[c])
            der = der + term
        derivs[..., a] = der / denom
    return values, derivs


class TestLagrange1d:
    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_bitwise_equal_to_loop_oracle(self, degree):
        rng = np.random.default_rng(degree)
        nodes = np.arange(2 * degree + 1) / (2 * degree)
        for x in (nodes, rng.uniform(-0.5, 1.5, size=200), rng.uniform(0.0, 1.0, size=(4, 7))):
            got = _lagrange_1d(degree, x)
            for table, want in zip(got, loop_lagrange_1d(degree, x)):
                assert table.shape == want.shape
                # bytes, so that the sign of a zero counts too
                assert np.ascontiguousarray(table).tobytes() == want.tobytes()
            # the table of values alone, one row per basis function
            assert bitwise_equal(_lagrange_values(degree, x), np.moveaxis(got[0], -1, 0))


class TestSumFactorisation:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_matches_shape_tables(self, dim, degree):
        # lines along every axis in one call, with face coordinates on the
        # faces, at the nodes and inside, and points at both line ends, at
        # the nodes and inside
        rng = np.random.default_rng(7 * dim + degree)
        ticks = np.arange(degree + 1) / degree
        face_ref = np.vstack([lattice(degree + 1, dim - 1) / degree,
                              rng.uniform(0.0, 1.0, size=(8, dim - 1))])
        face_ref = np.tile(face_ref, (dim, 1))
        height = np.repeat(np.arange(dim), face_ref.shape[0] // dim)
        frame = frames_of(height, dim)
        per_line = np.concatenate([ticks, rng.uniform(0.0, 1.0, size=3)])
        line = np.repeat(np.arange(frame.shape[0]), per_line.size)
        t_ref = np.tile(per_line, frame.shape[0])
        local = rng.uniform(-1.0, 1.0, size=(frame.shape[0], (degree + 1) ** dim))
        ref = np.empty((line.size, dim))
        np.put_along_axis(ref, frame[line, :-1], face_ref[line], axis=1)
        ref[np.arange(line.size), frame[line, -1]] = t_ref
        values, grads = FeSpace(build_uniform_mesh(dim, 1), degree).tabulate(ref)
        got_values, got_grads = _line_sum_factorised(degree, local, height, face_ref, line,
                                                     t_ref)
        assert np.max(np.abs(got_values - np.einsum("pj,pj->p", values, local[line]))) <= 1e-14
        assert np.max(np.abs(got_grads - np.einsum("pj,pjk->pk", local[line], grads))) <= 1e-14


def broadcast_line_kernel(degree, local, axis, face_ref, line, t_ref):
    """``_line_sum_factorised`` as it was before its per-point stage worked
    one component and node at a time: the (line, node, component) table
    gathered per point and contracted over the node axis, with each line's
    frame built from its axis (test oracle)."""
    dim = face_ref.shape[1] + 1
    frame = frames_of(axis, dim)
    p = degree + 1

    def contract(coeffs, table):
        total = coeffs[..., 0] * table[..., 0]
        for a in range(1, p):
            total += coeffs[..., a] * table[..., a]
        return total

    index = (p ** frame) @ lattice(p, dim).astype(int).T
    value = np.take_along_axis(local, index, axis=1).reshape((-1,) + (p,) * dim)
    grads = []
    for k in range(dim - 1):
        vals, ders = (t.reshape((-1,) + (1,) * (dim - 1 - k) + (p,))
                      for t in _lagrange_1d(degree, face_ref[:, k]))
        grads = [contract(g, vals) for g in grads] + [contract(value, ders)]
        value = contract(value, vals)
    grads.append(contract(value[:, None, :], _lagrange_1d(degree, np.arange(p) / degree)[1]))
    polys = np.empty((value.shape[0], p, dim + 1))
    polys[:, :, 0] = value
    np.put_along_axis(polys, frame[:, None, :] + 1, np.stack(grads, axis=-1), axis=2)
    vals, _ = _lagrange_1d(degree, t_ref)
    total = contract(np.moveaxis(polys[line], 1, -1), vals[:, None, :])
    return total[:, 0], total[:, 1:]


class TestLineKernelColumnWise:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_bitwise_equal_to_broadcast_formula(self, dim, degree, in_layout):
        # lines along every axis, visited in any order, points at the nodes
        rng = np.random.default_rng(29 * dim + degree)
        axis = rng.integers(0, dim, size=40)
        face_ref = rng.uniform(0.0, 1.0, size=(40, dim - 1))
        face_ref[::3] = np.arange(dim - 1) % 2
        local = rng.uniform(-1.0, 1.0, size=(40, (degree + 1) ** dim))
        line = rng.integers(0, 40, size=500)
        t_ref = rng.uniform(0.0, 1.0, size=500)
        t_ref[::5] = (np.arange(100) % (degree + 1)) / degree
        want = broadcast_line_kernel(degree, local, axis, face_ref, line, t_ref)
        got = _line_sum_factorised(degree, in_layout(local), axis, in_layout(face_ref), line,
                                   t_ref)
        assert bitwise_equal(got[0], want[0]) and bitwise_equal(got[1], want[1])


class TestFeSpace:
    def test_dof_count(self):
        for degree in (1, 2):
            for n in (2, 4):
                space = FeSpace(build_uniform_mesh(2, n), degree)
                assert space.n_dofs == (degree * n + 1) ** 2
        # a numpy degree is stored as a Python int
        assert type(FeSpace(build_uniform_mesh(2, 4), np.int64(2)).degree) is int

    def test_boundary_dofs(self):
        space = FeSpace(build_uniform_mesh(2, 2), 1)
        coords = space.dof_coords(space.boundary_dofs)
        on_edge = (coords == 0.0) | (coords == 1.0)
        assert np.all(on_edge.any(axis=1))
        assert len(space.boundary_dofs) == 8

    @pytest.mark.parametrize("n", [1, 3, 8])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_rows_match_the_lattice_tables(self, dim, degree, n):
        # the rows computed from ids against the tables built whole from
        # index lattices, on every id and on a shuffled subset
        space = FeSpace(build_uniform_mesh(dim, n), degree)
        mesh = space.mesh
        cell_lows, cell_dofs, dof_coords, boundary_dofs = lattice_tables(space)
        cells, dofs = np.arange(mesh.n_cells), np.arange(space.n_dofs)
        assert np.array_equal(mesh.cell_lows(cells), cell_lows)
        assert np.array_equal(space.cell_dofs(cells), cell_dofs)
        assert np.array_equal(space.dof_coords(dofs), dof_coords)
        assert np.array_equal(space.boundary_dofs, boundary_dofs)
        assert space.boundary_dofs.dtype == boundary_dofs.dtype
        rng = np.random.default_rng(100 * dim + 10 * degree + n)
        cells = rng.permutation(mesh.n_cells)[:max(1, mesh.n_cells // 3)]
        dofs = rng.permutation(space.n_dofs)[:space.n_dofs // 3]
        assert np.array_equal(mesh.cell_lows(cells), cell_lows[cells])
        assert np.array_equal(space.cell_dofs(cells), cell_dofs[cells])
        assert np.array_equal(space.dof_coords(dofs), dof_coords[dofs])

    @pytest.mark.parametrize("method, bad", [("cell_dofs", 64), ("dof_coords", 81)])
    def test_rows_reject_ids_outside_the_space(self, method, bad):
        space = FeSpace(build_uniform_mesh(2, 8), 1)
        with pytest.raises(ValueError, match="ids"):
            getattr(space, method)([0, bad])

    def test_peak_memory_of_a_fine_space(self):
        # numpy reports its arrays to tracemalloc; per-cell and per-dof
        # tables of this space take 194 MiB to build
        tracemalloc.start()
        try:
            FeSpace(build_uniform_mesh(2, 1024), 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2 ** 20

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            FeSpace(build_uniform_mesh(2, 2), 0)

    @pytest.mark.parametrize("degree", [1.5, 2.0, True])
    def test_rejects_non_integer_degree(self, degree):
        with pytest.raises(ValueError, match="integer"):
            FeSpace(build_uniform_mesh(2, 8), degree)

    @pytest.mark.parametrize("method", ["evaluate"])
    @pytest.mark.parametrize("shape", [(86,), (76,), (81, 1)],
                             ids=["too-long", "too-short", "two-dimensional"])
    def test_evaluation_rejects_coeffs_of_wrong_shape(self, method, shape):
        # on 81 dofs, 86 or 76 coefficients would index a wrong vector silently
        space = FeSpace(build_uniform_mesh(2, 8), 1)
        with pytest.raises(ValueError, match="coeffs"):
            getattr(space, method)(np.ones(shape), [[0.5, 0.5]])


class TestInterpolation:
    def test_constant(self):
        space = FeSpace(build_uniform_mesh(2, 4), 1)
        coeffs = interpolate(space, lambda x: 1.0)
        assert np.array_equal(coeffs, np.ones(space.n_dofs))

    def test_linear_reproduced_pointwise(self):
        rng = np.random.default_rng(5)
        space = FeSpace(build_uniform_mesh(2, 4), 1)
        g = lambda x: 0.3 * x[:, 0] - 1.7 * x[:, 1] + 0.25
        coeffs = interpolate(space, g)
        pts = rng.uniform(0.0, 1.0, size=(10, 2))
        values, _ = space.evaluate(coeffs, pts)
        expected = 0.3 * pts[:, 0] - 1.7 * pts[:, 1] + 0.25
        assert np.allclose(values, expected, atol=1e-13)

    def test_bilinear_reproduced(self):
        space = FeSpace(build_uniform_mesh(2, 3), 1)
        coeffs = interpolate(space, lambda x: x[:, 0] * x[:, 1])
        pts = np.array([[0.1, 0.9], [0.37, 0.42], [0.99, 0.01]])
        assert np.allclose(space.evaluate(coeffs, pts)[0], pts[:, 0] * pts[:, 1],
                           atol=1e-14)

    def test_gradient_evaluation(self):
        space = FeSpace(build_uniform_mesh(2, 4), 1)
        coeffs = interpolate(space, lambda x: 2.0 * x[:, 0] - x[:, 1])
        _, grads = space.evaluate(coeffs, [[0.3, 0.6], [0.8, 0.1]])
        assert np.allclose(grads, [[2.0, -1.0], [2.0, -1.0]], atol=1e-12)


class TestLayerMaskedInterpolation:
    def test_identical_to_interpolation_without_layer(self):
        mesh = build_uniform_mesh(2, 4)
        space = FeSpace(mesh, 1)
        g = lambda x: np.sin(x[:, 0]) + x[:, 1]
        assert np.array_equal(interpolate_outside_layer(space, FAR, 2.0, g),
                              interpolate(space, g))

    def test_zero_when_all_cells_in_layer(self):
        mesh = build_uniform_mesh(2, 4)
        space = FeSpace(mesh, 1)
        coeffs = interpolate_outside_layer(space, CIRCLE, 10.0 * math.sqrt(2.0) * 4,
                                           lambda x: 1.0)
        assert np.array_equal(coeffs, np.zeros(space.n_dofs))

    @pytest.mark.parametrize("dim, interface", [(3, CIRCLE), (2, SPHERE)],
                             ids=["circle-on-3d", "sphere-on-2d"])
    def test_rejects_interface_of_other_dimension(self, dim, interface):
        space = FeSpace(build_uniform_mesh(dim, 4), 1)
        with pytest.raises(ValueError, match="dimensions differ"):
            interpolate_outside_layer(space, interface, 2.0, lambda x: 1.0)

    def test_zero_set_matches_bruteforce_adjacency(self):
        # dof survives iff one of its adjacent cells lies outside the layer
        mesh = build_uniform_mesh(2, 8)
        space = FeSpace(mesh, 1)
        coeffs = interpolate_outside_layer(space, CIRCLE, math.sqrt(2.0), lambda x: 1.0)
        assert set(np.unique(coeffs)) <= {0.0, 1.0}
        in_mask = classify_cells(mesh, CIRCLE, math.sqrt(2.0))
        cell_dofs = space.cell_dofs(np.arange(mesh.n_cells))
        for dof in range(space.n_dofs):
            cells_of_dof = np.nonzero((cell_dofs == dof).any(axis=1))[0]
            expected = 0.0 if all(in_mask[c] for c in cells_of_dof) else 1.0
            assert coeffs[dof] == expected

    def test_linearity_exact(self):
        mesh = build_uniform_mesh(2, 8)
        space = FeSpace(mesh, 1)
        sigma = math.sqrt(2.0)
        g1 = lambda x: np.sin(3.0 * x[:, 0]) * x[:, 1]
        g2 = lambda x: x[:, 0] ** 2 - 0.5 * x[:, 1]
        combo = lambda x: 2.5 * g1(x) + g2(x)
        lhs = interpolate_outside_layer(space, CIRCLE, sigma, combo)
        rhs = (2.5 * interpolate_outside_layer(space, CIRCLE, sigma, g1)
               + interpolate_outside_layer(space, CIRCLE, sigma, g2))
        assert np.array_equal(lhs, rhs)

    @pytest.mark.parametrize("degree,min_rate", [(1, 0.8), (2, 1.8)])
    def test_outside_layer_interpolation_rate(self, degree, min_rate):
        # broken H1 seminorm over the out-cells decays at the full order;
        # mean EOC over three refinements, taken past the preasymptotic range
        # where the near-layer strip still dominates
        exact = reference_solution(CIRCLE)
        errors = []
        for n in (32, 64, 128, 256):
            mesh = build_uniform_mesh(2, n)
            space = FeSpace(mesh, degree)
            coeffs = interpolate_outside_layer(space, CIRCLE, math.sqrt(2.0), exact.values)
            out_cells = np.flatnonzero(~classify_cells(mesh, CIRCLE, math.sqrt(2.0)))
            errs = weighted_errors(space, coeffs, exact, CIRCLE, [0.0], cell_ids=out_cells)
            errors.append(errs[(0.0, 1)])
        mean_rate = math.log2(errors[0] / errors[-1]) / 3.0
        assert mean_rate >= min_rate

    def test_transition_ring_scaling_law(self):
        # zeroing O(1) nodal values across one cell makes the weighted H1
        # seminorm of u - (masked interpolant) scale like h^(alpha - 1/2):
        # it grows at alpha = 0 and stays bounded at alpha = 0.49, while the
        # restriction to the out-cells decays properly
        exact = reference_solution(CIRCLE)
        flat, restricted = [], []
        for n in (32, 64, 128):
            mesh = build_uniform_mesh(2, n)
            space = FeSpace(mesh, 1)
            coeffs = interpolate_outside_layer(space, CIRCLE, math.sqrt(2.0), exact.values)
            out_cells = np.flatnonzero(~classify_cells(mesh, CIRCLE, math.sqrt(2.0)))
            full = weighted_errors(space, coeffs, exact, CIRCLE, [0.49])
            out = weighted_errors(space, coeffs, exact, CIRCLE, [0.49], cell_ids=out_cells)
            flat.append(full[(0.49, 1)])
            restricted.append(out[(0.49, 1)])
        flat_rates = [math.log2(a / b) for a, b in zip(flat[:-1], flat[1:])]
        assert all(abs(r) < 0.2 for r in flat_rates)
        out_rates = [math.log2(a / b) for a, b in zip(restricted[:-1], restricted[1:])]
        assert all(r >= 0.8 for r in out_rates)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_bad_sigma(self, sigma):
        # NaN would keep every dof and inf zero every one
        space = FeSpace(build_uniform_mesh(2, 4), 1)
        with pytest.raises(ValueError, match="sigma"):
            interpolate_outside_layer(space, CIRCLE, sigma, lambda x: 1.0)


class CountingField:
    """Batched test field: records the shape of each call and returns
    ``result(points)``, by default 1 + x_0 at every point."""

    def __init__(self, result=lambda points: 1.0 + points[:, 0]):
        self.shapes = []
        self._result = result

    def __call__(self, points):
        self.shapes.append(np.shape(points))
        return self._result(points)


def _field_consumers():
    mesh = build_uniform_mesh(2, 8)
    space = FeSpace(mesh, 1)
    return {
        "interpolate": lambda g: interpolate(space, g),
        "interpolate_outside_layer": lambda g: interpolate_outside_layer(space, CIRCLE,
                                                                         math.sqrt(2.0), g),
        "solve": lambda g: solve(space, np.zeros(space.n_dofs), g),
        "assemble_interface_load": lambda g: assemble_interface_load(space, CIRCLE, g),
        "single_layer": lambda g: single_layer(CIRCLE, g, [0.8, 0.8]),
        "jump_check": lambda g: jump_check(CIRCLE, g, lambda y: 0.0),
    }


class TestFieldContract:
    @pytest.mark.parametrize("consumer", sorted(_field_consumers()))
    def test_one_batched_call_and_checked_result(self, consumer):
        run = _field_consumers()[consumer]
        field = CountingField()
        run(field)
        assert len(field.shapes) == 1
        n, dim = field.shapes[0]
        assert n > 0 and dim == 2
        # a field written for one point at a time, and one NaN among the values
        for bad in (lambda points: points[0] + 1.0,
                    lambda points: np.append(np.ones(len(points) - 1), np.nan)):
            with pytest.raises(ValueError):
                run(CountingField(bad))

    def test_interpolation_matches_pointwise_loop(self):
        # oracle: the exact solution called at one dof coordinate at a time
        space = FeSpace(build_uniform_mesh(2, 64), 2)
        exact = reference_solution(CIRCLE)
        want = np.array([exact.values(x[None, :])[0] for x in space.dof_coords(np.arange(space.n_dofs))])
        assert interpolate(space, exact.values).tobytes() == want.tobytes()

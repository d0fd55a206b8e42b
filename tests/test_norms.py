import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import bitwise_equal
from immersedfem import (FeSpace, SphericalInterface, build_uniform_mesh,
                         classify_cells, discrete_norm, eoc, gauss_rule, interpolate,
                         reference_solution, split_cut_cell, weighted_errors)
from immersedfem import norms, quadrature, space as space_module

CIRCLE = SphericalInterface((0.3, 0.3), 0.2)
FAR = SphericalInterface((10.0, 10.0), 0.2)


class ConstantField:
    """Test hook standing in for an exact solution: constant value."""

    def __init__(self, value):
        self._value = value

    def values(self, points, side=None):
        return np.full(np.atleast_2d(points).shape[0], self._value)

    def gradients(self, points, side=None):
        return np.zeros_like(np.atleast_2d(points))


class BilinearField:
    def values(self, points, side=None):
        points = np.atleast_2d(points)
        return points[:, 0] * points[:, 1]

    def gradients(self, points, side=None):
        points = np.atleast_2d(points)
        return np.column_stack([points[:, 1], points[:, 0]])


def weight_integral(interface, alpha, mesh):
    """Integral of d^(2 alpha) over the unit box: the squared weighted L2
    error of the zero function against the unit field."""
    space = FeSpace(mesh, 1)
    errs = weighted_errors(space, np.zeros(space.n_dofs), ConstantField(1.0), interface,
                           [alpha])
    return errs[(alpha, 0)] ** 2


class TestParams:
    def test_alpha_range(self):
        # both weighted norms accept exactly the exponents in (-1/2, 1/2)
        space = FeSpace(build_uniform_mesh(2, 2), 1)
        cls = classify_cells(space.mesh, CIRCLE, math.sqrt(2.0))
        zero = np.zeros(space.n_dofs)
        for alpha in (0.49, -0.49):
            weighted_errors(space, zero, ConstantField(0.0), CIRCLE, [alpha])
            discrete_norm(space, zero, cls, alpha)
        for alpha in (0.5, -0.5, -0.6):
            with pytest.raises(ValueError):
                weighted_errors(space, zero, ConstantField(0.0), CIRCLE, [0.0, alpha])
            with pytest.raises(ValueError):
                discrete_norm(space, zero, cls, alpha)

    @pytest.mark.parametrize("cell_ids", [[-1], [63, 63], [1.7], [64]],
                             ids=["negative", "repeated", "fractional", "past-the-end"])
    def test_rejects_bad_cell_ids(self, cell_ids):
        # each would integrate a cell that was not asked for, or fail late
        space = FeSpace(build_uniform_mesh(2, 8), 1)
        with pytest.raises(ValueError, match="cell_ids"):
            weighted_errors(space, np.zeros(space.n_dofs), ConstantField(1.0), CIRCLE, [0.0],
                            cell_ids=cell_ids)

    def test_rejects_long_coeffs(self):
        # extra entries would be ignored and the norms of a prefix returned
        space = FeSpace(build_uniform_mesh(2, 4), 1)
        cls = classify_cells(space.mesh, CIRCLE, math.sqrt(2.0))
        long = np.zeros(space.n_dofs + 5)
        with pytest.raises(ValueError, match="coeffs"):
            weighted_errors(space, long, ConstantField(1.0), CIRCLE, [0.0])
        with pytest.raises(ValueError, match="coeffs"):
            discrete_norm(space, long, cls, 0.0)

    def test_rejects_short_coeffs(self):
        space = FeSpace(build_uniform_mesh(2, 4), 1)
        cls = classify_cells(space.mesh, CIRCLE, math.sqrt(2.0))
        short = np.zeros(space.n_dofs - 1)
        with pytest.raises(ValueError, match="coeffs"):
            weighted_errors(space, short, ConstantField(1.0), CIRCLE, [0.0])
        with pytest.raises(ValueError, match="coeffs"):
            discrete_norm(space, short, cls, 0.0)

    def test_rejects_interface_of_other_dimension(self):
        space = FeSpace(build_uniform_mesh(2, 4), 1)
        sphere = SphericalInterface((0.3, 0.3, 0.3), 0.2)
        with pytest.raises(ValueError, match="dimensions differ"):
            weighted_errors(space, np.zeros(space.n_dofs), ConstantField(1.0), sphere, [0.0])

    def test_empty_cell_ids_give_zeros(self):
        space = FeSpace(build_uniform_mesh(2, 8), 1)
        errs = weighted_errors(space, np.zeros(space.n_dofs), ConstantField(1.0), CIRCLE,
                               [0.0, 0.3], cell_ids=[])
        assert errs == {(a, m): 0.0 for a in (0.0, 0.3) for m in (0, 1)}


class TestExactSolutions:
    def test_2d_values(self):
        exact = reference_solution(CIRCLE)
        values = exact.values([[0.3, 0.3], [0.7, 0.3]])
        assert values == pytest.approx([-math.log(0.2), -math.log(0.4)], abs=1e-14)
        assert np.allclose(exact.gradients([[0.3, 0.31]]), 0.0)

    def test_3d_values(self):
        sphere = SphericalInterface((0.3, 0.3, 0.3), 0.2)
        exact = reference_solution(sphere)
        values = exact.values([[0.3, 0.3, 0.3], [0.8, 0.3, 0.3]])
        assert values == pytest.approx([5.0, 2.0], abs=1e-12)

    def test_continuity_across_surface(self):
        rng = np.random.default_rng(2)
        for interface in (CIRCLE, SphericalInterface((0.3, 0.3, 0.3), 0.2)):
            exact = reference_solution(interface)
            if interface.dim == 2:
                theta = rng.uniform(0.0, 2.0 * math.pi, size=100)
                on_surface = interface.center + 0.2 * np.column_stack(
                    [np.cos(theta), np.sin(theta)])
            else:
                from immersedfem import surface_samples
                on_surface = surface_samples(interface, 100)
            inner = exact.values(on_surface, side=np.full(100, -1))
            outer = exact.values(on_surface, side=np.full(100, 1))
            assert np.max(np.abs(inner - outer)) <= 1e-12

    @pytest.mark.parametrize("interface, inner", [
        (CIRCLE, -math.log(0.2)), (SphericalInterface((0.3, 0.3, 0.3), 0.2), 1.0 / 0.2)],
        ids=["circle", "sphere"])
    def test_inner_branch_at_the_centre(self, interface, inner):
        # the outer branch is singular at the centre and must not be evaluated
        exact = reference_solution(interface)
        centre = interface.center[None, :]
        with np.errstate(all="raise"):
            values = exact.values(centre, side=-1)
            grads = exact.gradients(centre, side=-1)
        assert np.array_equal(values, [inner])
        assert np.array_equal(grads, np.zeros((1, interface.dim)))

    def test_outside_gradient_formula(self):
        exact = reference_solution(CIRCLE)
        x = np.array([0.7, 0.3])
        r = x - CIRCLE.center
        assert np.allclose(exact.gradients([x])[0], -r / np.dot(r, r), atol=1e-14)


def broadcast_radial(interface, points, side):
    """Values and gradients of the reference solution from the broadcast
    formulas over (n, dim) arrays (test oracle for the column-wise ones)."""
    c, radius = interface.center, interface.radius
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if side is None:
        side = np.where(np.sqrt(np.sum((points - c) ** 2, axis=-1)) < radius, -1, 1)
    outer = np.broadcast_to(np.asarray(side), (points.shape[0],)) > 0
    r = points - c
    squares = r[:, 0] ** 2
    for axis in range(1, r.shape[1]):
        squares = squares + r[:, axis] ** 2
    rho = np.where(outer, np.sqrt(squares), 1.0)
    if interface.dim == 2:
        value, slope, inner = -np.log(rho), -1.0 / rho, -math.log(radius)
    else:
        value, slope, inner = 1.0 / rho, -1.0 / rho**2, 1.0 / radius
    return (np.where(outer, value, inner),
            np.where(outer[:, None], (slope / rho)[:, None] * r, 0.0))


class TestRadialColumnWise:
    @pytest.mark.parametrize("interface", [CIRCLE, SphericalInterface((0.3, 0.3, 0.3), 0.2)],
                             ids=["2d", "3d"])
    def test_bitwise_equal_to_broadcast_formula(self, interface, in_layout):
        # points on both sides, at the centre, on the surface and on the
        # planes through the centre; tags from the points, given and flipped
        rng = np.random.default_rng(17 * interface.dim)
        dim, c = interface.dim, interface.center
        direction = rng.standard_normal((60, dim))
        on_surface = c + 0.2 * direction / np.linalg.norm(direction, axis=1)[:, None]
        planes = rng.uniform(0.0, 1.0, size=(60, dim))
        planes[np.arange(60), np.arange(60) % dim] = c[np.arange(60) % dim]
        points = np.vstack([rng.uniform(0.0, 1.0, size=(400, dim)), on_surface, planes])
        exact = reference_solution(interface)
        tags = interface.side(points)
        with_centre = np.vstack([points, c])
        # the outer branch is singular at the centre, so it is tagged inside
        for points, side in ((with_centre, None), (with_centre, -1), (points, tags),
                             (points, -tags), (points, 1)):
            want_values, want_grads = broadcast_radial(interface, points, side)
            assert bitwise_equal(exact.values(in_layout(points), side=side), want_values)
            assert bitwise_equal(exact.gradients(in_layout(points), side=side), want_grads)


class TestWeightedError:
    def test_interpolation_rate_smooth_problem(self):
        # interface far outside: the field is smooth, plain Q1 rate is 2
        exact = reference_solution(FAR)
        errors = []
        for n in (8, 16, 32):
            space = FeSpace(build_uniform_mesh(2, n), 1)
            coeffs = interpolate(space, exact.values)
            errors.append(weighted_errors(space, coeffs, exact, FAR, [0.0])[(0.0, 0)])
        rates = [math.log2(a / b) for a, b in zip(errors[:-1], errors[1:])]
        assert all(1.85 <= r <= 2.15 for r in rates)

    def test_exact_fe_function_gives_zero(self):
        field = BilinearField()
        space = FeSpace(build_uniform_mesh(2, 4), 1)
        coeffs = interpolate(space, field.values)
        errs = weighted_errors(space, coeffs, field, CIRCLE, [0.0, 0.3, 0.49])
        assert len(errs) == 6
        assert max(errs.values()) <= 1e-13

    def test_constant_one_recovers_domain_measure(self):
        # error field == 1 with alpha = 0 integrates the unit box
        space = FeSpace(build_uniform_mesh(2, 4), 1)
        zero = np.zeros(space.n_dofs)
        err = weighted_errors(space, zero, ConstantField(1.0), CIRCLE, [0.0])[(0.0, 0)]
        assert err == pytest.approx(1.0, abs=1e-12)

    def test_quadrature_robustness(self, monkeypatch):
        # the default 4 points per axis against 8
        exact = reference_solution(CIRCLE)
        space = FeSpace(build_uniform_mesh(2, 16), 1)
        coeffs = interpolate(space, exact.values)
        for alpha, m in ((0.0, 0), (0.49, 1)):
            base = weighted_errors(space, coeffs, exact, CIRCLE, [alpha])[(alpha, m)]
            with monkeypatch.context() as patch:
                patch.setattr(norms, "EXTRA_POINTS", 7)
                fine = weighted_errors(space, coeffs, exact, CIRCLE, [alpha])[(alpha, m)]
            assert abs(fine - base) <= 1e-3 * base

    def test_weight_monotonicity_in_alpha(self):
        # max distance to the circle inside the unit square is < 1, so the
        # weighted norm decreases as alpha grows
        exact = reference_solution(CIRCLE)
        space = FeSpace(build_uniform_mesh(2, 16), 1)
        coeffs = interpolate(space, exact.values)
        errs = weighted_errors(space, coeffs, exact, CIRCLE, [0.0, 0.25, 0.49])
        for m in (0, 1):
            assert errs[(0.49, m)] <= errs[(0.25, m)] <= errs[(0.0, m)]

    def test_embedding_constant(self):
        exact = reference_solution(CIRCLE)
        space = FeSpace(build_uniform_mesh(2, 16), 1)
        coeffs = interpolate(space, exact.values)
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        max_dist = float(np.max(CIRCLE.distance(corners)))
        assert max_dist == pytest.approx(math.hypot(0.7, 0.7) - 0.2, abs=1e-14)
        errs = weighted_errors(space, coeffs, exact, CIRCLE, [0.0, 0.25])
        assert errs[(0.25, 0)] <= max_dist**0.25 * errs[(0.0, 0)] * (1.0 + 1e-12)


@st.composite
def grid_circles(draw):
    """A grid with n in {4, 8, 16} and a circle inside the unit box that is
    generic, passes through the grid vertex nearest its centre, or is tangent
    to the grid line nearest its centre."""
    n = draw(st.sampled_from([4, 8, 16]))
    center = np.array([draw(st.floats(0.2, 0.8)), draw(st.floats(0.2, 0.8))])
    kind = draw(st.sampled_from(["generic", "vertex", "tangent"]))
    if kind == "generic":
        radius = draw(st.floats(0.01, 0.19))
    elif kind == "vertex":
        radius = float(np.linalg.norm(np.round(center * n) / n - center))
    else:
        axis = draw(st.integers(0, 1))
        radius = abs(round(center[axis] * n) / n - center[axis])
    assume(0.01 <= radius < min(np.min(center), np.min(1.0 - center)) - 1e-9)
    return build_uniform_mesh(2, n), SphericalInterface(center, radius)


class TestCellBatches:
    """Unit integrands through the plain and cut-cell quadrature batches."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(grid_circles(), st.data())
    def test_unit_integrands_on_degenerate_circles(self, mesh_circle, data):
        mesh, circle = mesh_circle
        assert weight_integral(circle, 0.0, mesh) == pytest.approx(1.0, abs=1e-13)
        cells = sorted(data.draw(st.sets(st.integers(0, mesh.n_cells - 1), min_size=1)))
        space = FeSpace(mesh, 1)
        errs = weighted_errors(space, np.zeros(space.n_dofs), ConstantField(1.0), circle,
                               [0.0], cell_ids=cells)
        expected = math.sqrt(len(cells) * mesh.edge ** mesh.dim)
        assert errs[(0.0, 0)] == pytest.approx(expected, rel=1e-13)
        assert errs[(0.0, 1)] == 0.0

    def test_unit_integrand_over_several_plain_batches(self):
        mesh = build_uniform_mesh(2, 128)
        rng = np.random.default_rng(9)
        cells = np.sort(rng.choice(mesh.n_cells, size=12000, replace=False))
        space = FeSpace(mesh, 1)
        assert cells.size > 2 * norms.BATCH_POINTS // (space.degree + norms.EXTRA_POINTS) ** 2
        errs = weighted_errors(space, np.zeros(space.n_dofs), ConstantField(1.0), CIRCLE,
                               [0.0], cell_ids=cells)
        assert errs[(0.0, 0)] == pytest.approx(math.sqrt(cells.size * mesh.edge ** 2),
                                               rel=1e-13)


class TestWeightIntegral:
    """The integral of the weight alone, through ``weighted_errors``."""

    def test_alpha_zero_gives_volume(self):
        mesh = build_uniform_mesh(2, 8)
        assert weight_integral(CIRCLE, 0.0, mesh) == pytest.approx(1.0, abs=1e-13)

    def test_against_grid_oracle(self):
        # oracle: midpoint rule on a 4096^2 pixel grid
        ticks = (np.arange(4096) + 0.5) / 4096
        gx, gy = np.meshgrid(ticks, ticks)
        pixels = np.column_stack([gx.ravel(), gy.ravel()])
        d = CIRCLE.distance(pixels)
        mesh = build_uniform_mesh(2, 16)
        for alpha in (0.49, 0.25):
            oracle = float(np.mean(d ** (2.0 * alpha)))
            value = weight_integral(CIRCLE, alpha, mesh)
            assert value == pytest.approx(oracle, abs=5e-4)

    def test_quadrature_refinement_converges(self, monkeypatch):
        # the default 4 points per axis against 8
        mesh = build_uniform_mesh(2, 16)
        for alpha in (0.1, 0.49):
            coarse = weight_integral(CIRCLE, alpha, mesh)
            with monkeypatch.context() as patch:
                patch.setattr(norms, "EXTRA_POINTS", 7)
                fine = weight_integral(CIRCLE, alpha, mesh)
            assert fine == pytest.approx(coarse, rel=1e-6)

    def test_monotone_between_exponents(self):
        mesh = build_uniform_mesh(2, 16)
        v0 = weight_integral(CIRCLE, 0.0, mesh)
        v25 = weight_integral(CIRCLE, 0.25, mesh)
        v49 = weight_integral(CIRCLE, 0.49, mesh)
        assert v49 < v25 < v0

    def test_rejects_non_integrable_exponent(self):
        mesh = build_uniform_mesh(2, 8)
        with pytest.raises(ValueError):
            weight_integral(CIRCLE, -0.5, mesh)


class TestDiscreteNorm:
    def test_alpha_zero_matches_l2(self):
        rng = np.random.default_rng(31)
        mesh = build_uniform_mesh(2, 8)
        space = FeSpace(mesh, 1)
        cls = classify_cells(mesh, CIRCLE, math.sqrt(2.0))
        coeffs = rng.standard_normal(space.n_dofs)
        value = discrete_norm(space, coeffs, cls, 0.0)
        # independent path: weighted error of u_h against the zero field
        plain_l2 = weighted_errors(space, coeffs, ConstantField(0.0), CIRCLE,
                                   [0.0])[(0.0, 0)]
        assert value == pytest.approx(plain_l2, abs=1e-12)

    def test_zero_function(self):
        mesh = build_uniform_mesh(2, 8)
        space = FeSpace(mesh, 1)
        cls = classify_cells(mesh, CIRCLE, math.sqrt(2.0))
        assert discrete_norm(space, np.zeros(space.n_dofs), cls, 0.49) == 0.0

    @pytest.mark.parametrize("alpha", [0.25, 0.49])
    def test_equivalent_to_weighted_l2(self, alpha):
        # cellwise-frozen weight versus the pointwise weight: h-independent
        # two-sided bounds
        rng = np.random.default_rng(13)
        for n in (8, 16, 32):
            mesh = build_uniform_mesh(2, n)
            space = FeSpace(mesh, 1)
            cls = classify_cells(mesh, CIRCLE, math.sqrt(2.0))
            for _ in range(10):
                coeffs = rng.uniform(-1.0, 1.0, size=space.n_dofs)
                dn = discrete_norm(space, coeffs, cls, alpha)
                wn = weighted_errors(space, coeffs, ConstantField(0.0), CIRCLE,
                                     [alpha])[(alpha, 0)]
                assert 0.2 <= dn / wn <= 5.0


class TestEoc:
    def test_halving_rates(self):
        assert eoc([(0.5, 0.4), (0.25, 0.1)]) == [pytest.approx(2.0)]

    def test_equal_errors(self):
        assert eoc([(0.5, 0.3), (0.25, 0.3)]) == [pytest.approx(0.0)]

    def test_sqrt2_ratio(self):
        e = 0.7
        rates = eoc([(0.5, e), (0.25, e / math.sqrt(2.0))])
        assert rates == [pytest.approx(0.5)]

    def test_rejects_non_halving(self):
        with pytest.raises(ValueError):
            eoc([(0.5, 0.4), (0.3, 0.1)])

    def test_zero_error_yields_absent_rate(self):
        assert eoc([(0.5, 0.4), (0.25, 0.0)]) == [None]


def brute_force_errors(space, coeffs, exact, interface, alphas, q, cells):
    """Weighted errors summed point by point: cells farther than one cell
    width from the surface on the tensor rule, every other cell on its own
    height-function rule, the FE function from ``FeSpace.evaluate`` and
    ``evaluate_gradient`` at physical points (test oracle)."""
    mesh = space.mesh
    rule = gauss_rule(mesh.dim, q)
    acc = {(a, m): 0.0 for a in alphas for m in (0, 1)}
    for cell in cells:
        low = mesh.cell_lows[cell]
        d_min, _ = interface.distance_range_over_box(low, low + mesh.edge)
        if d_min <= mesh.edge:
            _, pts, w, side = split_cut_cell(low, mesh.edge, interface, 2 * q)
        else:
            pts = low + mesh.edge * rule.points
            w = rule.weights * mesh.edge ** mesh.dim
            side = np.repeat(interface.side(low + 0.5 * mesh.edge), rule.n_points)
        e0 = exact.values(pts, side=side) - space.evaluate(coeffs, pts)
        e1 = exact.gradients(pts, side=side) - space.evaluate_gradient(coeffs, pts)
        # for alpha != 0 a point whose distance rounds to zero carries no
        # weight: only a piece of rounding size, as at a tangent grid line,
        # puts one there
        d = interface.distance(pts)
        on_surface = d == 0.0
        for a in alphas:
            weight = np.where(on_surface, 1.0, d) ** (2 * a)
            if a != 0.0:
                weight[on_surface] = 0.0
            acc[(a, 0)] += float(np.sum(w * weight * e0**2))
            acc[(a, 1)] += float(np.sum(w * weight * np.sum(e1**2, axis=-1)))
    return {key: math.sqrt(value) for key, value in acc.items()}


class TestErrorPassOracle:
    """The blocked pass, with shared shape tables away from the surface and
    sum factorisation along the lines of the height-function rule near it,
    against point-by-point evaluation of the FE function."""

    @pytest.mark.parametrize("dim, degree, n, q", [
        (2, 1, 8, 6), (2, 2, 8, 6), (2, 3, 8, 6), (2, 1, 6, 6), (2, 2, 6, 5),
        (3, 1, 4, 3), (3, 2, 4, 3), (3, 1, 6, 3),
    ])
    def test_matches_pointwise_evaluation(self, dim, degree, n, q, monkeypatch):
        monkeypatch.setattr(norms, "EXTRA_POINTS", q - degree)
        interface = SphericalInterface((0.3,) * dim, 0.2)
        exact = reference_solution(interface)
        space = FeSpace(build_uniform_mesh(dim, n), degree)
        rng = np.random.default_rng(10 * dim + degree + n)
        coeffs = rng.standard_normal(space.n_dofs)
        alphas = [0.0, 0.3, -0.4]
        subset = np.sort(rng.choice(space.mesh.n_cells, size=space.mesh.n_cells // 2,
                                    replace=False))
        for cell_ids in (None, subset):
            cells = np.arange(space.mesh.n_cells) if cell_ids is None else subset
            got = weighted_errors(space, coeffs, exact, interface, alphas, cell_ids=cell_ids)
            want = brute_force_errors(space, coeffs, exact, interface, alphas, q, cells)
            for key in want:
                assert got[key] == pytest.approx(want[key], rel=1e-12, abs=0.0), key


class TestNearPathWork:
    def test_face_tables_once_per_line(self, monkeypatch):
        # the 1D tables of the near path take each point's height coordinate
        # once and each line's face coordinates once, not every coordinate
        # of every point
        interface = SphericalInterface((0.3, 0.3, 0.3), 0.2)
        mesh = build_uniform_mesh(3, 4)
        space = FeSpace(mesh, 1)
        q = space.degree + norms.EXTRA_POINTS
        d_min, _ = interface.distance_range_over_box(mesh.cell_lows, mesh.cell_highs())
        near = np.nonzero(d_min <= mesh.edge)[0]
        boxes = quadrature._height_boxes(mesh.cell_lows[near], mesh.edge, interface)
        rows, _, _, line, _, _, _ = quadrature._line_rule(boxes, interface, 2 * q)
        coordinates, kernel_calls = [], []
        lagrange, kernel = space_module._lagrange_1d, norms._line_sum_factorised
        monkeypatch.setattr(space_module, "_lagrange_1d",
                            lambda degree, x: coordinates.append(np.size(x)) or lagrange(degree, x))
        monkeypatch.setattr(norms, "_line_sum_factorised",
                            lambda *args: kernel_calls.append(1) or kernel(*args))
        weighted_errors(space, np.zeros(space.n_dofs), reference_solution(interface), interface,
                        [0.0, 0.3], cell_ids=near)
        # besides: one tabulation of the tensor rule, and per kernel call the
        # slopes of the 1D basis at its degree + 1 nodes
        bound = (line.size + (mesh.dim - 1) * rows.size + mesh.dim * q ** mesh.dim
                 + (space.degree + 1) * len(kernel_calls))
        assert kernel_calls and sum(coordinates) <= bound
        assert bound < mesh.dim * line.size


def test_distance_weights_match_power():
    rng = np.random.default_rng(23)
    d = np.concatenate([np.exp(rng.uniform(math.log(1e-12), math.log(2.0), 2000)),
                        [1e-12, 1.0, 2.0], np.zeros(4)])
    alphas = [0.0, -0.49, -0.2, 0.1, 0.3, 0.49]
    got = [(a, np.copy(w)) for a, w in norms._distance_weights(d.copy(), alphas)]
    assert [a for a, _ in got] == alphas
    assert got[0][1] == 1.0
    positive = d > 0.0
    for a, weight in got[1:]:
        assert np.all(weight[~positive] == 0.0)
        np.testing.assert_allclose(weight[positive], np.power(d[positive], 2.0 * a),
                                   rtol=1e-13, atol=0.0)


class TestNearBlocks:
    """The height boxes of a level are built once, and the near rule on
    blocks of boxes few enough that a plain rule on them fits in
    ``BATCH_POINTS``, so the points of the rule are bounded as well."""

    SPHERE = SphericalInterface((0.3, 0.3, 0.3), 0.2)
    ALPHAS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.49)

    def test_blocks_of_boxes_cover_the_level(self, monkeypatch):
        space = FeSpace(build_uniform_mesh(3, 4), 1)
        built, blocks = [], []
        height_boxes, line_rule = norms._height_boxes, norms._line_rule
        monkeypatch.setattr(norms, "_height_boxes",
                            lambda *args: built.append(height_boxes(*args)) or built[-1])
        monkeypatch.setattr(norms, "_line_rule",
                            lambda boxes, *args: blocks.append(boxes) or line_rule(boxes, *args))
        weighted_errors(space, np.zeros(space.n_dofs), reference_solution(self.SPHERE),
                        self.SPHERE, self.ALPHAS)
        step = norms.BATCH_POINTS // (2 * (space.degree + norms.EXTRA_POINTS)) ** 3
        assert len(built) == 1
        assert len(blocks) > 1 and all(block[0].size <= step for block in blocks)
        for whole, parts in zip(built[0], zip(*blocks)):
            assert np.array_equal(whole, np.concatenate(parts))

    @pytest.mark.parametrize("dim, degree, n", [(3, 1, 4), (2, 2, 16)])
    def test_errors_do_not_depend_on_the_batch_bound(self, dim, degree, n, monkeypatch):
        interface = SphericalInterface((0.3,) * dim, 0.2)
        exact = reference_solution(interface)
        space = FeSpace(build_uniform_mesh(dim, n), degree)
        coeffs = interpolate(space, exact.values)
        alphas = self.ALPHAS + (-0.4,)
        want = weighted_errors(space, coeffs, exact, interface, alphas)
        monkeypatch.setattr(norms, "BATCH_POINTS", 2048)
        got = weighted_errors(space, coeffs, exact, interface, alphas)
        for key in want:
            assert got[key] == pytest.approx(want[key], rel=1e-13, abs=0.0), key

    def test_no_near_cells(self):
        # no cells, and only cells farther than one cell width from the surface
        space = FeSpace(build_uniform_mesh(3, 4), 1)
        mesh, exact = space.mesh, reference_solution(self.SPHERE)
        coeffs = interpolate(space, exact.values)
        errs = weighted_errors(space, coeffs, exact, self.SPHERE, self.ALPHAS, cell_ids=[])
        assert errs == {(a, m): 0.0 for a in self.ALPHAS for m in (0, 1)}
        d_min, _ = self.SPHERE.distance_range_over_box(mesh.cell_lows, mesh.cell_highs())
        far = np.flatnonzero(d_min > mesh.edge)
        assert far.size
        got = weighted_errors(space, coeffs, exact, self.SPHERE, self.ALPHAS, cell_ids=far)
        want = brute_force_errors(space, coeffs, exact, self.SPHERE, self.ALPHAS,
                                  space.degree + norms.EXTRA_POINTS, far)
        for key in want:
            assert got[key] == pytest.approx(want[key], rel=1e-12, abs=0.0), key

    def test_peak_memory_3d(self):
        # numpy reports its arrays to tracemalloc; a rule built on every
        # near cell of the level at once peaks at about 85 MiB here
        space = FeSpace(build_uniform_mesh(3, 4), 1)
        coeffs = np.zeros(space.n_dofs)
        exact = reference_solution(self.SPHERE)
        tracemalloc.start()
        try:
            weighted_errors(space, coeffs, exact, self.SPHERE, self.ALPHAS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2 ** 20

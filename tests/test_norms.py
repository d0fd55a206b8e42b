import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import bitwise_equal
from immersedfem import (FeSpace, SphericalInterface, assemble_interface_load,
                         build_uniform_mesh, eoc, interpolate, reference_solution, solve,
                         weighted_errors)
from immersedfem import norms, quadrature, space as space_module
from immersedfem.quadrature import gauss_rule
from layer import discrete_norm
from rules import line_rule, split_cut_cell, surface_quadrature

CIRCLE = SphericalInterface((0.3, 0.3), 0.2)
FAR = SphericalInterface((10.0, 10.0), 0.2)
SPHERE = SphericalInterface((0.3, 0.3, 0.3), 0.2)


class ConstantField:
    """Test hook standing in for an exact solution: constant value."""

    def __init__(self, value):
        self._value = value

    def evaluate(self, points):
        points = np.atleast_2d(points)
        return np.full(points.shape[0], self._value), np.zeros_like(points)


class BilinearField:
    def evaluate(self, points):
        points = np.atleast_2d(points)
        return points[:, 0] * points[:, 1], np.column_stack([points[:, 1], points[:, 0]])


def weight_integral(interface, alpha, mesh):
    """Integral of d^(2 alpha) over the unit box: the squared weighted L2
    error of the zero function against the unit field."""
    space = FeSpace(mesh, 1)
    errs = weighted_errors(space, np.zeros(space.n_dofs), ConstantField(1.0), interface,
                           [alpha])
    return errs[(alpha, 0)] ** 2


class TestParams:
    def test_alpha_range(self):
        # both weighted norms accept exactly the exponents in [0, 1/2), on
        # which the height-function rule is converged; -0.0 counts as 0.0
        space = FeSpace(build_uniform_mesh(2, 2), 1)
        zero = np.zeros(space.n_dofs)
        for alpha in (0.0, -0.0, 0.49):
            errs = weighted_errors(space, zero, ConstantField(0.0), CIRCLE, [alpha])
            assert [math.copysign(1.0, a) for a, _ in errs] == [1.0, 1.0]
            discrete_norm(space, zero, CIRCLE, alpha)
        for alpha in (-0.25, -0.49, 0.5, math.nan):
            with pytest.raises(ValueError, match=r"\[0, 1/2\)"):
                weighted_errors(space, zero, ConstantField(0.0), CIRCLE, [0.0, alpha])
            with pytest.raises(ValueError, match=r"\[0, 1/2\)"):
                discrete_norm(space, zero, CIRCLE, alpha)
        # a number, a nested or ragged list, None, a string and bools are no
        # list of exponents: "0" was taken as (0.0,), the ragged list raised
        # numpy's "inhomogeneous shape" and the others TypeError
        for alphas in (0.3, [[0.1, 0.2]], [0.1, [0.2]], None, "0", [False]):
            with pytest.raises(ValueError, match="sequence of numbers"):
                weighted_errors(space, zero, ConstantField(0.0), CIRCLE, alphas)

    @pytest.mark.parametrize("cell_ids", [[-1], [63, 63], [1.7], [64]],
                             ids=["negative", "repeated", "fractional", "past-the-end"])
    def test_rejects_bad_cell_ids(self, cell_ids):
        # each would integrate a cell that was not asked for, or fail late
        space = FeSpace(build_uniform_mesh(2, 8), 1)
        with pytest.raises(ValueError, match="cell_ids"):
            weighted_errors(space, np.zeros(space.n_dofs), ConstantField(1.0), CIRCLE, [0.0],
                            cell_ids=cell_ids)

    def test_rejects_repeated_alphas(self):
        space = FeSpace(build_uniform_mesh(2, 4), 1)
        for alphas in ([0.2, 0.2], [0.0, -0.0]):  # one result key, summed into twice
            with pytest.raises(ValueError, match="distinct"):
                weighted_errors(space, np.zeros(space.n_dofs), ConstantField(1.0), CIRCLE, alphas)

    def test_rejects_empty_alphas(self):
        # the whole pass would run and return no error at all
        space = FeSpace(build_uniform_mesh(2, 4), 1)
        with pytest.raises(ValueError, match="alpha"):
            weighted_errors(space, np.zeros(space.n_dofs), ConstantField(1.0), CIRCLE, [])

    def test_rejects_long_coeffs(self):
        # extra entries would be ignored and the norms of a prefix returned
        space = FeSpace(build_uniform_mesh(2, 4), 1)
        long = np.zeros(space.n_dofs + 5)
        with pytest.raises(ValueError, match="coeffs"):
            weighted_errors(space, long, ConstantField(1.0), CIRCLE, [0.0])
        with pytest.raises(ValueError, match="coeffs"):
            discrete_norm(space, long, CIRCLE, 0.0)

    def test_rejects_short_coeffs(self):
        space = FeSpace(build_uniform_mesh(2, 4), 1)
        short = np.zeros(space.n_dofs - 1)
        with pytest.raises(ValueError, match="coeffs"):
            weighted_errors(space, short, ConstantField(1.0), CIRCLE, [0.0])
        with pytest.raises(ValueError, match="coeffs"):
            discrete_norm(space, short, CIRCLE, 0.0)

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
        values, _ = exact.evaluate([[0.3, 0.3], [0.7, 0.3]])
        assert values == pytest.approx([-math.log(0.2), -math.log(0.4)], abs=1e-14)
        assert np.allclose(exact.evaluate([[0.3, 0.31]])[1], 0.0)

    def test_3d_values(self):
        sphere = SphericalInterface((0.3, 0.3, 0.3), 0.2)
        exact = reference_solution(sphere)
        values, _ = exact.evaluate([[0.3, 0.3, 0.3], [0.8, 0.3, 0.3]])
        assert values == pytest.approx([5.0, 2.0], abs=1e-12)

    def test_continuity_across_surface(self):
        # points 1e-13 of the radius inside and outside the surface take
        # the two branches, whose values agree there
        rng = np.random.default_rng(2)
        for interface in (CIRCLE, SphericalInterface((0.3, 0.3, 0.3), 0.2)):
            exact = reference_solution(interface)
            if interface.dim == 2:
                theta = rng.uniform(0.0, 2.0 * math.pi, size=100)
                on_surface = interface.center + 0.2 * np.column_stack(
                    [np.cos(theta), np.sin(theta)])
            else:
                from potential import surface_samples
                on_surface = surface_samples(interface, 100)
            offsets = on_surface - interface.center
            inside = interface.center + (1.0 - 1e-13) * offsets
            outside = interface.center + (1.0 + 1e-13) * offsets
            assert np.all(interface.side(inside) < 0) and np.all(interface.side(outside) > 0)
            inner, inner_grads = exact.evaluate(inside)
            outer, _ = exact.evaluate(outside)
            assert np.all(inner == inner[0]) and np.all(inner_grads == 0.0)
            assert np.max(np.abs(inner - outer)) <= 1e-12

    @pytest.mark.parametrize("interface, inner", [
        (CIRCLE, -math.log(0.2)), (SphericalInterface((0.3, 0.3, 0.3), 0.2), 1.0 / 0.2)],
        ids=["circle", "sphere"])
    def test_inner_branch_at_the_centre(self, interface, inner):
        # the outer branch is singular at the centre and must not be evaluated
        exact = reference_solution(interface)
        centre = interface.center[None, :]
        with np.errstate(all="raise"):
            values, grads = exact.evaluate(centre)
        assert np.array_equal(values, [inner])
        assert np.array_equal(grads, np.zeros((1, interface.dim)))

    @pytest.mark.parametrize("interface, n", [(CIRCLE, 16), (SPHERE, 8)], ids=["2d", "3d"])
    def test_flux_jump_is_the_density(self, interface, n):
        # -(grad u+ - grad u-) . n at the surface rule's points, moved 1e-13
        # of the radius outside and inside, is the layer density of the
        # load, a field on the same points
        exact = reference_solution(interface)
        pts = surface_quadrature(interface, build_uniform_mesh(interface.dim, n))[0]
        normal = (pts - interface.center) / interface.radius
        outside, inside = (pts + scale * interface.radius * normal for scale in (1e-13, -1e-13))
        assert np.all(interface.side(outside) > 0) and np.all(interface.side(inside) < 0)
        jump = exact.evaluate(outside)[1] - exact.evaluate(inside)[1]
        density = exact.density(pts)
        assert density.shape == (pts.shape[0],)
        assert np.allclose(-np.sum(jump * normal, axis=1), density, rtol=1e-12, atol=0.0)

    def test_density_squares_by_multiplication(self):
        # R ** 2 of a Python float goes through libm pow, which is not always
        # correctly rounded: at this radius it gives 33.70713811996188, one
        # ulp from 1 / (R * R)
        radius = 0.172242
        assert 1.0 / radius ** 2 != 1.0 / (radius * radius)
        density = reference_solution(SphericalInterface((0.5, 0.5, 0.5), radius)).density
        assert bitwise_equal(density(np.zeros((3, 3))), np.full(3, 1.0 / (radius * radius)))
        density = reference_solution(SphericalInterface((0.5, 0.5), radius)).density
        assert bitwise_equal(density(np.zeros((3, 2))), np.full(3, 1.0 / radius))

    def test_outside_gradient_formula(self):
        exact = reference_solution(CIRCLE)
        x = np.array([0.7, 0.3])
        r = x - CIRCLE.center
        assert np.allclose(exact.evaluate([x])[1][0], -r / np.dot(r, r), atol=1e-14)


def broadcast_radial(interface, points, side):
    """Values and gradients of the reference solution from the broadcast
    formulas over (n, dim) arrays, on the branch of each point's ``side``
    (-1 inside, +1 outside; test oracle for the column-wise ones)."""
    c, radius = interface.center, interface.radius
    points = np.atleast_2d(np.asarray(points, dtype=float))
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
        # planes through the centre, each on the branch of the interface's
        # side test; and a block wholly outside, which takes the same path
        rng = np.random.default_rng(17 * interface.dim)
        dim, c = interface.dim, interface.center
        direction = rng.standard_normal((60, dim))
        on_surface = c + 0.2 * direction / np.linalg.norm(direction, axis=1)[:, None]
        planes = rng.uniform(0.0, 1.0, size=(60, dim))
        planes[np.arange(60), np.arange(60) % dim] = c[np.arange(60) % dim]
        points = np.vstack([rng.uniform(0.0, 1.0, size=(400, dim)), on_surface, planes])
        exact = reference_solution(interface)
        # the outer branch is singular at the centre, which is inside
        with_centre = np.vstack([points, c])
        for points in (with_centre, points[interface.side(points) > 0]):
            want_values, want_grads = broadcast_radial(interface, points,
                                                       interface.side(points))
            values, grads = exact.evaluate(in_layout(points))
            assert bitwise_equal(values, want_values)
            assert bitwise_equal(grads, want_grads)
            assert bitwise_equal(exact.values(in_layout(points)), want_values)


class EvaluateOnly:
    """An exact field that defines only ``evaluate``: the reference
    solution's, with ``change`` applied to its output, counting calls."""

    def __init__(self, interface, change=lambda values, grads: (values, grads)):
        self._exact = reference_solution(interface)
        self._change = change
        self.calls = 0

    def evaluate(self, points):
        self.calls += 1
        return self._change(*self._exact.evaluate(points))


class TestExactFieldContract:
    @pytest.mark.parametrize("dim, degree, n, batch", [(2, 1, 16, 512), (2, 2, 8, 1024),
                                                       (3, 1, 4, 4096)])
    def test_one_call_per_batch_bitwise_equal(self, dim, degree, n, batch, monkeypatch):
        monkeypatch.setattr(quadrature, "BATCH_POINTS", batch)
        interface = SphericalInterface((0.3,) * dim, 0.2)
        space = FeSpace(build_uniform_mesh(dim, n), degree)
        coeffs = np.random.default_rng(n).standard_normal(space.n_dofs)
        alphas = [0.0, 0.3, 0.1]
        field = EvaluateOnly(interface)
        assert not hasattr(field, "values") and not hasattr(field, "gradients")
        got = weighted_errors(space, coeffs, field, interface, alphas)
        n = degree + norms.EXTRA_POINTS
        blocks = norms._cell_batches(space, interface, *gauss_rule(dim, n), n, None)
        assert field.calls == len(list(blocks)) > 2
        assert got == weighted_errors(space, coeffs, reference_solution(interface), interface,
                                      alphas)

    @pytest.mark.parametrize("change", [
        lambda v, g: (v[:, None], g), lambda v, g: (v[:-1], g), lambda v, g: (v[0], g),
        lambda v, g: (v, g.T), lambda v, g: (v, g[:, :1]), lambda v, g: (v, v)],
        ids=["values-column", "values-short", "values-scalar", "gradients-transposed",
             "gradients-one-component", "gradients-flat"])
    def test_rejects_output_of_wrong_shape(self, change):
        # a column of values broadcast against the (n,) FE values to (n, n)
        space = FeSpace(build_uniform_mesh(2, 2), 1)
        with pytest.raises(ValueError, match="shapes"):
            weighted_errors(space, np.zeros(space.n_dofs), EvaluateOnly(CIRCLE, change),
                            CIRCLE, [0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_field(self, bad):
        def poison(values, grads):
            grads = grads.copy()
            grads[-1, 0] = bad
            return values, grads

        space = FeSpace(build_uniform_mesh(2, 4), 1)
        with pytest.raises(ValueError, match="not finite"):
            weighted_errors(space, np.zeros(space.n_dofs), EvaluateOnly(CIRCLE, poison),
                            CIRCLE, [0.0, 0.3])

    def test_rejects_non_finite_coeffs(self):
        exact = reference_solution(CIRCLE)
        space = FeSpace(build_uniform_mesh(2, 4), 1)
        coeffs = interpolate(space, exact.values)
        coeffs[space.n_dofs // 2] = math.nan
        with pytest.raises(ValueError, match="not finite"):
            weighted_errors(space, coeffs, exact, CIRCLE, [0.0])


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
        coeffs = interpolate(space, lambda x: field.evaluate(x)[0])
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
        # every accepted exponent is converged in quadrature: both errors of
        # the solved FE solution, at the study's exponents and 0.25, move by
        # at most 1e-6 relative when the points per axis double
        # (degree + 3 -> 2 (degree + 3), and twice that per near piece)
        alphas = (0.0, 0.1, 0.2, 0.25, 0.3, 0.4, 0.49)
        for dim, degree, n in ((2, 1, 16), (2, 2, 16), (3, 1, 4)):
            interface = SphericalInterface((0.3,) * dim, 0.2)
            exact = reference_solution(interface)
            space = FeSpace(build_uniform_mesh(dim, n), degree)
            load = assemble_interface_load(space, interface, exact.density)
            solution, _ = solve(space, load, exact.values)
            base = weighted_errors(space, solution, exact, interface, alphas)
            with monkeypatch.context() as patch:
                patch.setattr(norms, "EXTRA_POINTS", degree + 6)
                fine = weighted_errors(space, solution, exact, interface, alphas)
            for key, value in base.items():
                assert fine[key] == pytest.approx(value, rel=1e-6, abs=0.0), (dim, degree, key)

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
        assert cells.size > 2 * quadrature.BATCH_POINTS // (space.degree + norms.EXTRA_POINTS) ** 2
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
        coeffs = rng.standard_normal(space.n_dofs)
        value = discrete_norm(space, coeffs, CIRCLE, 0.0)
        # independent path: weighted error of u_h against the zero field
        plain_l2 = weighted_errors(space, coeffs, ConstantField(0.0), CIRCLE,
                                   [0.0])[(0.0, 0)]
        assert value == pytest.approx(plain_l2, abs=1e-12)

    @pytest.mark.parametrize("dim, interface", [(3, CIRCLE), (2, SPHERE)],
                             ids=["circle-on-3d", "sphere-on-2d"])
    def test_rejects_interface_of_other_dimension(self, dim, interface):
        space = FeSpace(build_uniform_mesh(dim, 4), 1)
        with pytest.raises(ValueError, match="dimensions differ"):
            discrete_norm(space, np.ones(space.n_dofs), interface, 0.25)

    def test_zero_function(self):
        mesh = build_uniform_mesh(2, 8)
        space = FeSpace(mesh, 1)
        assert discrete_norm(space, np.zeros(space.n_dofs), CIRCLE, 0.49) == 0.0

    @pytest.mark.parametrize("alpha", [0.25, 0.49])
    def test_equivalent_to_weighted_l2(self, alpha):
        # cellwise-frozen weight versus the pointwise weight: h-independent
        # two-sided bounds
        rng = np.random.default_rng(13)
        for n in (8, 16, 32):
            mesh = build_uniform_mesh(2, n)
            space = FeSpace(mesh, 1)
            for _ in range(10):
                coeffs = rng.uniform(-1.0, 1.0, size=space.n_dofs)
                dn = discrete_norm(space, coeffs, CIRCLE, alpha)
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

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, -math.inf])
    def test_rejects_negative_or_non_finite_errors(self, bad):
        # -1 would fail in log2 as a domain error, NaN give a NaN rate
        for errors in ([(0.5, bad), (0.25, 0.1)], [(0.5, 0.4), (0.25, bad)]):
            with pytest.raises(ValueError, match="finite and non-negative"):
                eoc(errors)

    @pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan, math.inf, -math.inf])
    def test_rejects_non_positive_or_non_finite_mesh_sizes(self, bad):
        # NaN, inf and 0 passed the halving check, and -1 failed it with a
        # misleading message
        for errors in ([(bad, 0.4), (0.5, 0.1)], [(1.0, 0.4), (bad, 0.1)],
                       [(bad, 0.4), (0.5 * bad, 0.1)]):
            with pytest.raises(ValueError, match="finite and positive"):
                eoc(errors)

    def test_rejects_non_halving(self):
        with pytest.raises(ValueError):
            eoc([(0.5, 0.4), (0.3, 0.1)])

    def test_zero_error_yields_absent_rate(self):
        assert eoc([(0.5, 0.4), (0.25, 0.0)]) == [None]


def brute_force_errors(space, coeffs, interface, alphas, q, cells):
    """Weighted errors of the reference solution summed point by point:
    cells farther than one cell width from the surface on the tensor rule,
    with the side of the cell's centre, every other cell on its own
    height-function rule, with the side of each piece, the exact field from
    ``broadcast_radial`` on those sides and the FE function from
    ``FeSpace.evaluate`` at physical points (test oracle)."""
    mesh = space.mesh
    points, weights = gauss_rule(mesh.dim, q)
    acc = {(a, m): 0.0 for a in alphas for m in (0, 1)}
    for cell in cells:
        low = mesh.cell_lows(cell)
        d_min, _ = interface.distance_range_over_box(low, low + mesh.edge)
        if d_min <= mesh.edge:
            _, pts, w, side = split_cut_cell(low, mesh.edge, interface, 2 * q)
        else:
            pts = low + mesh.edge * points
            w = weights * mesh.edge ** mesh.dim
            side = np.repeat(interface.side(low + 0.5 * mesh.edge), weights.size)
        values, grads = broadcast_radial(interface, pts, side)
        uh, guh = space.evaluate(coeffs, pts)
        e0, e1 = values - uh, grads - guh
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

    @pytest.mark.parametrize("dim, degree, n, q, center, radius", [
        pytest.param(*case, 0.3, 0.2, id="-".join(map(str, case))) for case in (
            (2, 1, 8, 6), (2, 2, 8, 6), (2, 3, 8, 6), (2, 1, 6, 6), (2, 2, 6, 5),
            (3, 1, 4, 3), (3, 2, 4, 3), (3, 1, 6, 3))
    ] + [
        # tangent to the grid lines x_k = 0.25 and 0.75
        pytest.param(2, 1, 4, 6, 0.5, 0.25, id="tangent-2-1-4-6"),
        pytest.param(2, 2, 8, 6, 0.5, 0.25, id="tangent-2-2-8-6"),
        pytest.param(3, 1, 4, 3, 0.5, 0.25, id="tangent-3-1-4-3"),
        pytest.param(3, 2, 8, 3, 0.5, 0.25, id="tangent-3-2-8-3"),
        # through the grid vertices 0.5 +- 1/8 per axis
        pytest.param(2, 1, 8, 6, 0.5, math.sqrt(2.0) / 8, id="vertex-2-1-8-6"),
        pytest.param(2, 2, 8, 6, 0.5, math.sqrt(2.0) / 8, id="vertex-2-2-8-6"),
        pytest.param(3, 1, 8, 3, 0.5, math.sqrt(3.0) / 8, id="vertex-3-1-8-3"),
    ])
    def test_matches_pointwise_evaluation(self, dim, degree, n, q, center, radius,
                                          monkeypatch):
        # the pass evaluates the exact field with no side tags; the oracle
        # takes each point's branch from the side of its piece
        monkeypatch.setattr(norms, "EXTRA_POINTS", q - degree)
        interface = SphericalInterface((center,) * dim, radius)
        exact = reference_solution(interface)
        space = FeSpace(build_uniform_mesh(dim, n), degree)
        rng = np.random.default_rng(10 * dim + degree + n)
        coeffs = rng.standard_normal(space.n_dofs)
        alphas = [0.0, 0.3, 0.1]
        subset = np.sort(rng.choice(space.mesh.n_cells, size=space.mesh.n_cells // 2,
                                    replace=False))
        for cell_ids in (None, subset):
            cells = np.arange(space.mesh.n_cells) if cell_ids is None else subset
            got = weighted_errors(space, coeffs, exact, interface, alphas, cell_ids=cell_ids)
            want = brute_force_errors(space, coeffs, interface, alphas, q, cells)
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
        lows = mesh.cell_lows(np.arange(mesh.n_cells))
        d_min, _ = interface.distance_range_over_box(lows, lows + mesh.edge)
        near = np.nonzero(d_min <= mesh.edge)[0]
        boxes = quadrature._height_boxes(lows[near], mesh.edge, interface)
        rows, _, _, line, _, _, _ = line_rule(boxes, interface, 2 * q)
        # every 1D table, of values or of values and slopes, takes its
        # coordinates through ``_basis_factors`` once
        coordinates, kernel_calls = [], []
        factors, kernel = space_module._basis_factors, norms._line_sum_factorised
        monkeypatch.setattr(space_module, "_basis_factors",
                            lambda degree, x: coordinates.append(np.size(x)) or factors(degree, x))
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
    # one row per alpha in the order given, 0 at d = 0 for alpha > 0; the
    # row of alpha = 0 is 1 everywhere, d = 0 included
    rng = np.random.default_rng(23)
    d = np.concatenate([np.exp(rng.uniform(math.log(1e-12), math.log(2.0), 2000)),
                        [1e-12, 1.0, 2.0], np.zeros(4)])
    alphas = [0.2, 0.01, 0.0, 0.1, 0.3, 0.49]
    got = norms._distance_weights(d.copy(), alphas)
    assert got.shape == (len(alphas), d.size)
    positive = d > 0.0
    assert np.all(got[2] == 1.0)
    for a, weight in zip(alphas, got):
        if a != 0.0:
            assert np.all(weight[~positive] == 0.0)
        np.testing.assert_allclose(weight[positive], np.power(d[positive], 2.0 * a),
                                   rtol=1e-13, atol=0.0)
    # a subset of the exponents gives the same rows, and none gives no row
    assert bitwise_equal(norms._distance_weights(d.copy(), alphas[2:]), got[2:])
    assert bitwise_equal(norms._distance_weights(d.copy(), [0.3]), got[4:5])
    assert bitwise_equal(norms._distance_weights(d.copy(), [0.0]), got[2:3])
    assert norms._distance_weights(d.copy(), []).shape == (0, d.size)


class TestNearBlocks:
    """The height boxes of a level are built once, and the near rule on
    blocks of boxes few enough that a plain rule on them fits in
    ``BATCH_POINTS``, so the points of the rule are bounded as well."""

    SPHERE = SphericalInterface((0.3, 0.3, 0.3), 0.2)
    ALPHAS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.49)

    def test_blocks_of_boxes_cover_the_level(self, monkeypatch):
        # the boxes are found once; every block's pieces are made once, and
        # each call for points gets a run of whole lines holding at most
        # BATCH_POINTS points or one line
        space = FeSpace(build_uniform_mesh(3, 4), 1)
        built, blocks, tables, runs = [], [], [], []
        height_boxes, face_rules = quadrature._height_boxes, quadrature._face_rules
        pieces, piece_points = quadrature._pieces, quadrature._piece_points
        monkeypatch.setattr(quadrature, "_height_boxes",
                            lambda *args: built.append(height_boxes(*args)) or built[-1])
        monkeypatch.setattr(quadrature, "_face_rules",
                            lambda boxes, *args, **kw: blocks.append(boxes)
                            or face_rules(boxes, *args, **kw))

        # the face levels split their lines too, at six or more roots with
        # FACE_GRADING; the height level at the sphere's two with HEIGHT_GRADING
        def height_pieces(lo, hi, roots, graded):
            table = pieces(lo, hi, roots, graded)
            if graded.size == 2:
                tables.append(table)
            return table

        def height_points(*args):
            if args[5] == quadrature.HEIGHT_GRADING:
                runs.append((len(tables), args[:4]))
            return piece_points(*args)

        monkeypatch.setattr(quadrature, "_pieces", height_pieces)
        monkeypatch.setattr(quadrature, "_piece_points", height_points)
        weighted_errors(space, np.zeros(space.n_dofs), reference_solution(self.SPHERE),
                        self.SPHERE, self.ALPHAS)
        points = 2 * (space.degree + norms.EXTRA_POINTS)
        step = quadrature.BATCH_POINTS // points ** 3
        assert len(built) == 1
        assert len(blocks) > 1 and all(block[0].size <= step for block in blocks)
        for whole, parts in zip(built[0], zip(*blocks)):
            assert np.array_equal(whole, np.concatenate(parts))
        assert len(tables) == len(blocks) and len(runs) > len(blocks)
        for block, table in enumerate(tables, start=1):
            mine = [run for at, run in runs if at == block]
            for line, *_ in mine:
                assert line.size * points <= quadrature.BATCH_POINTS or np.unique(line).size == 1
            for column, parts in zip(table, zip(*mine)):
                assert np.array_equal(column, np.concatenate(parts))
        # the blocks' pieces in order are those of the level at once
        _, _, _, _, a, b, ck, root = face_rules(built[0], self.SPHERE, points, weighted=True)
        level = pieces(a, b, np.column_stack([ck - root, ck + root]), np.ones(2, dtype=bool))
        for column, parts in zip(level[1:], zip(*(table[1:] for table in tables))):
            assert np.array_equal(column, np.concatenate(parts))

    @pytest.mark.parametrize("dim, n, batch", [(2, 128, None), (2, 16, 512), (3, 4, None),
                                               (3, 6, 4096)])
    def test_runs_are_the_line_rule(self, dim, n, batch, monkeypatch):
        # the near points and weights of every run, concatenated, are those
        # of the height-function rule built on all near cells at once
        if batch is not None:
            monkeypatch.setattr(quadrature, "BATCH_POINTS", batch)
        interface = SphericalInterface((0.3,) * dim, 0.2)
        space = FeSpace(build_uniform_mesh(dim, n), 1)
        mesh = space.mesh
        n = space.degree + norms.EXTRA_POINTS
        near_runs = [run for run in norms._cell_batches(space, interface, *gauss_rule(dim, n),
                                                        n, None)
                     if run[3] is not None]
        assert len(near_runs) > 1
        pts, w = (np.concatenate(column) for column in list(zip(*near_runs))[1:3])
        lows = mesh.cell_lows(np.arange(mesh.n_cells))
        d_min, _ = interface.distance_range_over_box(lows, lows + mesh.edge)
        _, want_pts, want_w, _ = split_cut_cell(lows[d_min <= mesh.edge], mesh.edge, interface,
                                                2 * n)
        assert bitwise_equal(pts, want_pts)
        assert bitwise_equal(w, want_w)

    @pytest.mark.parametrize("dim, degree, n", [(3, 1, 4), (2, 2, 16)])
    def test_errors_do_not_depend_on_the_batch_bound(self, dim, degree, n, monkeypatch):
        interface = SphericalInterface((0.3,) * dim, 0.2)
        exact = reference_solution(interface)
        space = FeSpace(build_uniform_mesh(dim, n), degree)
        coeffs = interpolate(space, exact.values)
        want = weighted_errors(space, coeffs, exact, interface, self.ALPHAS)
        monkeypatch.setattr(quadrature, "BATCH_POINTS", 2048)
        got = weighted_errors(space, coeffs, exact, interface, self.ALPHAS)
        for key in want:
            assert got[key] == pytest.approx(want[key], rel=1e-13, abs=0.0), key

    def test_no_near_cells(self):
        # no cells, and only cells farther than one cell width from the surface
        space = FeSpace(build_uniform_mesh(3, 4), 1)
        mesh, exact = space.mesh, reference_solution(self.SPHERE)
        coeffs = interpolate(space, exact.values)
        errs = weighted_errors(space, coeffs, exact, self.SPHERE, self.ALPHAS, cell_ids=[])
        assert errs == {(a, m): 0.0 for a in self.ALPHAS for m in (0, 1)}
        lows = mesh.cell_lows(np.arange(mesh.n_cells))
        d_min, _ = self.SPHERE.distance_range_over_box(lows, lows + mesh.edge)
        far = np.flatnonzero(d_min > mesh.edge)
        assert far.size
        got = weighted_errors(space, coeffs, exact, self.SPHERE, self.ALPHAS, cell_ids=far)
        want = brute_force_errors(space, coeffs, self.SPHERE, self.ALPHAS,
                                  space.degree + norms.EXTRA_POINTS, far)
        for key in want:
            assert got[key] == pytest.approx(want[key], rel=1e-12, abs=0.0), key

    def test_peak_memory_3d(self):
        # numpy reports its arrays to tracemalloc; a rule built on every
        # near cell of the level at once peaks at about 85 MiB here, one
        # built per block of boxes at 36.8 MiB, and one made per run of
        # lines at 16.5 MiB
        assert self.peak_of_a_pass(4) < 25 * 2 ** 20

    def test_peak_memory_3d_fine(self):
        # 22.4 MiB with the rule built per block of boxes, 11.4 MiB per run
        assert self.peak_of_a_pass(16) < 17 * 2 ** 20

    def peak_of_a_pass(self, n):
        space = FeSpace(build_uniform_mesh(3, n), 1)
        coeffs = np.zeros(space.n_dofs)
        exact = reference_solution(self.SPHERE)
        tracemalloc.start()
        try:
            weighted_errors(space, coeffs, exact, self.SPHERE, self.ALPHAS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_peak_memory_2d_level(self):
        # the load with its surface rule and the error pass of study2d's
        # finest level peak at 10.4 MiB; testing every cell and building its
        # corners and dof rows took 28.7 MiB
        circle = SphericalInterface((0.3, 0.3), 0.2)
        space = FeSpace(build_uniform_mesh(2, 512), 1)
        coeffs = np.random.default_rng(512).standard_normal(space.n_dofs)
        exact = reference_solution(circle)
        tracemalloc.start()
        try:
            assemble_interface_load(space, circle, exact.density)
            weighted_errors(space, coeffs, exact, circle, self.ALPHAS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 18 * 2 ** 20

    @pytest.mark.parametrize("dim, n, center, radius", [
        (2, 8, (0.5, 0.5), 0.25), (2, 16, (0.3, 0.3), 0.2), (2, 8, (0.3, 0.3), 0.2 + 1e-14),
        (3, 4, (0.5, 0.5, 0.5), 0.25), (3, 6, (0.3, 0.3, 0.3), 0.2),
    ])
    def test_bounding_box_gives_the_blocks_of_every_cell(self, dim, n, center, radius):
        # every cell tested for nearness, in id order, against only the cells
        # of the surface's widened bounding box; at radius 0.25 about the
        # centre, near cells lie exactly one cell width from the surface
        interface = SphericalInterface(center, radius)
        exact = reference_solution(interface)
        space = FeSpace(build_uniform_mesh(dim, n), 2)
        coeffs = interpolate(space, exact.values)
        got = weighted_errors(space, coeffs, exact, interface, self.ALPHAS)
        want = weighted_errors(space, coeffs, exact, interface, self.ALPHAS,
                               cell_ids=np.arange(space.mesh.n_cells))
        assert got == want

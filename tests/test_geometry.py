import math

import numpy as np
import pytest

from conftest import bitwise_equal
from immersedfem import SphericalInterface, build_uniform_mesh, immersed_quadrature
from immersedfem import geometry
from immersedfem.quadrature import surface_rule

CIRCLE = SphericalInterface((0.3, 0.3), 0.2)
SPHERE = SphericalInterface((0.3, 0.3, 0.3), 0.2)


class TestInterface:
    def test_distance_examples(self):
        assert CIRCLE.distance([0.3, 0.3]) == pytest.approx(0.2, abs=1e-15)
        on_surface = [0.3 + 0.2 * math.cos(0.7), 0.3 + 0.2 * math.sin(0.7)]
        assert CIRCLE.distance(on_surface) == pytest.approx(0.0, abs=1e-15)
        assert CIRCLE.distance([0.7, 0.3]) == pytest.approx(0.2, abs=1e-15)

    @pytest.mark.parametrize("interface", [CIRCLE, SPHERE])
    def test_radius_bitwise_equal_to_linalg_norm(self, interface):
        rng = np.random.default_rng(interface.dim)
        pts = rng.uniform(0.0, 1.0, size=(1000, interface.dim))
        rho = np.linalg.norm(pts - interface.center, axis=-1)
        assert np.array_equal(interface.distance(pts), np.abs(rho - interface.radius))
        assert np.array_equal(interface.side(pts), np.where(rho < interface.radius, -1, 1))
        low, high = pts, pts + rng.uniform(0.0, 0.1, size=pts.shape)
        t_min, t_max = interface.center_distance_range_over_box(low, high)
        nearest = np.clip(interface.center, low, high)
        farthest = np.maximum(np.abs(low - interface.center), np.abs(high - interface.center))
        assert np.array_equal(t_min, np.linalg.norm(nearest - interface.center, axis=-1))
        assert np.array_equal(t_max, np.linalg.norm(farthest, axis=-1))

    def test_normal_examples(self):
        assert np.allclose(CIRCLE.normal([0.5, 0.3]), [1.0, 0.0])
        assert np.allclose(CIRCLE.normal([0.3, 0.1]), [0.0, -1.0])
        rng = np.random.default_rng(3)
        for theta in rng.uniform(0.0, 2.0 * math.pi, size=5):
            y = CIRCLE.center + 0.2 * np.array([math.cos(theta), math.sin(theta)])
            nu = CIRCLE.normal(y)
            assert np.linalg.norm(nu) == pytest.approx(1.0, abs=1e-14)
            assert nu @ (y - CIRCLE.center) == pytest.approx(
                np.linalg.norm(y - CIRCLE.center), abs=1e-14)

    def test_normal_rejects_center(self):
        with pytest.raises(ValueError):
            CIRCLE.normal([0.3, 0.3])

    def test_side_examples(self):
        # -1 inside, +1 outside; a point on the surface counts outside
        points = [[0.3, 0.3], [1.0, 1.0], [0.5, 0.3]]
        assert CIRCLE.side(points).tolist() == [-1, 1, 1]

    def test_constructor_rejects_boundary_contact(self):
        with pytest.raises(ValueError):
            SphericalInterface((0.1, 0.5), 0.2)  # crosses the face x = 0
        with pytest.raises(ValueError):
            SphericalInterface((0.5, 0.5), 0.5)  # touches all faces
        with pytest.raises(ValueError):
            SphericalInterface((0.5, 0.5), 0.0)
        with pytest.raises(ValueError):
            SphericalInterface((math.nan, math.nan), 0.2)
        with pytest.raises(ValueError):
            SphericalInterface((0.5, 0.5), math.nan)
        # far outside is fine: positive gap on the other side
        SphericalInterface((10.0, 10.0), 0.2)

    def test_distance_range_over_box(self):
        # box straddling the surface
        d_min, d_max = CIRCLE.distance_range_over_box([0.25, 0.25], [0.5, 0.5])
        assert d_min == 0.0
        far_corner = abs(np.linalg.norm(np.array([0.5, 0.5]) - 0.3) - 0.2)
        near = abs(np.linalg.norm(np.array([0.3, 0.3]) - 0.3) - 0.2)
        assert d_max == pytest.approx(max(far_corner, near), abs=1e-14)
        assert CIRCLE.cuts_box([0.25, 0.25], [0.5, 0.5])
        assert not CIRCLE.cuts_box([0.75, 0.75], [1.0, 1.0])


def broadcast_length(vectors):
    """Length over the last axis of a (..., dim) array, squares summed in axis
    order (test oracle: the broadcast formula the interface used before it
    worked one coordinate column at a time)."""
    squares = vectors[..., 0] ** 2
    for axis in range(1, vectors.shape[-1]):
        squares = squares + vectors[..., axis] ** 2
    return np.sqrt(squares)


def probe_points(interface, rng):
    """Random points, the centre, grid points, points sharing coordinates
    with the centre and points on the surface."""
    dim, c = interface.dim, interface.center
    grid = np.stack(np.meshgrid(*([np.arange(9) / 8] * dim), indexing="ij"),
                    axis=-1).reshape(-1, dim)
    direction = rng.standard_normal((50, dim))
    on_surface = c + interface.radius * direction / np.linalg.norm(direction, axis=1)[:, None]
    shared = rng.uniform(0.0, 1.0, size=(50, dim))
    mask = rng.uniform(size=shared.shape) < 0.5
    shared[mask] = np.broadcast_to(c, shared.shape)[mask]
    return np.vstack([rng.uniform(0.0, 1.0, size=(500, dim)), c, grid, shared, on_surface])


class TestColumnWiseOracle:
    """|x - c| is formed one coordinate column at a time; every result is
    bitwise equal to the broadcast formula over (n, dim) arrays."""

    @pytest.mark.parametrize("interface", [CIRCLE, SPHERE], ids=["2d", "3d"])
    def test_distance_and_side(self, interface, in_layout):
        points = probe_points(interface, np.random.default_rng(11 * interface.dim))
        rho = broadcast_length(points - interface.center)
        assert bitwise_equal(interface.distance(in_layout(points)),
                             np.abs(rho - interface.radius))
        assert bitwise_equal(interface.side(in_layout(points)),
                             np.where(rho < interface.radius, -1, 1))
        # one point of shape (dim,) gives a scalar, as before
        assert bitwise_equal(interface.distance(points[0]),
                             np.abs(broadcast_length(points[0] - interface.center)
                                    - interface.radius))

    @pytest.mark.parametrize("interface", [CIRCLE, SPHERE], ids=["2d", "3d"])
    def test_distance_range_over_box(self, interface, in_layout):
        rng = np.random.default_rng(13 * interface.dim)
        c, r = interface.center, interface.radius
        low = probe_points(interface, rng)
        size = rng.choice([0.0, 1e-3, 0.05, 0.2, 0.5], size=low.shape)
        high = low + size
        # boxes with a face through the centre or the centre in a corner
        high[::5] = np.maximum(high[::5], c)
        low[::7] = np.minimum(low[::7], c)
        nearest = np.clip(c, low, high)
        t_min = broadcast_length(nearest - c)
        t_max = broadcast_length(np.maximum(np.abs(low - c), np.abs(high - c)))
        got = interface.center_distance_range_over_box(in_layout(low), in_layout(high))
        assert bitwise_equal(got[0], t_min) and bitwise_equal(got[1], t_max)
        got = interface.distance_range_over_box(in_layout(low), in_layout(high))
        assert bitwise_equal(got[0], np.maximum(0.0, np.maximum(t_min - r, r - t_max)))
        assert bitwise_equal(got[1], np.maximum(r - t_min, t_max - r))
        single = interface.center_distance_range_over_box(low[3], high[3])
        assert bitwise_equal(single[0], t_min[3]) and bitwise_equal(single[1], t_max[3])


class TestImmersedQuadrature:
    def test_circle_total_weight_exact(self):
        mesh = build_uniform_mesh(2, 8)
        q = immersed_quadrature(CIRCLE, mesh)
        assert q.total_weight() == pytest.approx(2.0 * math.pi * 0.2, abs=1e-10)

    def test_sphere_total_weight(self):
        mesh = build_uniform_mesh(3, 8)
        q = immersed_quadrature(SPHERE, mesh)
        assert q.total_weight() == pytest.approx(4.0 * math.pi * 0.04, abs=1e-6)

    def test_refinement_independence(self):
        target = 2.0 * math.pi * 0.2
        for n in (4, 8):
            mesh = build_uniform_mesh(2, n)
            q = immersed_quadrature(CIRCLE, mesh)
            assert q.total_weight() == pytest.approx(target, abs=1e-10)

    def test_points_on_surface_and_in_owner(self):
        for interface, dim in ((CIRCLE, 2), (SPHERE, 3)):
            mesh = build_uniform_mesh(dim, 8)
            q = immersed_quadrature(interface, mesh)
            assert np.max(interface.distance(q.points)) <= 1e-12
            low = mesh.cell_lows[q.owner_cell]
            assert np.all(q.points >= low - 1e-12)
            assert np.all(q.points <= low + mesh.edge + 1e-12)
            assert np.all(q.weights > 0.0)

    def test_linear_moment(self):
        for interface, dim in ((CIRCLE, 2), (SPHERE, 3)):
            mesh = build_uniform_mesh(dim, 8)
            q = immersed_quadrature(interface, mesh)
            moment = float(np.sum(q.weights * q.points[:, 0]))
            assert moment == pytest.approx(0.3 * interface.measure, abs=1e-8)

    def test_per_cell_measure_bound(self):
        # |K ∩ surface| <= 2 sqrt(dim) h across refinements, same constant
        for interface, dim in ((CIRCLE, 2), (SPHERE, 3)):
            for n in (8, 16, 32):
                mesh = build_uniform_mesh(dim, n)
                q = immersed_quadrature(interface, mesh)
                per_cell = q.weight_per_cell(mesh.n_cells)
                assert per_cell.max() <= 2.0 * math.sqrt(dim) * mesh.h_cell

    def test_order_increase_converges(self, monkeypatch):
        # integrating a smooth non-polynomial density improves with order
        mesh = build_uniform_mesh(2, 4)
        exact = 0.0  # odd function around the centre integrates to zero
        errors = []
        for order in (1, 2, 4):
            monkeypatch.setattr(geometry, "SURFACE_ORDER", order)
            q = immersed_quadrature(CIRCLE, mesh)
            value = float(np.sum(q.weights * np.sin(5.0 * (q.points[:, 0] - 0.3))
                                 * (q.points[:, 1] - 0.3)))
            errors.append(abs(value - exact))
        assert errors[2] < errors[0] / 10.0
        assert errors[2] < 1e-6

    def test_rejects_bad_order_and_outside_interface(self):
        mesh = build_uniform_mesh(2, 4)
        with pytest.raises(ValueError):
            surface_rule(mesh.cell_lows, mesh.edge, CIRCLE, 0)
        far = SphericalInterface((10.0, 10.0), 0.2)
        with pytest.raises(ValueError):
            immersed_quadrature(far, mesh)  # points cannot find owner cells

    def test_owner_assignment_deterministic(self):
        mesh = build_uniform_mesh(2, 8)
        q1 = immersed_quadrature(CIRCLE, mesh)
        q2 = immersed_quadrature(CIRCLE, mesh)
        assert np.array_equal(q1.points, q2.points)
        assert np.array_equal(q1.weights, q2.weights)
        assert np.array_equal(q1.owner_cell, q2.owner_cell)

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import bitwise_equal
from immersedfem import FeSpace, SphericalInterface, build_uniform_mesh, reference_solution
from immersedfem import assembly, geometry
from immersedfem.quadrature import surface_rule
from potential import normal
from rules import surface_quadrature

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
        d_min, d_max = interface.distance_range_over_box(low, high)
        nearest = np.clip(interface.center, low, high)
        farthest = np.maximum(np.abs(low - interface.center), np.abs(high - interface.center))
        t_min = np.linalg.norm(nearest - interface.center, axis=-1)
        t_max = np.linalg.norm(farthest, axis=-1)
        r = interface.radius
        assert np.array_equal(d_min, np.maximum(0.0, np.maximum(t_min - r, r - t_max)))
        assert np.array_equal(d_max, np.maximum(r - t_min, t_max - r))

    def test_normal_examples(self):
        assert np.allclose(normal(CIRCLE, [0.5, 0.3]), [1.0, 0.0])
        assert np.allclose(normal(CIRCLE, [0.3, 0.1]), [0.0, -1.0])
        rng = np.random.default_rng(3)
        for theta in rng.uniform(0.0, 2.0 * math.pi, size=5):
            y = CIRCLE.center + 0.2 * np.array([math.cos(theta), math.sin(theta)])
            nu = normal(CIRCLE, y)
            assert np.linalg.norm(nu) == pytest.approx(1.0, abs=1e-14)
            assert nu @ (y - CIRCLE.center) == pytest.approx(
                np.linalg.norm(y - CIRCLE.center), abs=1e-14)

    def test_normal_rejects_center(self):
        with pytest.raises(ValueError):
            normal(CIRCLE, [0.3, 0.3])

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
        # True was taken as radius 1.0, a circle around the whole box
        for radius in (True, np.bool_(True)):
            with pytest.raises(ValueError, match="radius"):
                SphericalInterface((0.5, 0.5), radius)
        # a radius of one entry raised TypeError
        for radius in (np.array([0.2]), [0.2]):
            with pytest.raises(ValueError, match="radius"):
                SphericalInterface((0.3, 0.3), radius)
        # far outside is fine: positive gap on the other side
        SphericalInterface((10.0, 10.0), 0.2)

    @pytest.mark.parametrize("dim, axis, value", [(dim, axis, value) for dim in (2, 3)
                                                  for axis in range(dim) for value in (0, 1)])
    def test_unit_box_gap_face_by_face(self, dim, axis, value):
        # radius 1/4 and dyadic centres, so that tangency is exact: a surface
        # tangent to the face x_axis = value from inside or from outside the
        # box is rejected at distance 0, as is one moved 1/64 across the
        # face; moved 1/64 away from it, it is accepted
        out = 1.0 if value else -1.0  # the face's outward normal along ``axis``
        for side in (-1.0, 1.0):  # centre inside, then outside the box
            center = np.full(dim, 0.5)
            for shift, accepted in ((0.0, False), (side * out / 64, True),
                                    (-side * out / 64, False)):
                center[axis] = value + side * out / 4 + shift
                if accepted:
                    assert SphericalInterface(center, 0.25).radius == 0.25
                else:
                    with pytest.raises(ValueError, match=r"distance 0\.000e\+00"):
                        SphericalInterface(center, 0.25)
        # a sphere around the whole box, centred on the face
        center = np.full(dim, 0.5)
        center[axis] = value
        assert SphericalInterface(center, 1.5).radius == 1.5

    @pytest.mark.parametrize("center", [(0.3, 0.3), (0.3, 0.3, 0.3)], ids=["2d", "3d"])
    def test_radius_floor(self, center):
        # the smallest surface the rules resolve: at the floor, not below it,
        # down to a subnormal radius
        floor = geometry.RADIUS_FLOOR
        assert SphericalInterface(center, floor).radius == floor
        for radius in (math.nextafter(floor, 0.0), 5e-324):
            with pytest.raises(ValueError, match="radius must be finite and at least"):
                SphericalInterface(center, radius)

    def test_radius_floor_scales_with_center(self):
        # the roots are rounded at the ulp of the coordinates, so a centre
        # at (10, 10) needs ten times the radius of one inside the box
        floor = 10.0 * geometry.RADIUS_FLOOR
        assert SphericalInterface((10.0, 10.0), floor).radius == floor
        assert SphericalInterface((-10.0, 0.5), floor).radius == floor
        for radius in (math.nextafter(floor, 0.0), geometry.RADIUS_FLOOR):
            with pytest.raises(ValueError, match="radius must be finite and at least"):
                SphericalInterface((10.0, 10.0), radius)

    def test_distance_range_over_box(self):
        # box straddling the surface
        d_min, d_max = CIRCLE.distance_range_over_box([0.25, 0.25], [0.5, 0.5])
        assert d_min == 0.0
        far_corner = abs(np.linalg.norm(np.array([0.5, 0.5]) - 0.3) - 0.2)
        near = abs(np.linalg.norm(np.array([0.3, 0.3]) - 0.3) - 0.2)
        assert d_max == pytest.approx(max(far_corner, near), abs=1e-14)
        assert CIRCLE.cuts_box([0.25, 0.25], [0.5, 0.5])
        assert not CIRCLE.cuts_box([0.75, 0.75], [1.0, 1.0])
        # an inverted box is empty: it was classified as cut, with d_min = 0;
        # faces and points stay boxes
        for method in (CIRCLE.distance_range_over_box, CIRCLE.cuts_box):
            with pytest.raises(ValueError, match="low and high"):
                method([0.5, 0.5], [0.25, 0.25])
            with pytest.raises(ValueError, match="low and high"):
                method([[0.1, 0.1], [0.5, 0.5]], [[0.2, 0.2], [0.5, 0.25]])
        assert CIRCLE.cuts_box([0.1, 0.3], [0.5, 0.3]) and not CIRCLE.cuts_box([0.3, 0.3], [0.3, 0.3])


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
        d_min = np.maximum(0.0, np.maximum(t_min - r, r - t_max))
        d_max = np.maximum(r - t_min, t_max - r)
        got = interface.distance_range_over_box(in_layout(low), in_layout(high))
        assert bitwise_equal(got[0], d_min) and bitwise_equal(got[1], d_max)
        single = interface.distance_range_over_box(low[3], high[3])
        assert bitwise_equal(single[0], d_min[3]) and bitwise_equal(single[1], d_max[3])

    @pytest.mark.parametrize("interface", [CIRCLE, SPHERE], ids=["2d", "3d"])
    def test_one_point_or_many(self, interface):
        # one (dim,) point or box gives the bits of its row of one (n, dim)
        # call; a numpy scalar's ** 2 calls libm pow, which squares the
        # offset 0.7097135065511773 half an ulp off where x * x does not
        rng = np.random.default_rng(17 * interface.dim)
        offset = interface.center + 0.7097135065511773
        points = np.vstack([rng.uniform(0.0, 1.0, size=(2000, interface.dim)), offset])
        high = points + rng.choice([0.0, 1e-3, 0.05, 0.2], size=points.shape)
        high[-1] = points[-1]
        distance, side = interface.distance(points), interface.side(points)
        d_min, d_max = interface.distance_range_over_box(points, high)
        cuts = interface.cuts_box(points, high)
        for i, (point, top) in enumerate(zip(points, high)):
            assert bitwise_equal(interface.distance(point), distance[i])
            assert bitwise_equal(interface.side(point), side[i])
            single = interface.distance_range_over_box(point, top)
            assert bitwise_equal(single[0], d_min[i]) and bitwise_equal(single[1], d_max[i])
            assert bitwise_equal(interface.cuts_box(point, top), cuts[i])


def center_distance_range(interface, low, high):
    """Range (t_min, t_max) of |x - c| over boxes [low, high] of shape (n,
    dim), one coordinate column at a time (test oracle: the formula that
    ``distance_range_over_box`` folds by the radius)."""
    lows = [low[:, k] - c for k, c in enumerate(interface.center.tolist())]
    highs = [high[:, k] - c for k, c in enumerate(interface.center.tolist())]
    t_min = broadcast_length(np.stack([np.clip(0.0, lo, hi) for lo, hi in zip(lows, highs)], -1))
    t_max = broadcast_length(np.stack([np.maximum(np.abs(lo), np.abs(hi))
                                       for lo, hi in zip(lows, highs)], -1))
    return t_min, t_max


@st.composite
def boxes_around_surfaces(draw):
    """A circle or sphere and boxes against it: every cell of a grid with n
    in {4, 8, 16}, a face of each cell and its lower corner, and random
    boxes of mixed sizes.  The surface is generic, tangent to the grid plane
    nearest its centre or through the grid vertex nearest its centre."""
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.sampled_from([4, 8, 16]))
    center = np.array([draw(st.floats(0.25, 0.75)) for _ in range(dim)])
    kind = draw(st.sampled_from(["generic", "tangent", "vertex"]))
    if kind == "generic":
        radius = draw(st.floats(0.01, 0.2))
    elif kind == "tangent":
        axis = draw(st.integers(0, dim - 1))
        radius = abs(round(center[axis] * n) / n - center[axis])
    else:
        radius = float(np.linalg.norm(np.round(center * n) / n - center))
    assume(radius > 1e-9)
    interface = SphericalInterface(center, radius)
    mesh = build_uniform_mesh(dim, n)
    rows = np.arange(mesh.n_cells)
    cells = mesh.cell_lows(rows)
    # the highs of one face per cell, its normal axis cycling over the cells
    faces = cells + mesh.edge
    faces[rows, rows % dim] = cells[rows, rows % dim]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    low = rng.uniform(-0.2, 1.2, size=(200, dim))
    size = rng.choice([0.0, 1e-12, 1e-3, 0.05, 0.5], size=low.shape)
    lows = np.vstack([cells, cells, cells, low])
    highs = np.vstack([cells + mesh.edge, faces, cells, low + size])
    return interface, lows, highs


@settings(max_examples=60, deadline=None, derandomize=True)
@given(boxes_around_surfaces())
def test_box_classification_folds_the_center_distance_range(case):
    # the one box classification is the range of |x - c| folded by the
    # radius, bitwise, and a box is cut exactly when t_min <= R <= t_max
    interface, low, high = case
    t_min, t_max = center_distance_range(interface, low, high)
    r = interface.radius
    d_min, d_max = interface.distance_range_over_box(low, high)
    assert bitwise_equal(d_min, np.maximum(0.0, np.maximum(t_min - r, r - t_max)))
    assert bitwise_equal(d_max, np.maximum(r - t_min, t_max - r))
    assert np.array_equal(interface.cuts_box(low, high), (t_min <= r) & (r <= t_max))


def interface_of(dim):
    return CIRCLE if dim == 2 else SPHERE


WRONG_DIMENSION_CALLS = {
    "Mesh.locate": lambda dim, pts: build_uniform_mesh(dim, 4).locate(pts),
    "FeSpace.evaluate": lambda dim, pts: FeSpace(build_uniform_mesh(dim, 4), 1).evaluate(
        np.zeros(5 ** dim), pts),
    "distance": lambda dim, pts: interface_of(dim).distance(pts),
    "side": lambda dim, pts: interface_of(dim).side(pts),
    "distance_range_over_box": lambda dim, pts: interface_of(dim).distance_range_over_box(
        pts, pts + 0.1),
    "cuts_box": lambda dim, pts: interface_of(dim).cuts_box(pts, pts + 0.1),
    "RadialSolution.evaluate": lambda dim, pts: reference_solution(
        interface_of(dim)).evaluate(pts),
    "RadialSolution.values": lambda dim, pts: reference_solution(interface_of(dim)).values(pts),
}


@pytest.mark.parametrize("call", WRONG_DIMENSION_CALLS)
@pytest.mark.parametrize("dim, n_coords", [(2, 1), (2, 3), (3, 2), (3, 4)])
def test_points_of_the_wrong_dimension_raise(call, dim, n_coords):
    # a point of one coordinate raised IndexError, one of dim + 1 was read
    # through its first dim coordinates
    points = np.full((2, n_coords), 0.3)
    with pytest.raises(ValueError, match=f"{dim} coordinates"):
        WRONG_DIMENSION_CALLS[call](dim, points)


class TestImmersedQuadrature:
    def test_circle_total_weight_exact(self):
        mesh = build_uniform_mesh(2, 8)
        weights = surface_quadrature(CIRCLE, mesh)[1]
        assert weights.sum() == pytest.approx(2.0 * math.pi * 0.2, abs=1e-10)

    def test_sphere_total_weight(self):
        mesh = build_uniform_mesh(3, 8)
        weights = surface_quadrature(SPHERE, mesh)[1]
        assert weights.sum() == pytest.approx(4.0 * math.pi * 0.04, abs=1e-6)

    def test_refinement_independence(self):
        target = 2.0 * math.pi * 0.2
        for n in (4, 8):
            mesh = build_uniform_mesh(2, n)
            weights = surface_quadrature(CIRCLE, mesh)[1]
            assert weights.sum() == pytest.approx(target, abs=1e-10)

    def test_points_on_surface_and_in_owner(self):
        for interface, dim in ((CIRCLE, 2), (SPHERE, 3)):
            mesh = build_uniform_mesh(dim, 8)
            points, weights, owners = surface_quadrature(interface, mesh)
            assert np.max(interface.distance(points)) <= 1e-12
            low = mesh.cell_lows(owners)
            assert np.all(points >= low - 1e-12)
            assert np.all(points <= low + mesh.edge + 1e-12)
            assert np.all(weights > 0.0)

    def test_linear_moment(self):
        for interface, dim in ((CIRCLE, 2), (SPHERE, 3)):
            mesh = build_uniform_mesh(dim, 8)
            points, weights, _ = surface_quadrature(interface, mesh)
            moment = float(np.sum(weights * points[:, 0]))
            r = interface.radius
            measure = 2.0 * math.pi * r if dim == 2 else 4.0 * math.pi * r**2
            assert moment == pytest.approx(0.3 * measure, abs=1e-8)

    def test_per_cell_measure_bound(self):
        # |K ∩ surface| <= 2 sqrt(dim) h across refinements, same constant
        for interface, dim in ((CIRCLE, 2), (SPHERE, 3)):
            for n in (8, 16, 32):
                mesh = build_uniform_mesh(dim, n)
                _, weights, owners = surface_quadrature(interface, mesh)
                per_cell = np.bincount(owners, weights, minlength=mesh.n_cells)
                assert per_cell.max() <= 2.0 * math.sqrt(dim) * mesh.h_cell

    def test_order_increase_converges(self, monkeypatch):
        # integrating a smooth non-polynomial density improves with order
        mesh = build_uniform_mesh(2, 4)
        exact = 0.0  # odd function around the centre integrates to zero
        errors = []
        for order in (1, 2, 4):
            monkeypatch.setattr(assembly, "SURFACE_ORDER", order)
            points, weights, _ = surface_quadrature(CIRCLE, mesh)
            value = float(np.sum(weights * np.sin(5.0 * (points[:, 0] - 0.3))
                                 * (points[:, 1] - 0.3)))
            errors.append(abs(value - exact))
        assert errors[2] < errors[0] / 10.0
        assert errors[2] < 1e-6

    def test_rejects_bad_order_and_outside_interface(self):
        mesh = build_uniform_mesh(2, 4)
        with pytest.raises(ValueError):
            surface_rule(mesh.cell_lows(np.arange(mesh.n_cells)), mesh.edge, CIRCLE, 0)
        far = SphericalInterface((10.0, 10.0), 0.2)  # cuts no cell: an empty rule
        assert [a.size for a in surface_quadrature(far, mesh)] == [0, 0, 0]

    def test_owner_assignment_deterministic(self):
        mesh = build_uniform_mesh(2, 8)
        q1 = surface_quadrature(CIRCLE, mesh)
        q2 = surface_quadrature(CIRCLE, mesh)
        assert all(np.array_equal(a, b) for a, b in zip(q1, q2))

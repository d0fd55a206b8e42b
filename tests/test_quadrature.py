import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import bitwise_equal
from immersedfem import (SphericalInterface, build_uniform_mesh, gauss_rule,
                         immersed_quadrature, split_cut_cell)
from immersedfem import quadrature
from immersedfem.quadrature import surface_rule

CIRCLE = SphericalInterface((0.3, 0.3), 0.2)
SPHERE = SphericalInterface((0.3, 0.3, 0.3), 0.2)


def integrate(rule, fn):
    return float(np.sum(rule.weights * fn(rule.points)))


def test_one_point_rule_is_midpoint():
    rule = gauss_rule(1, 1)
    assert rule.points.shape == (1, 1)
    assert rule.points[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert rule.weights[0] == pytest.approx(1.0, abs=1e-15)


def test_weights_sum_to_one():
    for dim in (1, 2, 3):
        for n in (1, 2, 4):
            rule = gauss_rule(dim, n)
            assert np.sum(rule.weights) == pytest.approx(1.0, abs=1e-14)
            assert np.all(rule.weights > 0.0)


def test_exactness_x2y2():
    rule = gauss_rule(2, 2)
    value = integrate(rule, lambda p: p[:, 0] ** 2 * p[:, 1] ** 2)
    assert value == pytest.approx(1.0 / 9.0, abs=1e-15)


def test_two_point_rule_on_x4():
    # hand oracle: 0.5 * ((0.5 - 0.5/sqrt(3))^4 + (0.5 + 0.5/sqrt(3))^4)
    lo = 0.5 - 0.5 / math.sqrt(3.0)
    hi = 0.5 + 0.5 / math.sqrt(3.0)
    expected = 0.5 * (lo**4 + hi**4)
    assert expected == pytest.approx(7.0 / 36.0, abs=1e-15)
    rule = gauss_rule(2, 2)
    value = integrate(rule, lambda p: p[:, 0] ** 4)
    assert value == pytest.approx(expected, abs=1e-14)
    assert abs(value - 0.2) > 1e-3  # degree 4 is beyond the rule's exactness


def test_monomial_exactness_degrees():
    # exact through degree 2n-1 per axis, verified against closed forms
    for n in (1, 2, 3):
        rule = gauss_rule(1, n)
        for k in range(2 * n):
            value = integrate(rule, lambda p, k=k: p[:, 0] ** k)
            assert value == pytest.approx(1.0 / (k + 1), abs=1e-14)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        gauss_rule(0, 2)
    with pytest.raises(ValueError):
        gauss_rule(2, 0)
    with pytest.raises(ValueError):
        split_cut_cell((0.0, 0.0), 0.25, CIRCLE, 0)


def inside_measure(pts, w, interface):
    inside = np.linalg.norm(pts - interface.center, axis=1) < interface.radius
    return float(np.sum(w[inside]))


class TestSplitCutCell:
    def test_uncut_cell_is_single_leaf(self):
        # a cell the surface misses lies on one side, with its whole volume
        parent, pts, w, sides = split_cut_cell((0.75, 0.75), 0.25, CIRCLE, 4)
        assert np.all(parent == 0) and np.all(sides == 1)
        assert np.all((pts >= 0.75) & (pts <= 1.0))
        assert np.sum(w) == pytest.approx(0.25**2, rel=1e-14)

    def test_cell_inside_surface_is_single_interior_leaf(self):
        small = SphericalInterface((0.3, 0.3), 0.29)
        _, _, w, sides = split_cut_cell((0.25, 0.25), 0.125, small, 4)
        assert np.all(sides == -1)
        assert np.sum(w) == pytest.approx(0.125**2, rel=1e-14)

    def test_volume_preserved(self):
        # two points per piece integrate the grading's Jacobian s^2 exactly
        for points in (2, 4, 8):
            _, _, w, _ = split_cut_cell((0.25, 0.25), 0.25, CIRCLE, points)
            assert np.sum(w) == pytest.approx(0.25**2, rel=1e-14)

    def test_cut_area_against_pixel_oracle(self):
        # oracle: 2000 x 2000 pixel count of the interior within the cell
        ticks = (np.arange(2000) + 0.5) / 2000
        gx, gy = np.meshgrid(ticks, ticks)
        pixels = np.column_stack([gx.ravel(), gy.ravel()]) * 0.25 + 0.25
        inside = np.linalg.norm(pixels - CIRCLE.center, axis=1) < CIRCLE.radius
        oracle = inside.mean() * 0.25**2

        _, pts, w, sides = split_cut_cell((0.25, 0.25), 0.25, CIRCLE, 4)
        assert np.array_equal(sides < 0, np.linalg.norm(pts - CIRCLE.center, axis=1) < 0.2)
        assert inside_measure(pts, w, CIRCLE) == pytest.approx(oracle, abs=1e-5)

    def test_disk_area_over_all_cells(self):
        ticks = np.arange(4) * 0.25
        lows = np.stack(np.meshgrid(ticks, ticks, indexing="ij"), axis=-1).reshape(-1, 2)
        _, pts, w, _ = split_cut_cell(lows, 0.25, CIRCLE, 8)
        assert inside_measure(pts, w, CIRCLE) == pytest.approx(math.pi * 0.2**2, rel=1e-10)

    def test_ball_volume_over_all_cells(self):
        ticks = np.arange(4) * 0.25
        lows = np.stack(np.meshgrid(ticks, ticks, ticks, indexing="ij"),
                        axis=-1).reshape(-1, 3)
        _, pts, w, _ = split_cut_cell(lows, 0.25, SPHERE, 8)
        assert inside_measure(pts, w, SPHERE) == pytest.approx(4.0 / 3.0 * math.pi * 0.2**3,
                                                               rel=1e-10)


def disk_box_area(center, r, low, high):
    """Closed-form area of the disk |x - center| < r inside the box [low, high]
    (test oracle): the part below height y of the disk's strip x0 < x < x1
    is the strip integral of h + clip(y, -h, h) with h(s) = sqrt(r^2 - s^2),
    and sqrt integrates in closed form."""
    def prim(s):
        s = np.clip(s, -r, r)
        return 0.5 * (s * np.sqrt(r * r - s * s) + r * r * np.arcsin(s / r))

    x0, x1 = low[0] - center[0], high[0] - center[0]
    full = prim(x1) - prim(x0)

    def below(y):
        a = math.sqrt(max(r * r - y * y, 0.0))
        lo, hi = max(x0, -a), min(x1, a)
        width, chord = (hi - lo, prim(hi) - prim(lo)) if hi > lo else (0.0, 0.0)
        return full + y * width + math.copysign(full - chord, y)

    return below(high[1] - center[1]) - below(low[1] - center[1])


@pytest.mark.parametrize("center, radius, n", [
    ((0.3, 0.3), 0.2, 8),                            # tangent to x = 0.5 and y = 0.5
    ((0.5, 0.4375), 0.0625, 16),                     # centre on a vertex, radius one cell
    ((0.41, 0.37), math.hypot(0.035, 0.005), 8),     # through the vertex (0.375, 0.375)
])
def test_cut_areas_against_closed_form(center, radius, n):
    circle = SphericalInterface(center, radius)
    mesh = build_uniform_mesh(2, n)
    cut = np.nonzero(circle.cuts_box(mesh.cell_lows, mesh.cell_lows + mesh.edge))[0]
    parent, _, w, sides = split_cut_cell(mesh.cell_lows[cut], mesh.edge, circle, 8)
    area = np.bincount(parent, weights=w * (sides < 0), minlength=cut.size)
    for k, cell in enumerate(cut):
        low = mesh.cell_lows[cell]
        exact = disk_box_area(circle.center, radius, low, low + mesh.edge)
        assert abs(area[k] - exact) <= 1e-10 * mesh.edge**2


class TestBatchedSplit:
    @pytest.mark.parametrize("interface, n", [(CIRCLE, 8), (CIRCLE, 6), (SPHERE, 4)])
    def test_matches_one_cell_at_a_time(self, interface, n):
        # every cell of the grid, cut or not, split in one call and one by one
        dim = interface.dim
        ticks = np.arange(n) / n
        lows = np.stack(np.meshgrid(*([ticks] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
        parent, pts, w, sides = split_cut_cell(lows, 1.0 / n, interface, 3)
        assert np.all(np.diff(parent) >= 0)
        assert np.count_nonzero(sides < 0) > 0
        for k, low in enumerate(lows):
            single = split_cut_cell(low, 1.0 / n, interface, 3)
            mine = parent == k
            assert np.array_equal(single[0], np.zeros(single[0].size, dtype=int))
            for batched, alone in zip((pts, w, sides), single[1:]):
                assert np.array_equal(batched[mine], alone)

    def test_points_in_their_cells_3d(self):
        mesh = build_uniform_mesh(3, 8)
        d_min, _ = SPHERE.distance_range_over_box(mesh.cell_lows, mesh.cell_highs())
        lows = mesh.cell_lows[d_min <= mesh.edge]
        parent, pts, _, _ = split_cut_cell(lows, mesh.edge, SPHERE, 4)
        assert np.all((pts >= lows[parent]) & (pts <= lows[parent] + mesh.edge))
        # the same lines as split_cut_cell: each point keeps its line's face
        # coordinates, and its height coordinate lies in the line's range
        boxes = quadrature._height_boxes(lows, mesh.edge, SPHERE)
        _, frame, x, _, a, b, ck, root = quadrature._face_rules(boxes, SPHERE, 4, weighted=True)
        line, t, _, _ = quadrature._gauss_pieces(a, b, np.column_stack([ck - root, ck + root]),
                                                 np.ones(2, dtype=bool), 4,
                                                 quadrature.HEIGHT_GRADING)
        height = np.take_along_axis(pts, frame[line, -1:], axis=1)[:, 0]
        assert np.array_equal(height, t)
        assert np.all((a[line] <= height) & (height <= b[line]))
        assert np.array_equal(np.take_along_axis(pts, frame[line, :-1], axis=1), x[line])


    @pytest.mark.parametrize("interface, n, points", [(CIRCLE, 8, 4), (SPHERE, 4, 2)])
    def test_is_the_line_rule_expanded(self, interface, n, points):
        # every cell of the grid; the points written out one by one
        dim = interface.dim
        ticks = np.arange(n) / n
        lows = np.stack(np.meshgrid(*([ticks] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
        parent, pts, w, sides = split_cut_cell(lows, 1.0 / n, interface, points)
        rows, frame, x, line, t, line_w, line_sides = quadrature._line_rule(
            quadrature._height_boxes(lows, 1.0 / n, interface), interface, points)
        assert np.all(np.diff(line) >= 0)
        want = np.empty((line.size, dim))
        for j, (k, height) in enumerate(zip(line, t)):
            want[j, frame[k, :-1]] = x[k]
            want[j, frame[k, -1]] = height
        assert np.array_equal(parent, rows[line])
        assert pts.tobytes() == want.tobytes()
        assert w.tobytes() == line_w.tobytes()
        assert np.array_equal(sides, line_sides)


def loop_gauss_pieces(lo, hi, roots, graded, points, power):
    """``quadrature._gauss_pieces`` line by line and piece by piece, with each
    anchor found by a loop over the roots (test oracle)."""
    xi, omega = quadrature.gauss_points_1d(points)
    out = []
    for i in range(lo.size):
        cuts = sorted([lo[i], hi[i]] + [r for r in roots[i] if lo[i] < r < hi[i]])
        for a, b in zip(cuts[:-1], cuts[1:]):
            if not b > a:
                continue
            left = right = None
            for r, g in zip(roots[i], graded):
                if g and a - (b - a) <= r <= a and (left is None or r > left):
                    left = r
                if g and b <= r <= b + (b - a) and (right is None or r < right):
                    right = r
            if left is not None and right is not None:
                halves = [(a, 0.5 * (a + b), left), (0.5 * (a + b), b, right)]
            else:
                halves = [(a, b, right if left is None else left)]
            for start, end, anchor in halves:
                if anchor is None:
                    t, w = start + (end - start) * xi, (end - start) * omega
                else:
                    near, far = (start, end) if anchor <= start else (end, start)
                    span = far - anchor
                    s0 = ((near - anchor) / span) ** (1.0 / power)
                    s = s0 + (1.0 - s0) * xi
                    t = anchor + span * s ** power
                    w = (1.0 - s0) * power * abs(span) * omega * s ** (power - 1)
                out += [(i, tj, wj, 0.5 * (start + end)) for tj, wj in zip(t, w)]
    return [np.array(column) for column in zip(*out)]


class TestGaussPieces:
    def test_anchors_against_a_loop_over_the_roots(self):
        # roots inside the lines, on their ends, on each other, within one
        # piece length beyond a cut and farther, and absent; one column of
        # roots is not graded
        rng = np.random.default_rng(5)
        m, k = 300, 4
        lo = rng.uniform(0.0, 1.0, size=m)
        hi = lo + rng.uniform(0.1, 1.0, size=m)
        frac = rng.choice([-1.5, -0.4, -0.05, 0.0, 0.2, 0.5, 0.8, 1.0, 1.05, 1.4, 2.5],
                          size=(m, k))
        roots = lo[:, None] + frac * (hi - lo)[:, None]
        roots[rng.uniform(size=(m, k)) < 0.2] = np.nan
        roots[::7, 1] = roots[::7, 0]
        graded = np.array([True, False, True, True])
        got = quadrature._gauss_pieces(lo, hi, roots, graded, 3, 3)
        want = loop_gauss_pieces(lo, hi, roots, graded, 3, 3)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[3], want[3])
        for g, w in zip(got[1:3], want[1:3]):
            assert np.allclose(g, w, rtol=1e-13, atol=1e-15)


def broadcast_gauss_pieces(lo, hi, roots, graded, points, power):
    """``quadrature._gauss_pieces`` as it was before it worked per piece column:
    (line, piece, half) stacks, and plain Gauss points for every piece with
    those of the graded pieces overwritten (test oracle)."""
    inner = np.where((roots > lo[:, None]) & (roots < hi[:, None]), roots, hi[:, None])
    cuts = np.sort(np.concatenate([lo[:, None], inner, hi[:, None]], axis=1), axis=1)
    a, b = cuts[:, :-1], cuts[:, 1:]
    length = b - a
    left, right = np.full(a.shape, -np.inf), np.full(a.shape, np.inf)
    for r in roots[:, graded].T[:, :, None]:
        left = np.maximum(left, np.where((r <= a) & (r >= a - length), r, -np.inf))
        right = np.minimum(right, np.where((r >= b) & (r <= b + length), r, np.inf))
    has_left, has_right = np.isfinite(left), np.isfinite(right)
    both = has_left & has_right
    mid = np.where(both, 0.5 * (a + b), b)
    starts = np.stack([a, mid], axis=-1)
    ends = np.stack([mid, b], axis=-1)
    anchors = np.stack([np.where(has_left, left, right), right], axis=-1)
    keep = np.stack([length > 0.0, both & (length > 0.0)], axis=-1)
    line = np.broadcast_to(np.arange(lo.shape[0])[:, None, None], keep.shape)[keep]
    start, end, anchor = starts[keep], ends[keep], anchors[keep]
    xi, omega = quadrature.gauss_points_1d(points)
    t = start[:, None] + (end - start)[:, None] * xi
    w = (end - start)[:, None] * omega
    bent = np.isfinite(anchor)
    g0, g1, ga = start[bent], end[bent], anchor[bent]
    from_start = ga <= g0
    near = np.where(from_start, g0, g1)
    far = np.where(from_start, g1, g0)
    span = far - ga
    s0 = ((near - ga) / span) ** (1.0 / power)
    s = s0[:, None] + (1.0 - s0)[:, None] * xi
    t[bent] = ga[:, None] + span[:, None] * s ** power
    w[bent] = ((1.0 - s0) * power * np.abs(span))[:, None] * omega * s ** (power - 1)
    n = xi.size
    return (np.repeat(line, n), t.ravel(), w.ravel(), np.repeat(0.5 * (start + end), n))


def broadcast_unpermute(x, frame, line, t):
    """``quadrature._unpermute`` over (n, dim) arrays (test oracle)."""
    faces = np.empty((x.shape[0], frame.shape[1]))
    np.put_along_axis(faces, frame[:, :-1], x, axis=1)
    pts = faces[line]
    pts[np.arange(line.size), frame[line, -1]] = t
    return pts


class TestColumnWiseOracle:
    """The rules are built one coordinate, piece or Gauss point at a time;
    every array is bitwise equal to the broadcast formula."""

    def test_gauss_pieces_on_random_lines(self):
        # the lines of the loop oracle below, and the same lines with no
        # graded root and with every root graded
        rng = np.random.default_rng(5)
        m, k = 300, 4
        lo = rng.uniform(0.0, 1.0, size=m)
        hi = lo + rng.uniform(0.1, 1.0, size=m)
        frac = rng.choice([-1.5, -0.4, -0.05, 0.0, 0.2, 0.5, 0.8, 1.0, 1.05, 1.4, 2.5],
                          size=(m, k))
        roots = lo[:, None] + frac * (hi - lo)[:, None]
        roots[rng.uniform(size=(m, k)) < 0.2] = np.nan
        roots[::7, 1] = roots[::7, 0]
        for graded in ([True, False, True, True], [False] * k, [True] * k):
            for points, power in ((3, 3), (1, 2), (8, 3)):
                got = quadrature._gauss_pieces(lo, hi, roots, np.array(graded), points, power)
                want = broadcast_gauss_pieces(lo, hi, roots, np.array(graded), points, power)
                assert all(bitwise_equal(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("interface, n", [(CIRCLE, 16), (SPHERE, 6)], ids=["2d", "3d"])
    def test_gauss_pieces_of_the_rules(self, interface, n, monkeypatch):
        # every call the volume and surface rules make, on every face level
        # and on the height axis, near every cell of a grid
        calls = []
        pieces = quadrature._gauss_pieces
        monkeypatch.setattr(quadrature, "_gauss_pieces",
                            lambda *args: calls.append(args) or pieces(*args))
        mesh = build_uniform_mesh(interface.dim, n)
        d_min, _ = interface.distance_range_over_box(mesh.cell_lows, mesh.cell_highs())
        lows = mesh.cell_lows[d_min <= mesh.edge]
        quadrature._line_rule(quadrature._height_boxes(lows, mesh.edge, interface), interface, 4)
        surface_rule(lows, mesh.edge, interface, 3)
        assert len(calls) == 2 * interface.dim - 1
        for args in calls:
            assert all(bitwise_equal(g, w)
                       for g, w in zip(pieces(*args), broadcast_gauss_pieces(*args)))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_unpermute(self, dim, in_layout):
        # lines along every axis, points in any line order
        rng = np.random.default_rng(19 * dim)
        frame = np.array([np.roll(np.arange(dim), k) for k in rng.integers(0, dim, 90)])
        frame[::2] = frame[::2, ::-1]
        x = rng.uniform(0.0, 1.0, size=(90, dim - 1))
        x[::3] = 0.0
        line = rng.integers(0, 90, size=700)
        t = rng.uniform(0.0, 1.0, size=700)
        t[::4] = -0.0
        want = broadcast_unpermute(x, frame, line, t)
        assert bitwise_equal(quadrature._unpermute(in_layout(x), in_layout(frame), line, t),
                             want)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_on_boxes(self, dim, in_layout):
        rng = np.random.default_rng(23 * dim)
        lows = np.vstack([rng.uniform(0.0, 1.0, size=(50, dim)), np.zeros((1, dim))])
        for q in (1, 3):
            rule = gauss_rule(dim, q)
            for size in (0.125, 1.0 / 3.0):
                pts, w = rule.on_boxes(in_layout(lows), size)
                want = lows[:, None, :] + size * rule.points[None, :, :]
                assert bitwise_equal(pts, want.reshape(-1, dim))
                assert bitwise_equal(w, np.tile(rule.weights * size ** dim, lows.shape[0]))


class TestSurfaceRule:
    @pytest.mark.parametrize("interface, n", [(CIRCLE, 8), (SPHERE, 4)])
    def test_matches_one_cell_at_a_time(self, interface, n):
        mesh = build_uniform_mesh(interface.dim, n)
        quad = immersed_quadrature(interface, mesh)
        assert np.all(np.diff(quad.owner_cell) >= 0)
        for cell in np.unique(quad.owner_cell):
            one = surface_rule(mesh.cell_lows[cell], mesh.edge, interface, 8)
            mine = quad.owner_cell == cell
            assert np.array_equal(one[1], quad.points[mine])
            assert np.array_equal(one[2], quad.weights[mine])


def beta(a, b):
    return math.gamma(a) * math.gamma(b) / math.gamma(a + b)


@st.composite
def grid_spheres(draw):
    """A grid with n in {4, 8, 16} and a circle or sphere inside the unit box
    that is generic, tangent to the grid plane nearest its centre, passes
    through the grid vertex nearest its centre, or comes within 2e-3 of the
    box wall."""
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.sampled_from([4, 8, 16]))
    center = np.array([draw(st.floats(0.25, 0.75)) for _ in range(dim)])
    kind = draw(st.sampled_from(["generic", "tangent", "vertex", "wall"]))
    if kind == "generic":
        radius = draw(st.floats(0.01, 0.2))
    elif kind == "tangent":
        axis = draw(st.integers(0, dim - 1))
        radius = abs(round(center[axis] * n) / n - center[axis])
    elif kind == "vertex":
        radius = float(np.linalg.norm(np.round(center * n) / n - center))
    else:
        radius = draw(st.floats(0.05, 0.2))
        gap = draw(st.floats(1e-6, 2e-3))
        axis = draw(st.integers(0, dim - 1))
        center[axis] = draw(st.sampled_from([radius + gap, 1.0 - radius - gap]))
    assume(0.01 <= radius < min(np.min(center), np.min(1.0 - center)))
    return build_uniform_mesh(dim, n), SphericalInterface(center, radius)


class TestDegenerateGeometry:
    """The rule on every cell within one cell width of the surface, and a
    tensor rule on the rest, against closed forms."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(grid_spheres())
    def test_measures_and_weighted_moment(self, mesh_sphere):
        mesh, sphere = mesh_sphere
        dim, r, c = mesh.dim, sphere.radius, sphere.center
        lows = mesh.cell_lows
        d_min, _ = sphere.distance_range_over_box(lows, lows + mesh.edge)
        near = d_min <= mesh.edge
        parent, pts, w, sides = split_cut_cell(lows[near], mesh.edge, sphere, 8)
        starts = np.searchsorted(parent, np.arange(np.count_nonzero(near) + 1))
        cell_volume = np.array([math.fsum(w[lo:hi]) for lo, hi in zip(starts[:-1], starts[1:])])
        assert np.max(np.abs(cell_volume / mesh.edge**dim - 1.0)) <= 1e-13

        far_inside = ~near & (sphere.side(lows + 0.5 * mesh.edge) < 0)
        ball = math.pi * r**2 if dim == 2 else 4.0 / 3.0 * math.pi * r**3
        volume = np.sum(w[sides < 0]) + np.count_nonzero(far_inside) * mesh.edge**dim
        assert volume == pytest.approx(ball, rel=1e-8)
        area = immersed_quadrature(sphere, mesh).total_weight()
        assert area == pytest.approx(sphere.measure, rel=1e-8)

        rule = gauss_rule(dim, 8)
        far_pts, far_w = rule.on_boxes(lows[far_inside], mesh.edge)
        for alpha in (0.1, 0.49):
            # (R - rho)^(2 alpha) rho^4: the rho^4 smooths the cone of rho at
            # the centre (rho^2 leaves a rho^3 term, which Gauss points resolve
            # to about 1e-6 only); the integral is a Beta function in rho / R
            moment = 0.0
            for p, weights in ((pts[sides < 0], w[sides < 0]), (far_pts, far_w)):
                rho = np.linalg.norm(p - c, axis=1)
                moment += float(np.sum(weights * np.maximum(r - rho, 0.0) ** (2 * alpha)
                                       * rho**4))
            shell = 2.0 * math.pi if dim == 2 else 4.0 * math.pi
            exact = shell * r ** (dim + 4 + 2 * alpha) * beta(dim + 4, 2 * alpha + 1)
            assert moment == pytest.approx(exact, rel=1e-6)

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import bitwise_equal, frames_of, lattice
from immersedfem import (FeSpace, SphericalInterface, StudyConfig,
                         assemble_interface_load, build_uniform_mesh, run_study)
from immersedfem import norms, quadrature
from immersedfem.mesh import Mesh
from immersedfem.quadrature import gauss_rule, surface_rule
from rules import line_rule, loop_pieces, split_cut_cell, surface_quadrature

CIRCLE = SphericalInterface((0.3, 0.3), 0.2)
SPHERE = SphericalInterface((0.3, 0.3, 0.3), 0.2)


def integrate(rule, fn):
    points, weights = rule
    return float(np.sum(weights * fn(points)))


def test_one_point_rule_is_midpoint():
    points, weights = gauss_rule(1, 1)
    assert points.shape == (1, 1) and weights.shape == (1,)
    assert points[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert weights[0] == pytest.approx(1.0, abs=1e-15)


def test_weights_sum_to_one():
    for dim in (1, 2, 3):
        for n in (1, 2, 4):
            _, weights = gauss_rule(dim, n)
            assert np.sum(weights) == pytest.approx(1.0, abs=1e-14)
            assert np.all(weights > 0.0)


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


def test_tensor_order_matches_meshgrid():
    # points first axis fastest, as the local dofs; weights multiplied in
    # axis order, bitwise as products over meshgrids
    for dim in (1, 2, 3):
        for n in range(1, 11):
            points, weights = gauss_rule(dim, n)
            x, w = quadrature.gauss_points_1d(n)
            index = lattice(n, dim).astype(int)
            want = w[index[:, 0]]
            for axis in range(1, dim):
                want = want * w[index[:, axis]]
            assert bitwise_equal(points, x[index])
            assert bitwise_equal(weights, want)
    # a numpy integer is the same size as a Python int
    assert all(map(bitwise_equal, gauss_rule(2, np.int64(3)), gauss_rule(2, 3)))


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        gauss_rule(0, 2)
    with pytest.raises(ValueError):
        gauss_rule(2, 0)
    # 1.5 raised an unrelated lattice message and True a TypeError
    for dim in (1.5, True):
        with pytest.raises(ValueError, match="dim must be an integer"):
            gauss_rule(dim, 2)
    with pytest.raises(ValueError, match="number of points must be an integer"):
        surface_rule((0.25, 0.25), 0.25, CIRCLE, 0)


class TestGaussPoints1d:
    def test_nodes_computed_once_per_size(self, monkeypatch):
        # a two-level 3D study: the tensor, piece and surface rules and the
        # solver's 1D factors ask for the same few sizes many times over
        calls = []
        leggauss = np.polynomial.legendre.leggauss
        monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                            lambda n: calls.append(n) or leggauss(n))
        quadrature._gauss_legendre.cache_clear()
        try:
            run_study(StudyConfig(dim=3, min_exp=2, max_exp=3))
        finally:
            quadrature._gauss_legendre.cache_clear()
        assert len(calls) > 1 and len(calls) == len(set(calls))

    def test_arrays_are_read_only(self):
        for n in (1, 4, 8):
            x, w = quadrature.gauss_points_1d(n)
            assert x is quadrature.gauss_points_1d(np.int64(n))[0]
            for array in (x, w):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 0.0

    @pytest.mark.parametrize("bad", [0, -2, 2.5, 3.0, True, False, "3", None])
    def test_rejects_bad_sizes(self, bad):
        # 2.5 raised numpy's TypeError and True gave the one-point rule
        with pytest.raises(ValueError, match="number of points must be an integer"):
            quadrature.gauss_points_1d(bad)


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
    lows = mesh.cell_lows(np.arange(mesh.n_cells))
    cut = np.nonzero(circle.cuts_box(lows, lows + mesh.edge))[0]
    parent, _, w, sides = split_cut_cell(lows[cut], mesh.edge, circle, 8)
    area = np.bincount(parent, weights=w * (sides < 0), minlength=cut.size)
    for k, cell in enumerate(cut):
        low = mesh.cell_lows(cell)
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
        none = split_cut_cell(lows[:0], 1.0 / n, interface, 3)  # no cells: typed empties
        assert [(a.shape, a.dtype) for a in none] == [
            ((0,) + a.shape[1:], a.dtype) for a in (parent, pts, w, sides)]

    def test_points_in_their_cells_3d(self):
        mesh = build_uniform_mesh(3, 8)
        lows = mesh.cell_lows(np.arange(mesh.n_cells))
        d_min, _ = SPHERE.distance_range_over_box(lows, lows + mesh.edge)
        lows = lows[d_min <= mesh.edge]
        parent, pts, _, _ = split_cut_cell(lows, mesh.edge, SPHERE, 4)
        assert np.all((pts >= lows[parent]) & (pts <= lows[parent] + mesh.edge))
        # the same lines as split_cut_cell: each point keeps its line's face
        # coordinates, and its height coordinate lies in the line's range
        boxes = quadrature._height_boxes(lows, mesh.edge, SPHERE)
        _, axis, x, _, a, b, ck, root = quadrature._face_rules(boxes, SPHERE, 4, weighted=True)
        line, t, _ = quadrature._gauss_pieces(a, b, np.column_stack([ck - root, ck + root]),
                                              np.ones(2, dtype=bool), 4,
                                              quadrature.HEIGHT_GRADING)
        frame = frames_of(axis, 3)
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
        rows, axis, x, line, t, line_w, line_sides = line_rule(
            quadrature._height_boxes(lows, 1.0 / n, interface), interface, points)
        frame = frames_of(axis, dim)
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
                if not end > start:
                    continue
                if anchor is None:
                    t, w = start + (end - start) * xi, (end - start) * omega
                else:
                    near, far = (start, end) if anchor <= start else (end, start)
                    span = far - anchor
                    s0 = ((near - anchor) / span) ** (1.0 / power)
                    s = s0 + (1.0 - s0) * xi
                    t = anchor + span * s ** power
                    w = (1.0 - s0) * power * abs(span) * omega * s ** (power - 1)
                out += [(i, tj, wj) for tj, wj in zip(t, w)]
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
        for g, w in zip(got[1:], want[1:]):
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
    keep = np.stack([mid > a, both & (b > mid)], axis=-1)
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
    return np.repeat(line, n), t.ravel(), w.ravel()


def broadcast_unpermute(x, axis, line, t):
    """``quadrature._unpermute`` over (n, dim) arrays (test oracle)."""
    frame = frames_of(axis, x.shape[1] + 1)
    faces = np.empty((x.shape[0], frame.shape[1]))
    np.put_along_axis(faces, frame[:, :-1], x, axis=1)
    pts = faces[line]
    pts[np.arange(line.size), frame[line, -1]] = t
    return pts


@st.composite
def lines_with_roots(draw):
    """Lines [lo, hi], some of zero length, with up to five candidate roots
    each: absent (NaN), exactly on lo or hi, repeated, or anywhere within two
    line lengths; and a mask of graded roots, every root graded as on the
    height axis or any mask as on the face levels."""
    m, k = draw(st.integers(1, 8)), draw(st.integers(1, 5))
    lo = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=m, max_size=m)))
    length = np.array(draw(st.lists(st.sampled_from([0.0, 1e-12, 0.25, 1.0]) | st.floats(0.0, 2.0),
                                    min_size=m, max_size=m)))
    frac = np.array(draw(st.lists(st.sampled_from([np.nan, 0.0, 1.0, -1.0, 0.5, 2.0])
                                  | st.floats(-2.0, 3.0), min_size=m * k, max_size=m * k)))
    roots = lo[:, None] + frac.reshape(m, k) * length[:, None]
    repeat = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    roots[repeat, -1] = roots[repeat, 0]
    graded = draw(st.just([True] * k) | st.lists(st.booleans(), min_size=k, max_size=k))
    return lo, lo + length, roots, np.array(graded, dtype=bool)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lines_with_roots())
def test_pieces_bitwise_equal_to_the_loop(lines):
    # every piece column and graded root at once, against one at a time
    got, want = quadrature._pieces(*lines), loop_pieces(*lines)
    assert all(bitwise_equal(g, w) for g, w in zip(got, want))


def test_pieces_of_a_line_one_ulp_long():
    # a line [a, nextafter(a, 1)] with a graded root at each end is halved;
    # its midpoint rounds to one of the ends, which of them by the parity of
    # a's last bit, so one half has zero length and is dropped, and the
    # other is the whole line, graded toward one root, on finite points
    lo = 0.3 + np.arange(4) * np.spacing(0.3)
    hi = np.nextafter(lo, 1.0)
    roots = np.column_stack([lo, hi])
    graded = np.ones(2, dtype=bool)
    got = quadrature._pieces(lo, hi, roots, graded)
    assert all(bitwise_equal(g, w) for g, w in zip(got, loop_pieces(lo, hi, roots, graded)))
    line, start, end, anchor = got
    assert np.array_equal(line, np.arange(lo.size))
    assert np.array_equal(start, lo) and np.array_equal(end, hi)
    toward_lo = anchor == lo
    assert np.all(toward_lo | (anchor == hi)) and 0 < np.count_nonzero(toward_lo) < lo.size
    with np.errstate(all="raise"):
        line, t, w = quadrature._piece_points(*got, 4, quadrature.HEIGHT_GRADING)
    assert np.all((lo[line] <= t) & (t <= hi[line]))
    assert np.allclose(np.bincount(line, weights=w), hi - lo, rtol=1e-14, atol=0.0)


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
        lows = mesh.cell_lows(np.arange(mesh.n_cells))
        d_min, _ = interface.distance_range_over_box(lows, lows + mesh.edge)
        lows = lows[d_min <= mesh.edge]
        line_rule(quadrature._height_boxes(lows, mesh.edge, interface), interface, 4)
        surface_rule(lows, mesh.edge, interface, 3)
        assert len(calls) == 2 * interface.dim - 1
        for args in calls:
            assert all(bitwise_equal(g, w)
                       for g, w in zip(pieces(*args), broadcast_gauss_pieces(*args)))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_unpermute(self, dim, in_layout):
        # lines along every axis, points in any line order
        rng = np.random.default_rng(19 * dim)
        axis = rng.integers(0, dim, 90)
        x = rng.uniform(0.0, 1.0, size=(90, dim - 1))
        x[::3] = 0.0
        line = rng.integers(0, 90, size=700)
        t = rng.uniform(0.0, 1.0, size=700)
        t[::4] = -0.0
        want = broadcast_unpermute(x, axis, line, t)
        assert bitwise_equal(quadrature._unpermute(in_layout(x), axis, line, t), want)

    @pytest.mark.parametrize("dim, n_c", [(2, 8), (2, 12), (2, 16), (3, 4), (3, 6), (3, 8)])
    def test_on_boxes(self, dim, n_c, monkeypatch):
        # the plain blocks of the error pass: the tensor rule scaled to every
        # cell farther than one cell width from the surface, in id order,
        # bitwise as the rule broadcast over the cells' corners
        monkeypatch.setattr(quadrature, "BATCH_POINTS", 20)
        interface = SphericalInterface((0.3,) * dim, 0.2)
        space = FeSpace(build_uniform_mesh(dim, n_c), 1)
        mesh = space.mesh
        lows = mesh.cell_lows(np.arange(mesh.n_cells))
        d_min, _ = interface.distance_range_over_box(lows, lows + mesh.edge)
        plain = np.flatnonzero(d_min > mesh.edge)
        for q in (1, 3):
            points, weights = gauss_rule(dim, q)
            # the plain blocks come first
            blocks = list(itertools.takewhile(
                lambda block: block[3] is None,
                norms._cell_batches(space, interface, points, weights, q, None)))
            assert len(blocks) > 1
            blocks = [block[:3] for block in blocks]
            dofs, pts, w = (np.concatenate(column) for column in zip(*blocks))
            assert np.array_equal(dofs, space.cell_dofs(plain))
            want = lows[plain][:, None, :] + mesh.edge * points
            assert bitwise_equal(pts, want.reshape(-1, dim))
            assert bitwise_equal(w, np.tile(weights * mesh.edge ** dim, plain.size))


class TestSurfaceRule:
    @pytest.mark.parametrize("interface, n", [(CIRCLE, 8), (SPHERE, 4)])
    def test_matches_one_cell_at_a_time(self, interface, n):
        mesh = build_uniform_mesh(interface.dim, n)
        points, weights, owners = surface_quadrature(interface, mesh)
        assert np.all(np.diff(owners) >= 0)
        for cell in np.unique(owners):
            one = surface_rule(mesh.cell_lows(cell), mesh.edge, interface, 8)
            mine = owners == cell
            assert np.array_equal(one[1], points[mine])
            assert np.array_equal(one[2], weights[mine])
        none = surface_rule(mesh.cell_lows(np.arange(0)), mesh.edge, interface, 8)  # no cells: typed empties
        assert [(a.shape, a.dtype) for a in none] == [((0,) + a.shape[1:], a.dtype) for a in one]


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
        lows = mesh.cell_lows(np.arange(mesh.n_cells))
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
        area = surface_quadrature(sphere, mesh)[1].sum()
        assert area == pytest.approx(2.0 * math.pi * r if dim == 2 else 4.0 * math.pi * r**2,
                                     rel=1e-8)

        points, weights = gauss_rule(dim, 8)
        far_pts = (lows[far_inside][:, None, :] + mesh.edge * points).reshape(-1, dim)
        far_w = np.tile(weights * mesh.edge ** dim, np.count_nonzero(far_inside))
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

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(grid_spheres(), st.integers(8, 12))
    def test_side_tags_differ_only_at_negligible_weights(self, mesh_sphere, points):
        # the solution is continuous across the surface, so the error pass
        # lets the exact field pick its branch by the interface's own test:
        # where that test and the rule's tag (its piece's side) disagree, a
        # point lies within rounding of the surface and carries a weight
        # many orders below its cell's volume
        mesh, sphere = mesh_sphere
        lows = mesh.cell_lows(np.arange(mesh.n_cells))
        d_min, _ = sphere.distance_range_over_box(lows, lows + mesh.edge)
        _, pts, w, sides = split_cut_cell(lows[d_min <= mesh.edge], mesh.edge, sphere, points)
        differ = sides != sphere.side(pts)
        assert np.all(w[differ] < 1e-15 * mesh.edge ** mesh.dim)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(grid_spheres())
    def test_bounding_box_holds_every_cut_and_near_cell(self, mesh_sphere):
        # the load's surface rule and the error pass test only the cells of
        # the surface's bounding box, widened by one cell width for the error
        # pass; a sphere tangent to a grid plane puts cut and near cells at
        # the edge of that box
        mesh, sphere = mesh_sphere
        c, r = sphere.center, sphere.radius
        cells = np.arange(mesh.n_cells)
        lows = mesh.cell_lows(cells)
        cut = cells[sphere.cuts_box(lows, lows + mesh.edge)]
        d_min, _ = sphere.distance_range_over_box(lows, lows + mesh.edge)
        near = cells[d_min <= mesh.edge]
        assert np.all(np.isin(cut, mesh.cells_meeting(c - r, c + r)))
        assert np.all(np.isin(near, mesh.cells_meeting(c - r - mesh.edge, c + r + mesh.edge)))
        # the load on those cells is the load on every cell, to the last bit
        space = FeSpace(mesh, 1)
        density = lambda y: 1.0 + y[:, 0]  # noqa: E731
        load = assemble_interface_load(space, sphere, density)
        with mock.patch.object(Mesh, "cells_meeting", lambda self, low, high: cells):
            assert bitwise_equal(assemble_interface_load(space, sphere, density), load)

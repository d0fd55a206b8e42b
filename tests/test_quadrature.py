import math

import numpy as np
import pytest

from immersedfem import SphericalInterface, gauss_rule, split_cut_cell

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
        split_cut_cell((0.0, 0.0), 0.25, CIRCLE, gauss_rule(2, 2), -1)


class TestSplitCutCell:
    def test_uncut_cell_is_single_leaf(self):
        rule = gauss_rule(2, 3)
        split = split_cut_cell((0.75, 0.75), 0.25, CIRCLE, rule, 6)
        assert split.n_leaves == 1
        assert split.sides[0] == 1
        pts, w, _ = split.points_weights()
        ref = (pts - np.array([0.75, 0.75])) / 0.25
        assert np.allclose(ref, rule.points)
        assert np.allclose(w, rule.weights * 0.25**2)

    def test_cell_inside_surface_is_single_interior_leaf(self):
        small = SphericalInterface((0.3, 0.3), 0.29)
        split = split_cut_cell((0.25, 0.25), 0.125, small, gauss_rule(2, 2), 6)
        assert split.n_leaves == 1
        assert split.sides[0] == -1

    def test_volume_preserved(self):
        rule = gauss_rule(2, 3)
        for depth in (0, 3, 6):
            split = split_cut_cell((0.25, 0.25), 0.25, CIRCLE, rule, depth)
            _, w, _ = split.points_weights()
            assert np.sum(w) == pytest.approx(0.25**2, rel=1e-14)

    def test_leaves_below_depth_limit_are_uncut(self):
        split = split_cut_cell((0.25, 0.25), 0.25, CIRCLE, gauss_rule(2, 2), 5)
        clear = ~split.cut
        lo = split.lows[clear]
        hi = lo + split.sizes[clear][:, None]
        assert not np.any(CIRCLE.cuts_box(lo, hi))
        assert np.all(split.sizes[split.cut] == 0.25 / 2**5)

    def test_cut_area_against_pixel_oracle(self):
        # oracle: 2000 x 2000 pixel count of the interior within the cell
        ticks = (np.arange(2000) + 0.5) / 2000
        gx, gy = np.meshgrid(ticks, ticks)
        pixels = np.column_stack([gx.ravel(), gy.ravel()]) * 0.25 + 0.25
        inside = np.linalg.norm(pixels - CIRCLE.center, axis=1) < CIRCLE.radius
        oracle = inside.mean() * 0.25**2

        split = split_cut_cell((0.25, 0.25), 0.25, CIRCLE, gauss_rule(2, 3), 8)
        pts, w, _ = split.points_weights()
        indicator = np.linalg.norm(pts - CIRCLE.center, axis=1) < CIRCLE.radius
        area = float(np.sum(w[indicator]))
        assert area == pytest.approx(oracle, abs=1e-4)

    def test_disk_area_over_all_cells(self):
        mesh_edges = 0.25
        area = 0.0
        rule = gauss_rule(2, 2)
        for i in range(4):
            for j in range(4):
                low = np.array([i, j]) * mesh_edges
                split = split_cut_cell(low, mesh_edges, CIRCLE, rule, 8)
                pts, w, _ = split.points_weights()
                inside = np.linalg.norm(pts - CIRCLE.center, axis=1) < CIRCLE.radius
                area += float(np.sum(w[inside]))
        assert area == pytest.approx(math.pi * 0.2**2, abs=1e-4)

    def test_ball_volume_over_all_cells(self):
        rule = gauss_rule(3, 1)
        volume = 0.0
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    low = np.array([i, j, k]) * 0.25
                    split = split_cut_cell(low, 0.25, SPHERE, rule, 8)
                    pts, w, _ = split.points_weights()
                    inside = np.linalg.norm(pts - SPHERE.center, axis=1) < SPHERE.radius
                    volume += float(np.sum(w[inside]))
        assert volume == pytest.approx(4.0 / 3.0 * math.pi * 0.2**3, abs=1e-4)


class TestBatchedSplit:
    @pytest.mark.parametrize("interface, n", [(CIRCLE, 8), (CIRCLE, 6), (SPHERE, 4)])
    def test_matches_one_cell_at_a_time(self, interface, n):
        # every cell of the grid, cut or not, split in one call and one by one
        dim = interface.dim
        ticks = np.arange(n) / n
        lows = np.stack(np.meshgrid(*([ticks] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
        rule = gauss_rule(dim, 2)
        depth = 5 if dim == 2 else 3
        batch = split_cut_cell(lows, 1.0 / n, interface, rule, depth)
        assert np.all(np.diff(batch.parent) >= 0)
        assert np.count_nonzero(batch.cut) > 0
        total = 0
        for k, low in enumerate(lows):
            single = split_cut_cell(low, 1.0 / n, interface, rule, depth)
            mine = batch.parent == k
            assert np.array_equal(single.parent, np.zeros(single.n_leaves, dtype=int))
            for field in ("lows", "sizes", "sides", "cut"):
                assert np.array_equal(getattr(batch, field)[mine], getattr(single, field)), field
            total += single.n_leaves
        assert batch.n_leaves == total

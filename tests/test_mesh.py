import math

import numpy as np
import pytest

from immersedfem import FeSpace, SphericalInterface, build_uniform_mesh, classify_cells

FAR_CIRCLE = SphericalInterface((10.0, 10.0), 0.2)
CIRCLE = SphericalInterface((0.3, 0.3), 0.2)
SPHERE = SphericalInterface((0.3, 0.3, 0.3), 0.2)


def test_smallest_grid():
    mesh = build_uniform_mesh(2, 1)
    assert mesh.n_cells == 1
    assert mesh.n_vertices == 4
    assert mesh.cell_lows.tolist() == [[0.0, 0.0]]
    assert mesh.cell_highs().tolist() == [[1.0, 1.0]]


def test_counts_3d():
    mesh = build_uniform_mesh(3, 2)
    assert mesh.n_cells == 8
    assert mesh.n_vertices == 27


def test_cell_diameter():
    mesh = build_uniform_mesh(2, 4)
    assert mesh.h_cell == pytest.approx(math.sqrt(2.0) / 4.0, abs=1e-15)


def test_vertex_coordinates_exact():
    # cell corners sit exactly at i/n, first axis fastest
    mesh = build_uniform_mesh(2, 3)
    for i in range(3):
        for j in range(3):
            cell = i + 3 * j
            assert mesh.cell_lows[cell, 0] == i / 3
            assert mesh.cell_lows[cell, 1] == j / 3


def test_cells_partition_unit_square():
    mesh = build_uniform_mesh(2, 5)
    lows = mesh.cell_lows
    assert np.isclose(mesh.n_cells * mesh.edge**2, 1.0)
    assert set(map(tuple, np.round(lows * 5).astype(int))) == {
        (i, j) for i in range(5) for j in range(5)
    }


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_uniform_mesh(4, 2)
    with pytest.raises(ValueError):
        build_uniform_mesh(2, 0)


def test_refinement_halves_h_exactly():
    for n in (2, 4, 8, 16):
        coarse = build_uniform_mesh(2, n)
        fine = build_uniform_mesh(2, 2 * n)
        assert fine.h_cell == coarse.h_cell / 2.0


def test_locate_points():
    mesh = build_uniform_mesh(2, 4)
    assert mesh.locate([[0.1, 0.1]])[0] == 0
    assert mesh.locate([[0.99, 0.99]])[0] == 15
    assert mesh.locate([[1.0, 1.0]])[0] == 15  # boundary folds inward
    with pytest.raises(ValueError):
        mesh.locate([[1.5, 0.5]])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_locate_rejects_non_finite_points(bad):
    # a NaN passes both comparisons with the box, so it is rejected explicitly
    mesh = build_uniform_mesh(2, 4)
    with pytest.raises(ValueError, match="unit box"):
        mesh.locate([[0.5, 0.5], [bad, 0.5]])
    space = FeSpace(mesh, 1)
    with pytest.raises(ValueError, match="unit box"):
        space.evaluate(np.zeros(space.n_dofs), [[bad, 0.5]])


class TestClassification:
    def test_far_interface_gives_empty_layer(self):
        mesh = build_uniform_mesh(2, 4)
        cls = classify_cells(mesh, FAR_CIRCLE, 2.0)
        assert cls.in_cells.size == 0
        assert cls.out_cells.size == mesh.n_cells

    def test_huge_sigma_swallows_all_cells(self):
        mesh = build_uniform_mesh(2, 4)
        sigma = 10.0 * math.sqrt(2.0) * 4
        cls = classify_cells(mesh, CIRCLE, sigma)
        assert cls.out_cells.size == 0

    def test_corner_cell_distance_and_membership(self):
        # cell [0, 0.25]^2: farthest point from the circle is the origin
        mesh = build_uniform_mesh(2, 4)
        cls = classify_cells(mesh, CIRCLE, 2.0)
        expected_dmax = abs(math.hypot(0.3, 0.3) - 0.2)
        assert cls.dist_max[0] == pytest.approx(expected_dmax, abs=1e-14)
        assert expected_dmax <= 2.0 * mesh.h_cell
        assert 0 in cls.in_cells

    def test_partition(self):
        mesh = build_uniform_mesh(2, 8)
        cls = classify_cells(mesh, CIRCLE, math.sqrt(2.0))
        both = np.concatenate([cls.in_cells, cls.out_cells])
        assert np.array_equal(np.sort(both), np.arange(mesh.n_cells))

    def test_cut_cells_have_zero_distance_and_lie_inside(self):
        for dim, interface in ((2, CIRCLE), (3, SPHERE)):
            mesh = build_uniform_mesh(dim, 8)
            cls = classify_cells(mesh, interface, math.sqrt(dim))
            cut = interface.cuts_box(mesh.cell_lows, mesh.cell_lows + mesh.edge)
            assert np.all(cls.dist_min[cut] == 0.0)
            assert np.all(cls.in_mask[cut])

    def test_distance_band_inequalities(self):
        # computable forms of the layer geometry bounds
        mesh = build_uniform_mesh(2, 8)
        cls = classify_cells(mesh, CIRCLE, math.sqrt(2.0))
        h = mesh.h_cell
        assert np.all(cls.dist_min <= cls.dist_max + 1e-12)
        assert np.all(cls.dist_max <= cls.dist_min + h + 1e-12)
        cut = CIRCLE.cuts_box(mesh.cell_lows, mesh.cell_lows + mesh.edge)
        assert np.all(cls.dist_max[cut] + h >= h / math.sqrt(2.0))
        out = np.zeros(mesh.n_cells, dtype=bool)
        out[cls.out_cells] = True
        assert np.all(cls.dist_max[out] <= cls.dist_min[out] + h + 1e-12)
        assert np.all(cls.dist_min[out] + h
                      <= 2.0 * np.maximum(cls.dist_min[out], h) + 1e-12)

    def test_rejects_nonpositive_sigma(self):
        mesh = build_uniform_mesh(2, 4)
        with pytest.raises(ValueError):
            classify_cells(mesh, CIRCLE, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_sigma(self, bad):
        # NaN would put every cell out of the layer and inf every cell in it
        mesh = build_uniform_mesh(2, 4)
        with pytest.raises(ValueError, match="finite"):
            classify_cells(mesh, CIRCLE, bad)

    def test_closed_form_against_dense_sampling(self):
        # oracle: >= 10^4 sample points per cell bound the true min/max of
        # dist(x, surface); the closed form must agree within the sampling
        # resolution (the distance is 1-Lipschitz)
        rng = np.random.default_rng(7)
        mesh = build_uniform_mesh(2, 8)
        cls = classify_cells(mesh, CIRCLE, math.sqrt(2.0))
        ticks = np.linspace(0.0, 1.0, 101)
        gx, gy = np.meshgrid(ticks, ticks)
        unit_grid = np.column_stack([gx.ravel(), gy.ravel()])
        resolution = math.sqrt(2.0) * mesh.edge / 100.0
        for cell in rng.choice(mesh.n_cells, size=20, replace=False):
            samples = mesh.cell_lows[cell] + mesh.edge * unit_grid
            d = CIRCLE.distance(samples)
            assert cls.dist_min[cell] <= d.min() + 1e-12
            assert cls.dist_min[cell] >= d.min() - resolution
            assert cls.dist_max[cell] >= d.max() - 1e-12
            assert cls.dist_max[cell] <= d.max() + resolution

import math

import numpy as np
import pytest

from conftest import frames_of, lattice
from immersedfem import FeSpace, SphericalInterface, build_uniform_mesh
from immersedfem.mesh import _frames, _lattice_index, _ravel_index
from layer import classify_cells

FAR_CIRCLE = SphericalInterface((10.0, 10.0), 0.2)
CIRCLE = SphericalInterface((0.3, 0.3), 0.2)
SPHERE = SphericalInterface((0.3, 0.3, 0.3), 0.2)


def test_smallest_grid():
    mesh = build_uniform_mesh(2, 1)
    assert mesh.n_cells == 1
    assert mesh.cell_lows([0]).tolist() == [[0.0, 0.0]]
    assert (mesh.cell_lows(0) + mesh.edge).tolist() == [1.0, 1.0]
    # numpy integers count too, stored as Python ints
    mesh = build_uniform_mesh(np.int64(2), 1)
    assert mesh.n_cells == 1 and type(mesh.dim) is int


def test_counts_3d():
    mesh = build_uniform_mesh(3, 2)
    assert mesh.n_cells == 8
    mesh = build_uniform_mesh(3, np.int64(2))  # numpy integers count too
    assert mesh.n_cells == 8 and type(mesh.cells_per_axis) is int


def test_cell_diameter():
    mesh = build_uniform_mesh(2, 4)
    assert mesh.h_cell == pytest.approx(math.sqrt(2.0) / 4.0, abs=1e-15)


def test_vertex_coordinates_exact():
    # cell corners sit exactly at i/n, first axis fastest
    mesh = build_uniform_mesh(2, 3)
    for i in range(3):
        for j in range(3):
            cell = i + 3 * j
            assert mesh.cell_lows(cell)[0] == i / 3
            assert mesh.cell_lows(cell)[1] == j / 3


def test_cells_partition_unit_square():
    mesh = build_uniform_mesh(2, 5)
    lows = mesh.cell_lows(np.arange(mesh.n_cells))
    assert np.isclose(mesh.n_cells * mesh.edge**2, 1.0)
    assert set(map(tuple, np.round(lows * 5).astype(int))) == {
        (i, j) for i in range(5) for j in range(5)
    }


@pytest.mark.parametrize("ids", [[-1], [16], [0.0], [True]])
def test_cell_lows_reject_ids_outside_the_mesh(ids):
    # -1 would wrap to another cell silently, as a table's index does
    with pytest.raises(ValueError, match="ids"):
        build_uniform_mesh(2, 4).cell_lows(ids)


def test_cells_meeting():
    mesh = build_uniform_mesh(2, 8)
    # the box [0.3, 0.45]^2 meets index columns 2 and 3; one more per side
    ids = mesh.cells_meeting(np.array([0.3, 0.3]), np.array([0.45, 0.45]))
    want = [i + 8 * j for j in range(1, 5) for i in range(1, 5)]
    assert ids.tolist() == want
    # clipped to the grid: a box around the unit box gives every cell, and
    # one beyond a side the cells along it
    assert np.array_equal(mesh.cells_meeting(np.array([-1.0, -1.0]), np.array([2.0, 2.0])),
                          np.arange(mesh.n_cells))
    assert mesh.cells_meeting(np.array([2.0, 0.0]), np.array([3.0, 1.0])).tolist() == [
        7 + 8 * j for j in range(8)]
    # and so do infinite bounds
    assert np.array_equal(mesh.cells_meeting([-np.inf, -np.inf], [np.inf, np.inf]),
                          np.arange(mesh.n_cells))
    assert mesh.cells_meeting([np.inf, 0.0], [np.inf, 1.0]).tolist() == [
        7 + 8 * j for j in range(8)]
    mesh = build_uniform_mesh(3, 4)
    ids = mesh.cells_meeting(np.full(3, 0.5), np.full(3, 0.5))
    assert np.all(np.diff(ids) > 0) and ids.size == 27


@pytest.mark.parametrize("low, high", [
    ([np.nan, 0.2], [0.4, 0.4]), ([0.2, 0.2], [0.4, np.nan]),
    ([0.2, 0.2, 0.2], [0.4, 0.4, 0.4]), ([0.2], [0.4]), ([0.2, 0.2], [0.4, 0.4, 0.4]),
    (0.2, 0.4), ([[0.2, 0.2]], [[0.4, 0.4]]), ([0.5, 0.5], [0.25, 0.25])],
    ids=["nan-low", "nan-high", "3d-box", "1d-box", "ragged", "scalars", "two-dimensional",
         "inverted"])
def test_cells_meeting_rejects_bad_box(low, high):
    # NaN once gave an empty id array after an invalid cast, a 3D box on a
    # 2D mesh silently used its first two coordinates, and an inverted box,
    # which is empty, gave cell 27
    with pytest.raises(ValueError, match="low and high"):
        build_uniform_mesh(2, 8).cells_meeting(low, high)


class TestIndexArithmetic:
    """numpy's index calls against lattices and filters built one cell at a
    time."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_lattice_index_is_the_lattice(self, dim):
        for n in (1, 2, 3, 5):
            idx = _lattice_index(np.arange(n ** dim), n, dim)
            assert idx.dtype == int and np.array_equal(idx, lattice(n, dim))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_ravel_index_inverts_it(self, dim):
        n = 8
        rng = np.random.default_rng(dim)
        for ids in (7, np.array([5]), rng.integers(0, n ** dim, size=(3, 5)),
                    [], np.zeros(0, dtype=int), np.zeros((2, 0), dtype=int)):
            idx = _lattice_index(ids, n, dim)
            assert idx.shape == np.shape(ids) + (dim,)
            back = _ravel_index(idx, n)
            assert np.shape(back) == np.shape(ids) and np.array_equal(back, ids)

    @pytest.mark.parametrize("ids", [[True], [1.0], np.array([0.5]), [-1], [27], 27,
                                     [[0, 1], [2, 30]]])
    def test_lattice_index_rejects_ids(self, ids):
        with pytest.raises(ValueError, match=r"^ids must be integers in \[0, 27\)$"):
            _lattice_index(ids, 3, 3)

    def test_frames(self):
        for dim in (1, 2, 3):
            assert np.array_equal(_frames(dim), frames_of(range(dim), dim))

    @pytest.mark.parametrize("dim, n", [(2, 1), (2, 7), (2, 16), (3, 1), (3, 5), (3, 8)])
    def test_cells_meeting_is_a_filter_over_every_cell(self, dim, n):
        # every cell's lattice index against the clipped index range of the
        # box widened by one cell, for boxes inside, across and outside the
        # unit box, flat ones and ones with infinite bounds
        mesh = build_uniform_mesh(dim, n)
        idx = lattice(n, dim)
        rng = np.random.default_rng(10 * dim + n)
        for _ in range(60):
            low = rng.uniform(-0.6, 1.6, dim)
            high = low + rng.choice([0.0, 0.01, 0.3, 1.0, 3.0], dim)
            low[rng.uniform(size=dim) < 0.15] = -np.inf
            high[rng.uniform(size=dim) < 0.15] = np.inf
            edge = rng.uniform(size=dim) < 0.05
            low[edge] = high[edge] = rng.choice([-np.inf, np.inf])
            first = np.clip(np.floor(low * n) - 1, 0, n - 1)
            last = np.clip(np.floor(high * n) + 1, 0, n - 1)
            want = np.flatnonzero(np.all((idx >= first) & (idx <= last), axis=1))
            got = mesh.cells_meeting(low, high)
            assert got.dtype == int and np.array_equal(got, want)
            assert np.all(np.diff(got) > 0)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_uniform_mesh(4, 2)
    with pytest.raises(ValueError):
        build_uniform_mesh(2, 0)


@pytest.mark.parametrize("dim", [2.0, np.float64(3.0), True])
def test_rejects_non_integer_dim(dim):
    # 2.0 == 2 would pass a membership test and fail late in the lattice
    with pytest.raises(ValueError, match="integer"):
        build_uniform_mesh(dim, 8)


@pytest.mark.parametrize("n", [7.5, 8.0, True])
def test_rejects_non_integer_cells_per_axis(n):
    with pytest.raises(ValueError, match="integer"):
        build_uniform_mesh(2, n)


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


def _cut(mesh, interface):
    lows = mesh.cell_lows(np.arange(mesh.n_cells))
    return interface.cuts_box(lows, lows + mesh.edge)


def _distance_range(mesh, interface):
    lows = mesh.cell_lows(np.arange(mesh.n_cells))
    return interface.distance_range_over_box(lows, lows + mesh.edge)


class TestClassification:
    def test_far_interface_gives_empty_layer(self):
        mesh = build_uniform_mesh(2, 4)
        assert not classify_cells(mesh, FAR_CIRCLE, 2.0).any()

    def test_huge_sigma_swallows_all_cells(self):
        mesh = build_uniform_mesh(2, 4)
        sigma = 10.0 * math.sqrt(2.0) * 4
        assert classify_cells(mesh, CIRCLE, sigma).all()

    def test_corner_cell_distance_and_membership(self):
        # cell [0, 0.25]^2: farthest point from the circle is the origin
        mesh = build_uniform_mesh(2, 4)
        _, d_max = _distance_range(mesh, CIRCLE)
        expected_dmax = abs(math.hypot(0.3, 0.3) - 0.2)
        assert d_max[0] == pytest.approx(expected_dmax, abs=1e-14)
        assert expected_dmax <= 2.0 * mesh.h_cell
        assert classify_cells(mesh, CIRCLE, 2.0)[0]

    def test_partition(self):
        # one flag per cell: in the layer or out of it
        mesh = build_uniform_mesh(2, 8)
        mask = classify_cells(mesh, CIRCLE, math.sqrt(2.0))
        assert mask.shape == (mesh.n_cells,)
        assert mask.dtype == bool

    def test_cut_cells_have_zero_distance_and_lie_inside(self):
        for dim, interface in ((2, CIRCLE), (3, SPHERE)):
            mesh = build_uniform_mesh(dim, 8)
            d_min, _ = _distance_range(mesh, interface)
            cut = _cut(mesh, interface)
            assert np.all(d_min[cut] == 0.0)
            assert np.all(classify_cells(mesh, interface, math.sqrt(dim))[cut])

    def test_distance_band_inequalities(self):
        # computable forms of the layer geometry bounds
        mesh = build_uniform_mesh(2, 8)
        d_min, d_max = _distance_range(mesh, CIRCLE)
        h = mesh.h_cell
        assert np.all(d_min <= d_max + 1e-12)
        assert np.all(d_max <= d_min + h + 1e-12)
        cut = _cut(mesh, CIRCLE)
        assert np.all(d_max[cut] + h >= h / math.sqrt(2.0))
        out = ~classify_cells(mesh, CIRCLE, math.sqrt(2.0))
        assert np.all(d_max[out] <= d_min[out] + h + 1e-12)
        assert np.all(d_min[out] + h <= 2.0 * np.maximum(d_min[out], h) + 1e-12)

    @pytest.mark.parametrize("dim, interface", [(3, CIRCLE), (2, SPHERE)],
                             ids=["circle-on-3d", "sphere-on-2d"])
    def test_rejects_interface_of_other_dimension(self, dim, interface):
        # a circle on a 3D mesh would give a layer of 64 of 64 cells
        with pytest.raises(ValueError, match="dimensions differ"):
            classify_cells(build_uniform_mesh(dim, 4), interface, 2.0)

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
        d_min, d_max = _distance_range(mesh, CIRCLE)
        ticks = np.linspace(0.0, 1.0, 101)
        gx, gy = np.meshgrid(ticks, ticks)
        unit_grid = np.column_stack([gx.ravel(), gy.ravel()])
        resolution = math.sqrt(2.0) * mesh.edge / 100.0
        for cell in rng.choice(mesh.n_cells, size=20, replace=False):
            samples = mesh.cell_lows(cell) + mesh.edge * unit_grid
            d = CIRCLE.distance(samples)
            assert d_min[cell] <= d.min() + 1e-12
            assert d_min[cell] >= d.min() - resolution
            assert d_max[cell] >= d.max() - 1e-12
            assert d_max[cell] <= d.max() + resolution

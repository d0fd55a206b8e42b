"""Uniform axis-aligned grids on the unit square/cube, and the split of the
cells into an interface layer and its complement."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: slack for deciding that a point lies in a closed box (the unit box or a cell)
BOX_TOL = 1e-12


class Mesh:
    """Structured grid of congruent box cells covering [0, 1]^dim.

    Vertices sit at i/n per axis; cell k has lexicographic index (first axis
    fastest) and lower corner ``cell_lows[k]``.  ``h_cell`` is the common cell
    diameter sqrt(dim)/n.
    """

    def __init__(self, dim: int, cells_per_axis: int):
        if dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {dim}")
        if cells_per_axis < 1:
            raise ValueError(f"cells_per_axis must be >= 1, got {cells_per_axis}")
        self.dim = dim
        self.cells_per_axis = cells_per_axis
        self.edge = 1.0 / cells_per_axis
        self.h_cell = math.sqrt(dim) / cells_per_axis
        self.n_vertices = (cells_per_axis + 1) ** dim
        self.n_cells = cells_per_axis ** dim
        self.cell_lows = _lattice(cells_per_axis, dim) / cells_per_axis

    def cell_highs(self) -> np.ndarray:
        return self.cell_lows + self.edge

    def locate(self, points) -> np.ndarray:
        """Cell ids containing ``points``; raises if a point leaves the box or
        is not finite."""
        points = np.asarray(points, dtype=float)
        if not np.all((points >= -BOX_TOL) & (points <= 1.0 + BOX_TOL)):
            raise ValueError("point outside the unit box cannot be located")
        n = self.cells_per_axis
        idx = np.minimum(np.floor(np.clip(points, 0.0, 1.0) * n).astype(int), n - 1)
        return _ravel_index(idx, n)


def build_uniform_mesh(dim: int, cells_per_axis: int) -> Mesh:
    """Uniform grid with (n+1)^dim vertices and n^dim congruent cells."""
    return Mesh(dim, cells_per_axis)


@dataclass(frozen=True)
class CellClassification:
    """Partition of the cells by their distance band around the interface.

    A cell joins ``in_cells`` iff the maximum of dist(x, surface) over the
    cell is at most sigma * h_cell; every other cell is in ``out_cells``.
    ``dist_min``/``dist_max`` hold the exact per-cell distance range.
    """

    in_cells: np.ndarray   # sorted cell ids inside the layer
    out_cells: np.ndarray  # sorted cell ids outside the layer
    dist_min: np.ndarray   # (n_cells,)
    dist_max: np.ndarray   # (n_cells,)
    sigma: float

    @property
    def in_mask(self) -> np.ndarray:
        mask = np.zeros(self.dist_min.shape[0], dtype=bool)
        mask[self.in_cells] = True
        return mask


def classify_cells(mesh: Mesh, interface, sigma: float) -> CellClassification:
    """Split cells into the sigma*h band around the interface and the rest.

    The per-cell distance extrema are closed-form (box extremisation of
    |x - c| folded by the radius), so the split is exact.
    """
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    d_min, d_max = interface.distance_range_over_box(mesh.cell_lows, mesh.cell_highs())
    inside = d_max <= sigma * mesh.h_cell
    ids = np.arange(mesh.n_cells)
    return CellClassification(
        in_cells=ids[inside],
        out_cells=ids[~inside],
        dist_min=d_min,
        dist_max=d_max,
        sigma=float(sigma),
    )


def _lattice(n_per_axis: int, dim: int) -> np.ndarray:
    axes = [np.arange(n_per_axis, dtype=float)] * dim
    grids = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([g.ravel(order="F") for g in grids])


def _ravel_index(idx: np.ndarray, n_per_axis: int) -> np.ndarray:
    """Lexicographic id with the first axis varying fastest."""
    out = idx[..., -1].copy()
    for axis in range(idx.shape[-1] - 2, -1, -1):
        out = out * n_per_axis + idx[..., axis]
    return out

"""Uniform axis-aligned grids on the unit square/cube that compute cell
corners from cell ids and locate points."""

from __future__ import annotations

import math

import numpy as np

#: slack for deciding that a point lies in a closed box (the unit box or a cell)
BOX_TOL = 1e-12


class Mesh:
    """Structured grid of congruent box cells covering [0, 1]^dim.

    Vertices sit at i/n per axis; cell k has lexicographic index (first axis
    fastest), and its lower corner is computed from k by ``cell_lows``, so the
    grid stores no per-cell table.  ``h_cell`` is the common cell diameter
    sqrt(dim)/n.
    """

    def __init__(self, dim: int, cells_per_axis: int):
        self.dim = dim = _integer("dim", dim, 2, 3)
        self.cells_per_axis = cells_per_axis = _integer("cells_per_axis", cells_per_axis, 1)
        self.edge = 1.0 / cells_per_axis
        self.h_cell = math.sqrt(dim) / cells_per_axis
        self.n_cells = cells_per_axis ** dim

    def cell_lows(self, cells) -> np.ndarray:
        """Lower corners, shape ``np.shape(cells) + (dim,)``, of the cells with
        ids ``cells``; ids outside [0, n_cells) raise ValueError."""
        return _lattice_index(cells, self.cells_per_axis, self.dim) / self.cells_per_axis

    def cells_meeting(self, low, high) -> np.ndarray:
        """Ascending ids of the cells whose index box, grown by one cell per
        side, meets the box [low, high] (each of shape (dim,)): every cell
        that meets the box, with one cell to spare against rounding at grid
        lines.  A box outside the unit box, infinite bounds included, still
        gives cells at its side; NaN bounds, another shape or an inverted box
        (``_check_box``) raise ValueError."""
        n = self.cells_per_axis
        box = [np.asarray(bound, dtype=float) for bound in (low, high)]
        if any(bound.shape != (self.dim,) or np.isnan(bound).any() for bound in box):
            raise ValueError(f"low and high must be {self.dim} numbers, got {low!r} and {high!r}")
        _check_box(*box)
        first = np.clip(np.floor(box[0] * n) - 1, 0, n - 1).astype(int)
        last = np.clip(np.floor(box[1] * n) + 1, 0, n - 1).astype(int)
        ranges = np.ix_(*(np.arange(a, b + 1) for a, b in zip(first, last)))
        # Fortran order: the first axis varies fastest, so the ids ascend
        return np.ravel_multi_index(ranges, (n,) * self.dim, order="F").ravel(order="F")

    def locate(self, points) -> np.ndarray:
        """Cell ids containing ``points`` (shape (..., dim)); raises
        ValueError if a point has another number of coordinates, leaves the
        box or is not finite."""
        points = np.asarray(points, dtype=float)
        if points.shape[-1:] != (self.dim,):
            raise ValueError(f"points must have {self.dim} coordinates, got shape {points.shape}")
        if not np.all((points >= -BOX_TOL) & (points <= 1.0 + BOX_TOL)):
            raise ValueError("point outside the unit box cannot be located")
        n = self.cells_per_axis
        idx = np.minimum(np.floor(np.clip(points, 0.0, 1.0) * n).astype(int), n - 1)
        return _ravel_index(idx, n)


def build_uniform_mesh(dim: int, cells_per_axis: int) -> Mesh:
    """Uniform grid with (n+1)^dim vertices and n^dim congruent cells."""
    return Mesh(dim, cells_per_axis)


def _integer(name: str, value, low: int, high: float = math.inf) -> int:
    """``value`` as a Python int; ValueError naming ``name`` for a bool, a
    number that is not an integer (2.0 included) and a value outside [low,
    high]."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or not low <= value <= high):
        bound = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")
    return int(value)


def _check_box(low: np.ndarray, high: np.ndarray) -> None:
    """ValueError where some ``low`` exceeds its ``high``: such a box is
    empty, and clipping to it gives the high bound.  Equal bounds (faces,
    points) make a box; NaN bounds are left to the caller."""
    if np.any(low > high):
        raise ValueError(f"low and high must bound a box (low <= high), got {low!r} and {high!r}")


def _check_dim(mesh: Mesh, interface) -> None:
    if interface.dim != mesh.dim:
        raise ValueError("interface and mesh dimensions differ")


def _lattice_index(ids, n_per_axis: int, dim: int) -> np.ndarray:
    """Lattice indices, shape ``np.shape(ids) + (dim,)``, of the lexicographic
    ids ``ids`` of the lattice {0, ..., n_per_axis - 1}^dim (the inverse of
    ``_ravel_index``); ids that are not integers in range raise ValueError."""
    ids = np.asarray(ids)
    if ids.size and (not np.issubdtype(ids.dtype, np.integer) or ids.min() < 0
                     or ids.max() >= n_per_axis ** dim):
        raise ValueError(f"ids must be integers in [0, {n_per_axis ** dim})")
    index = np.unravel_index(ids.astype(int, copy=False), (n_per_axis,) * dim, order="F")
    return np.stack(index, axis=-1)


def _ravel_index(idx: np.ndarray, n_per_axis: int) -> np.ndarray:
    """Lexicographic id with the first axis varying fastest."""
    return np.ravel_multi_index(np.moveaxis(idx, -1, 0), (n_per_axis,) * idx.shape[-1],
                                order="F")


def _frames(dim: int) -> np.ndarray:
    """The frame of a line along each axis k, row k: the physical axis of
    each frame axis, the other axes ascending, then k."""
    return np.array([[j for j in range(dim) if j != k] + [k] for k in range(dim)])

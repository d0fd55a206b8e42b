"""Gauss-Legendre rules on reference cells and recursively split rules for
cells crossed by the interface, where integrands are only piecewise smooth."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def gauss_points_1d(n: int):
    """Gauss-Legendre nodes/weights on [0, 1]; weights sum to one."""
    if n < 1:
        raise ValueError(f"need at least one point, got {n}")
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return 0.5 * (nodes + 1.0), 0.5 * weights


@dataclass(frozen=True)
class CellQuadrature:
    """Tensor rule on the reference cell [0, 1]^dim.

    Exact for tensor-product polynomials of degree 2*points_per_axis - 1 per
    axis; weights sum to one (the reference cell volume).
    """

    dim: int
    points_per_axis: int
    points: np.ndarray   # (n_q, dim)
    weights: np.ndarray  # (n_q,)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    def on_boxes(self, lows, sizes):
        """The rule scaled to cubes ``low + size * [0, 1]^dim``: points
        (n_box * n_q, dim), box by box, and weights (n_box * n_q,)."""
        pts = lows[:, None, :] + sizes[:, None, None] * self.points[None, :, :]
        w = self.weights[None, :] * sizes[:, None] ** self.dim
        return pts.reshape(-1, self.dim), w.reshape(-1)


def gauss_rule(dim: int, points_per_axis: int) -> CellQuadrature:
    """Tensor Gauss-Legendre rule on [0, 1]^dim."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    x, w = gauss_points_1d(points_per_axis)
    grids = np.meshgrid(*([x] * dim), indexing="ij")
    # first axis varies fastest, matching the local dof ordering
    points = np.column_stack([g.ravel(order="F") for g in grids])
    weights = np.ones(points.shape[0])
    for axis in range(dim):
        wg = np.meshgrid(*([w] * dim), indexing="ij")[axis]
        weights = weights * wg.ravel(order="F")
    return CellQuadrature(dim=dim, points_per_axis=points_per_axis,
                          points=points, weights=weights)


@dataclass(frozen=True)
class SplitCellQuadrature:
    """Recursively bisected rule for cells crossed by the interface.

    Leaves produced before the depth limit lie entirely on one side of the
    surface; leaves forced at ``max_depth`` may still be cut and carry the
    side of their centre (``cut`` marks them).  ``parent`` names the split
    cell of each leaf, by its row in the lows given to ``split_cut_cell``.
    Each leaf is integrated with the base rule scaled to the sub-box, so the
    leaf volumes of a cell add up to its volume exactly.
    """

    lows: np.ndarray    # (n_leaf, dim)
    sizes: np.ndarray   # (n_leaf,) edge length of each sub-box
    sides: np.ndarray   # (n_leaf,) -1 interior, +1 exterior
    cut: np.ndarray     # (n_leaf,) True where the leaf was forced at max_depth
    parent: np.ndarray  # (n_leaf,) row of the split cell in the given lows
    rule: CellQuadrature
    max_depth: int

    @property
    def n_leaves(self) -> int:
        return self.lows.shape[0]

    def points_weights(self):
        """Expanded rule: (points (n, dim), weights (n,), side per point).

        Weights include the sub-box volumes, so summing them gives the total
        volume of the split cells; sides repeat each leaf's tag over its
        quadrature points.
        """
        pts, w = self.rule.on_boxes(self.lows, self.sizes)
        return pts, w, np.repeat(self.sides, self.rule.n_points)


def split_cut_cell(cell_low, cell_size: float, interface, base_rule: CellQuadrature,
                   max_depth: int) -> SplitCellQuadrature:
    """Bisect cells recursively until sub-boxes clear the interface.

    ``cell_low`` is the low corner of one cell, shape (dim,), or of m cells
    of edge ``cell_size``, shape (m, dim); all of them are bisected together,
    depth by depth.  A sub-box becomes a leaf once its closed box no longer
    meets the surface (its exact distance range excludes the radius) or the
    depth limit is reached.  Leaves are listed cell by cell in the order of
    ``cell_low``; within a cell by depth, and children in lexicographic
    corner order, so the leaves of each cell are those of a split of that
    cell alone and the sequence is deterministic.
    """
    if max_depth < 0:
        raise ValueError(f"max_depth must be >= 0, got {max_depth}")
    lows = np.atleast_2d(np.asarray(cell_low, dtype=float))
    dim = lows.shape[1]
    offsets = _corner_offsets(dim)

    parent = np.arange(lows.shape[0])
    size = float(cell_size)
    leaf_lows, leaf_sizes, leaf_sides, leaf_cut, leaf_parent = [], [], [], [], []
    for depth in range(max_depth + 1):
        high = lows + size
        is_cut = interface.cuts_box(lows, high)
        done = ~is_cut if depth < max_depth else np.ones(len(lows), dtype=bool)
        if np.any(done):
            centers = lows[done] + 0.5 * size
            leaf_lows.append(lows[done])
            leaf_sizes.append(np.full(int(done.sum()), size))
            leaf_sides.append(interface.side(centers))
            leaf_cut.append(is_cut[done])
            leaf_parent.append(parent[done])
        lows, parent = lows[~done], parent[~done]
        if lows.shape[0] == 0:
            break
        size *= 0.5
        lows = (lows[:, None, :] + size * offsets[None, :, :]).reshape(-1, dim)
        parent = np.repeat(parent, offsets.shape[0])

    parent = np.concatenate(leaf_parent)
    order = np.argsort(parent, kind="stable")
    return SplitCellQuadrature(
        lows=np.concatenate(leaf_lows)[order],
        sizes=np.concatenate(leaf_sizes)[order],
        sides=np.concatenate(leaf_sides)[order],
        cut=np.concatenate(leaf_cut)[order],
        parent=parent[order],
        rule=base_rule,
        max_depth=max_depth,
    )


def _corner_offsets(dim: int) -> np.ndarray:
    grids = np.meshgrid(*([np.array([0.0, 1.0])] * dim), indexing="ij")
    return np.column_stack([g.ravel(order="F") for g in grids])

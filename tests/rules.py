"""The height-function volume rule built on all cells at once (test oracle).

The package makes this rule one run of lines at a time
(``quadrature._near_runs``); these helpers make every line, piece and point
in one call from the same stages, so the runs can be checked against them.
``loop_pieces`` is the loop form of the piece stage.  ``surface_quadrature``
is the surface rule the load builds, on every cell of a mesh the surface
cuts, so its own properties can be read.
"""

import numpy as np

from immersedfem import assembly, quadrature


def surface_quadrature(interface, mesh):
    """``quadrature.surface_rule`` with ``assembly.SURFACE_ORDER`` points per
    piece on the cells of ``mesh`` that ``interface`` cuts: the points, their
    weights and their owner cells (ascending)."""
    lows = mesh.cell_lows(np.arange(mesh.n_cells))
    cut = np.flatnonzero(interface.cuts_box(lows, lows + mesh.edge))
    parent, points, weights = quadrature.surface_rule(lows[cut], mesh.edge, interface,
                                                      assembly.SURFACE_ORDER)
    return points, weights, cut[parent]


def split_cut_cell(cell_low, cell_size: float, interface, points: int):
    """Volume rule with ``points`` Gauss points per piece on cells of edge
    ``cell_size`` near ``interface``.

    ``cell_low`` is the low corner of one cell, shape (dim,), or of m >= 0
    cells, shape (m, dim).  Returns ``(parent, pts, weights, sides)``: the
    row of ``cell_low`` of each point (ascending), the points, their weights
    and their side of the surface (-1 inside, +1 outside).  No piece crosses
    the surface, and from two points on the weights of a cell add up to its
    volume.
    """
    boxes = quadrature._height_boxes(cell_low, cell_size, interface)
    parent, axis, x, line, t, w, sides = line_rule(boxes, interface, points)
    return parent[line], quadrature._unpermute(x, axis, line, t), w, sides


def line_rule(boxes, interface, points):
    """``split_cut_cell`` per line on the height boxes ``boxes`` of
    ``quadrature._height_boxes``: per line the cell row of its box, its
    height axis and the face coordinates in the order of its frame
    (``mesh._frames``); and per point, by line: line, height t, weight,
    side."""
    parent, axis, x, w, a, b, ck, root = quadrature._face_rules(boxes, interface, points,
                                                                weighted=True)
    roots = np.stack([ck - root, ck + root])
    graded = np.ones(2, dtype=bool)
    line, t, wt = quadrature._gauss_pieces(a, b, roots.T, graded, points,
                                           quadrature.HEIGHT_GRADING)
    # every point takes the side of its piece's midpoint
    piece_line, start, end, _ = quadrature._pieces(a, b, roots.T, graded)
    mid = 0.5 * (start + end)
    inside = np.repeat((roots[0][piece_line] < mid) & (mid < roots[1][piece_line]), points)
    return parent, axis, x, line, t, w[line] * wt, np.where(inside, -1, 1)


def loop_pieces(lo, hi, roots, graded):
    """``quadrature._pieces`` one piece column at a time, with each anchor
    found by a loop over the graded roots and the cuts sorted by ``np.sort``
    (test oracle)."""
    m = lo.shape[0]
    inner = np.where((roots > lo[:, None]) & (roots < hi[:, None]), roots, hi[:, None])
    # one row per cut and one per graded root, each over the lines
    cuts = np.ascontiguousarray(np.sort(np.concatenate([lo[:, None], inner, hi[:, None]],
                                                       axis=1), axis=1).T)
    bent_roots = np.ascontiguousarray(roots[:, graded].T)
    # row 2j + h: half h of piece j; the first half ends at the midpoint only
    # when both ends are graded, and the second half exists only then; each
    # half is kept if it has positive length
    starts, ends, anchors = (np.empty((2 * cuts.shape[0] - 2, m)) for _ in range(3))
    keep = np.empty(starts.shape, dtype=bool)
    for j, (a, b) in enumerate(zip(cuts[:-1], cuts[1:])):
        length = b - a
        left, right = np.full(m, -np.inf), np.full(m, np.inf)
        for r in bent_roots:
            left = np.maximum(left, np.where((r <= a) & (r >= a - length), r, -np.inf))
            right = np.minimum(right, np.where((r >= b) & (r <= b + length), r, np.inf))
        has_left, has_right = np.isfinite(left), np.isfinite(right)
        both = has_left & has_right
        mid = np.where(both, 0.5 * (a + b), b)
        starts[2 * j], starts[2 * j + 1] = a, mid
        ends[2 * j], ends[2 * j + 1] = mid, b
        anchors[2 * j], anchors[2 * j + 1] = np.where(has_left, left, right), right
        np.greater(mid, a, out=keep[2 * j])
        np.logical_and(both, b > mid, out=keep[2 * j + 1])
    # the kept halves line by line, then piece by piece
    line, row = np.divmod(np.flatnonzero(keep.T), keep.shape[0])
    at = row * m + line
    return (line,) + tuple(x.reshape(-1)[at] for x in (starts, ends, anchors))

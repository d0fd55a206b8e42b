"""The height-function volume rule built on all cells at once (test oracle).

The package makes this rule one run of lines at a time
(``quadrature._near_runs``); these helpers make every line, piece and point
in one call from the same stages, so the runs can be checked against them.
"""

import numpy as np

from immersedfem import quadrature


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
    parent, frame, x, line, t, w, sides = line_rule(boxes, interface, points)
    return parent[line], quadrature._unpermute(x, frame, line, t), w, sides


def line_rule(boxes, interface, points):
    """``split_cut_cell`` per line on the height boxes ``boxes`` of
    ``quadrature._height_boxes``: per line the cell row of its box, the
    frame (the physical axis of each frame axis, height last) and the face
    coordinates in frame order; and per point, by line: line, height t,
    weight, side."""
    parent, frame, x, w, a, b, ck, root = quadrature._face_rules(boxes, interface, points,
                                                                 weighted=True)
    roots = np.stack([ck - root, ck + root])
    line, t, wt, mid = quadrature._gauss_pieces(a, b, roots.T, np.ones(2, dtype=bool), points,
                                                quadrature.HEIGHT_GRADING)
    inside = (roots[0][line] < mid) & (mid < roots[1][line])
    return parent, frame, x, line, t, w[line] * wt, np.where(inside, -1, 1)

"""Gauss-Legendre rules on reference cells, and one height-function rule for
cells near a circle or sphere.

The height-function rule is Saye's dimension reduction (R. I. Saye, SIAM J.
Sci. Comput. 37(2), A993-A1019, 2015) for concentric spheres.  Each box takes
a height axis k on which the sphere normal stays bounded away from zero; cut
boxes with no such axis are bisected.  Along a line in direction k the sphere
has at most two roots, in closed form, and the integral over the line is
smooth in the other coordinates except where a root crosses a face x_k =
const or two roots merge: on circles concentric with the sphere, so the face
integral recurses on the same kind of roots, down to one dimension.  Every
level splits its lines at the roots and grades the Gauss points of a piece
toward the roots that end it or lie within one piece length beyond it, which
resolves the weights d^(2 alpha) and the square roots where roots merge.  The
surface rule takes the sphere's roots on the lines of the same face rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: a cut box's height axis k must keep |n_k| >= HEIGHT_MIN for the sphere
#: normal n over the whole box, or the box is bisected; below 1/sqrt(3), so
#: small enough boxes always have one
HEIGHT_MIN = 0.4
#: powers m of the grading t = t* + (end - t*) s^m of a piece toward a root
#: t*: along the height axis, toward the sphere, d^(2 alpha) turns into
#: s^(2 alpha m + m - 1); on the face levels m = 2 turns the square root at an
#: outline into a polynomial and leaves (t* - low)^(1 + 2 alpha) smooth enough
HEIGHT_GRADING = 3
FACE_GRADING = 2


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

    def on_boxes(self, lows, size: float):
        """The rule scaled to cubes ``low + size * [0, 1]^dim``: points
        (n_box * n_q, dim), box by box, and weights (n_box * n_q,)."""
        # one coordinate per row: the (n, dim) points are a transposed view
        pts = np.empty((self.dim, lows.shape[0], self.n_points))
        for k in range(self.dim):
            np.add(lows[:, k, None], size * self.points[:, k], out=pts[k])
        w = np.tile(self.weights * size ** self.dim, lows.shape[0])
        return pts.reshape(self.dim, -1).T, w


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


def split_cut_cell(cell_low, cell_size: float, interface, points: int):
    """Volume rule with ``points`` Gauss points per piece on cells of edge
    ``cell_size`` near ``interface``.

    ``cell_low`` is the low corner of one cell, shape (dim,), or of m cells,
    shape (m, dim).  Returns ``(parent, pts, weights, sides)``: the row of
    ``cell_low`` of each point (ascending), the points, their weights and
    their side of the surface (-1 inside, +1 outside).  No piece crosses the
    surface, and from two points on the weights of a cell add up to its
    volume.
    """
    boxes = _height_boxes(cell_low, cell_size, interface)
    parent, frame, x, line, t, w, sides = _line_rule(boxes, interface, points)
    return parent[line], _unpermute(x, frame, line, t), w, sides


def _line_rule(boxes, interface, points):
    """``split_cut_cell`` per line on the height boxes ``boxes`` of
    ``_height_boxes``: per line the cell row of its box, the frame (the
    physical axis of each frame axis, height last) and the face coordinates
    in frame order; and per point, by line: line, height t, weight, side."""
    parent, frame, x, w, a, b, ck, root = _face_rules(boxes, interface, points, weighted=True)
    roots = np.column_stack([ck - root, ck + root])
    line, t, wt, mid = _gauss_pieces(a, b, roots, np.ones(2, dtype=bool), points,
                                     HEIGHT_GRADING)
    inside = (roots[line, 0] < mid) & (mid < roots[line, 1])
    return parent, frame, x, line, t, w[line] * wt, np.where(inside, -1, 1)


def surface_rule(cell_low, cell_size: float, interface, points: int):
    """Surface rule on the part of ``interface`` inside the given cells.

    Same arguments as ``split_cut_cell``; returns ``(parent, pts, weights)``.
    The points are the sphere's roots t* in [low, high) of the height axis on
    the lines of the face rule, weighted by the surface Jacobian R / |t* - c_k|.
    """
    boxes = _height_boxes(cell_low, cell_size, interface)
    parent, frame, x, w, a, b, ck, root = _face_rules(boxes, interface, points, weighted=False)
    roots = np.column_stack([ck - root, ck + root])
    line, which = np.nonzero((roots >= a[:, None]) & (roots < b[:, None])
                             & (root > 0.0)[:, None])
    pts = _unpermute(x, frame, line, roots[line, which])
    return parent[line], pts, w[line] * interface.radius / root[line]


def _root(disc):
    """sqrt(disc) where disc >= 0, NaN where the line misses the circle."""
    return np.sqrt(np.where(disc >= 0.0, disc, np.nan))


def _face_rules(boxes, interface, points, weighted):
    """The rule on the faces of the height boxes ``boxes`` of ``_height_boxes``.

    Every box is put in a frame whose last axis is its height axis.  Face
    level k is cut at the circles of level k + 1 on the faces x_k = low and
    high (sections) and at their outlines, where two roots merge.  Pieces
    are graded toward outlines, and toward the sphere's own sections when
    ``weighted``: there the integral of d^(2 alpha) goes like (t* - low)^(1 +
    2 alpha), while deeper sections only leave kinks.  Returns per face
    point: its box's cell row, the frame (the physical axis of each frame
    axis), the face coordinates x and weight, the height range [a, b], the
    centre's height coordinate c_k and the sphere's half chord |t* - c_k|.
    """
    if points < 1:
        raise ValueError(f"need at least one point per piece, got {points}")
    parent, lows, sizes, axis = boxes
    dim = lows.shape[1]
    others = np.array([[j for j in range(dim) if j != k] for k in range(dim)], dtype=int)
    frame = np.column_stack([others[axis], axis])
    lows = np.take_along_axis(lows, frame, axis=1)
    centers = interface.center[frame]
    # squared radii (boxes, circles) per level and which circles grade
    radii = [None] * (dim - 1) + [np.full((lows.shape[0], 1), interface.radius ** 2)]
    graded = [None] * (dim - 1) + [np.ones(1, dtype=bool)]
    for k in range(dim - 1, 0, -1):
        below = (lows[:, k] - centers[:, k])[:, None] ** 2
        above = (lows[:, k] + sizes - centers[:, k])[:, None] ** 2
        radii[k - 1] = np.concatenate([radii[k] - below, radii[k] - above, radii[k]], axis=1)
        sections = np.full(radii[k].shape[1], weighted and k == dim - 1)
        graded[k - 1] = np.concatenate([sections, sections, np.ones_like(sections)])
    box = np.arange(lows.shape[0])
    x = np.empty((lows.shape[0], 0))
    w = np.ones(lows.shape[0])
    for k in range(dim):
        a = lows[box, k]
        ck = centers[box, k][:, None]
        squares = sum(((x[:, j] - centers[box, j]) ** 2 for j in range(k)), np.zeros(box.size))
        root = _root(radii[k][box] - squares[:, None])
        if k == dim - 1:
            return parent[box], frame[box], x, w, a, a + sizes[box], ck[:, 0], root[:, 0]
        line, t, wt, _ = _gauss_pieces(a, a + sizes[box], np.hstack([ck - root, ck + root]),
                                       np.tile(graded[k], 2), points, FACE_GRADING)
        box, x, w = box[line], np.column_stack([x[line], t]), w[line] * wt


def _height_boxes(cell_low, cell_size, interface):
    """Boxes with a height axis covering the cells ``low + size [0, 1]^dim``.

    ``cell_low`` is as in ``split_cut_cell``, with at least one cell.  On a
    box, |n_k| >= min|x_k - c_k| / sqrt(min|x_k - c_k|^2 + max|x' - c'|^2)
    exactly, since the two extrema are taken over independent coordinates.
    The axis with the largest bound is taken; cut boxes whose bound stays
    below HEIGHT_MIN are bisected.  Returns ``(parent, lows, sizes, axis)``:
    the cell row, low corner, edge and height axis of every box, cell by cell.
    """
    lows = np.atleast_2d(np.asarray(cell_low, dtype=float))
    dim = lows.shape[1]
    c = interface.center
    offsets = np.stack(np.meshgrid(*([[0.0, 1.0]] * dim), indexing="ij"),
                       axis=-1).reshape(-1, dim)
    parent = np.arange(lows.shape[0])
    sizes = np.full(lows.shape[0], float(cell_size))
    done = []
    while lows.shape[0]:
        high = lows + sizes[:, None]
        near = np.abs(np.clip(c, lows, high) - c)
        far = np.maximum(np.abs(lows - c), np.abs(high - c)) ** 2
        bound = near / np.sqrt(near ** 2 + far.sum(axis=1, keepdims=True) - far)
        axis = np.argmax(bound, axis=1)
        ok = (bound.max(axis=1) >= HEIGHT_MIN) | ~interface.cuts_box(lows, high)
        done.append((parent[ok], lows[ok], sizes[ok], axis[ok]))
        half = 0.5 * sizes[~ok]
        lows = (lows[~ok][:, None, :] + half[:, None, None] * offsets).reshape(-1, dim)
        sizes = np.repeat(half, offsets.shape[0])
        parent = np.repeat(parent[~ok], offsets.shape[0])
    parent, lows, sizes, axis = (np.concatenate(f) for f in zip(*done))
    order = np.argsort(parent, kind="stable")
    return parent[order], lows[order], sizes[order], axis[order]


def _gauss_pieces(lo, hi, roots, graded, points, power):
    """Gauss points on the lines [lo, hi] split at their roots.

    ``roots`` (m, K) holds the candidate roots of each line, NaN where absent.
    A piece is graded toward the nearest root of the columns ``graded`` (K,)
    at or within one piece length beyond each of its ends; a piece graded at
    both ends is halved first, and grading uses ``power``.  Returns line,
    coordinate, weight and the midpoint of the point's piece.
    """
    m = lo.shape[0]
    inner = np.where((roots > lo[:, None]) & (roots < hi[:, None]), roots, hi[:, None])
    # one row per cut and one per graded root, each over the lines
    cuts = np.ascontiguousarray(np.sort(np.concatenate([lo[:, None], inner, hi[:, None]],
                                                       axis=1), axis=1).T)
    bent_roots = np.ascontiguousarray(roots[:, graded].T)
    # row 2j + h: half h of piece j; the first half ends at the midpoint only
    # when both ends are graded, and the second half exists only then
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
        np.greater(length, 0.0, out=keep[2 * j])
        np.logical_and(both, keep[2 * j], out=keep[2 * j + 1])
    # the kept halves line by line, then piece by piece
    line, row = np.divmod(np.flatnonzero(keep.T), keep.shape[0])
    at = row * m + line
    start, end, anchor = (x.reshape(-1)[at] for x in (starts, ends, anchors))

    xi, omega = gauss_points_1d(points)
    n = xi.size
    t, w = np.empty((start.size, n)), np.empty((start.size, n))
    finite = np.isfinite(anchor)
    plain, bent = np.flatnonzero(~finite), np.flatnonzero(finite)
    p0, p1 = start[plain], end[plain]
    t[plain] = p0[:, None] + (p1 - p0)[:, None] * xi
    w[plain] = (p1 - p0)[:, None] * omega
    g0, g1, ga = start[bent], end[bent], anchor[bent]
    from_start = ga <= g0
    near = np.where(from_start, g0, g1)
    far = np.where(from_start, g1, g0)
    span = far - ga
    s0 = ((near - ga) / span) ** (1.0 / power)
    scale = (1.0 - s0) * power * np.abs(span)
    # one Gauss point of every graded piece at a time
    tb, wb = np.empty((n, bent.size)), np.empty((n, bent.size))
    for q in range(n):
        s = s0 + (1.0 - s0) * xi[q]
        tb[q] = ga + span * s ** power
        wb[q] = scale * omega[q] * s ** (power - 1)
    t[bent], w[bent] = tb.T, wb.T
    return (np.repeat(line, n), t.ravel(), w.ravel(),
            np.repeat(0.5 * (start + end), n))


def _unpermute(x, frame, line, t):
    """Points at height ``t`` on the face lines ``line``, in physical axes; the
    face coordinates ``x`` go back through each frame once per line."""
    dim = frame.shape[1]
    # one coordinate per row: the (n, dim) points are a transposed view
    faces = np.empty((dim, x.shape[0]))
    np.put_along_axis(faces, frame[:, :-1].T, x.T, axis=0)
    pts = np.empty((dim, line.size))
    for k in range(dim):
        pts[k] = faces[k][line]
    pts.reshape(-1)[frame[:, -1][line] * line.size + np.arange(line.size)] = t
    return pts.T

"""Gauss-Legendre rules on reference cells, and one height-function rule for
cells near a circle or sphere.

The height-function rule is Saye's dimension reduction (R. I. Saye, SIAM J.
Sci. Comput. 37(2), A993-A1019, 2015) for concentric spheres.  Each box takes
a height axis k on which the sphere normal stays bounded away from zero, and
with it a frame (``mesh._frames``); cut boxes with no such axis are bisected.
Along a line in direction k the sphere has at most two roots, in closed form,
and the integral over the line is smooth in the other coordinates except where
a root crosses a face x_k = const or two roots merge: on circles concentric
with the sphere, so the face integral recurses on the same kind of roots, down
to one dimension.  Every level splits its lines at the roots and grades the
Gauss points of a piece toward the roots that end it or lie within one piece
length beyond it, which resolves the weights d^(2 alpha) and the square roots
where roots merge.  The surface rule takes the sphere's roots on the lines of
the same face rule.  Every level runs in two stages: the pieces of its lines
(``_pieces``, one broadcast over pieces, graded roots and lines), then the
Gauss points of the pieces (``_piece_points``), which also takes any slice of
them.  The volume rule (``_near_runs``) builds the lines and pieces for blocks
of height boxes and the points of the height level one run of whole lines at a
time, so that no per-point array exceeds ``BATCH_POINTS``; ``_batch`` sizes
its blocks of boxes and the blocks and slabs of the error pass and the solve
from that one bound.  Gauss-Legendre nodes are computed once per size.
"""

from __future__ import annotations

import functools

import numpy as np

from .mesh import _frames, _integer, _lattice_index

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
#: points per run of whole lines of the volume rule (or one line), per block
#: of the error pass and per slab of the solve, which bounds every per-point
#: array of both; their blocks and slabs take a ``_batch`` of it
BATCH_POINTS = 32768


def _batch(items: int, size: int) -> int:
    """How many of ``items`` entries of ``size`` points each one batch takes:
    as many as fit in ``BATCH_POINTS`` (read at call time), at least one and
    at most all."""
    return max(1, min(items, BATCH_POINTS // size))


def gauss_points_1d(n: int):
    """Gauss-Legendre nodes/weights on [0, 1]; weights sum to one.  Both
    arrays are read-only and computed once per ``n``."""
    return _gauss_legendre(_integer("number of points", n, 1))


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    rule = 0.5 * (nodes + 1.0), 0.5 * weights
    for x in rule:
        x.flags.writeable = False
    return rule


def gauss_rule(dim: int, points_per_axis: int):
    """Tensor Gauss-Legendre rule on the reference cell [0, 1]^dim: points
    (n_q, dim) and weights (n_q,), which sum to one.  Exact for
    tensor-product polynomials of degree 2 * points_per_axis - 1 per axis."""
    dim = _integer("dim", dim, 1)
    x, w = gauss_points_1d(points_per_axis)
    # first axis varies fastest, matching the local dof ordering
    index = _lattice_index(np.arange(x.size ** dim), x.size, dim)
    return x[index], np.prod(w[index], axis=1)


def _near_runs(lows, size: float, interface, points: int):
    """The volume rule with ``points`` Gauss points per piece on the cells
    ``low + size [0, 1]^dim`` of ``lows`` (m, dim), one run of whole lines at
    a time.

    The height boxes of the cells are found once.  The lines and pieces are
    built for a ``_batch`` of consecutive boxes at a time, each counted as a
    plain rule with ``points`` per axis, so a cell's boxes may fall into two
    blocks; the points only for each run of whole lines of at most
    ``BATCH_POINTS`` points (or one line).  No piece crosses the surface, and
    the weights of a cell add up to its volume from two points on.  Yields
    per run ``(rows, pts, weights, lines)``: the row of ``lows`` of each
    line's cell; per point, line by line, the point and its weight; and
    ``lines = (axis, face_ref, line, t_ref)``: per line its height axis and
    the reference coordinates of its face axes in the order of its frame
    (``mesh._frames``), per point its line in the run and its reference
    height.
    """
    boxes = _height_boxes(lows, size, interface)
    step = _batch(boxes[0].size, points ** lows.shape[1])
    for start in range(0, boxes[0].size, step):
        parent, axis, x, w, a, b, ck, root = _face_rules(
            tuple(f[start:start + step] for f in boxes), interface, points, weighted=True)
        pieces = _pieces(a, b, np.column_stack([ck - root, ck + root]), np.ones(2, dtype=bool))
        line_lows = np.take_along_axis(lows[parent], _frames(lows.shape[1])[axis], axis=1)
        face_ref = (x - line_lows[:, :-1]) / size
        height_lows = np.ascontiguousarray(line_lows[:, -1])
        # the first piece of every line, and one past the last; the points
        # of a line follow from its pieces
        first_piece = np.searchsorted(pieces[0], np.arange(parent.size + 1))
        bounds = points * first_piece
        first = 0
        while first < parent.size:
            last = max(first + 1, np.searchsorted(bounds, bounds[first] + BATCH_POINTS,
                                                  side="right") - 1)
            run, lines = slice(first_piece[first], first_piece[last]), slice(first, last)
            piece_line, start, end, anchor = (p[run] for p in pieces)
            line, t, wt = _piece_points(piece_line, start, end, anchor, points, HEIGHT_GRADING)
            on = line - first
            t_ref = (t - height_lows[line]) / size
            yield (parent[lines], _unpermute(x[lines], axis[lines], on, t), w[line] * wt,
                   (axis[lines], face_ref[lines], on, t_ref))
            first = last


def surface_rule(cell_low, cell_size: float, interface, points: int):
    """Surface rule on the part of ``interface`` inside the given cells.

    ``cell_low`` is the low corner of one cell, shape (dim,), or of m >= 0
    cells, shape (m, dim), each of edge ``cell_size``; returns ``(parent,
    pts, weights)``, the row of ``cell_low`` of each point (ascending), the
    points and their weights.  The points are the sphere's roots t* in [low,
    high) of the height axis on the lines of the face rule with ``points``
    Gauss points per piece, weighted by the surface Jacobian R / |t* - c_k|.
    """
    boxes = _height_boxes(cell_low, cell_size, interface)
    parent, axis, x, w, a, b, ck, root = _face_rules(boxes, interface, points, weighted=False)
    roots = np.column_stack([ck - root, ck + root])
    line, which = np.nonzero((roots >= a[:, None]) & (roots < b[:, None])
                             & (root > 0.0)[:, None])
    pts = _unpermute(x, axis, line, roots[line, which])
    return parent[line], pts, w[line] * interface.radius / root[line]


def _root(disc):
    """sqrt(disc) where disc >= 0, NaN where the line misses the circle."""
    return np.sqrt(np.where(disc >= 0.0, disc, np.nan))


def _face_rules(boxes, interface, points, weighted):
    """The rule on the faces of the height boxes ``boxes`` of ``_height_boxes``.

    Every box is put in the frame of its height axis (``mesh._frames``), the
    height axis last.  Face level k is cut at the circles of level k + 1 on
    the faces x_k = low and high (sections) and at their outlines, where two
    roots merge.  Pieces are graded toward outlines, and toward the sphere's
    own sections when ``weighted``: there the integral of d^(2 alpha) goes
    like (t* - low)^(1 + 2 alpha), while deeper sections only leave kinks.
    Returns per face point: its box's cell row and height axis, the face
    coordinates x (in frame order) and weight, the height range [a, b], the
    centre's height coordinate c_k and the sphere's half chord |t* - c_k|.
    """
    parent, lows, sizes, axis = boxes
    dim = lows.shape[1]
    frame = _frames(dim)[axis]
    lows = np.take_along_axis(lows, frame, axis=1)
    centers = interface.center[frame]
    # squared radii (boxes, circles) per level and which circles grade
    radii = [None] * (dim - 1) + [np.full((lows.shape[0], 1), interface.radius * interface.radius)]
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
            return parent[box], axis[box], x, w, a, a + sizes[box], ck[:, 0], root[:, 0]
        line, t, wt = _gauss_pieces(a, a + sizes[box], np.hstack([ck - root, ck + root]),
                                    np.tile(graded[k], 2), points, FACE_GRADING)
        box, x, w = box[line], np.column_stack([x[line], t]), w[line] * wt


def _height_boxes(cell_low, cell_size, interface):
    """Boxes with a height axis covering the cells ``low + size [0, 1]^dim``.

    ``cell_low`` is as in ``surface_rule``, possibly with no cell.  On a
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
    done = [(parent[:0], lows[:0], sizes[:0], parent[:0])]  # no cells: typed empties
    while lows.shape[0]:
        high = lows + sizes[:, None]
        near = np.abs(np.clip(c, lows, high) - c)
        far = np.maximum(np.abs(lows - c), np.abs(high - c)) ** 2
        span = np.sqrt(near ** 2 + far.sum(axis=1, keepdims=True) - far)
        bound = near / span
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
    """Gauss points on the lines [lo, hi] split at their roots: the points
    of ``_piece_points`` on every piece of ``_pieces``."""
    return _piece_points(*_pieces(lo, hi, roots, graded), points, power)


def _pieces(lo, hi, roots, graded):
    """The pieces of the lines [lo, hi] split at their roots.

    ``roots`` (m, K) holds the candidate roots of each line, NaN where absent.
    A piece is graded toward the nearest root of the columns ``graded`` (K,)
    at or within one piece length beyond each of its ends; a piece graded at
    both ends is halved first.  Returns per piece, line by line and in order
    along each line: line, start, end and anchor, the root it is graded
    toward (infinite for an ungraded piece).
    """
    m = lo.shape[0]
    # one row per cut over the lines: a line's inner roots, sorted, between its ends
    inner = np.where((roots > lo[:, None]) & (roots < hi[:, None]), roots, hi[:, None]).T.copy()
    _sort_rows(inner)
    cuts = np.concatenate([lo[None], inner, hi[None]])
    a, b = cuts[:-1], cuts[1:]  # (piece, line)
    length = b - a
    # (graded root, piece, line), reduced over the roots in order
    bent = roots[:, graded].T[:, None, :]
    left = np.where((bent <= a) & (bent >= a - length), bent, -np.inf).max(axis=0, initial=-np.inf)
    right = np.where((bent >= b) & (bent <= b + length), bent, np.inf).min(axis=0, initial=np.inf)
    has_left, has_right = np.isfinite(left), np.isfinite(right)
    both = has_left & has_right
    mid = np.where(both, 0.5 * (a + b), b)
    # row 2j + h: half h of piece j; the first half ends at the midpoint only
    # when both ends are graded, and the second half exists only then; a
    # half is kept if it has positive length, as the midpoint of a piece one
    # ulp long rounds to one of its ends
    keep = np.stack([mid > a, both & (b > mid)], axis=1).reshape(2 * a.shape[0], m)
    # the kept halves line by line, then piece by piece
    line, row = np.divmod(np.flatnonzero(keep.T), keep.shape[0])
    at = row * m + line
    halves = ((a, mid), (mid, b), (np.where(has_left, left, right), right))
    return (line,) + tuple(np.stack(h, axis=1).reshape(-1)[at] for h in halves)


def _sort_rows(x):
    """Sort every column of ``x`` (k, m) in place by k rounds of odd-even
    transposition; min and max return one of their arguments, so the
    values are those of ``np.sort(x, axis=0)``."""
    k = x.shape[0]
    for r in range(k):
        first, second = x[r % 2:k - 1:2], x[r % 2 + 1:k:2]
        low = np.minimum(first, second)
        np.maximum(first, second, out=second)
        first[...] = low


def _piece_points(line, start, end, anchor, points, power):
    """``points`` Gauss points on each of the pieces ``(line, start, end,
    anchor)`` of ``_pieces``, or of any slice of them, graded toward the
    anchor with ``power``.  Returns per point, piece by piece: line,
    coordinate and weight."""
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
    return np.repeat(line, n), t.ravel(), w.ravel()


def _unpermute(x, axis, line, t):
    """Points at height ``t`` on the face lines ``line``, in physical axes; the
    face coordinates ``x`` of a line along ``axis`` go back through its frame
    (``mesh._frames``) once per line."""
    dim = x.shape[1] + 1
    # one coordinate per row: the (n, dim) points are a transposed view
    faces = np.empty((dim, x.shape[0]))
    np.put_along_axis(faces, _frames(dim)[axis, :-1].T, x.T, axis=0)
    pts = np.empty((dim, line.size))
    for k in range(dim):
        pts[k] = faces[k][line]
    pts[axis[line], np.arange(line.size)] = t
    return pts.T

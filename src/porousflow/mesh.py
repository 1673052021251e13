"""Triangulations of axis-aligned rectangles with tagged boundaries.

Every mesh is a structured crossed-triangle grid, built from its grid lines
and a tag rule: every grid cell is split into two triangles with the diagonal
alternating from cell to cell.  The layout is fully deterministic, which
keeps convergence runs reproducible.  An optional ``LayerGrading``
concentrates the horizontal mesh lines around a given ``y``-line, e.g. to
resolve a thin porosity transition layer.  Every boundary edge lies on a side
of the rectangle, so it is axis-aligned.

A point is located by index arithmetic on the grid lines: one
``searchsorted`` per axis finds its cell, one side-of-diagonal test its
triangle.  Each triangle's affine inverse and origin are kept as six
contiguous per-coefficient columns, so the barycentric coordinates of a batch
gather six 1-D columns and the containment test reads whole columns.
Segments are clipped against the sides of the rectangle (Liang & Barsky, ACM
TOG 3, 1984), whose grid lines give the crossed boundary edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

#: Barycentric slack used to decide containment.
INSIDE_TOL = 1e-12

#: Parametric slack of a segment/boundary-edge crossing.
EXIT_TOL = 1e-12


class BoundaryTag(Enum):
    """Physical role of a boundary edge."""

    DIRICHLET = 0    # prescribed velocity
    STRESS_FREE = 1  # zero normal stress (typically an outflow)


TagRule = Callable[[np.ndarray], BoundaryTag]


class BoundaryHit(NamedTuple):
    """First intersections of ``m`` segments with the boundary."""

    points: np.ndarray  # (m, 2), each on its crossed edge
    edges: np.ndarray   # (m,) crossed boundary edge indices
    tags: np.ndarray    # (m,) object array, the BoundaryTag of each edge


@dataclass(frozen=True)
class LayerGrading:
    """Refine the horizontal mesh lines around ``line`` down to ``size``.

    ``line`` must lie strictly inside the vertical extent.  Element heights
    grow geometrically away from the layer so that the total node count is
    unchanged.
    """

    line: float
    size: float


class Mesh:
    """Crossed-triangle grid of a rectangle with tagged boundary edges.

    Parameters
    ----------
    xs, ys : strictly increasing grid lines along x and y, at least two
        each; the rectangle is ``[xs[0], xs[-1]] x [ys[0], ys[-1]]``
    tag_rule : the ``BoundaryTag`` of a boundary edge from its midpoint
        (default: everything ``DIRICHLET``); any other value raises
        ``ValueError``

    Every grid cell is split into two counterclockwise triangles along a
    diagonal that alternates from cell to cell.  ``boundary_edges`` (nbe, 2)
    are oriented as they appear in their owning triangles
    ``boundary_edge_tri``, so the outward normal is the edge direction
    rotated clockwise by 90 degrees; ``boundary_tags`` is the object array
    of their tags, and ``side_edges`` the edge of each side by [normal axis,
    upper side, cell along the side].
    """

    def __init__(self, xs, ys, tag_rule: TagRule | None = None):
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        if not all(len(v) >= 2 and (np.diff(v) > 0.0).all() for v in (xs, ys)):
            raise ValueError("grid lines must number at least two per axis "
                             "and increase strictly")
        self.xs, self.ys = xs, ys
        nx, ny = len(xs) - 1, len(ys) - 1
        xv, yv = np.meshgrid(xs, ys, indexing="xy")
        self.vertices = vertices = np.column_stack([xv.ravel(), yv.ravel()])

        # cell (i, j) has corners a, b, c, d counterclockwise from its lower
        # left; its diagonal is a-c or b-d (_rises)
        j, i = np.divmod(np.arange(nx * ny), nx)
        a = j * (nx + 1) + i
        b, c, d = a + 1, a + nx + 2, a + nx + 1
        rises = _rises(i, j)[:, None]
        self.triangles = tris = np.empty((2 * nx * ny, 3), dtype=np.int64)
        tris[_cell_triangle(i, j, nx, 0)] = np.where(
            rises, np.column_stack([a, b, c]), np.column_stack([a, b, d]))
        tris[_cell_triangle(i, j, nx, 1)] = np.where(
            rises, np.column_stack([a, c, d]), np.column_stack([b, c, d]))

        # boundary edges (those with both ends on one side of the rectangle),
        # oriented counterclockwise around it as they appear in their owning
        # triangle, in (triangle, local edge) order
        ends = tris[:, [[1, 2], [2, 0], [0, 1]]].reshape(-1, 2)
        p, q = vertices[ends[:, 0]], vertices[ends[:, 1]]
        on_side = (p == q) & ((p == vertices[0]) | (p == vertices[-1]))
        owned = np.flatnonzero(on_side.any(axis=1))
        self.boundary_edges = ends[owned]
        self.boundary_edge_tri = owned // 3
        rule = tag_rule or (lambda mid: BoundaryTag.DIRICHLET)
        mids = 0.5 * (vertices[self.boundary_edges[:, 0]]
                      + vertices[self.boundary_edges[:, 1]])
        tags = [rule(m) for m in mids]
        for mid, tag in zip(mids, tags):
            if not isinstance(tag, BoundaryTag):
                raise ValueError(f"tag_rule returned {tag!r} for the boundary "
                                 f"edge at {mid.tolist()}, not a BoundaryTag")
        self.boundary_tags = np.array(tags, dtype=object)
        self.side_edges = np.full((2, 2, max(nx, ny)), -1, dtype=np.int64)
        for axis, (lines, along) in enumerate(((xs, ys), (ys, xs))):
            for upper, value in enumerate((lines[0], lines[-1])):
                on = np.flatnonzero(mids[:, axis] == value)
                self.side_edges[axis, upper,
                                _cell_index(along, mids[on, 1 - axis])] = on

        pts = vertices[tris]                         # (nt, 3, 2)
        d1 = pts[:, 1] - pts[:, 0]
        d2 = pts[:, 2] - pts[:, 0]
        det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        self.areas = 0.5 * det
        inv = np.empty((len(det), 2, 2))
        inv[:, 0, 0] = d2[:, 1]
        inv[:, 0, 1] = -d2[:, 0]
        inv[:, 1, 0] = -d1[:, 1]
        inv[:, 1, 1] = d1[:, 0]
        inv /= det[:, None, None]
        # (lam1, lam2) = inv @ (x - p0), kept as one contiguous column per
        # coefficient: inv[0, 0], inv[0, 1], inv[1, 0], inv[1, 1], p0 x, p0 y
        self._affine = np.stack([inv[:, 0, 0], inv[:, 0, 1], inv[:, 1, 0],
                                 inv[:, 1, 1], pts[:, 0, 0], pts[:, 0, 1]])
        # gradients of the three barycentric coordinates, (nt, 3, 2)
        grads = np.empty((len(det), 3, 2))
        grads[:, 1] = inv[:, 0]
        grads[:, 2] = inv[:, 1]
        grads[:, 0] = -inv[:, 0] - inv[:, 1]
        self.grad_lambda = grads
        # the quadrature tables of this mesh, filled by fem.quad_tables
        self.quad_tables = None

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def barycentric(self, tris, pts) -> np.ndarray:
        """Barycentric coordinates of ``pts`` (m, 2) in triangles ``tris`` (m,)."""
        pts = np.asarray(pts, dtype=float)
        return np.column_stack(self._bary_columns(tris, pts[:, 0], pts[:, 1]))

    def _bary_columns(self, tris, x, y):
        """The three barycentric coordinates of the points ``(x, y)`` in
        triangles ``tris``, as separate (m,) arrays."""
        tris = np.asarray(tris, dtype=np.int64)
        c = self._affine
        dx, dy = x - c[4].take(tris), y - c[5].take(tris)
        lam1 = c[0].take(tris) * dx + c[1].take(tris) * dy
        lam2 = c[2].take(tris) * dx + c[3].take(tris) * dy
        return 1.0 - lam1 - lam2, lam1, lam2


def _graded_interval(length: float, n: int, first: float) -> np.ndarray:
    """Sizes of ``n`` sub-intervals filling ``length``, growing geometrically
    from ``first`` outward.  Returns the sizes starting at the refined end."""
    if first * n >= length:
        return np.full(n, length / n)

    def fill(r: float) -> float:
        return first * (r ** n - 1.0) / (r - 1.0)

    lo, hi = 1.0 + 1e-12, 2.0
    while fill(hi) < length:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fill(mid) < length:
            lo = mid
        else:
            hi = mid
    r = 0.5 * (lo + hi)
    sizes = first * r ** np.arange(n)
    return sizes * (length / sizes.sum())


def _graded_nodes(y0: float, y1: float, ny: int, grading: LayerGrading) -> np.ndarray:
    if not (y0 < grading.line < y1):
        raise ValueError("grading line must lie inside the vertical extent")
    frac = (grading.line - y0) / (y1 - y0)
    n_lo = min(max(1, round(ny * frac)), ny - 1)
    n_hi = ny - n_lo
    lo = _graded_interval(grading.line - y0, n_lo, grading.size)
    hi = _graded_interval(y1 - grading.line, n_hi, grading.size)
    below = grading.line - np.concatenate([[0.0], np.cumsum(lo)])
    above = grading.line + np.cumsum(hi)
    ys = np.concatenate([below[::-1], above])
    ys[0], ys[-1] = y0, y1
    return ys


def generate_rect_mesh(x_extent, y_extent, n_divisions: int,
                       grading: LayerGrading | None = None,
                       tag_rule: TagRule | None = None) -> Mesh:
    """Structured crossed-triangle mesh of ``x_extent`` x ``y_extent``.

    ``n_divisions`` counts cells along x; the y-division is chosen so cells
    are close to square.  Boundary edges are tagged by calling ``tag_rule``
    on each edge midpoint (default: everything ``DIRICHLET``).
    """
    x0, x1 = (float(v) for v in x_extent)
    y0, y1 = (float(v) for v in y_extent)
    if not (x1 > x0 and y1 > y0):
        raise ValueError("degenerate extent")
    if n_divisions < 2:
        raise ValueError("n_divisions must be at least 2")
    nx = int(n_divisions)
    ny = max(2, round(nx * (y1 - y0) / (x1 - x0)))
    xs = np.linspace(x0, x1, nx + 1)
    if grading is None:
        ys = np.linspace(y0, y1, ny + 1)
    else:
        ys = _graded_nodes(y0, y1, ny, grading)
    return Mesh(xs, ys, tag_rule)


def _rises(i, j):
    """Whether the diagonal of grid cell (i, j) rises from its lower left."""
    return ((i + j) & 1) == 0


def _cell_triangle(i, j, nx, upper):
    """The lower (``upper`` 0) or upper (1) triangle of grid cell (i, j)."""
    return 2 * (j * nx + i) + upper


# -- point location -----------------------------------------------------------

def _cell_index(lines, v):
    """Grid cell along one axis of each coordinate ``v``, clipped."""
    return np.clip(np.searchsorted(lines, v, "right") - 1, 0, len(lines) - 2)


def locate_many(mesh: Mesh, pts: np.ndarray):
    """Locate many points by grid arithmetic.

    Returns ``(tri, bary, inside)`` where ``tri`` is -1 (and ``bary`` zero)
    for points outside the closed domain.  A point on an edge or a vertex
    is located in one of the triangles that share it.
    """
    xs, ys = mesh.xs, mesh.ys
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    x, y = pts[:, 0], pts[:, 1]
    i, j = _cell_index(xs, x), _cell_index(ys, y)
    x0, x1 = xs.take(i), xs[1:].take(i)
    run = np.where(_rises(i, j), x - x0, x1 - x)
    upper = (y - ys.take(j)) * (x1 - x0) > run * (ys[1:].take(j) - ys.take(j))
    tri = _cell_triangle(i, j, len(xs) - 1, upper)
    lam = mesh._bary_columns(tri, x, y)
    inside = np.minimum(np.minimum(lam[0], lam[1]), lam[2]) >= -INSIDE_TOL
    bary = np.column_stack(lam)
    if not inside.all():
        outside = ~inside
        tri[outside] = -1
        bary[outside] = 0.0
    return tri, bary, inside


def boundary_exit_point(mesh: Mesh, starts, ends) -> BoundaryHit:
    """First intersections of the segments ``[starts[i], ends[i]]`` with the
    boundary; ``starts`` and ``ends`` are ``(m, 2)`` arrays.

    Every start must lie inside the closed domain and every end outside.
    Each segment is clipped against the four sides, the grid lines of a side
    giving the one edge it can cross there; the first crossing within a
    parametric slack of ``EXIT_TOL`` wins.  It is nudged by ``EXIT_TOL``
    toward the start and snapped onto its edge, so it lies in the domain.
    """
    xs, ys = mesh.xs, mesh.ys
    a = np.atleast_2d(np.asarray(starts, dtype=float))
    s = np.atleast_2d(np.asarray(ends, dtype=float)) - a
    if np.any((s == 0.0).all(axis=1)):
        raise ValueError("degenerate segment: start equals end")
    # the crossing of each segment's line with the line of each side, and
    # the side's boundary edge there: four candidates [axis, upper] a row
    bounds = np.array([[xs[0], xs[-1]], [ys[0], ys[-1]]])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t_side = (bounds - a[:, :, None]) / s[:, :, None]
        along = a[:, ::-1, None] + t_side * s[:, ::-1, None]
    cells = np.stack([_cell_index(ys, along[:, 0]),
                      _cell_index(xs, along[:, 1])], axis=1)
    edges = mesh.side_edges[[[0], [1]], [0, 1], cells].reshape(len(a), 4)

    p = mesh.vertices[mesh.boundary_edges[edges, 0]]
    r = mesh.vertices[mesh.boundary_edges[edges, 1]] - p
    ap0 = p[..., 0] - a[:, :1]
    ap1 = p[..., 1] - a[:, 1:]
    s0, s1 = s[:, :1], s[:, 1:]
    denom = s0 * r[..., 1] - s1 * r[..., 0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t_par = (ap0 * r[..., 1] - ap1 * r[..., 0]) / denom
        u_par = (ap0 * s1 - ap1 * s0) / denom
    valid = (np.abs(denom) > 0.0) & (u_par >= -EXIT_TOL) \
        & (u_par <= 1.0 + EXIT_TOL) & (t_par >= -EXIT_TOL) \
        & (t_par <= 1.0 + EXIT_TOL)
    if not valid.any(axis=1).all():
        raise ValueError("segment does not cross the boundary; is the end "
                         "point outside the domain?")
    t_all = np.where(valid, t_par, np.inf)
    rows, first = np.arange(len(a)), np.argmin(t_all, axis=1)
    edge = edges[rows, first]
    t_star = np.maximum(t_all[rows, first] - EXIT_TOL, 0.0)
    points = a + t_star[:, None] * s
    # snap onto the edge
    pe, re = p[rows, first], r[rows, first]
    d = points - pe
    u = (d[:, 0] * re[:, 0] + d[:, 1] * re[:, 1]) \
        / (re[:, 0] * re[:, 0] + re[:, 1] * re[:, 1])
    points = pe + np.clip(u, 0.0, 1.0)[:, None] * re
    return BoundaryHit(points, edge, mesh.boundary_tags[edge])

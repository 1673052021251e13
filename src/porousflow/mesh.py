"""Triangulations of axis-aligned rectangles with tagged boundaries.

Every mesh is a structured crossed-triangle grid, built from its grid lines
and the names of its stress-free sides: every grid cell is split into two
triangles with the diagonal alternating from cell to cell.  The layout is
fully deterministic, which keeps convergence runs reproducible.  An optional
``LayerGrading`` concentrates the horizontal mesh lines around a given
``y``-line, e.g. to resolve a thin porosity transition layer.  Every
boundary edge lies on a side of the rectangle, so it is axis-aligned.

A point is located by index arithmetic on the grid lines: one
``searchsorted`` per axis on the interior grid lines finds its cell, one
side-of-diagonal test against the cell widths, tabulated once per mesh, its
triangle.  Each triangle's affine inverse and origin are kept as six
contiguous per-coefficient columns, so the barycentric coordinates of a batch
gather six 1-D columns into the columns of an F-ordered (m, 3) array, and the
containment test and the basis evaluation read whole columns.
Segments are clipped against the sides of the rectangle (Liang & Barsky, ACM
TOG 3, 1984), whose grid lines give the crossed boundary edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

#: Barycentric slack used to decide containment.
INSIDE_TOL = 1e-12

#: Parametric slack of a segment/boundary-edge crossing.
EXIT_TOL = 1e-12


class BoundaryTag(Enum):
    """Physical role of a boundary edge."""

    DIRICHLET = 0    # prescribed velocity
    STRESS_FREE = 1  # zero normal stress (typically an outflow)


#: The sides of the rectangle, in the ``[axis, upper]`` order of
#: ``Mesh.side_edges``.
SIDES = ("left", "right", "bottom", "top")


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
    unchanged.  A side of the layer that gets a single interval (every mesh
    with two or three rows has one) is that interval, so ``size`` does not
    act there.  A ``size`` that is not positive and finite raises
    ``ValueError``, as does, when the mesh is built, one too small for any
    geometric growth to fill a side of the layer with its intervals or for
    the grid lines next to the layer to differ.
    """

    line: float
    size: float

    def __post_init__(self):
        if not (math.isfinite(self.size) and self.size > 0.0):
            raise ValueError(f"grading size must be positive and finite, "
                             f"got {self.size}")


class Mesh:
    """Crossed-triangle grid of a rectangle with tagged boundary edges.

    Parameters
    ----------
    xs, ys : strictly increasing grid lines along x and y, at least two
        each; the rectangle is ``[xs[0], xs[-1]] x [ys[0], ys[-1]]``
    stress_free : the names in ``SIDES`` of the sides whose edges are
        ``STRESS_FREE``; every other edge is ``DIRICHLET``.  A bare string
        or a name not in ``SIDES`` raises ``ValueError``

    Every grid cell is split into two counterclockwise triangles along a
    diagonal that alternates from cell to cell.  ``boundary_edges`` (nbe, 2)
    are oriented as they appear in their owning triangles
    ``boundary_edge_tri``, so the outward normal is the edge direction
    rotated clockwise by 90 degrees; ``boundary_tags`` is the object array
    of their tags, and ``side_edges`` the edge of each side by [normal axis,
    upper side, cell along the side].
    """

    def __init__(self, xs, ys, stress_free=()):
        free = set(stress_free)
        if isinstance(stress_free, str) or not free <= set(SIDES):
            raise ValueError(f"stress_free must name sides among {SIDES}, "
                             f"got {stress_free!r}")
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        if not all(len(v) >= 2 and (np.diff(v) > 0.0).all() for v in (xs, ys)):
            raise ValueError("grid lines must number at least two per axis "
                             "and increase strictly")
        self.xs, self.ys = xs, ys
        # the width of each grid cell along x and along y
        self._widths = np.diff(xs), np.diff(ys)
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
        # triangle, in (triangle, local edge) order; only the triangles of
        # the grid cells along the sides can own one
        border = np.flatnonzero((i == 0) | (i == nx - 1) | (j == 0)
                                | (j == ny - 1))
        near = (2 * border[:, None] + np.arange(2)).ravel()
        ends = tris[near][:, [[1, 2], [2, 0], [0, 1]]].reshape(-1, 2)
        p, q = vertices[ends[:, 0]], vertices[ends[:, 1]]
        on_side = (p == q) & ((p == vertices[0]) | (p == vertices[-1]))
        owned = np.flatnonzero(on_side.any(axis=1))
        self.boundary_edges = ends[owned]
        self.boundary_edge_tri = near[owned // 3]
        mids = 0.5 * (vertices[self.boundary_edges[:, 0]]
                      + vertices[self.boundary_edges[:, 1]])
        # per boundary edge: its start, its direction (end minus start) and
        # that direction's squared length, one row per coordinate
        start, end = vertices[self.boundary_edges.T]
        d = end - start
        self._edge_table = np.vstack([start.T, d.T,
                                      d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]])
        self.side_edges = np.full((2, 2, max(nx, ny)), -1, dtype=np.int64)
        self.boundary_tags = np.full(len(owned), BoundaryTag.DIRICHLET,
                                     dtype=object)
        for axis, (lines, along) in enumerate(((xs, ys), (ys, xs))):
            for upper, value in enumerate((lines[0], lines[-1])):
                on = np.flatnonzero(mids[:, axis] == value)
                self.side_edges[axis, upper,
                                _cell_index(along, mids[on, 1 - axis])] = on
                if SIDES[2 * axis + upper] in free:
                    self.boundary_tags[on] = BoundaryTag.STRESS_FREE

        # the corners' coordinates, (3, nt) per axis
        cx, cy = vertices[:, 0].take(tris.T), vertices[:, 1].take(tris.T)
        d1x, d1y = cx[1] - cx[0], cy[1] - cy[0]
        d2x, d2y = cx[2] - cx[0], cy[2] - cy[0]
        det = d1x * d2y - d1y * d2x
        self.areas = 0.5 * det
        # (lam1, lam2) = inv @ (x - p0) with inv = [[d2y, -d2x], [-d1y, d1x]]
        # / det, kept as one contiguous column per coefficient: inv[0, 0],
        # inv[0, 1], inv[1, 0], inv[1, 1], p0 x, p0 y
        self._affine = c = np.empty((6, len(det)))
        for row, num in enumerate((d2y, -d2x, -d1y, d1x)):
            np.divide(num, det, out=c[row])
        c[4], c[5] = cx[0], cy[0]
        # gradients of the three barycentric coordinates, (nt, 3, 2): the
        # rows of inv for lam1 and lam2, minus both for lam0
        grads = np.empty((len(det), 3, 2))
        grads[:, 1:] = c[:4].T.reshape(-1, 2, 2)
        np.subtract(-c[0:2], c[2:4], out=grads[:, 0].T)
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
        """Barycentric coordinates of ``pts`` (m, 2) in triangles ``tris``
        (m,), an F-ordered (m, 3) array."""
        pts = np.asarray(pts, dtype=float)
        return self._barycentric(tris, pts[:, 0], pts[:, 1])

    def _barycentric(self, tris, x, y):
        """The barycentric coordinates of the points ``(x, y)`` in triangles
        ``tris``, each written into its column of an F-ordered (m, 3)
        array."""
        tris = np.asarray(tris, dtype=np.int64)
        c = self._affine
        bary = np.empty((len(tris), 3), order="F")
        lam0, lam1, lam2 = bary.T
        dx, dy = x - c[4].take(tris), y - c[5].take(tris)
        np.multiply(c[0].take(tris), dx, out=lam1)
        lam1 += c[1].take(tris) * dy
        np.multiply(c[2].take(tris), dx, out=lam2)
        lam2 += c[3].take(tris) * dy
        np.subtract(1.0, lam1, out=lam0)
        lam0 -= lam2
        return bary


def _graded_interval(length: float, n: int, first: float) -> np.ndarray:
    """Sizes of ``n`` sub-intervals filling ``length``, growing geometrically
    from ``first`` outward.  Returns the sizes starting at the refined end;
    one interval is the whole side, whatever ``first``."""
    if n == 1:
        return np.array([length])
    if first * n >= length:
        return np.full(n, length / n)

    def fill(r: float) -> float:
        return first * (r ** n - 1.0) / (r - 1.0)

    lo, hi = 1.0 + 1e-12, 2.0
    try:
        while fill(hi) < length:
            hi *= 2.0
    except OverflowError:
        raise ValueError(f"grading size {first} is too small to fill "
                         f"{length} with {n} geometrically growing "
                         "intervals") from None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        # no float lies between the ends: every further halving would give
        # r = mid, as the last one does
        if mid in (lo, hi):
            break
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
    if not (np.diff(ys) > 0.0).all():
        raise ValueError(f"grading size {grading.size} is too small to "
                         f"separate the grid lines at {grading.line}")
    return ys


def generate_rect_mesh(x_extent, y_extent, n_divisions: int,
                       grading: LayerGrading | None = None,
                       stress_free=()) -> Mesh:
    """Structured crossed-triangle mesh of ``x_extent`` x ``y_extent``.

    ``n_divisions`` counts cells along x; the y-division is chosen so cells
    are close to square.  With a ``grading``, a side of its line that gets a
    single row keeps that row whole, whatever the grading size.  The edges of
    the sides named in ``stress_free`` are ``STRESS_FREE``, every other
    boundary edge ``DIRICHLET``, as :class:`Mesh` takes them.
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
    return Mesh(xs, ys, stress_free)


def _rises(i, j):
    """Whether the diagonal of grid cell (i, j) rises from its lower left."""
    return ((i + j) & 1) == 0


def _cell_triangle(i, j, nx, upper):
    """The lower (``upper`` 0) or upper (1) triangle of grid cell (i, j)."""
    return 2 * (j * nx + i) + upper


# -- point location -----------------------------------------------------------

def _cell_index(lines, v):
    """Grid cell along one axis of each coordinate ``v``: the number of
    interior grid lines at or below it, so a ``v`` below the first line is in
    the first cell and one at or above the last line, or NaN, in the last."""
    return np.searchsorted(lines[1:-1], v, "right")


def locate_many(mesh: Mesh, pts: np.ndarray):
    """Locate many points by grid arithmetic.

    Returns ``(tri, bary, inside)`` where ``tri`` is -1 (and ``bary`` zero)
    for points outside the closed domain; ``bary`` is F-ordered (m, 3), one
    contiguous column per coordinate.  A point on an edge or a vertex is
    located in one of the triangles that share it.  ``pts`` (m, 2) is read
    by contiguous x and y columns, copied unless ``pts`` is F-ordered.
    """
    xs, ys = mesh.xs, mesh.ys
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    x, y = np.ascontiguousarray(pts[:, 0]), np.ascontiguousarray(pts[:, 1])
    i, j = _cell_index(xs, x), _cell_index(ys, y)
    x0, x1 = xs.take(i), xs[1:].take(i)
    dx, dy = mesh._widths
    run = np.where(_rises(i, j), x - x0, x1 - x)
    upper = (y - ys.take(j)) * dx.take(i) > run * dy.take(j)
    tri = _cell_triangle(i, j, len(xs) - 1, upper)
    bary = mesh._barycentric(tri, x, y)
    lam0, lam1, lam2 = bary.T
    inside = np.minimum(np.minimum(lam0, lam1), lam2) >= -INSIDE_TOL
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
    The four candidate edges of every segment are read from the mesh's
    per-edge table in one gather.
    """
    xs, ys = mesh.xs, mesh.ys
    a = np.atleast_2d(np.asarray(starts, dtype=float))
    s = np.atleast_2d(np.asarray(ends, dtype=float)) - a
    if np.any((s == 0.0).all(axis=1)):
        raise ValueError("degenerate segment: start equals end")
    a0, a1, s0, s1 = a[:, :1], a[:, 1:], s[:, :1], s[:, 1:]
    # the crossing of each segment's line with the line of each side, and
    # the side's boundary edge there: four candidates [axis, upper] a row
    bounds = np.array([[xs[0], xs[-1]], [ys[0], ys[-1]]])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t_side = (bounds - a[:, :, None]) / s[:, :, None]
        along = a[:, ::-1, None] + t_side * s[:, ::-1, None]
    cells = np.stack([_cell_index(ys, along[:, 0]),
                      _cell_index(xs, along[:, 1])], axis=1)
    edges = mesh.side_edges[[[0], [1]], [0, 1], cells].reshape(len(a), 4)
    # start, direction and squared length of each candidate, (m, 4) each
    p0, p1, r0, r1, _ = mesh._edge_table[:, edges]
    ap0 = p0 - a0
    ap1 = p1 - a1
    denom = s0 * r1 - s1 * r0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t_par = (ap0 * r1 - ap1 * r0) / denom
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
    pe0, pe1, re0, re1, re2 = mesh._edge_table[:, edge]
    u = ((points[:, 0] - pe0) * re0 + (points[:, 1] - pe1) * re1) / re2
    u = np.clip(u, 0.0, 1.0)
    points = np.column_stack([pe0 + u * re0, pe1 + u * re1])
    return BoundaryHit(points, edge, mesh.boundary_tags[edge])

"""Triangulations of axis-aligned rectangles with Dirichlet or stress-free
boundary sides.

Every mesh is a structured crossed-triangle grid, built from its grid lines
and the names of its stress-free sides: every grid cell is split into two
triangles with the diagonal alternating from cell to cell.  The layout is
fully deterministic, which keeps convergence runs reproducible.  An optional
``LayerGrading`` concentrates the horizontal mesh lines around a given
``y``-line, e.g. to resolve a thin porosity transition layer.  Every
boundary edge lies on a side of the rectangle, so it is axis-aligned, and
the edges are numbered from the grid: side by side in ``SIDES`` order, and
along each side by grid cell, so a side's edge at cell ``k`` is its first
edge plus ``k``.  The kind of each edge is one boolean, whether it is
Dirichlet, in ``Mesh.boundary_dirichlet``; every other edge is stress-free.

A point is located by index arithmetic on the grid lines: one
``searchsorted`` per axis on the interior grid lines finds its cell, one
side-of-diagonal test against the cell widths, tabulated once per mesh, its
triangle.  Each triangle's affine inverse and origin are kept as six
contiguous per-coefficient columns, so the barycentric coordinates of a batch
gather six 1-D columns into the columns of an F-ordered (m, 3) array, and the
containment test and the basis evaluation read whole columns.
A segment that leaves the domain is clipped against the four side lines of
the rectangle (Liang & Barsky, ACM TOG 3, 1984): a crossing counts within a
slack of ``EXIT_TOL`` of the segment and, along the side, of its end cells,
the first one wins, and the cell along that side gives the crossed
boundary edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

#: Barycentric slack used to decide containment.
INSIDE_TOL = 1e-12

#: Relative slack of a boundary crossing: of its parameter along the
#: segment, and of its place along the side, in widths of the end cells.
EXIT_TOL = 1e-12


#: The sides of the rectangle, ``[axis, upper]`` in row-major order: the
#: order of their edges in ``Mesh.boundary_edges``.
SIDES = ("left", "right", "bottom", "top")


class BoundaryHit(NamedTuple):
    """First intersections of ``m`` segments with the boundary; whether each
    crossed edge is Dirichlet is ``mesh.boundary_dirichlet[edges]``."""

    points: np.ndarray  # (m, 2), each on its crossed edge
    edges: np.ndarray   # (m,) crossed boundary edge indices


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
    """Crossed-triangle grid of a rectangle with Dirichlet or stress-free
    boundary edges.

    Parameters
    ----------
    xs, ys : strictly increasing grid lines along x and y, at least two
        each; the rectangle is ``[xs[0], xs[-1]] x [ys[0], ys[-1]]``
    stress_free : the names in ``SIDES`` of the sides whose edges are
        stress-free; every other edge is Dirichlet.  A bare string
        or a name not in ``SIDES`` raises ``ValueError``

    Every grid cell is split into two counterclockwise triangles along a
    diagonal that alternates from cell to cell.  ``boundary_edges`` (nbe, 2)
    are numbered side by side in ``SIDES`` order, ``ny``, ``ny``, ``nx`` and
    ``nx`` edges, each side's by grid cell along it.  With a, b, c, d a
    cell's corners counterclockwise from its lower left, the edges run d->a
    (left), b->c (right), a->b (bottom) and c->d (top), as in their owning
    triangles ``boundary_edge_tri``, so the outward normal is the edge
    direction rotated clockwise by 90 degrees; ``boundary_dirichlet`` (nbe,)
    says of each whether it is Dirichlet, ``False`` on the stress-free
    sides.
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

        # the boundary edges, side by side in SIDES order and by cell along
        # each side, each oriented as in its owner triangle, the one of the
        # cell's two that holds both ends
        rows, cols = np.arange(ny), np.arange(nx)
        ends, owners = [], []
        for ci, cj, p, q, upper in (
                (0, rows, d, a, _rises(0, rows)),
                (nx - 1, rows, b, c, ~_rises(nx - 1, rows)),
                (cols, 0, a, b, 0), (cols, ny - 1, c, d, 1)):
            cell = cj * nx + ci
            ends.append(np.column_stack([p[cell], q[cell]]))
            owners.append(_cell_triangle(ci, cj, nx, upper))
        self.boundary_edges = np.concatenate(ends)
        self.boundary_edge_tri = np.concatenate(owners)
        self.boundary_dirichlet = np.repeat(
            [side not in free for side in SIDES], [ny, ny, nx, nx])

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

    ``n_divisions`` counts cells along x, an integer of at least 2, or
    ``ValueError`` names it (a fraction is not truncated); the y-division is
    chosen so cells are close to square.  With a ``grading``, a side of its line that gets a single row
    keeps that row whole, whatever the grading size.  The edges of the sides
    named in ``stress_free`` are stress-free, every other boundary edge
    Dirichlet, as :class:`Mesh` takes them.
    """
    x0, x1 = (float(v) for v in x_extent)
    y0, y1 = (float(v) for v in y_extent)
    if not (x1 > x0 and y1 > y0):
        raise ValueError("degenerate extent")
    if not isinstance(n_divisions, (int, np.integer)) or n_divisions < 2:
        raise ValueError(f"n_divisions must be at least 2 and an integer, "
                         f"got {n_divisions}")
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
    # an infinite point gets NaN or infinite barycentric coordinates, which
    # read as outside
    with np.errstate(invalid="ignore"):
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
    boundary; ``starts`` and ``ends`` are finite ``(m, 2)`` arrays.

    Every start must lie inside the closed domain and every end outside.
    Each segment is clipped against the four side lines.  A side's crossing
    counts when its parameter along the segment lies in ``[-EXIT_TOL, 1 +
    EXIT_TOL]`` and its coordinate along the side within the side widened
    at each end by ``EXIT_TOL`` times that end cell's width, so a start on
    a side exits there; the smallest parameter wins, ties going to the
    first side in ``SIDES``.  The crossed edge is the side's edge at that
    coordinate, so a corner crossing takes that side's kind in
    ``mesh.boundary_dirichlet``.  The parameter is the start's distance to
    the side line over the segment's extent across it, both multiplied by
    the crossed edge's length as a segment/edge intersection multiplies
    them, so a start whose distance underflows in that product lies on the
    side.  The
    hit is the crossing moved ``EXIT_TOL`` of the segment back toward the
    start and clipped onto that edge, so it lies on the side line, on the
    edge and in the domain.  A start or end that is not finite, a start
    equal to its end and a segment that crosses no side raise
    ``ValueError``.
    """
    a = np.atleast_2d(np.asarray(starts, dtype=float))
    b = np.atleast_2d(np.asarray(ends, dtype=float))
    bad = np.flatnonzero(~np.isfinite(np.hstack([a, b])).all(axis=1))
    if bad.size:
        raise ValueError(f"segment start or end not finite in {bad.size} "
                         f"of {len(a)} rows, first row {bad[0]}: "
                         f"{a[bad[0]]} to {b[bad[0]]}")
    s = b - a
    if np.any((s == 0.0).all(axis=1)):
        raise ValueError("degenerate segment: start equals end")
    xs, ys = mesh.xs, mesh.ys
    dx, dy = mesh._widths
    # the crossing of each segment's line with the line of each side, its
    # coordinate along the side and the cell there, [axis, upper] a row, and
    # its parameter, both terms scaled by the width of that cell
    bounds = np.array([[xs[0], xs[-1]], [ys[0], ys[-1]]])
    gap, step = bounds - a[:, :, None], s[:, :, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        along = a[:, ::-1, None] + gap / step * s[:, ::-1, None]
        cells = np.stack([_cell_index(ys, along[:, 0]),
                          _cell_index(xs, along[:, 1])], axis=1)
        width = np.stack([dy.take(cells[:, 0]), dx.take(cells[:, 1])], axis=1)
        t_side = gap * width / (step * width)
    # the sides, widened at each end by EXIT_TOL of the end cell's width
    reach = np.array([[v[0] - EXIT_TOL * (v[1] - v[0]),
                       v[-1] + EXIT_TOL * (v[-1] - v[-2])] for v in (ys, xs)])
    valid = (t_side >= -EXIT_TOL) & (t_side <= 1.0 + EXIT_TOL) \
        & (along >= reach[:, :1]) & (along <= reach[:, 1:])
    if not valid.any(axis=(1, 2)).all():
        raise ValueError("segment does not cross the boundary; is the end "
                         "point outside the domain?")
    t_all = np.where(valid, t_side, np.inf).reshape(len(a), 4)
    rows, first = np.arange(len(a)), np.argmin(t_all, axis=1)
    axis, upper = np.divmod(first, 2)
    # the side's first edge, then one edge per cell along it
    edge = np.cumsum([0, len(dy), len(dy), len(dx)])[first] \
        + cells[rows, axis, upper]
    # an axis-aligned edge is the box of its ends
    p, q = mesh.vertices[mesh.boundary_edges[edge].T]
    t_star = np.maximum(t_all[rows, first] - EXIT_TOL, 0.0)
    points = np.clip(a + t_star[:, None] * s, np.minimum(p, q),
                     np.maximum(p, q))
    return BoundaryHit(points, edge)

"""Triangulations of axis-aligned rectangles with tagged boundaries.

Meshes are structured crossed-triangle grids: every grid cell is split into
two triangles with the diagonal alternating from cell to cell.  The layout is
fully deterministic, which keeps convergence runs reproducible.  An optional
``LayerGrading`` concentrates the horizontal mesh lines around a given
``y``-line, e.g. to resolve a thin porosity transition layer.

Point location uses a walking search through the triangle adjacency with an
exhaustive scan as fallback; on the convex domains built here, a walk that
crosses a boundary edge proves the query point lies outside.  Segments that
leave the domain are cut at their first boundary crossing, all of them at
once, from one table of segment/boundary-edge intersections.
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
    SLIP = 2         # zero normal velocity, stress-free tangentially


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
    """Conforming triangulation of a rectangle.

    Parameters
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array, counterclockwise vertex triples
    boundary_edges : (nbe, 2) int array, oriented as they appear in their
        owning triangle (so the outward normal is the edge direction rotated
        clockwise by 90 degrees)
    boundary_tags : sequence of ``BoundaryTag``, one per boundary edge
    boundary_edge_tri : (nbe,) int array, owning triangle of each edge
    """

    def __init__(self, vertices, triangles, boundary_edges, boundary_tags,
                 boundary_edge_tri):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        self.boundary_edges = np.ascontiguousarray(boundary_edges, dtype=np.int64)
        self.boundary_tags = list(boundary_tags)
        self.boundary_edge_tri = np.ascontiguousarray(boundary_edge_tri, dtype=np.int64)
        if len(self.boundary_tags) != len(self.boundary_edges):
            raise ValueError("one tag per boundary edge required")
        self._build_geometry()
        self._build_adjacency()
        # quadrature tables of this mesh by rule, filled by fem.quad_tables
        self.quad_cache: dict = {}

    # -- construction helpers -------------------------------------------------

    def _build_geometry(self):
        p = self.vertices[self.triangles]            # (nt, 3, 2)
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        if np.any(det <= 0.0):
            raise ValueError("all triangles must be counterclockwise with "
                             "positive area")
        self.areas = 0.5 * det
        inv = np.empty((len(det), 2, 2))
        inv[:, 0, 0] = d2[:, 1]
        inv[:, 0, 1] = -d2[:, 0]
        inv[:, 1, 0] = -d1[:, 1]
        inv[:, 1, 1] = d1[:, 0]
        inv /= det[:, None, None]
        # (lam1, lam2) = inv @ (x - p0), inv flattened row by row
        self._p0 = np.ascontiguousarray(p[:, 0])
        self._inv_flat = inv.reshape(-1, 4)
        # gradients of the three barycentric coordinates, (nt, 3, 2)
        grads = np.empty((len(det), 3, 2))
        grads[:, 1] = inv[:, 0]
        grads[:, 2] = inv[:, 1]
        grads[:, 0] = -inv[:, 0] - inv[:, 1]
        self.grad_lambda = grads
        edges = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]])
        self.h_max = float(np.sqrt((edges ** 2).sum(-1)).max())

    def _build_adjacency(self):
        nt = self.n_triangles
        # edge k of a triangle lies opposite its vertex k; the two triangles
        # of an interior edge meet as neighbours in the sorted edge keys
        ends = np.sort(self.triangles[:, [[1, 2], [2, 0], [0, 1]]], axis=2)
        ends = ends.reshape(-1, 2)
        order = np.lexsort((ends[:, 1], ends[:, 0]))
        ends = ends[order]
        same = (ends[1:] == ends[:-1]).all(axis=1)
        if (same[1:] & same[:-1]).any():
            raise ValueError("an edge is shared by more than two triangles")
        first = np.flatnonzero(same)
        a, b = order[first], order[first + 1]
        neighbors = np.full(3 * nt, -1, dtype=np.int64)
        neighbors[a] = b // 3
        neighbors[b] = a // 3
        self.triangle_neighbors = neighbors.reshape(nt, 3)

    # -- basic queries ---------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def boundary_edges_by_tag(self, tag: BoundaryTag) -> np.ndarray:
        return np.array([i for i, t in enumerate(self.boundary_tags) if t is tag],
                        dtype=np.int64)

    def barycentric(self, tris, pts) -> np.ndarray:
        """Barycentric coordinates of ``pts`` (m, 2) in triangles ``tris`` (m,)."""
        tris = np.asarray(tris, dtype=np.int64)
        d = np.asarray(pts, dtype=float) - self._p0[tris]
        inv = self._inv_flat[tris]
        lam1 = inv[:, 0] * d[:, 0] + inv[:, 1] * d[:, 1]
        lam2 = inv[:, 2] * d[:, 0] + inv[:, 3] * d[:, 1]
        return np.column_stack([1.0 - lam1 - lam2, lam1, lam2])


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

    xv, yv = np.meshgrid(xs, ys, indexing="xy")
    vertices = np.column_stack([xv.ravel(), yv.ravel()])

    # cell (i, j) has corners a, b, c, d counterclockwise from its lower
    # left; the diagonal alternates with the parity of i + j
    j, i = np.divmod(np.arange(nx * ny), nx)
    a = j * (nx + 1) + i
    b, c, d = a + 1, a + nx + 2, a + nx + 1
    even = (i + j) % 2 == 0
    tris = np.empty((nx * ny, 2, 3), dtype=np.int64)
    tris[:, 0] = np.where(even[:, None], np.column_stack([a, b, c]),
                          np.column_stack([a, b, d]))
    tris[:, 1] = np.where(even[:, None], np.column_stack([a, c, d]),
                          np.column_stack([b, c, d]))
    tris = tris.reshape(-1, 3)

    # boundary edges (those of one triangle only), oriented counterclockwise
    # around the rectangle as they appear in their owning triangle, in
    # (triangle, local edge) order
    ends = tris[:, [[1, 2], [2, 0], [0, 1]]].reshape(-1, 2)
    keys = ends.min(axis=1) * len(vertices) + ends.max(axis=1)
    order = np.argsort(keys, kind="stable")
    differs = np.diff(keys[order]) != 0
    single = np.concatenate([[True], differs]) \
        & np.concatenate([differs, [True]])
    owned = np.sort(order[single])
    b_edges = ends[owned]
    b_tris = owned // 3

    rule = tag_rule or (lambda mid: BoundaryTag.DIRICHLET)
    mids = 0.5 * (vertices[b_edges[:, 0]] + vertices[b_edges[:, 1]])
    tags = [rule(m) for m in mids]
    return Mesh(vertices, tris, b_edges, tags, b_tris)


# -- point location -----------------------------------------------------------

def locate_many(mesh: Mesh, pts: np.ndarray, hints: np.ndarray | None = None):
    """Locate many points by walking from per-point hint triangles.

    Returns ``(tri, bary, inside)`` where ``tri`` is -1 for points outside the
    closed domain.  Points that exhaust the walk budget (degenerate cycling)
    fall back to an exhaustive scan.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    n = len(pts)
    if hints is None:
        cur = np.zeros(n, dtype=np.int64)
    else:
        cur = np.clip(np.asarray(hints, dtype=np.int64).copy(), 0,
                      mesh.n_triangles - 1)
    tri_out = np.full(n, -1, dtype=np.int64)
    bary_out = np.zeros((n, 3))
    inside = np.zeros(n, dtype=bool)

    pending = np.arange(n)
    max_steps = 4 * int(np.sqrt(mesh.n_triangles)) + 64
    for _ in range(max_steps):
        if pending.size == 0:
            break
        b = mesh.barycentric(cur[pending], pts[pending])
        amin = np.argmin(b, axis=1)
        bmin = b[np.arange(len(b)), amin]
        ok = bmin >= -INSIDE_TOL
        done = pending[ok]
        tri_out[done] = cur[done]
        bary_out[done] = b[ok]
        inside[done] = True
        rest = pending[~ok]
        if rest.size == 0:
            pending = rest
            break
        nb = mesh.triangle_neighbors[cur[rest], amin[~ok]]
        # crossing a boundary edge outward on a convex domain: point outside
        cont = rest[nb >= 0]
        cur[cont] = nb[nb >= 0]
        pending = cont

    # walk budget exhausted (degenerate cycling): exhaustive fallback
    for i in pending:
        hit = _locate_exhaustive(mesh, pts[i])
        if hit is not None:
            tri_out[i], bary_out[i] = hit
            inside[i] = True
    return tri_out, bary_out, inside


def _locate_exhaustive(mesh: Mesh, x: np.ndarray):
    """Scan all triangles; lowest containing index wins."""
    all_tris = np.arange(mesh.n_triangles)
    b = mesh.barycentric(all_tris, np.broadcast_to(x, (mesh.n_triangles, 2)))
    ok = np.flatnonzero(b.min(axis=1) >= -INSIDE_TOL)
    if ok.size == 0:
        return None
    return int(ok[0]), b[ok[0]]


def boundary_exit_point(mesh: Mesh, starts, ends) -> BoundaryHit:
    """First intersections of the segments ``[starts[i], ends[i]]`` with the
    boundary; ``starts`` and ``ends`` are ``(m, 2)`` arrays.

    Every start must lie inside the closed domain and every end outside.
    Each segment is intersected with every boundary edge (within a
    parametric slack of ``EXIT_TOL``) and the first crossing along it wins.
    A numerically tangent crossing is resolved by nudging the segment
    parameter by ``EXIT_TOL`` toward the start; the returned points are
    snapped onto the crossed edges so they always lie in the closed domain.
    """
    a = np.atleast_2d(np.asarray(starts, dtype=float))
    s = np.atleast_2d(np.asarray(ends, dtype=float)) - a
    if np.any((s == 0.0).all(axis=1)):
        raise ValueError("degenerate segment: start equals end")
    p = mesh.vertices[mesh.boundary_edges[:, 0]]
    r = mesh.vertices[mesh.boundary_edges[:, 1]] - p
    # intersection table: one row per segment, one column per boundary edge
    s0, s1 = s[:, :1], s[:, 1:]
    ap0 = p[:, 0] - a[:, :1]
    ap1 = p[:, 1] - a[:, 1:]
    denom = s0 * r[:, 1] - s1 * r[:, 0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t_par = (ap0 * r[:, 1] - ap1 * r[:, 0]) / denom
        u_par = (ap0 * s1 - ap1 * s0) / denom
    valid = (np.abs(denom) > 0.0) & (u_par >= -EXIT_TOL) \
        & (u_par <= 1.0 + EXIT_TOL) & (t_par >= -EXIT_TOL) \
        & (t_par <= 1.0 + EXIT_TOL)
    if not valid.any(axis=1).all():
        raise ValueError("segment does not cross the boundary; is the end "
                         "point outside the domain?")
    t_all = np.where(valid, t_par, np.inf)
    edge = np.argmin(t_all, axis=1)
    t_star = np.maximum(t_all[np.arange(len(edge)), edge] - EXIT_TOL, 0.0)
    points = a + t_star[:, None] * s
    # snap onto the edge
    pe, re = p[edge], r[edge]
    d = points - pe
    u = (d[:, 0] * re[:, 0] + d[:, 1] * re[:, 1]) \
        / (re[:, 0] * re[:, 0] + re[:, 1] * re[:, 1])
    points = pe + np.clip(u, 0.0, 1.0)[:, None] * re
    tags = np.array(mesh.boundary_tags, dtype=object)[edge]
    return BoundaryHit(points, edge, tags)

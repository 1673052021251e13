"""P2/P1 Lagrange elements on triangles: bases, quadrature, fields, norms.

Velocities live in a continuous piecewise-quadratic vector space with nodes
at vertices and edge midpoints; pressures in a continuous piecewise-linear
scalar space on the vertices.  Degrees of freedom are numbered with all
velocity components first (the two components of a node are adjacent),
followed by the pressure unknowns, which fixes the block layout of the
coupled systems downstream.

Every form, norm and composite term ``u_h o X`` is integrated with one
triangle rule, the classical 7-point rule exact to degree 5.  Its tables on
a mesh (points, weights times areas, basis values and derivatives) are built
once and kept on the mesh (:func:`quad_tables`), so the forms, the norms and
the error norms of one mesh share them.  :func:`tri_quadrature` also builds
conical-product rules of higher degree from Gauss-Jacobi/Gauss-Legendre
points, which only the checks of analytic integrals use.  Weights are
normalized to sum to one; integrals are ``area * sum(w_i * f_i)`` per
element.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from porousflow.mesh import Mesh

P2_VECTOR = "p2-vector"
P1_SCALAR = "p1-scalar"


# -- quadrature ----------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Symmetric rule on the reference triangle, barycentric points."""

    points: np.ndarray   # (nq, 3)
    weights: np.ndarray  # (nq,), sums to 1


def _radon7() -> QuadratureRule:
    s = np.sqrt(15.0)
    a1, w1 = (6.0 + s) / 21.0, (155.0 + s) / 1200.0
    a2, w2 = (6.0 - s) / 21.0, (155.0 - s) / 1200.0
    pts = [(1 / 3, 1 / 3, 1 / 3)]
    wts = [9.0 / 40.0]
    for a, w in ((a1, w1), (a2, w2)):
        c = 1.0 - 2.0 * a
        pts += [(c, a, a), (a, c, a), (a, a, c)]
        wts += [w, w, w]
    return QuadratureRule(np.array(pts), np.array(wts))


def _conical(degree: int) -> QuadratureRule:
    """Conical-product rule exact to ``degree`` (no tabulated constants)."""
    # imported here: only the checks of analytic integrals need these rules,
    # and scipy.special would add to every run's memory
    from scipy.special import roots_jacobi

    n = (degree + 2) // 2
    xj, wj = roots_jacobi(n, 1.0, 0.0)       # weight (1-x) on [-1, 1]
    u = 0.5 * (xj + 1.0)
    wu = wj / 4.0                            # integrates g(u)(1-u) on [0, 1]
    xl, wl = leggauss(n)
    v = 0.5 * (xl + 1.0)
    wv = wl / 2.0
    uu, vv = np.meshgrid(u, v, indexing="ij")
    x = uu.ravel()
    y = (vv * (1.0 - uu)).ravel()
    w = 2.0 * np.outer(wu, wv).ravel()       # normalize: weights sum to 1
    pts = np.column_stack([1.0 - x - y, x, y])
    return QuadratureRule(pts, w)


def tri_quadrature(degree: int) -> QuadratureRule:
    """Rule exact for polynomials of total degree <= ``degree``."""
    if degree <= 5:
        return _radon7()
    return _conical(degree)


def edge_quadrature(n: int = 5):
    """Gauss-Legendre points/weights on [0, 1]; weights sum to 1."""
    x, w = leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


# -- reference bases -----------------------------------------------------------

def _p2_values(b: np.ndarray) -> np.ndarray:
    """P2 nodal basis values at barycentric points ``b`` (m, 3), (m, 6),
    each column written by its last product; the columns of ``b`` are read
    contiguously when it is F-ordered."""
    vals = np.empty((len(b), 6))
    for i in range(3):
        np.multiply(b[:, i], 2.0 * b[:, i] - 1.0, out=vals[:, i])
    four_b = 4.0 * b
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        np.multiply(four_b[:, i], b[:, j], out=vals[:, 3 + k])
    return vals


def eval_basis(kind: str, bary):
    """Nodal basis values and barycentric derivatives of the ``kind``
    (``P1_SCALAR`` or ``P2_VECTOR``) at ``bary`` points.

    Returns ``(values, d_dlambda)`` with shapes ``(m, nb)`` and ``(m, nb, 3)``.
    P1 nodes follow the vertices; P2 adds the midpoints of the edges opposite
    vertices 0, 1, 2 as nodes 3, 4, 5.
    """
    b = np.atleast_2d(np.asarray(bary, dtype=float))
    m = len(b)
    if kind == P1_SCALAR:
        vals = b.copy()
        grads = np.broadcast_to(np.eye(3), (m, 3, 3)).copy()
        return vals, grads
    if kind == P2_VECTOR:
        grads = np.zeros((m, 6, 3))
        for i in range(3):
            grads[:, i, i] = 4.0 * b[:, i] - 1.0
        for k in range(3):
            i, j = (k + 1) % 3, (k + 2) % 3
            grads[:, 3 + k, i] = 4.0 * b[:, j]
            grads[:, 3 + k, j] = 4.0 * b[:, i]
        return _p2_values(b), grads
    raise ValueError(f"unknown basis kind: {kind!r}")


# -- function spaces and fields -------------------------------------------------

@dataclass
class SpaceDescriptor:
    """DOF layout of a conforming scalar/vector Lagrange space."""

    mesh: Mesh
    kind: str
    node_coords: np.ndarray          # (n_nodes, 2)
    cell_nodes: np.ndarray           # (nt, 3|6) scalar node ids per cell
    # (nbe,) midpoint node of each boundary edge (P2 only)
    boundary_midpoints: np.ndarray | None = field(default=None, repr=False)
    # (nt, nb*c) unknowns per cell, the c components of a node adjacent
    cell_dofs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        c = self.components
        self.cell_dofs = (c * self.cell_nodes[:, :, None] + np.arange(c)) \
            .reshape(len(self.cell_nodes), -1)

    @property
    def components(self) -> int:
        return 2 if self.kind == P2_VECTOR else 1

    @property
    def value_shape(self) -> tuple:
        """Shape of one value: ``()`` for a scalar space, ``(2,)`` for a
        vector one."""
        return (2,) if self.kind == P2_VECTOR else ()

    @property
    def n_nodes(self) -> int:
        return len(self.node_coords)

    @property
    def dof_count(self) -> int:
        return self.components * self.n_nodes


def velocity_space(mesh: Mesh) -> SpaceDescriptor:
    """Vector P2 space: nodes at vertices plus unique edge midpoints, the
    midpoints numbered in the order their edges first appear in the
    triangles.

    An edge is keyed by its lower vertex and the rank of its vertex-number
    difference among those of the mesh (four on a crossed grid), so a dense
    table of a few keys per vertex finds each edge's first appearance and
    its node, with no sort.
    """
    nv, nt = mesh.n_vertices, mesh.n_triangles
    tris = mesh.triangles
    # edge k of a triangle lies opposite its vertex k
    a, b = tris[:, [1, 2, 0]], tris[:, [2, 0, 1]]
    lo, hi = np.minimum(a, b).ravel(), np.maximum(a, b).ravel()
    rank = np.zeros(int((hi - lo).max()) + 1, dtype=np.int64)
    rank[hi - lo] = 1
    np.cumsum(rank, out=rank)
    width = int(rank[-1])

    def key(lo, hi):
        return lo * width + rank[hi - lo] - 1

    keys, at = key(lo, hi), np.arange(3 * nt)
    first = np.full(nv * width, 3 * nt)
    np.minimum.at(first, keys, at)
    new = np.flatnonzero(first[keys] == at)
    node = np.empty(nv * width, dtype=np.int64)
    node[keys[new]] = np.arange(nv, nv + len(new))
    cell_nodes = np.column_stack([tris, node[keys].reshape(nt, 3)])
    coords = np.empty((nv + len(new), 2))
    coords[:nv] = mesh.vertices
    coords[nv:] = 0.5 * (mesh.vertices[lo[new]] + mesh.vertices[hi[new]])
    ends = mesh.boundary_edges
    midpoints = node[key(ends.min(axis=1), ends.max(axis=1))]
    return SpaceDescriptor(mesh, P2_VECTOR, coords, cell_nodes, midpoints)


def pressure_space(mesh: Mesh) -> SpaceDescriptor:
    """Scalar P1 space on the mesh vertices."""
    return SpaceDescriptor(mesh, P1_SCALAR, mesh.vertices.copy(),
                           mesh.triangles.copy())


@dataclass
class FeField:
    """Coefficient vector over a space."""

    space: SpaceDescriptor
    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        if self.coefficients.shape != (self.space.dof_count,):
            raise ValueError("coefficient length must equal the dof count")

    def node_values(self) -> np.ndarray:
        """View of the coefficients as ``(n_nodes, components)``."""
        return self.coefficients.reshape(-1, self.space.components)


# t is read nowhere; it stays only because perfbench/workloads.py passes a
# time.  Item 1's hook part or item 13 of ROADMAP unblocks it, and item 2
# deletes it
def zero_field(space: SpaceDescriptor, t: float | None = None) -> FeField:
    return FeField(space, np.zeros(space.dof_count))


def eval_function(fn: Callable, points: np.ndarray, t: float | None,
                  shape: tuple, what: str) -> np.ndarray:
    """``fn(points [, t])`` as a float array, which must be shaped
    ``(len(points),) + shape``, one finite value of ``shape`` per point;
    this is the one check of every analytic function the program reads.

    Any other shape raises ``ValueError`` naming ``what`` the function
    gives, the shape it returned and the one expected.  A transposed result
    has the expected shape at exactly two points, so there the first point
    is also evaluated alone and its shape checked.  A NaN or infinite value
    raises ``ValueError`` with the count of bad points and the first of
    them with its value."""
    def shaped(at):
        values = np.asarray(fn(at) if t is None else fn(at, t), dtype=float)
        expected = (len(at),) + shape
        if values.shape != expected:
            raise ValueError(f"{what} of shape {values.shape} for "
                             f"{len(at)} points; expected {expected}")
        return values

    values = shaped(points)
    n = len(points)
    if n == 2:
        shaped(points[:1])
    if not np.isfinite(values).all():
        bad = np.flatnonzero(~np.isfinite(values.reshape(n, -1)).all(axis=1))
        raise ValueError(f"{what} not finite at {bad.size} of {n} points, "
                         f"first at {points[bad[0]].tolist()}: "
                         f"{values[bad[0]].tolist()}")
    return values


def interpolate(space: SpaceDescriptor, fn: Callable, t: float | None = None) -> FeField:
    """Nodal interpolant of an analytic function.

    ``fn(points [, t])`` must accept an ``(n, 2)`` array and return ``(n,)``
    finite values for scalar spaces or ``(n, 2)`` for vector spaces; values
    of another shape, or NaN or infinite ones, raise the ``ValueError`` of
    :func:`eval_function`, naming the ``interpolated function``.
    """
    vals = eval_function(fn, space.node_coords, t, space.value_shape,
                         "interpolated function")
    return FeField(space, vals.ravel())


def eval_field_many(field_: FeField, tris, bary) -> np.ndarray:
    """Values of a field at points located in triangles ``tris`` (m,) with
    barycentric coordinates ``bary`` (m, 3): (m, components), or (m,) for a
    scalar field.  The P2 basis table reads the columns of ``bary``, which
    are contiguous when it is F-ordered, as ``locate_many`` returns it; the
    contraction always takes a C-ordered table, since ``einsum`` sums in an
    order that follows the memory layout."""
    sp = field_.space
    tris = np.asarray(tris, dtype=np.int64)
    b = np.atleast_2d(np.asarray(bary, dtype=float))
    c = sp.components
    coef = np.take(field_.coefficients[sp.cell_dofs], tris, axis=0)
    coef = coef.reshape(len(tris), sp.cell_nodes.shape[1], c)   # (m, nb, c)
    vals = _p2_values(b) if sp.kind == P2_VECTOR else np.ascontiguousarray(b)
    value = np.einsum("mn,mnc->mc", vals, coef)
    return value[:, 0] if c == 1 else value


# -- quadrature tables and norms ------------------------------------------------

def physical_points(mesh: Mesh, bary: np.ndarray) -> np.ndarray:
    """The points of barycentric coordinates ``bary`` (nq, 3) in every
    triangle of ``mesh``, (nt, nq, 2): per axis, ``c0*b0 + c1*b1 + c2*b2``
    from the triangle's vertex coordinates ``c_i``, summed in that order."""
    tris = mesh.triangles
    out = np.empty((len(tris), len(bary), 2))
    term = np.empty(out.shape[:2])
    for axis in range(2):
        coord = mesh.vertices[:, axis]
        o = out[:, :, axis]
        np.multiply(coord.take(tris[:, 0])[:, None], bary[:, 0], out=o)
        for i in (1, 2):
            o += np.multiply(coord.take(tris[:, i])[:, None], bary[:, i],
                             out=term)
    return out


class QuadTables:
    """The degree-5 rule tabulated on one mesh: the only source of
    quadrature points, weights and basis tables of the forms and norms.

    Holds the rule's ``weights`` (nq,), the weights times areas ``wxarea``
    (nt, nq), the physical points ``qpoints`` (nt, nq, 2) and
    ``qpoints_flat`` (nt*nq, 2), the reference basis values ``p1_vals``
    (nq, 3) and ``p2_vals`` (nq, 6), the P2 barycentric derivatives
    ``p2_dlam`` (nq, 6, 3), the scalar P2 products ``p2_products`` (nq, 36),
    and the tables that turn a field's per-cell coefficients
    ``coefficients[cell_dofs]`` (nt, nb*c) into its values and gradients at
    all quadrature points with one matrix product each.  Built by
    :func:`quad_tables`, once per mesh.
    """

    def __init__(self, mesh: Mesh):
        rule = tri_quadrature(5)
        # no reference to the mesh itself: the mesh keeps the tables, and a
        # cycle would hold both until the garbage collector runs
        self._grad_lambda = mesh.grad_lambda
        self.weights = rule.weights
        self.p1_vals, p1_dlam = eval_basis(P1_SCALAR, rule.points)
        self.p2_vals, self.p2_dlam = eval_basis(P2_VECTOR, rule.points)
        v = self.p2_vals
        self.p2_products = (v[:, :, None] * v[:, None, :]).reshape(len(v), -1)
        self.wxarea = rule.weights[None, :] * mesh.areas[:, None]
        self.qpoints = physical_points(mesh, rule.points)
        nt, nq = self.wxarea.shape
        self.qpoints_flat = self.qpoints.reshape(nt * nq, 2)
        # value table (nb*c, nq*c): entry (n*c + c', q*c + c'') is vals[q, n]
        # where c' == c'' and 0 elsewhere; the gradient table holds the
        # derivatives by the three barycentric coordinates j in column blocks
        # (j*nq + q)*c + c''
        self._tables = {}
        for kind, c, vals, dlam in ((P1_SCALAR, 1, self.p1_vals, p1_dlam),
                                    (P2_VECTOR, 2, self.p2_vals,
                                     self.p2_dlam)):
            eye = np.eye(c)
            d = dlam.transpose(1, 2, 0).reshape(vals.shape[1], 3 * nq)
            self._tables[kind] = (np.kron(vals.T, eye), np.kron(d, eye))
        self.p2_table = self._tables[P2_VECTOR][0]

    def at_quad(self, field_: FeField) -> np.ndarray:
        """Field values at all quadrature points, (nt, nq, components)."""
        coef = field_.coefficients[field_.space.cell_dofs]
        nt, nq = self.wxarea.shape
        return (coef @ self._tables[field_.space.kind][0]).reshape(nt, nq, -1)

    def grad_at_quad(self, field_: FeField) -> np.ndarray:
        """Physical field gradients at all quadrature points,
        (nt, nq, components, 2)."""
        coef = field_.coefficients[field_.space.cell_dofs]
        nt, nq = self.wxarea.shape
        # derivatives by the barycentric coordinates, (nt, 3, nq*c)
        d = (coef @ self._tables[field_.space.kind][1]).reshape(nt, 3, -1)
        gl = self._grad_lambda                               # (nt, 3, 2)
        out = np.empty((nt, d.shape[2], 2))
        for x in range(2):
            o = out[:, :, x]
            np.multiply(d[:, 0], gl[:, 0, x, None], out=o)
            o += d[:, 1] * gl[:, 1, x, None]
            o += d[:, 2] * gl[:, 2, x, None]
        return out.reshape(nt, nq, -1, 2)

    def integrate(self, values: np.ndarray) -> np.ndarray:
        """Integrals of quadrature-point values (nt, nq, ...) over the mesh,
        one per trailing index."""
        return self.wxarea.reshape(-1) @ values.reshape(self.wxarea.size, -1)


def quad_tables(mesh: Mesh) -> QuadTables:
    """The :class:`QuadTables` of ``mesh``, built on first use and kept on
    the mesh."""
    if mesh.quad_tables is None:
        mesh.quad_tables = QuadTables(mesh)
    return mesh.quad_tables


def norm(field_: FeField, kind: str = "L2") -> float:
    """Quadrature approximation of the L2 or H1 norm of a field."""
    return error_norm(field_, None, kind)


def error_norm(field_: FeField, exact: Callable | None, kind: str = "L2",
               t: float | None = None, exact_grad: Callable | None = None,
               zero_mean: bool = False) -> float:
    """Norm of ``field - exact`` with the analytic field sampled at the
    points of the degree-5 quadrature; ``exact`` ``None`` is the norm of the
    field itself.

    ``exact(points [, t])`` returns ``(n,)`` (scalar) or ``(n, 2)`` values;
    for the H1 norm ``exact_grad`` must return ``(n, 2)`` (scalar) or
    ``(n, 2, 2)`` gradients.  Another shape, or a NaN or infinite value,
    raises the ``ValueError`` of :func:`eval_function`, naming the
    ``exact solution`` or the ``exact gradient``.  With
    ``zero_mean`` the mean of the difference is removed first, i.e. the error
    is measured in the quotient space of functions modulo constants.
    """
    if kind not in ("L2", "H1"):
        raise ValueError(f"unknown norm kind: {kind!r}")
    if kind == "H1" and exact is not None and exact_grad is None:
        raise ValueError("H1 error norm requires exact_grad")
    sp = field_.space
    tables = quad_tables(sp.mesh)
    nt, nq = tables.wxarea.shape
    flat = tables.qpoints_flat
    shape = sp.value_shape
    diff = tables.at_quad(field_)
    if exact is not None:
        diff = diff - eval_function(exact, flat, t, shape,
                                    "exact solution").reshape(nt, nq, -1)
    if zero_mean:
        diff = diff - tables.integrate(diff) / float(sp.mesh.areas.sum())
    total = float(tables.integrate(diff ** 2).sum())
    if kind == "H1":
        grad = tables.grad_at_quad(field_)
        if exact is not None:
            grad = grad - eval_function(
                exact_grad, flat, t, shape + (2,),
                "exact gradient").reshape(nt, nq, sp.components, 2)
        total += float(tables.integrate(grad ** 2).sum())
    return float(np.sqrt(total))


def field_mean(field_: FeField) -> float:
    """Integral mean of a scalar field."""
    tables = quad_tables(field_.space.mesh)
    return float(tables.integrate(tables.at_quad(field_))[0]) \
        / float(field_.space.mesh.areas.sum())


# -- analytic vector fields ------------------------------------------------------

@dataclass(frozen=True)
class AnalyticVectorField:
    """Closed-form vector field with gradient, both vectorized over points."""

    value: Callable   # (n, 2) -> (n, 2)
    grad: Callable    # (n, 2) -> (n, 2, 2)


def boundary_nodes(space: SpaceDescriptor) -> np.ndarray:
    """Sorted scalar node ids lying on Dirichlet boundary edges."""
    mesh = space.mesh
    nodes = mesh.boundary_edges
    if space.boundary_midpoints is not None:
        nodes = np.column_stack([nodes, space.boundary_midpoints])
    return np.unique(nodes[mesh.boundary_dirichlet])

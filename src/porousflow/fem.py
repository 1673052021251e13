"""P2/P1 Lagrange elements on triangles: bases, quadrature, fields, norms.

Velocities live in a continuous piecewise-quadratic vector space with nodes
at vertices and edge midpoints; pressures in a continuous piecewise-linear
scalar space on the vertices.  Degrees of freedom are numbered with all
velocity components first (the two components of a node are adjacent),
followed by the pressure unknowns, which fixes the block layout of the
coupled systems downstream.

Triangle quadrature comes in two flavors: the classical 7-point rule, exact
to degree 5 and used as the default everywhere, and conical-product rules of
arbitrary degree assembled from Gauss-Jacobi/Gauss-Legendre points for the
high-accuracy diagnostics.  Weights are normalized to sum to one; integrals
are ``area * sum(w_i * f_i)`` per element.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_jacobi

from porousflow.mesh import Mesh

P2_VECTOR = "p2-vector"
P1_SCALAR = "p1-scalar"


# -- quadrature ----------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Symmetric rule on the reference triangle, barycentric points."""

    degree: int
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
    return QuadratureRule(5, np.array(pts), np.array(wts))


def _conical(degree: int) -> QuadratureRule:
    """Conical-product rule exact to ``degree`` (no tabulated constants)."""
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
    return QuadratureRule(degree, pts, w)


_MIDPOINT = QuadratureRule(
    2,
    np.array([(0.5, 0.5, 0.0), (0.0, 0.5, 0.5), (0.5, 0.0, 0.5)]),
    np.full(3, 1.0 / 3.0),
)


def tri_quadrature(degree: int) -> QuadratureRule:
    """Rule exact for polynomials of total degree <= ``degree``."""
    if degree <= 2:
        return _MIDPOINT
    if degree <= 5:
        return _radon7()
    return _conical(degree)


def edge_quadrature(n: int = 5):
    """Gauss-Legendre points/weights on [0, 1]; weights sum to 1."""
    x, w = leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


# -- reference bases -----------------------------------------------------------

def eval_basis(kind: str, bary):
    """Nodal basis values and barycentric derivatives at ``bary`` points.

    Returns ``(values, d_dlambda)`` with shapes ``(m, nb)`` and ``(m, nb, 3)``.
    P1 nodes follow the vertices; P2 adds the midpoints of the edges opposite
    vertices 0, 1, 2 as nodes 3, 4, 5.
    """
    b = np.atleast_2d(np.asarray(bary, dtype=float))
    m = len(b)
    if kind in (P1_SCALAR, "p1"):
        vals = b.copy()
        grads = np.broadcast_to(np.eye(3), (m, 3, 3)).copy()
        return vals, grads
    if kind in (P2_VECTOR, "p2"):
        vals = np.empty((m, 6))
        grads = np.zeros((m, 6, 3))
        for i in range(3):
            vals[:, i] = b[:, i] * (2.0 * b[:, i] - 1.0)
            grads[:, i, i] = 4.0 * b[:, i] - 1.0
        for k in range(3):
            i, j = (k + 1) % 3, (k + 2) % 3
            vals[:, 3 + k] = 4.0 * b[:, i] * b[:, j]
            grads[:, 3 + k, i] = 4.0 * b[:, j]
            grads[:, 3 + k, j] = 4.0 * b[:, i]
        return vals, grads
    raise ValueError(f"unknown basis kind: {kind!r}")


# -- function spaces and fields -------------------------------------------------

@dataclass
class SpaceDescriptor:
    """DOF layout of a conforming scalar/vector Lagrange space."""

    mesh: Mesh
    kind: str
    components: int
    n_nodes: int
    node_coords: np.ndarray          # (n_nodes, 2)
    cell_nodes: np.ndarray           # (nt, 3|6) scalar node ids per cell
    # (nbe,) midpoint node of each boundary edge (P2 only)
    boundary_midpoints: np.ndarray | None = field(default=None, repr=False)
    cell_dofs: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.cell_dofs is None:
            if self.components == 1:
                self.cell_dofs = self.cell_nodes
            else:
                nt, nl = self.cell_nodes.shape
                d = np.empty((nt, nl * self.components), dtype=np.int64)
                for c in range(self.components):
                    d[:, c::self.components] = \
                        self.components * self.cell_nodes + c
                self.cell_dofs = d

    @property
    def dof_count(self) -> int:
        return self.components * self.n_nodes


def velocity_space(mesh: Mesh) -> SpaceDescriptor:
    """Vector P2 space: nodes at vertices plus unique edge midpoints, the
    midpoints numbered in the order their edges first appear in the
    triangles."""
    nv, nt = mesh.n_vertices, mesh.n_triangles
    # edge k of a triangle lies opposite its vertex k
    ends = np.sort(mesh.triangles[:, [[1, 2], [2, 0], [0, 1]]], axis=2)
    keys, first, inverse = np.unique(ends[..., 0] * nv + ends[..., 1],
                                     return_index=True, return_inverse=True)
    rank = np.empty(len(keys), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(nv, nv + len(keys))
    cell_nodes = np.column_stack([mesh.triangles,
                                  rank[inverse].reshape(nt, 3)])
    coords = np.empty((nv + len(keys), 2))
    coords[:nv] = mesh.vertices
    coords[rank] = 0.5 * (mesh.vertices[keys // nv] + mesh.vertices[keys % nv])
    bends = np.sort(mesh.boundary_edges, axis=1)
    midpoints = rank[np.searchsorted(keys, bends[:, 0] * nv + bends[:, 1])]
    return SpaceDescriptor(mesh, P2_VECTOR, 2, len(coords), coords,
                           cell_nodes, midpoints)


def pressure_space(mesh: Mesh) -> SpaceDescriptor:
    """Scalar P1 space on the mesh vertices."""
    return SpaceDescriptor(mesh, P1_SCALAR, 1, mesh.n_vertices,
                           mesh.vertices.copy(), mesh.triangles.copy())


@dataclass
class FeField:
    """Coefficient vector over a space, with an optional time stamp."""

    space: SpaceDescriptor
    coefficients: np.ndarray
    time_label: float | None = None

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        if self.coefficients.shape != (self.space.dof_count,):
            raise ValueError("coefficient length must equal the dof count")

    def node_values(self) -> np.ndarray:
        """View of the coefficients as ``(n_nodes, components)``."""
        if self.space.components == 1:
            return self.coefficients.reshape(-1, 1)
        return self.coefficients.reshape(-1, self.space.components)

    def copy(self) -> "FeField":
        return FeField(self.space, self.coefficients.copy(), self.time_label)


def zero_field(space: SpaceDescriptor, t: float | None = None) -> FeField:
    return FeField(space, np.zeros(space.dof_count), t)


def _call(fn, pts, t):
    vals = fn(pts) if t is None else fn(pts, t)
    return np.asarray(vals, dtype=float)


def interpolate(space: SpaceDescriptor, fn: Callable, t: float | None = None) -> FeField:
    """Nodal interpolant of an analytic function.

    ``fn(points [, t])`` must accept an ``(n, 2)`` array and return ``(n,)``
    values for scalar spaces or ``(n, 2)`` for vector spaces.
    """
    vals = _call(fn, space.node_coords, t)
    if space.components == 1:
        coeff = vals.reshape(-1)
    else:
        coeff = np.asarray(vals, dtype=float).reshape(space.n_nodes,
                                                      space.components).ravel()
    return FeField(space, coeff, t)


def eval_field_many(field_: FeField, tris, bary, gradient: bool = False):
    """Evaluate a field (and optionally its gradient) at located points."""
    sp = field_.space
    vals, dlam = eval_basis(sp.kind, bary)
    nodes = sp.cell_nodes[np.asarray(tris, dtype=np.int64)]
    coef = field_.node_values()[nodes]                   # (m, nb, comps)
    value = np.einsum("mn,mnc->mc", vals, coef)
    if sp.components == 1:
        value = value[:, 0]
    if not gradient:
        return value
    gl = sp.mesh.grad_lambda[np.asarray(tris, dtype=np.int64)]  # (m, 3, 2)
    gphys = np.einsum("mnj,mjd->mnd", dlam, gl)
    grad = np.einsum("mnd,mnc->mcd", gphys, coef)
    if sp.components == 1:
        grad = grad[:, 0, :]
    return value, grad


# -- quadrature tables and norms ------------------------------------------------

def _quad_tables(mesh: Mesh, basis: str, rule: QuadratureRule,
                 gradient: bool):
    """Values and physical gradients (``None`` unless ``gradient``) of the
    ``basis`` functions (a kind of :func:`eval_basis`), weights times areas,
    and physical points at the quadrature points of every triangle."""
    vals, dlam = eval_basis(basis, rule.points)
    gphys = None
    if gradient:                                            # (nt, nq, nb, 2)
        gphys = np.einsum("qnj,tjd->tqnd", dlam, mesh.grad_lambda)
    wxa = rule.weights[None, :] * mesh.areas[:, None]       # (nt, nq)
    qp = np.einsum("qi,tid->tqd", rule.points, mesh.vertices[mesh.triangles])
    return vals, gphys, wxa, qp


def _field_at_quad(field_: FeField, vals, gphys):
    sp = field_.space
    coef = field_.node_values()[sp.cell_nodes]              # (nt, nb, c)
    u = np.einsum("qn,tnc->tqc", vals, coef)
    if gphys is None:
        return u, None
    g = np.einsum("tqnd,tnc->tqcd", gphys, coef)
    return u, g


def norm(field_: FeField, kind: str = "L2", rule: QuadratureRule | None = None) -> float:
    """Quadrature approximation of the L2, H1, or H1-seminorm of a field."""
    if kind not in ("L2", "H1", "H1semi"):
        raise ValueError(f"unknown norm kind: {kind!r}")
    sp = field_.space
    rule = rule or tri_quadrature(5)
    vals, gphys, wxa, _ = _quad_tables(sp.mesh, sp.kind, rule, kind != "L2")
    u, g = _field_at_quad(field_, vals, gphys)
    total = 0.0
    if kind in ("L2", "H1"):
        total += float(np.einsum("tq,tqc->", wxa, u ** 2))
    if kind in ("H1", "H1semi"):
        total += float(np.einsum("tq,tqcd->", wxa, g ** 2))
    return float(np.sqrt(total))


def error_norm(field_: FeField, exact: Callable, kind: str = "L2",
               t: float | None = None, exact_grad: Callable | None = None,
               zero_mean: bool = False,
               rule: QuadratureRule | None = None) -> float:
    """Norm of ``field - exact`` with the analytic field sampled at the
    quadrature points.

    ``exact(points [, t])`` returns values; for the H1 norm ``exact_grad``
    must return ``(n, 2)`` (scalar) or ``(n, 2, 2)`` gradients.  With
    ``zero_mean`` the mean of the difference is removed first, i.e. the error
    is measured in the quotient space of functions modulo constants.
    """
    if kind not in ("L2", "H1"):
        raise ValueError(f"unknown norm kind: {kind!r}")
    if kind == "H1" and exact_grad is None:
        raise ValueError("H1 error norm requires exact_grad")
    sp = field_.space
    rule = rule or tri_quadrature(5)
    vals, gphys, wxa, qp = _quad_tables(sp.mesh, sp.kind, rule, kind == "H1")
    u, g = _field_at_quad(field_, vals, gphys)
    nt, nq = wxa.shape
    flat = qp.reshape(nt * nq, 2)
    ue = _call(exact, flat, t).reshape(nt, nq, -1)
    diff = u - ue
    if zero_mean:
        area = float(sp.mesh.areas.sum())
        shift = np.einsum("tq,tqc->c", wxa, diff) / area
        diff = diff - shift
    total = float(np.einsum("tq,tqc->", wxa, diff ** 2))
    if kind == "H1":
        ge = _call(exact_grad, flat, t).reshape(nt, nq, sp.components, 2)
        total += float(np.einsum("tq,tqcd->", wxa, (g - ge) ** 2))
    return float(np.sqrt(total))


def field_mean(field_: FeField) -> float:
    """Integral mean of a scalar field."""
    sp = field_.space
    rule = tri_quadrature(5)
    vals, _, wxa, _ = _quad_tables(sp.mesh, sp.kind, rule, False)
    u, _ = _field_at_quad(field_, vals, None)
    return float(np.einsum("tq,tqc->", wxa, u)) / float(sp.mesh.areas.sum())


# -- analytic vector fields ------------------------------------------------------

@dataclass(frozen=True)
class AnalyticVectorField:
    """Closed-form vector field with gradient, both vectorized over points."""

    value: Callable   # (n, 2) -> (n, 2)
    grad: Callable    # (n, 2) -> (n, 2, 2)


def boundary_nodes(space: SpaceDescriptor, tags) -> np.ndarray:
    """Sorted scalar node ids lying on boundary edges with the given tags."""
    mesh = space.mesh
    nodes = mesh.boundary_edges
    if space.boundary_midpoints is not None:
        nodes = np.column_stack([nodes, space.boundary_midpoints])
    tagged = np.isin(np.array(mesh.boundary_tags, dtype=object), list(tags))
    return np.unique(nodes[tagged])

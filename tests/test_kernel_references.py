"""The batched evaluation kernels against the formulations they replaced.

Each reference below is the earlier implementation, kept verbatim in
substance: ``einsum`` contractions over gathered node values, ``np.add.at``
scatters, per-expression ``lambdify``, the loop-built mesh and its adjacency,
the adjacency walk for point location, the row-gather barycentric
coordinates and grid location, the smooth step evaluated everywhere, the
per-edge loop of the transport identity's contour integral, the viscous and
divergence blocks from the physical gradient table, the viscous element
table as a sum with a zero-filled component expansion of the five-operand
gradient-product ``einsum`` and the divergence table as a negated reshape of
one ``einsum``, the quadrature points by one ``einsum`` over the gathered
vertices, the boundary edges from a scan of every triangle (compared as
a set, since the mesh numbers them side by side) with the affine
columns through stacked inverses, the grading ratio after all 200
halvings, the P2 midpoints numbered through ``np.unique``, the
quadrature-point gradients by a five-dimensional broadcast, the step
matrix from the masked dense element table with its mass-type positions by
sparse fancy indexing, the nested dissection on unknowns with its bounds by
``ufunc.at`` (in ``reference_solve``, which the solver tests share), the
GMRES start from one product with all held solutions,
the VTK snapshot written one line at a time (in ``snapshot_reference``,
which the CLI tests share), and the per-step kernels around the sparse LU
before their numpy work was trimmed: the grid cell by a clipped search over
all grid lines, point location with widths from the lines and barycentric
columns stacked into rows, the P2 basis table by column assignments, the
permutations of an LU solve by a scatter, the factor input by the row and
column gathers each factorization made, the mass-type scatter of both
velocity components from one repeated table, and the start-up and two-step
brackets as two functions with their coefficients written out.  Kernels
whose arithmetic is unchanged must agree bit for bit; those that sum in
another order agree within a tolerance fixed from double precision.
"""

import functools
import hashlib
import math

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

import porousflow.characteristics as characteristics
import porousflow.mesh as mesh_module
import porousflow.saddle as saddle
from porousflow import _mms_generated
from porousflow.assembly import (
    assemble_load,
    assemble_mass_phi_rhs,
    divergence_elements,
    make_context,
    pressure_volume_vector,
    viscous_elements,
)
from porousflow.cases import build_case_mesh, build_setup, get_case
from porousflow.fem import (
    P1_SCALAR,
    P2_VECTOR,
    FeField,
    _p2_values,
    edge_quadrature,
    error_norm,
    eval_basis,
    eval_field_many,
    interpolate,
    norm,
    physical_points,
    pressure_space,
    quad_tables,
    tri_quadrature,
    velocity_space,
)
from porousflow.mesh import (
    INSIDE_TOL,
    LayerGrading,
    _cell_index,
    _cell_triangle,
    _rises,
    generate_rect_mesh,
    locate_many,
)
from porousflow.porous import TWO_LAYER_EPS, _smooth_step, builtin_porosity
from porousflow.saddle import (
    Constraints,
    StepSolver,
    _factorize,
    _step_matrix,
    element_dofs,
    nested_dissection,
)
from porousflow.scheme import ProblemSetup, run
from porousflow.verification import transport_identity_check
from porousflow.vtkio import write_snapshot
from diagnostic_forms import gradient_products
from reference_solve import (_scatter_matrix, _vectorize_scalar_local,
                             assemble_a0, assemble_b,
                             nested_dissection_reference)
from snapshot_reference import snapshot_text_reference
from test_characteristics import ab2, lg1
from test_saddle import ORDERING_MESHES, _stress_free

MESHES = {
    "graded-two-layer": build_case_mesh(get_case("two-layer"), n=12),
    "uniform-crossed": generate_rect_mesh((0.0, 1.0), (0.0, 1.0), 5),
}
PROPERTY = settings(max_examples=60, deadline=None, database=None)
fraction = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
interior_points = st.lists(st.tuples(fraction, fraction), min_size=1,
                           max_size=40)
REL = 1e-14


# -- references ------------------------------------------------------------------

def affine_rows(mesh):
    """The mesh's affine inverses (nt, 2, 2) and origins (nt, 2), read back
    from its per-coefficient columns."""
    inv = mesh._affine[:4].T.reshape(-1, 2, 2)
    return inv, mesh._affine[4:].T


def barycentric_reference(mesh, tris, pts):
    inv, _ = affine_rows(mesh)
    p0 = mesh.vertices[mesh.triangles[tris, 0]]
    lam = np.einsum("mij,mj->mi", inv[tris], pts - p0)
    return np.column_stack([1.0 - lam[:, 0] - lam[:, 1], lam])


def barycentric_row_gather_reference(mesh, tris, pts):
    """Barycentric coordinates from gathered rows of the affine tables,
    read back by strided columns."""
    inv, p0 = affine_rows(mesh)
    inv = inv.reshape(-1, 4)[tris]
    d = np.asarray(pts, dtype=float) - p0[tris]
    lam1 = inv[:, 0] * d[:, 0] + inv[:, 1] * d[:, 1]
    lam2 = inv[:, 2] * d[:, 0] + inv[:, 3] * d[:, 1]
    return np.column_stack([1.0 - lam1 - lam2, lam1, lam2])


def locate_reference(mesh, pts):
    """Grid location with the row-gather barycentric coordinates, the
    containment minimum taken along the rows and the outside masks always
    written."""
    xs, ys = mesh.xs, mesh.ys
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    x, y = pts[:, 0], pts[:, 1]
    i = np.clip(np.searchsorted(xs, x, "right") - 1, 0, len(xs) - 2)
    j = np.clip(np.searchsorted(ys, y, "right") - 1, 0, len(ys) - 2)
    run = np.where((i + j) % 2 == 0, x - xs[i], xs[i + 1] - x)
    upper = (y - ys[j]) * (xs[i + 1] - xs[i]) > run * (ys[j + 1] - ys[j])
    tri = 2 * (j * (len(xs) - 1) + i) + upper
    bary = barycentric_row_gather_reference(mesh, tri, pts)
    inside = bary.min(axis=1) >= -INSIDE_TOL
    tri[~inside] = -1
    bary[~inside] = 0.0
    return tri, bary, inside


def smooth_step_reference(s, eps):
    """The regularized Heaviside with its blend evaluated everywhere and
    picked by two nested ``where``."""
    s = np.asarray(s, dtype=float)
    # the sine of a huge or infinite s
    with np.errstate(invalid="ignore", over="ignore"):
        inner = 0.5 + 0.5 * (s / eps + np.sin(np.pi * s / eps) / np.pi)
    return np.where(s >= eps, 1.0, np.where(s <= -eps, 0.0, inner))


def eval_field_many_reference(field_, tris, bary):
    sp = field_.space
    vals, _ = eval_basis(sp.kind, bary)
    coef = field_.node_values()[sp.cell_nodes[tris]]
    value = np.einsum("mn,mnc->mc", vals, coef)
    return value[:, 0] if sp.components == 1 else value


def quad_tables_reference(mesh, basis, rule):
    vals, dlam = eval_basis(basis, rule.points)
    gphys = np.einsum("qnj,tjd->tqnd", dlam, mesh.grad_lambda)
    wxa = rule.weights[None, :] * mesh.areas[:, None]
    qp = np.einsum("qi,tid->tqd", rule.points, mesh.vertices[mesh.triangles])
    return vals, gphys, wxa, qp


def at_quad_reference(field_, rule):
    sp = field_.space
    vals, gphys, wxa, qp = quad_tables_reference(sp.mesh, sp.kind, rule)
    coef = field_.node_values()[sp.cell_nodes]
    u = np.einsum("qn,tnc->tqc", vals, coef)
    g = np.einsum("tqnd,tnc->tqcd", gphys, coef)
    return u, g, wxa, qp


def error_norm_reference(field_, exact, kind, t, exact_grad=None,
                         zero_mean=False):
    sp = field_.space
    u, g, wxa, qp = at_quad_reference(field_, tri_quadrature(5))
    nt, nq = wxa.shape
    flat = qp.reshape(nt * nq, 2)
    diff = u - np.asarray(exact(flat, t)).reshape(nt, nq, -1)
    if zero_mean:
        diff = diff - np.einsum("tq,tqc->c", wxa, diff) / sp.mesh.areas.sum()
    total = float(np.einsum("tq,tqc->", wxa, diff ** 2))
    if kind == "H1":
        ge = np.asarray(exact_grad(flat, t)).reshape(nt, nq, sp.components, 2)
        total += float(np.einsum("tq,tqcd->", wxa, (g - ge) ** 2))
    return math.sqrt(total)


def load_reference(ctx, values):
    wxa = ctx.tables.wxarea
    local = np.einsum("tq,tqc,qn->tnc", wxa, values, ctx.tables.p2_vals)
    nt = len(wxa)
    out = np.zeros(ctx.vspace.dof_count)
    np.add.at(out, ctx.vspace.cell_dofs.ravel(), local.reshape(nt, 12).ravel())
    return out


def a0_reference(ctx):
    _, g, wxa, _ = quad_tables_reference(ctx.mesh, P2_VECTOR,
                                         tri_quadrature(5))
    s = np.einsum("tq,tqnd,tqmd->tnm", wxa, g, g)
    cross = np.einsum("tq,tqnd,tqmc->tncmd", wxa, g, g)
    nt = len(wxa)
    local = ctx.params.mu * (_vectorize_scalar_local(s)
                             + cross.reshape(nt, 12, 12))
    dofs = ctx.vspace.cell_dofs
    n = ctx.vspace.dof_count
    return _scatter_matrix(dofs, dofs, local, (n, n))


def b_reference(ctx):
    rule = tri_quadrature(5)
    p1_vals = quad_tables_reference(ctx.mesh, P1_SCALAR, rule)[0]
    _, g, wxa, _ = quad_tables_reference(ctx.mesh, P2_VECTOR, rule)
    local = -np.einsum("tq,qi,tqnc->tinc", wxa, p1_vals, g)
    nt = len(wxa)
    local = local.reshape(nt, 3, 12)
    return _scatter_matrix(ctx.pspace.cell_dofs, ctx.vspace.cell_dofs, local,
                           (ctx.pspace.dof_count, ctx.vspace.dof_count))


def viscous_elements_reference(ctx):
    """The viscous element table as mu times the sum of the zero-filled
    component expansion of the trace and a reshaped copy of the gradient
    products."""
    cross = gradient_products(ctx)
    s = np.einsum("tncmc->tnm", cross)
    return ctx.params.mu * (_vectorize_scalar_local(s)
                            + cross.reshape(-1, 12, 12))


def divergence_elements_reference(ctx):
    tables = ctx.tables
    ref = np.einsum("q,qi,qnj->inj", tables.weights, tables.p1_vals,
                    tables.p2_dlam)
    local = -np.einsum("t,inj,tjc->tinc", ctx.mesh.areas, ref,
                       ctx.mesh.grad_lambda, optimize=True)
    return local.reshape(-1, 3, 12)


def qpoints_reference(mesh, rule):
    """Physical quadrature points by one einsum over the gathered vertices."""
    return np.einsum("qi,tid->tqd", rule.points, mesh.vertices[mesh.triangles])


def mesh_geometry_reference(mesh):
    """Boundary edges from a scan of every triangle's edges, and the areas,
    affine columns and barycentric gradients through the (nt, 2, 2)
    inverses and a stacked copy of their entries."""
    vertices, tris = mesh.vertices, mesh.triangles
    ends = tris[:, [[1, 2], [2, 0], [0, 1]]].reshape(-1, 2)
    p, q = vertices[ends[:, 0]], vertices[ends[:, 1]]
    on_side = (p == q) & ((p == vertices[0]) | (p == vertices[-1]))
    owned = np.flatnonzero(on_side.any(axis=1))
    pts = vertices[tris]                         # (nt, 3, 2)
    d1 = pts[:, 1] - pts[:, 0]
    d2 = pts[:, 2] - pts[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    inv = np.empty((len(det), 2, 2))
    inv[:, 0, 0] = d2[:, 1]
    inv[:, 0, 1] = -d2[:, 0]
    inv[:, 1, 0] = -d1[:, 1]
    inv[:, 1, 1] = d1[:, 0]
    inv /= det[:, None, None]
    affine = np.stack([inv[:, 0, 0], inv[:, 0, 1], inv[:, 1, 0],
                       inv[:, 1, 1], pts[:, 0, 0], pts[:, 0, 1]])
    grads = np.empty((len(det), 3, 2))
    grads[:, 1] = inv[:, 0]
    grads[:, 2] = inv[:, 1]
    grads[:, 0] = -inv[:, 0] - inv[:, 1]
    return {"boundary_edges": ends[owned], "boundary_edge_tri": owned // 3,
            "areas": 0.5 * det, "_affine": affine, "grad_lambda": grads}


def graded_interval_reference(length, n, first):
    """Graded sizes with the growth ratio bisected 200 times."""
    if n == 1:   # one interval is the whole side, whatever ``first``
        return np.array([length])
    if first * n >= length:
        return np.full(n, length / n)

    def fill(r):
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


def velocity_space_reference(mesh):
    """Midpoint nodes numbered through ``np.unique`` of the sorted edge
    keys: (node coordinates, cell nodes, boundary midpoints)."""
    nv, nt = mesh.n_vertices, mesh.n_triangles
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
    return coords, cell_nodes, midpoints


def grad_at_quad_reference(mesh, field_):
    """Quadrature-point gradients by a broadcast of the (nt, 3, nq, c, 1)
    barycentric derivatives against the (nt, 3, 1, 1, 2) gradients
    ``grad_lambda``."""
    tables = quad_tables(mesh)
    coef = field_.coefficients[field_.space.cell_dofs]
    nt, nq = tables.wxarea.shape
    d = coef @ tables._tables[field_.space.kind][1]
    d = d.reshape(nt, 3, nq, -1, 1)
    gl = mesh.grad_lambda[:, :, None, None, :]             # (nt, 3, 1, 1, 2)
    return d[:, 0] * gl[:, 0] + d[:, 1] * gl[:, 1] + d[:, 2] * gl[:, 2]


# the same-component pairs of a triangle's velocity unknowns, (6, 6, 2):
# scalar nodes n and m of component c sit at 2 n + c and 2 m + c
_MASS_ROWS = 2 * np.arange(6)[:, None, None] + np.arange(2)
_MASS_COLS = 2 * np.arange(6)[None, :, None] + np.arange(2)


def step_matrix_reference(a_elements, b_elements, dofs, free, gauge_vector):
    """The step matrix from the dense (nt, 15, 15) element table, its live
    entries gathered by boolean masks, and the mass-type positions by sparse
    fancy indexing."""
    nt, n = len(dofs), len(free)
    dofs = dofs.astype(np.int32)
    rows = np.broadcast_to(dofs[:, :, None], (nt, 15, 15))
    cols = np.broadcast_to(dofs[:, None, :], (nt, 15, 15))
    on = free[dofs]
    live = on[:, :, None] & on[:, None, :]
    live[:, 12:, 12:] = False
    fixed = np.flatnonzero(~free).astype(np.int32)
    tail = [(np.ones(fixed.size), fixed, fixed)]
    if gauge_vector is not None:
        pressure = np.arange(n - 1 - gauge_vector.size, n - 1, dtype=np.int32)
        border = np.full(gauge_vector.size, n - 1, dtype=np.int32)
        tail += [(gauge_vector, pressure, border),
                 (gauge_vector, border, pressure)]
    m = np.count_nonzero(live)
    size = m + sum(part[0].size for part in tail)
    data, r, c = (np.empty(size), np.empty(size, np.int32),
                  np.empty(size, np.int32))
    data[m:], r[m:], c[m:] = (np.concatenate(x) for x in zip(*tail))
    local = np.zeros((nt, 15, 15))
    local[:, :12, :12] = a_elements
    local[:, 12:, :12] = b_elements
    local[:, :12, 12:] = b_elements.transpose(0, 2, 1)
    data[:m] = local[live]
    r[:m] = rows[live]
    c[:m] = cols[live]
    k = sparse.coo_matrix((data, (r, c)), shape=(n, n)).tocsr()
    mass = live[:, _MASS_ROWS, _MASS_COLS]
    ids = sparse.csr_matrix((np.arange(1.0, k.nnz + 1), k.indices, k.indptr),
                            shape=k.shape)
    found = ids[rows[:, _MASS_ROWS, _MASS_COLS][mass],
                cols[:, _MASS_ROWS, _MASS_COLS][mass]]
    pos = np.full(mass.size, k.nnz)
    pos[mass.ravel()] = np.asarray(found).ravel().astype(np.int64) - 1
    return k, pos


def rect_mesh_reference(x_extent, y_extent, n_divisions):
    """Triangles and boundary edges of the crossed grid from Python loops."""
    nx = n_divisions
    ny = max(2, round(nx * (y_extent[1] - y_extent[0])
                      / (x_extent[1] - x_extent[0])))

    def vid(i, j):
        return j * (nx + 1) + i

    tris = np.empty((2 * nx * ny, 3), dtype=np.int64)
    k = 0
    for j in range(ny):
        for i in range(nx):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            if (i + j) % 2 == 0:
                tris[k], tris[k + 1] = (a, b, c), (a, c, d)
            else:
                tris[k], tris[k + 1] = (a, b, d), (b, c, d)
            k += 2
    owner = {}
    for t in range(len(tris)):
        v = tris[t]
        for kk in range(3):
            key = tuple(sorted((int(v[(kk + 1) % 3]), int(v[(kk + 2) % 3]))))
            owner[key] = t if key not in owner else -1
    b_edges, b_tris = [], []
    for t in range(len(tris)):
        v = tris[t]
        for kk in range(3):
            a, b = int(v[(kk + 1) % 3]), int(v[(kk + 2) % 3])
            if owner[tuple(sorted((a, b)))] == t:
                b_edges.append((a, b))
                b_tris.append(t)
    return tris, np.array(b_edges), np.array(b_tris)


@functools.lru_cache(maxsize=None)
def adjacency_reference(mesh):
    """Triangle neighbours by a per-triangle loop: entry k of a triangle is
    the triangle across its edge opposite vertex k, -1 on the boundary."""
    owner = {}
    neighbors = np.full((mesh.n_triangles, 3), -1, dtype=np.int64)
    for t, v in enumerate(mesh.triangles):
        for k in range(3):
            key = tuple(sorted((int(v[(k + 1) % 3]), int(v[(k + 2) % 3]))))
            if key in owner:
                s, j = owner.pop(key)
                neighbors[t, k] = s
                neighbors[s, j] = t
            else:
                owner[key] = (t, k)
    return neighbors


def exhaustive_reference(mesh, x):
    """Scan all triangles for the point ``x``; lowest containing index wins,
    ``None`` outside."""
    all_tris = np.arange(mesh.n_triangles)
    b = mesh.barycentric(all_tris, np.broadcast_to(x, (mesh.n_triangles, 2)))
    ok = np.flatnonzero(b.min(axis=1) >= -INSIDE_TOL)
    if ok.size == 0:
        return None
    return int(ok[0]), b[ok[0]]


def walk_reference(mesh, pts, hints=None):
    """Point location by walking the adjacency from per-point hint
    triangles toward the point; walks that exhaust their budget fall back to
    the exhaustive scan.  On a convex domain a walk that would cross a
    boundary edge proves the point outside."""
    neighbors = adjacency_reference(mesh)
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
    for _ in range(4 * int(np.sqrt(mesh.n_triangles)) + 64):
        if pending.size == 0:
            break
        b = mesh.barycentric(cur[pending], pts[pending])
        amin = np.argmin(b, axis=1)
        ok = b[np.arange(len(b)), amin] >= -INSIDE_TOL
        done = pending[ok]
        tri_out[done] = cur[done]
        bary_out[done] = b[ok]
        inside[done] = True
        rest = pending[~ok]
        nb = neighbors[cur[rest], amin[~ok]]
        pending = rest[nb >= 0]
        cur[pending] = nb[nb >= 0]
    for i in pending:
        hit = exhaustive_reference(mesh, pts[i])
        if hit is not None:
            tri_out[i], bary_out[i] = hit
            inside[i] = True
    return tri_out, bary_out, inside


def lambdify_reference(args, exprs, shape):
    import sympy as sp
    fns = [sp.lambdify(args, e, modules="numpy") for e in exprs]

    def call(pts, t):
        x, y = pts[:, 0], pts[:, 1]
        cols = [np.broadcast_to(np.asarray(f(x, y, t), dtype=float), x.shape)
                for f in fns]
        return np.stack(cols, axis=-1).reshape((len(pts),) + shape)

    return call


def transport_boundary_reference(u, porosity, extents, n_divisions, degree):
    """The boundary term of the transport identity, one edge at a time, and
    the integral of its absolute value."""
    mesh = generate_rect_mesh(extents[0], extents[1], n_divisions)
    s, w = edge_quadrature((degree + 2) // 2)
    boundary = mass = 0.0
    for a, b in mesh.boundary_edges:
        pa, pb = mesh.vertices[a], mesh.vertices[b]
        d = pb - pa
        length = float(np.hypot(*d))
        normal = np.array([d[1], -d[0]]) / length
        pts = pa[None, :] + s[:, None] * d[None, :]
        ue = np.asarray(u.value(pts), dtype=float)
        phie = np.asarray(porosity.value(pts), dtype=float)
        integrand = 0.5 * (ue ** 2).sum(axis=1) / phie * (ue @ normal)
        boundary += length * float(w @ integrand)
        mass += length * float(w @ np.abs(integrand))
    return boundary, mass


# -- the per-step kernels before their numpy work was trimmed, verbatim
# (``self`` read as ``mesh`` or ``solver``, the solver's mass-type positions
# passed in) --------------------------------------------------------------

def bary_columns_reference(mesh, tris, x, y):
    """The three barycentric coordinates of the points ``(x, y)`` in
    triangles ``tris``, as separate (m,) arrays."""
    tris = np.asarray(tris, dtype=np.int64)
    c = mesh._affine
    dx, dy = x - c[4].take(tris), y - c[5].take(tris)
    lam1 = c[0].take(tris) * dx + c[1].take(tris) * dy
    lam2 = c[2].take(tris) * dx + c[3].take(tris) * dy
    return 1.0 - lam1 - lam2, lam1, lam2


def cell_index_clipped_reference(lines, v):
    """Grid cell along one axis of each coordinate ``v``, clipped."""
    return np.clip(np.searchsorted(lines, v, "right") - 1, 0, len(lines) - 2)


def locate_many_clipped_reference(mesh, pts):
    """Locate many points by grid arithmetic.

    Returns ``(tri, bary, inside)`` where ``tri`` is -1 (and ``bary`` zero)
    for points outside the closed domain.  A point on an edge or a vertex
    is located in one of the triangles that share it.
    """
    xs, ys = mesh.xs, mesh.ys
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    x, y = pts[:, 0], pts[:, 1]
    i, j = (cell_index_clipped_reference(xs, x),
            cell_index_clipped_reference(ys, y))
    x0, x1 = xs.take(i), xs[1:].take(i)
    run = np.where(_rises(i, j), x - x0, x1 - x)
    upper = (y - ys.take(j)) * (x1 - x0) > run * (ys[1:].take(j) - ys.take(j))
    tri = _cell_triangle(i, j, len(xs) - 1, upper)
    lam = bary_columns_reference(mesh, tri, x, y)
    inside = np.minimum(np.minimum(lam[0], lam[1]), lam[2]) >= -INSIDE_TOL
    bary = np.column_stack(lam)
    if not inside.all():
        outside = ~inside
        tri[outside] = -1
        bary[outside] = 0.0
    return tri, bary, inside


def p2_values_reference(b: np.ndarray) -> np.ndarray:
    """P2 nodal basis values at barycentric points ``b`` (m, 3), (m, 6)."""
    vals = np.empty((len(b), 6))
    for i in range(3):
        vals[:, i] = b[:, i] * (2.0 * b[:, i] - 1.0)
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        vals[:, 3 + k] = 4.0 * b[:, i] * b[:, j]
    return vals


def lu_solve_scatter_reference(lu, perm, b):
    """``x`` with ``k x = b`` by the single-precision LU of
    ``k^T[perm][:, perm]``, applied transposed."""
    x = np.empty_like(b)
    x[perm] = lu.solve(b[perm].astype(np.float32), trans="T")
    return x


def dissection_order_reference(k, position, pos=None):
    """The CSR matrix ``k`` with unknown ``i`` at place ``position[i]``, by
    the gathers each factorization made, ``k[perm][:, perm].tocsc()`` with
    ``perm`` the unknown at each place; with ``pos``, also those positions
    in ``k.data`` moved to the CSC's (one past the end stays so)."""
    perm = np.argsort(position)
    ordered = k[perm][:, perm].tocsc()
    if pos is None:
        return ordered
    ids = sparse.csr_matrix((np.arange(1.0, k.nnz + 1), k.indices, k.indptr),
                            shape=k.shape)[perm][:, perm].tocsc()
    moved = np.full(k.nnz + 1, k.nnz)
    moved[ids.data.astype(np.int64) - 1] = np.arange(k.nnz)
    return ordered, moved[pos]


def mass_weighted_reference(k, pos, local):
    """``k`` with the element matrices ``local`` (nt, 36) of the mass-type
    weight scattered, both velocity components from one repeated table, at
    the mass-type positions ``pos`` of both components in ``k.data``,
    ``(nt, 6, 6, 2)`` flattened, as :func:`step_matrix_reference` gives
    them."""
    data = np.bincount(pos, np.repeat(local.ravel(), 2),
                       minlength=k.nnz + 1)[:k.nnz]
    data += k.data
    return type(k)((data, k.indices, k.indptr), shape=k.shape)


def assemble_repeat_reference(solver, pos, weight, rhs, values):
    """Constrained matrix and right-hand side for the mass-type weight
    ``weight`` (nt, nq), the unconstrained ``rhs`` and the values of the
    fixed unknowns, in the solver's numbering, with ``pos`` the mass-type
    positions of both components in its data array (:func:`mass_positions`)."""
    tables = solver.ctx.tables
    local = (tables.wxarea * weight) @ tables.p2_products   # (nt, 36)
    k = mass_weighted_reference(solver._constant, pos, local)
    n_fixed = solver.constraints.fixed.size
    if n_fixed:
        lift = np.zeros(len(rhs))
        lift[:n_fixed] = values
        x = lift[solver._lift_dofs[:, :12]]                     # (m, 12)
        out = (solver._lift_blocks @ x[:, :, None])[:, :, 0]    # (m, 15)
        out[:, :12] += (local[solver._lift_elems].reshape(-1, 6, 6)
                        @ x.reshape(-1, 6, 2)).reshape(-1, 12)
        rhs = rhs - np.bincount(solver._lift_dofs.ravel(), out.ravel(),
                                minlength=len(rhs))
        rhs[:n_fixed] = values
    return k, rhs


def lg1_material_terms_reference(u0, porosity, tau, points, theta_at,
                                 phi_at, g0=None):
    """The start-up step's composed term ``phi(x) (w0 o X1(w0, tau))(x)``,
    ``w0 = theta/phi`` from the values ``theta_at`` of ``u0`` at the
    points, as its own function."""
    w, clamped = characteristics._composed_average_velocity(
        points, u0, porosity, theta_at / phi_at[:, None], tau, g0)
    return phi_at[:, None] * w, clamped


def ab2_material_terms_reference(u_prev, u_prev2, porosity, tau, points,
                                 theta_at, phi_at, g_prev=None,
                                 g_prev2=None):
    """A general step's bracket ``phi(x) [4 (w_prev o X1(w*, tau))(x) -
    (w_prev2 o X1(w*, 2 tau))(x)]``, as its own function with its
    coefficients written out."""
    w_star = theta_at / phi_at[:, None]
    w1, c1 = characteristics._composed_average_velocity(
        points, u_prev, porosity, w_star, tau, g_prev)
    w2, c2 = characteristics._composed_average_velocity(
        points, u_prev2, porosity, w_star, 2.0 * tau, g_prev2)
    return phi_at[:, None] * (4.0 * w1 - w2), c1 + c2


def assert_rel(value, reference, rel):
    scale = np.abs(reference).max()
    assert np.abs(np.asarray(value) - reference).max() <= rel * scale


def assert_same_bytes(value, reference):
    """Equal arrays to the last bit, signed zeros and NaN payloads
    included."""
    assert value.shape == reference.shape and value.dtype == reference.dtype
    assert value.tobytes() == reference.tobytes()


def assert_same_boundary(edges, owners, ref_edges, ref_owners):
    """The same boundary edges in any order, each oriented the same way and
    owned by the same triangle: the (edge, owner) pairs keyed by the
    edge's sorted ends, index arrays with their dtype."""
    for value, reference in ((edges, ref_edges), (owners, ref_owners)):
        assert value.shape == reference.shape
        assert value.dtype == reference.dtype

    def keyed(ends, tris):
        return {tuple(sorted(e)): (tuple(e), t)
                for e, t in zip(ends.tolist(), tris.tolist())}

    pairs = keyed(edges, owners)
    assert len(pairs) == len(edges) and pairs == keyed(ref_edges, ref_owners)


# -- bitwise kernels ----------------------------------------------------------------

def located(mesh, rows):
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    pts = lo + np.array(rows, dtype=float) * (hi - lo)
    tri, bary, inside = locate_many(mesh, pts)
    assert inside.all()
    return pts, tri, bary


@pytest.mark.parametrize("name", sorted(MESHES))
@PROPERTY
@given(rows=interior_points)
def test_barycentric_is_bitwise_the_einsum_form(name, rows):
    mesh = MESHES[name]
    pts, tri, _ = located(mesh, rows)
    # the containing triangle and a neighbour (the point lies outside it)
    nb = adjacency_reference(mesh)[tri, 0]
    nb = np.where(nb >= 0, nb, tri)
    for tris in (tri, nb):
        assert np.array_equal(mesh.barycentric(tris, pts),
                              barycentric_reference(mesh, tris, pts))


@pytest.mark.parametrize("name", sorted(MESHES))
@PROPERTY
@given(rows=interior_points, seed=st.integers(0, 2 ** 32 - 1))
def test_eval_field_many_is_bitwise_the_einsum_form(name, rows, seed):
    mesh = MESHES[name]
    _, tri, bary = located(mesh, rows)
    rng = np.random.default_rng(seed)
    for space in (velocity_space(mesh), pressure_space(mesh)):
        f = FeField(space, rng.normal(size=space.dof_count))
        assert np.array_equal(eval_field_many(f, tri, bary),
                              eval_field_many_reference(f, tri, bary))


@pytest.mark.parametrize("x_extent, y_extent, n, grading", [
    ((0.0, 3.0), (0.0, 1.0), 60, LayerGrading(0.5, 1.0 / 720.0)),
    ((0.0, 3.0), (0.0, 1.0), 7, None),
    ((0.0, math.pi), (0.0, math.pi), 32, None),
    ((0.0, 3.0 * math.pi), (0.0, math.pi), 80, None),
])
def test_rect_mesh_matches_the_loop_construction(x_extent, y_extent, n,
                                                 grading):
    m = generate_rect_mesh(x_extent, y_extent, n, grading)
    tris, b_edges, b_tris = rect_mesh_reference(x_extent, y_extent, n)
    assert np.array_equal(m.triangles, tris)
    assert_same_boundary(m.boundary_edges, m.boundary_edge_tri, b_edges,
                         b_tris)


@st.composite
def grid_points(draw, mesh):
    """Points in the cells of a tensor-grid mesh, some on its grid lines or
    cell diagonals, some pushed out through a side of the rectangle by a
    multiple of ``INSIDE_TOL`` times the cell size."""
    xs, ys = mesh.xs, mesh.ys
    i = draw(st.integers(0, len(xs) - 2))
    j = draw(st.integers(0, len(ys) - 2))
    edge_or_inner = st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                              st.floats(0.0, 1.0))
    fx, fy = draw(edge_or_inner), draw(edge_or_inner)
    if draw(st.booleans()):  # on the cell diagonal
        fy = fx if (i + j) % 2 == 0 else 1.0 - fx
    x = xs[i] + fx * (xs[i + 1] - xs[i])
    y = ys[j] + fy * (ys[j + 1] - ys[j])
    side = draw(st.sampled_from([None, "left", "right", "bottom", "top"]))
    push = draw(st.floats(0.0, 3.0)) * INSIDE_TOL
    if side == "left":
        x = xs[0] - push * (xs[1] - xs[0])
    elif side == "right":
        x = xs[-1] + push * (xs[-1] - xs[-2])
    elif side == "bottom":
        y = ys[0] - push * (ys[1] - ys[0])
    elif side == "top":
        y = ys[-1] + push * (ys[-1] - ys[-2])
    return x, y


@pytest.mark.parametrize("name", sorted(MESHES))
@PROPERTY
@given(data=st.data())
def test_grid_location_matches_the_walk(name, data):
    mesh = MESHES[name]
    pts = np.array(data.draw(st.lists(grid_points(mesh), min_size=1,
                                      max_size=40)))
    tri, bary, inside = locate_many(mesh, pts)
    tri_w, bary_w, inside_w = walk_reference(mesh, pts)
    assert np.array_equal(inside, inside_w)
    assert np.array_equal(tri[~inside], tri_w[~inside])
    same = tri == tri_w
    assert np.array_equal(bary[same], bary_w[same])
    # a point on an edge or a vertex: both triangles contain it
    for t in (tri[~same], tri_w[~same]):
        assert (mesh.barycentric(t, pts[~same]).min(axis=1)
                >= -INSIDE_TOL).all()


@pytest.mark.parametrize("name", sorted(MESHES))
@PROPERTY
@given(data=st.data())
def test_location_is_bitwise_the_row_gather_form(name, data):
    """``locate_many`` and ``barycentric`` against the row-gather
    formulation, for points inside, on and just outside the domain and far
    outside it, and ``barycentric`` in arbitrary (mostly non-containing)
    triangles."""
    mesh = MESHES[name]
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    far = st.tuples(st.floats(-1.0, 2.0), st.floats(-1.0, 2.0)).map(
        lambda f: tuple(lo + np.array(f) * (hi - lo)))
    pts = np.array(data.draw(st.lists(st.one_of(grid_points(mesh), far),
                                      min_size=1, max_size=40)))
    for got, ref in zip(locate_many(mesh, pts), locate_reference(mesh, pts)):
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)
    tris = np.array(data.draw(st.lists(
        st.integers(0, mesh.n_triangles - 1), min_size=len(pts),
        max_size=len(pts))))
    assert np.array_equal(mesh.barycentric(tris, pts),
                          barycentric_row_gather_reference(mesh, tris, pts))


EDGES_OF_THE_BAND = [TWO_LAYER_EPS, -TWO_LAYER_EPS,
                     np.nextafter(TWO_LAYER_EPS, 0.0),
                     np.nextafter(-TWO_LAYER_EPS, 0.0),
                     np.nextafter(TWO_LAYER_EPS, 1.0),
                     np.nextafter(-TWO_LAYER_EPS, -1.0),
                     0.0, -0.0, np.nan, np.inf, -np.inf]


@PROPERTY
@given(s=st.lists(st.one_of(
    st.sampled_from(EDGES_OF_THE_BAND),
    st.floats(-2.0 * TWO_LAYER_EPS, 2.0 * TWO_LAYER_EPS),
    st.floats(allow_nan=True, allow_infinity=True)), max_size=30))
def test_banded_smooth_step_is_bitwise_the_three_branch_form(s):
    eps = TWO_LAYER_EPS
    assert np.array_equal(_smooth_step(s, eps),
                          smooth_step_reference(s, eps), equal_nan=True)


def test_smooth_step_at_the_band_edges_and_non_finite_values():
    eps = TWO_LAYER_EPS
    s = np.array(EDGES_OF_THE_BAND)
    got = _smooth_step(s, eps)
    assert np.array_equal(got, smooth_step_reference(s, eps), equal_nan=True)
    assert list(got[[0, 1, 4, 5, 9, 10]]) == [1.0, 0.0, 1.0, 0.0, 1.0, 0.0]
    assert np.isnan(got[8]) and got[6] == 0.5
    for v in EDGES_OF_THE_BAND:  # 0-d input keeps its shape
        assert np.array_equal(_smooth_step(v, eps),
                              smooth_step_reference(v, eps), equal_nan=True)


@pytest.mark.parametrize("seed", [0, 1])
def test_snapshot_text_is_the_line_by_line_text(seed, tmp_path):
    case = get_case("two-layer")
    mesh, ctx, _ = build_setup(case, 2)
    rng = np.random.default_rng(seed)
    u = rng.normal(size=ctx.vspace.dof_count) \
        * 10.0 ** rng.integers(-150, 150, ctx.vspace.dof_count)
    u[:4] = [0.0, -0.0, np.inf, np.nan]
    u_field = FeField(ctx.vspace, u)
    p_field = FeField(ctx.pspace, rng.normal(size=ctx.pspace.dof_count))
    path = write_snapshot(u_field, p_field, case.porosity, mesh, 0.125,
                          tmp_path / "snapshot.vtk")
    assert path.read_text() == snapshot_text_reference(
        u_field, p_field, case.porosity, mesh, 0.125)


# the step solver's meshes: the three ordering meshes, or a graded or
# uniform rectangle whose sides are each Dirichlet or stress-free
side_kinds = st.lists(st.booleans(), min_size=4, max_size=4)
solver_meshes = st.one_of(
    st.tuples(st.sampled_from(sorted(ORDERING_MESHES)), st.none()),
    st.tuples(st.sampled_from(["graded", "uniform"]), side_kinds))


def solver_mesh(kind, kinds, n):
    if kinds is None:
        return ORDERING_MESHES[kind][0](n)
    case = get_case("two-layer")
    graded = kind == "graded"
    x_extent, y_extent = ((case.x_extent, case.y_extent) if graded
                          else ((0.0, 1.0), (0.0, 1.0)))
    return generate_rect_mesh(x_extent, y_extent, n,
                              grading=case.grading if graded else None,
                              stress_free=_stress_free(kinds))


@settings(max_examples=60, deadline=None, database=None)
@given(layout=solver_meshes, n=st.integers(2, 16))
def test_step_solver_build_is_bitwise_the_masked_unknown_form(layout, n):
    # the same dissection order, pattern and mass-type positions, and the
    # same constant data to the last bit: each row takes its entries in the
    # same sequence through the same conversion, and the reference's sums
    # of the transposed matrix, whose viscous blocks are the transposed
    # table's, renumbered by the gathers each factorization made, are the
    # CSC's
    ctx = make_context(solver_mesh(*layout, n),
                       builtin_porosity("constant", value=0.6),
                       get_case("two-layer").params)
    table = Constraints.build(ctx)
    args = step_matrix_args(ctx, table, viscous_elements(ctx),
                            divergence_elements(ctx))
    position = nested_dissection(ctx, table.fixed, table.gauge)
    assert np.array_equal(position, nested_dissection_reference(
        ctx, table.fixed, table.gauge)[0])
    k, first = _step_matrix(*args, position)
    k_ref, pos_ref = step_matrix_reference(args[0].transpose(0, 2, 1),
                                           *args[1:])
    k_ref, pos_ref = dissection_order_reference(k_ref, position, pos_ref)
    assert k.format == "csc" and k.shape == k_ref.shape
    assert np.array_equal(k.indptr, k_ref.indptr)
    assert np.array_equal(k.indices, k_ref.indices)
    assert k.data.tobytes() == k_ref.data.tobytes()
    first_ref, second_ref = pos_ref.reshape(-1, 2).T
    assert_same_bytes(first, first_ref)
    # the solver holds the first positions and the copy pairs: each stored
    # first position, ascending, mapped to the reference's second position
    solver = StepSolver(ctx, args[0], args[1], table)
    assert_same_bytes(solver._first, first_ref)
    stored = first_ref < k_ref.nnz
    pairs_from, at = np.unique(first_ref[stored], return_index=True)
    pairs_to = second_ref[stored][at]
    assert np.array_equal(
        pairs_to[np.searchsorted(pairs_from, first_ref[stored])],
        second_ref[stored])
    assert_same_bytes(solver._second_from, pairs_from)
    assert_same_bytes(solver._second_to, pairs_to)
    assert solver._constant.data.tobytes() == k.data.tobytes()


def assert_element_tables_are_the_expanded_forms(ctx):
    assert_same_bytes(viscous_elements(ctx), viscous_elements_reference(ctx))
    assert_same_bytes(divergence_elements(ctx),
                      divergence_elements_reference(ctx))


def assert_set_up_arrays_are_the_parent_forms(mesh):
    # the mesh's geometry, the velocity space's nodes and the quadrature
    # points, each to the last bit, index arrays with their dtype; the
    # boundary edges, numbered side by side where the scan numbers them by
    # triangle, as (edge, owner) pairs in any order
    geometry = mesh_geometry_reference(mesh)
    assert_same_boundary(mesh.boundary_edges, mesh.boundary_edge_tri,
                         geometry.pop("boundary_edges"),
                         geometry.pop("boundary_edge_tri"))
    for name, reference in geometry.items():
        assert_same_bytes(getattr(mesh, name), reference)
    space = velocity_space(mesh)
    for value, reference in zip((space.node_coords, space.cell_nodes,
                                 space.boundary_midpoints),
                                velocity_space_reference(mesh)):
        assert_same_bytes(value, reference)
    assert_same_bytes(quad_tables(mesh).qpoints,
                      qpoints_reference(mesh, tri_quadrature(5)))


@settings(max_examples=60, deadline=None, database=None)
@given(layout=solver_meshes, n=st.integers(2, 16))
def test_element_tables_are_bytewise_the_expanded_forms(layout, n):
    assert_element_tables_are_the_expanded_forms(make_context(
        solver_mesh(*layout, n), builtin_porosity("constant", value=0.6),
        get_case("two-layer").params))


@pytest.fixture(scope="module")
def benchmark_contexts(mms_case):
    # the meshes of the two benchmark workloads, two-layer n=60 and the
    # largest level of the manufactured-solution study, and sinusoidal n=120
    return [build_setup(get_case("two-layer"), 60)[1],
            build_setup(get_case("sinusoidal"), 120)[1],
            make_context(generate_rect_mesh((0.0, math.pi), (0.0, math.pi),
                                            32),
                         mms_case.porosity, mms_case.params)]


def test_benchmark_element_tables_are_bytewise_the_expanded_forms(
        benchmark_contexts):
    for ctx in benchmark_contexts:
        assert_element_tables_are_the_expanded_forms(ctx)


def test_benchmark_set_up_arrays_are_bytewise_the_parent_forms(
        benchmark_contexts):
    for ctx in benchmark_contexts:
        assert_set_up_arrays_are_the_parent_forms(ctx.mesh)


@settings(max_examples=60, deadline=None, database=None)
@given(kind=st.sampled_from(sorted(ORDERING_MESHES)), n=st.integers(2, 16))
def test_set_up_arrays_are_bytewise_the_parent_forms(kind, n):
    assert_set_up_arrays_are_the_parent_forms(ORDERING_MESHES[kind][0](n))


@PROPERTY
@given(length=st.floats(1e-3, 1e3), n=st.integers(1, 400),
       share=st.floats(1e-6, 1.0))
# one interval, whose size a rescaling of ``first`` would round to
# 3.0000000000000004
@example(length=3.0, n=1, share=0.177734375)
def test_graded_interval_is_bitwise_the_full_bisection(length, n, share):
    # the bisection stops once no float lies between the ends of its
    # bracket, with the ratio of all 200 halvings
    first = share * length / n
    assert_same_bytes(mesh_module._graded_interval(length, n, first),
                      graded_interval_reference(length, n, first))


@pytest.mark.parametrize("degree", [5, 9])
def test_physical_points_are_bitwise_the_einsum_form(degree):
    # the quadrature points of the tables and of the transport check
    rule = tri_quadrature(degree)
    for mesh in (MESHES["graded-two-layer"],
                 generate_rect_mesh((0.0, math.pi), (0.0, math.pi), 64)):
        assert_same_bytes(physical_points(mesh, rule.points),
                          qpoints_reference(mesh, rule))


@settings(max_examples=60, deadline=None, database=None)
@given(kind=st.sampled_from(sorted(ORDERING_MESHES)), n=st.integers(2, 16),
       seed=st.integers(0, 2 ** 32 - 1))
def test_quadrature_point_gradients_are_bytewise_the_broadcast_form(kind, n,
                                                                    seed):
    mesh = ORDERING_MESHES[kind][0](n)
    rng = np.random.default_rng(seed)
    for space in (velocity_space(mesh), pressure_space(mesh)):
        coef = rng.normal(size=space.dof_count) \
            * 10.0 ** rng.integers(-8, 8, space.dof_count)
        coef[rng.random(space.dof_count) < 0.2] = -0.0
        f = FeField(space, coef)
        assert_same_bytes(quad_tables(mesh).grad_at_quad(f),
                          grad_at_quad_reference(mesh, f))


# -- reordered sums ---------------------------------------------------------------

@settings(max_examples=30, deadline=None, database=None)
@given(kind=st.sampled_from(sorted(ORDERING_MESHES)), n=st.integers(4, 16))
def test_constant_blocks_match_the_gradient_table(kind, n):
    make_mesh, _ = ORDERING_MESHES[kind]
    ctx = make_context(make_mesh(n),
                       builtin_porosity("constant", value=0.6),
                       get_case("two-layer").params)
    for block, reference in ((assemble_a0(ctx), a0_reference(ctx)),
                             (assemble_b(ctx), b_reference(ctx))):
        assert np.array_equal(block.indptr, reference.indptr)
        assert np.array_equal(block.indices, reference.indices)
        assert_rel(block.data, reference.data, REL)


@pytest.fixture(scope="module")
def two_layer():
    case = get_case("two-layer")
    _, ctx, _ = build_setup(case, 12)
    rng = np.random.default_rng(11)
    u = FeField(ctx.vspace, rng.normal(size=ctx.vspace.dof_count))
    p = FeField(ctx.pspace, rng.normal(size=ctx.pspace.dof_count))
    return ctx, u, p


def test_quadrature_point_fields_match_the_einsum_forms(two_layer):
    ctx, u, p = two_layer
    for f in (u, p):
        ref, _, wxa, _ = at_quad_reference(f, tri_quadrature(5))
        if f is u:
            assert_rel(ctx.tables.at_quad(f), ref, REL)
        ref_l2 = math.sqrt(float(np.einsum("tq,tqc->", wxa, ref ** 2)))
        assert norm(f, "L2") == pytest.approx(ref_l2, rel=REL)


def test_right_hand_sides_match_the_einsum_forms(two_layer):
    ctx, u, _ = two_layer
    nt, nq = ctx.tables.wxarea.shape
    bracket = np.sin(3.0 * ctx.tables.qpoints) + 0.5

    scale = 0.5 * ctx.params.rho / 0.1
    rhs = assemble_mass_phi_rhs(bracket.reshape(-1, 2), ctx, scale)
    assert_rel(rhs, scale * load_reference(ctx, bracket), REL)

    def force(pts, t):
        return np.column_stack([np.cos(pts[:, 0] * t), pts[:, 1] ** 2])

    ref = load_reference(ctx, force(ctx.tables.qpoints_flat,
                                    0.7).reshape(nt, nq, 2))
    assert_rel(assemble_load(force, ctx, 0.7), ref, REL)
    # the load of the velocity field u: its values at the context's points
    u_at = ctx.tables.at_quad(u).reshape(nt * nq, 2)
    assert_rel(assemble_load(lambda pts: u_at, ctx), load_reference(
        ctx, at_quad_reference(u, tri_quadrature(5))[0]), REL)


def test_contour_integrals_match_the_edge_loops(mms_case):
    field = mms_case.velocity_field(0.3)
    for extents, n in ((((0.0, math.pi), (0.0, math.pi)), 8),
                       (((0.0, 2.0), (0.0, 1.0)), 6)):
        report = transport_identity_check(field, mms_case.porosity, extents,
                                          n)
        boundary, mass = transport_boundary_reference(
            field, mms_case.porosity, extents, n, 9)
        assert abs(report.boundary_term - boundary) <= REL * mass


def test_error_norms_match_the_rebuilt_tables(mms_case):
    mesh = generate_rect_mesh((0.0, math.pi), (0.0, math.pi), 8)
    rng = np.random.default_rng(5)
    u = interpolate(velocity_space(mesh), mms_case.u, 0.3)
    u.coefficients += 1e-3 * rng.normal(size=u.coefficients.shape)
    p = interpolate(pressure_space(mesh), mms_case.p, 0.3)
    p.coefficients += 1e-3 * rng.normal(size=p.coefficients.shape)
    t = 0.31
    assert error_norm(u, mms_case.u, "H1", t, exact_grad=mms_case.grad_u) \
        == pytest.approx(error_norm_reference(
            u, mms_case.u, "H1", t, mms_case.grad_u), rel=1e-13)
    assert error_norm(u, mms_case.u, "L2", t) == pytest.approx(
        error_norm_reference(u, mms_case.u, "L2", t), rel=1e-13)
    assert error_norm(p, mms_case.p, "L2", t, zero_mean=True) \
        == pytest.approx(error_norm_reference(
            p, mms_case.p, "L2", t, zero_mean=True), rel=1e-13)
    for f in (u, p):
        ref_u, ref_g, wxa, _ = at_quad_reference(f, tri_quadrature(5))
        semi = float(np.einsum("tq,tqcd->", wxa, ref_g ** 2))
        l2 = float(np.einsum("tq,tqc->", wxa, ref_u ** 2))
        tables = quad_tables(mesh)
        got = float(tables.integrate(tables.grad_at_quad(f) ** 2).sum())
        assert math.sqrt(got) == pytest.approx(math.sqrt(semi), rel=1e-13)
        assert norm(f, "H1") == pytest.approx(math.sqrt(semi + l2), rel=1e-13)


def test_mms_stacks_match_per_expression_lambdify(mms_case):
    """The case's functions, which combine the separated spatial factors of
    the generated module with powers of e^{-2t}, against each expression of
    the derivation in ``(x, y, t)``."""
    import sympy as sp

    from mms_derivation import derive
    args, stacks = derive()
    assert [(name, shape) for name, _, shape in stacks] == [
        ("u", (2,)), ("grad_u", (2, 2)), ("p", ()), ("f", (2,))]
    assert all(isinstance(a, sp.Symbol) for a in args)
    mesh = generate_rect_mesh((0.0, math.pi), (0.0, math.pi), 6)
    pts = mesh.vertices[mesh.triangles].mean(axis=1)
    for name, exprs, shape in stacks:
        terms = getattr(_mms_generated, name)(pts[:, 0], pts[:, 1])
        assert [k for k, _ in terms] == ([1, 2] if name == "f" else [1])
        assert all(len(comps) == len(exprs) for _, comps in terms)
        ref = lambdify_reference(args, exprs, shape)
        for t in (0.0, 0.45):
            value = getattr(mms_case, name)(pts, t)
            assert value.shape == (len(pts),) + shape
            assert_rel(value, ref(pts, t), 1e-13)


# -- material terms --------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(4))
def test_material_terms_are_bitwise_the_per_kind_brackets(seed):
    """The bracket of both kinds of step, through ``material_terms`` with
    the scheme's tables, equals the former start-up and two-step functions
    bit for bit on random fields, feet clamped on Dirichlet and on
    stress-free edges included."""
    rng = np.random.default_rng(seed)
    mesh = generate_rect_mesh((0.0, 1.0), (0.0, 1.0), 6,
                              stress_free=("right",))
    phi = builtin_porosity("sinusoidal")
    space = velocity_space(mesh)
    u1, u2 = (FeField(space, rng.normal(size=space.dof_count))
              for _ in range(2))
    # -0.0 at the Dirichlet feet: a sum started from 0.0 would give +0.0
    g1 = lambda pts: np.column_stack([-0.0 * pts[:, 0], pts[:, 1] + 5.0])
    g2 = lambda pts: np.column_stack([-pts[:, 1], pts[:, 0]]) - 5.0
    pts = rng.uniform(0.0, 1.0, (300, 2))
    theta = rng.normal(size=(300, 2))
    phi_at = np.asarray(phi.value(pts))
    for value, reference in (
            (lg1(u1, phi, 0.1, pts, theta, phi_at, g0=g1),
             lg1_material_terms_reference(u1, phi, 0.1, pts, theta, phi_at,
                                          g0=g1)),
            (ab2(u1, u2, phi, 0.1, pts, theta, phi_at, g_prev=g1,
                 g_prev2=g2),
             ab2_material_terms_reference(u1, u2, phi, 0.1, pts, theta,
                                          phi_at, g_prev=g1, g_prev2=g2))):
        assert_same_bytes(value[0], reference[0])
        assert value[1] == reference[1] > 0
    # the 2 tau feet leave through both kinds of edge
    feet = pts - 0.2 * theta / phi_at[:, None]
    outside = ~locate_many(mesh, feet)[2]
    hit = characteristics.boundary_exit_point(mesh, pts[outside],
                                              feet[outside])
    assert {True, False} <= set(mesh.boundary_dirichlet[hit.edges].tolist())


# -- location in a run ---------------------------------------------------------------------

def test_tau_foot_walk_start_clamps_the_same_feet(monkeypatch):
    """The clamped feet of every step equal those of the same run with its
    feet located by the reference walk, started at the points' own
    triangles."""
    case = get_case("sinusoidal")
    _, ctx, setup = build_setup(case, 40, t_final=8.5 * case.nominal_h(40))

    def clamped(setup):
        counts = []
        run(setup, [lambda k, t, u, p, d: counts.append(d["clamped_feet"])])
        return counts

    counts = clamped(setup)
    nt, nq = ctx.tables.wxarea.shape
    own = np.repeat(np.arange(nt), nq)

    def walk_from_own_triangles(mesh, pts):
        return walk_reference(mesh, pts, own)

    monkeypatch.setattr(characteristics, "locate_many",
                        walk_from_own_triangles)
    assert counts == clamped(setup)
    assert len(counts) == 8 and sum(counts) > 0


# -- solver start ------------------------------------------------------------------------

def test_krylov_start_is_bitwise_the_product_with_all_columns(monkeypatch):
    """Every solve's GMRES start equals the one formed with the product of
    the step matrix and all held solutions at once (zero before the first
    solve)."""
    starts = []
    start = saddle._start

    def recording(k, past, rhs):
        x0 = start(k, past, rhs)
        reference = past.T @ np.linalg.lstsq(k @ past.T, rhs, rcond=None)[0]
        starts.append((len(past), x0, reference))
        return x0

    monkeypatch.setattr(saddle, "_start", recording)
    case = get_case("sinusoidal")
    run(build_setup(case, 12, t_final=6.5 * case.nominal_h(12))[2])
    # the first start comes from an empty ring, and the ring wraps
    assert starts[0][0] == 0 and not starts[0][1].any()
    assert len(starts) >= 5
    assert max(held for held, _, _ in starts) == saddle.GUESS_HISTORY
    for _, x0, reference in starts:
        assert_same_bytes(x0, reference)


# -- the trimmed per-step kernels ---------------------------------------------------------

def line_values(lines):
    """Coordinates at, just beside and far from the grid ``lines``, signed
    zeros, infinities and NaN."""
    span = lines[-1] - lines[0]
    near = st.sampled_from(lines).flatmap(lambda v: st.sampled_from(
        [v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)]))
    return st.one_of(near,
                     st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
                     st.floats(lines[0] - span, lines[-1] + span),
                     st.floats(allow_nan=True, allow_infinity=True))


GRID_LINES = [MESHES[name].xs for name in sorted(MESHES)] \
    + [MESHES[name].ys for name in sorted(MESHES)] \
    + [np.array([0.0, 1.0]), np.array([-1.0, 0.0, 2.5])]


@pytest.mark.parametrize("lines", GRID_LINES, ids=range(len(GRID_LINES)))
@PROPERTY
@given(data=st.data())
def test_cell_index_is_the_clipped_search(lines, data):
    v = np.array(data.draw(st.lists(line_values(lines), min_size=1,
                                    max_size=40)))
    got, ref = _cell_index(lines, v), cell_index_clipped_reference(lines, v)
    assert got.dtype == ref.dtype and np.array_equal(got, ref)


@pytest.mark.parametrize("lines", GRID_LINES, ids=range(len(GRID_LINES)))
def test_cell_index_at_signed_zeros_infinities_and_nan(lines):
    v = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, lines[0], lines[-1],
                  np.nextafter(lines[0], -np.inf),
                  np.nextafter(lines[-1], np.inf)])
    got = _cell_index(lines, v)
    assert np.array_equal(got, cell_index_clipped_reference(lines, v))
    last = len(lines) - 2
    assert list(got[2:]) == [last, 0, last, 0, last, 0, last]


def special_points(mesh):
    """Vertices, points far outside, and points with an infinite or NaN
    coordinate."""
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    far = st.tuples(st.floats(-1.0, 2.0), st.floats(-1.0, 2.0)).map(
        lambda f: tuple(lo + np.array(f) * (hi - lo)))
    vertex = st.integers(0, mesh.n_vertices - 1).map(
        lambda v: tuple(mesh.vertices[v]))
    odd = st.tuples(st.sampled_from([np.inf, -np.inf, np.nan, 0.0, -0.0]),
                    st.floats(lo[1], hi[1]))
    return st.one_of(far, vertex, odd, odd.map(lambda p: p[::-1]))


@pytest.mark.parametrize("name", sorted(MESHES))
@PROPERTY
@given(data=st.data())
def test_locate_many_is_bitwise_the_clipped_form(name, data):
    """Points inside, on grid lines, cell diagonals and vertices, just and
    far outside, and non-finite ones, given in either memory order; the
    kernel locates the non-finite ones without a warning."""
    mesh = MESHES[name]
    pts = np.array(data.draw(st.lists(
        st.one_of(grid_points(mesh), special_points(mesh)), min_size=1,
        max_size=40)))
    with np.errstate(invalid="ignore"):
        ref = locate_many_clipped_reference(mesh, pts)
    for order in "CF":
        tri, bary, inside = locate_many(mesh, np.asarray(pts, order=order))
        assert tri.dtype == ref[0].dtype and np.array_equal(tri, ref[0])
        assert bary.flags.f_contiguous
        assert_same_bytes(np.ascontiguousarray(bary), ref[1])
        assert np.array_equal(inside, ref[2])


@PROPERTY
@given(rows=st.lists(st.tuples(*[st.one_of(
    st.floats(-0.5, 1.5), st.sampled_from([0.0, -0.0, 1.0, np.nan, np.inf]))
    for _ in range(3)]), min_size=1, max_size=40))
def test_p2_values_are_bitwise_the_column_assignments(rows):
    b = np.array(rows)
    with np.errstate(invalid="ignore", over="ignore"):
        ref = p2_values_reference(b)
        for order in "CF":
            assert_same_bytes(_p2_values(np.asarray(b, order=order)), ref)


def step_context(kind, kinds, n):
    return make_context(solver_mesh(kind, kinds, n),
                        builtin_porosity("constant", value=0.6),
                        get_case("two-layer").params)


def step_matrix_args(ctx, table, a_elements, b_elements):
    """The arguments of :func:`porousflow.saddle._step_matrix` but the
    dissection order, as a step solver's build passes them."""
    free = np.ones(ctx.vspace.dof_count + ctx.pspace.dof_count
                   + int(table.gauge), dtype=bool)
    free[table.fixed] = False
    return (a_elements, b_elements, element_dofs(ctx), free,
            pressure_volume_vector(ctx) if table.gauge else None)


def mass_positions(ctx, table, a_elements, b_elements):
    """The mass-type positions of both velocity components in a step
    solver's data array, ``(nt, 6, 6, 2)`` flattened, from the reference
    build of the transposed matrix moved to the dissection order."""
    k_ref, pos = step_matrix_reference(*step_matrix_args(
        ctx, table, a_elements.transpose(0, 2, 1), b_elements))
    return dissection_order_reference(
        k_ref, nested_dissection(ctx, table.fixed, table.gauge), pos)[1]


def built_solver(ctx):
    """The step solver of ``ctx`` under its tagged table, and the mass-type
    positions of both velocity components in its data array."""
    table = Constraints.build(ctx)
    a, b = viscous_elements(ctx), divergence_elements(ctx)
    return StepSolver(ctx, a, b, table), mass_positions(ctx, table, a, b)


def signed_weights(rng, shape):
    """Random weights with exact zeros of both signs."""
    w = rng.normal(size=shape)
    w[rng.random(shape) < 0.2] = 0.0
    w[rng.random(shape) < 0.1] = -0.0
    return w


@settings(max_examples=30, deadline=None, database=None)
@given(layout=solver_meshes, n=st.integers(2, 10),
       seed=st.integers(0, 2 ** 32 - 1))
def test_assemble_is_bitwise_the_repeated_scatter(layout, n, seed):
    ctx = step_context(*layout, n)
    solver, pos = built_solver(ctx)
    rng = np.random.default_rng(seed)
    size = solver._constant.shape[0]
    for _ in range(2):
        weight = signed_weights(rng, ctx.tables.wxarea.shape)
        rhs = rng.normal(size=size)
        values = solver.constraints.values(
            lambda p: rng.normal(size=(len(p), 2)))
        (k, r), (k_ref, r_ref) = (
            solver.assemble(weight, rhs, values),
            assemble_repeat_reference(solver, pos, weight, rhs, values))
        assert np.array_equal(k.indptr, k_ref.indptr)
        assert np.array_equal(k.indices, k_ref.indices)
        assert_same_bytes(k.data, k_ref.data)
        assert_same_bytes(r, r_ref)


@pytest.mark.parametrize("seed", range(3))
def test_assemble_without_fixed_unknowns_is_bitwise_the_reference(seed):
    # a table that fixes no unknown lifts nothing: the lift's gathers are
    # empty and its sums zero, so the right-hand side comes back unchanged
    ctx = step_context("uniform", [False, True, False, False], 5)
    table = Constraints(np.empty(0, dtype=np.int64), np.empty((0, 2)), False)
    a, b = viscous_elements(ctx), divergence_elements(ctx)
    solver = StepSolver(ctx, a, b, table)
    pos = mass_positions(ctx, table, a, b)
    rng = np.random.default_rng(seed)
    weight = signed_weights(rng, ctx.tables.wxarea.shape)
    rhs = rng.normal(size=solver._constant.shape[0])
    rhs[rng.random(rhs.size) < 0.2] = -0.0
    r = solver.assemble(weight, rhs, np.empty(0))[1]
    assert_same_bytes(r, assemble_repeat_reference(solver, pos, weight, rhs,
                                                   np.empty(0))[1])
    assert_same_bytes(r, rhs)


@settings(max_examples=20, deadline=None, database=None)
@given(layout=solver_meshes, n=st.integers(2, 10),
       seed=st.integers(0, 2 ** 32 - 1))
def test_lu_solve_is_bitwise_the_scatter_form(layout, n, seed):
    # the factor input is, bit for bit, what the gathers of each
    # factorization made of the transposed matrix summed in the numbering of
    # the element dofs, and an LU solve in the dissection numbering,
    # transposed as GMRES applies it, is the scatter form's solve of the
    # step system
    ctx = step_context(*layout, n)
    table = Constraints.build(ctx)
    a, b = viscous_elements(ctx), divergence_elements(ctx)
    solver = StepSolver(ctx, a, b, table)
    rng = np.random.default_rng(seed)
    weight = 1.0 + rng.random(ctx.tables.wxarea.shape)
    size = solver._constant.shape[0]
    k = solver.assemble(weight, np.zeros(size), np.zeros(table.fixed.size))[0]
    local = (ctx.tables.wxarea * weight) @ ctx.tables.p2_products
    k_ref, pos = step_matrix_reference(
        *step_matrix_args(ctx, table, a.transpose(0, 2, 1), b))
    k_ref = mass_weighted_reference(k_ref, pos, local)
    position = nested_dissection(ctx, table.fixed, table.gauge)
    factor_input = dissection_order_reference(k_ref.astype(np.float32),
                                              position)
    k32 = k.astype(np.float32)
    assert np.array_equal(k32.indptr, factor_input.indptr)
    assert np.array_equal(k32.indices, factor_input.indices)
    assert_same_bytes(k32.data, factor_input.data)
    lu = _factorize(k)
    rhs = rng.normal(size=size)
    rhs[rng.random(size) < 0.1] = -0.0
    x = np.empty(size)
    x[:] = lu.solve(rhs.astype(np.float32), trans="T")   # as GMRES does
    assert_same_bytes(x[position],
                      lu_solve_scatter_reference(lu, np.argsort(position),
                                                 rhs[position]))


def step_digest(setup):
    """SHA-256 over every step's velocity and pressure coefficients and
    diagnostics."""
    digest = hashlib.sha256()

    def record(k, t, u, p, diag):
        digest.update(u.coefficients.tobytes())
        digest.update(p.coefficients.tobytes())
        digest.update(repr(sorted(diag.items())).encode())

    run(setup, [record])
    return digest.hexdigest()


def previous_kernels(monkeypatch, setup):
    """Swap the replaced per-step kernels back into the run of ``setup``."""
    pos = mass_positions(setup.ctx, setup.constraints,
                         *setup.constant_blocks())
    monkeypatch.setattr(characteristics, "locate_many",
                        locate_many_clipped_reference)
    monkeypatch.setattr(StepSolver, "assemble",
                        lambda solver, weight, rhs, values:
                        assemble_repeat_reference(solver, pos, weight, rhs,
                                                  values))


@pytest.mark.parametrize("which", ["two-layer", "mms"])
def test_runs_are_bitwise_the_runs_with_the_replaced_kernels(which, mms_case,
                                                             monkeypatch):
    if which == "two-layer":
        case = get_case("two-layer")
        setup = build_setup(case, 12, t_final=5.5 * case.nominal_h(12))[2]
    else:
        mesh = generate_rect_mesh((0.0, math.pi), (0.0, math.pi), 8)
        tau = math.pi / 8
        setup = ProblemSetup(
            ctx=make_context(mesh, mms_case.porosity, mms_case.params),
            u_initial=lambda pts: mms_case.u(pts, 0.0),
            dirichlet=mms_case.u, forcing=mms_case.f, tau=tau,
            t_final=4.5 * tau)
    clamped = []
    setup_digest = step_digest(setup)
    run(setup, [lambda k, t, u, p, d: clamped.append(d["clamped_feet"])])
    previous_kernels(monkeypatch, setup)
    assert step_digest(setup) == setup_digest
    assert len(clamped) >= 4
    # the graded channel's outlet clamps feet through the boundary exit
    assert sum(clamped) > 0 or which == "mms"

"""The batched evaluation kernels against the formulations they replaced.

Each reference below is the earlier implementation, kept verbatim in
substance: ``einsum`` contractions over gathered node values, ``np.add.at``
scatters, per-expression ``lambdify``, the loop-built mesh and its adjacency,
the adjacency walk for point location, the row-gather barycentric
coordinates and grid location, the smooth step evaluated everywhere, the
segment/boundary-edge table for the boundary exit, the per-edge loop of the
transport identity's contour integral, the viscous and divergence blocks
from the physical gradient table and the VTK snapshot written one line at a
time (in ``snapshot_reference``, which the CLI tests share).  Kernels whose
arithmetic is unchanged must agree bit for bit; those that sum in another
order agree within a tolerance fixed from double precision.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import porousflow.characteristics as characteristics
from porousflow import _mms_generated
from porousflow.assembly import (
    _scatter_matrix,
    _vectorize_scalar_local,
    assemble_load,
    assemble_mass_phi_rhs,
    make_context,
)
from porousflow.cases import build_case_mesh, build_setup, get_case
from porousflow.fem import (
    P1_SCALAR,
    P2_VECTOR,
    FeField,
    edge_quadrature,
    error_norm,
    eval_basis,
    eval_field_many,
    interpolate,
    norm,
    pressure_space,
    quad_tables,
    tri_quadrature,
    velocity_space,
)
from porousflow.mesh import (
    EXIT_TOL,
    INSIDE_TOL,
    BoundaryHit,
    LayerGrading,
    boundary_exit_point,
    generate_rect_mesh,
    locate_many,
)
from porousflow.porous import TWO_LAYER_EPS, _smooth_step, builtin_porosity
from porousflow.scheme import run
from porousflow.verification import transport_identity_check
from porousflow.vtkio import write_snapshot
from reference_solve import assemble_a0, assemble_b
from snapshot_reference import snapshot_text_reference
from test_saddle import ORDERING_MESHES

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


def exit_table_reference(mesh, starts, ends):
    """First boundary crossings from one table of every segment against
    every boundary edge; returns them and the table of crossing parameters
    (``inf`` where a segment misses an edge)."""
    a = np.atleast_2d(np.asarray(starts, dtype=float))
    s = np.atleast_2d(np.asarray(ends, dtype=float)) - a
    p = mesh.vertices[mesh.boundary_edges[:, 0]]
    r = mesh.vertices[mesh.boundary_edges[:, 1]] - p
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
    assert valid.any(axis=1).all()
    t_all = np.where(valid, t_par, np.inf)
    edge = np.argmin(t_all, axis=1)
    t_star = np.maximum(t_all[np.arange(len(edge)), edge] - EXIT_TOL, 0.0)
    points = a + t_star[:, None] * s
    pe, re = p[edge], r[edge]
    d = points - pe
    u = (d[:, 0] * re[:, 0] + d[:, 1] * re[:, 1]) \
        / (re[:, 0] * re[:, 0] + re[:, 1] * re[:, 1])
    points = pe + np.clip(u, 0.0, 1.0)[:, None] * re
    tags = np.array(mesh.boundary_tags, dtype=object)[edge]
    return BoundaryHit(points, edge, tags), t_all


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


def assert_rel(value, reference, rel):
    scale = np.abs(reference).max()
    assert np.abs(np.asarray(value) - reference).max() <= rel * scale


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
    assert np.array_equal(m.boundary_edges, b_edges)
    assert np.array_equal(m.boundary_edge_tri, b_tris)


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


fraction_segments = st.lists(
    st.tuples(fraction, fraction, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    min_size=1, max_size=12)


@pytest.mark.parametrize("name", sorted(MESHES))
@PROPERTY
@given(rows=fraction_segments)
def test_exit_matches_the_table(name, rows):
    mesh = MESHES[name]
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    rows = np.array(rows)
    starts = lo + rows[:, :2] * (hi - lo)
    ends = starts + rows[:, 2:] * (hi - lo)
    out = ~walk_reference(mesh, ends)[2]
    if not out.any():
        return
    hit = boundary_exit_point(mesh, starts[out], ends[out])
    ref, t_all = exit_table_reference(mesh, starts[out], ends[out])
    same = hit.edges == ref.edges
    assert np.array_equal(hit.points[same], ref.points[same])
    assert list(hit.tags[same]) == list(ref.tags[same])
    # elsewhere a tie at a vertex: the other edge is crossed at the same
    # parameter
    rows = np.arange(len(ref.edges))
    assert np.abs(t_all[rows, hit.edges] - t_all[rows, ref.edges]).max() \
        <= 1e-12


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

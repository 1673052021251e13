import math

import numpy as np
import pytest

from porousflow.fem import (
    P1_SCALAR,
    P2_VECTOR,
    FeField,
    boundary_nodes,
    error_norm,
    eval_basis,
    eval_field_many,
    field_mean,
    interpolate,
    norm,
    pressure_space,
    quad_tables,
    tri_quadrature,
    velocity_space,
    zero_field,
)
from porousflow.mesh import (
    BoundaryTag,
    LayerGrading,
    generate_rect_mesh,
    locate_many,
)
from test_kernel_references import adjacency_reference


def _monomial_exact(a, b):
    # reference-triangle integral of x^a y^b
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


@pytest.mark.parametrize("degree", [2, 5, 9])
def test_quadrature_monomial_exactness(degree):
    rule = tri_quadrature(degree)
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            got = 0.5 * float(rule.weights @ (rule.points[:, 1] ** a
                                              * rule.points[:, 2] ** b))
            assert got == pytest.approx(_monomial_exact(a, b), abs=1e-14)


def test_quadrature_x2y2_reference_value():
    rule = tri_quadrature(5)
    got = 0.5 * float(rule.weights @ (rule.points[:, 1] ** 2
                                      * rule.points[:, 2] ** 2))
    assert got == pytest.approx(1.0 / 180.0, abs=1e-15)


def test_p2_nodal_property():
    nodes = np.array([
        (1, 0, 0), (0, 1, 0), (0, 0, 1),
        (0, 0.5, 0.5), (0.5, 0, 0.5), (0.5, 0.5, 0),
    ], dtype=float)
    vals, _ = eval_basis(P2_VECTOR, nodes)
    assert vals == pytest.approx(np.eye(6), abs=1e-14)


def test_p1_centroid():
    vals, _ = eval_basis(P1_SCALAR, [(1 / 3, 1 / 3, 1 / 3)])
    assert vals[0] == pytest.approx([1 / 3, 1 / 3, 1 / 3], abs=1e-15)


@pytest.mark.parametrize("kind", ["p1", "p2", "p2-scalar"])
def test_eval_basis_rejects_other_names(kind):
    with pytest.raises(ValueError, match="unknown basis kind"):
        eval_basis(kind, [(1 / 3, 1 / 3, 1 / 3)])


def test_p2_partition_of_unity(rng):
    lam12 = rng.dirichlet((1, 1, 1), size=40)
    vals, _ = eval_basis(P2_VECTOR, lam12)
    assert vals.sum(axis=1) == pytest.approx(np.ones(40), abs=1e-14)


def test_basis_gradients_match_finite_differences(unit_mesh, rng):
    space = velocity_space(unit_mesh)
    f = interpolate(space, lambda p: np.column_stack(
        [np.sin(p[:, 0]) * p[:, 1], np.cos(p[:, 1])]))
    tables = quad_tables(unit_mesh)
    grad = tables.grad_at_quad(f).reshape(-1, 2, 2)
    x = tables.qpoints.reshape(-1, 2)
    home = np.repeat(np.arange(unit_mesh.n_triangles), tables.wxarea.shape[1])
    h = 1e-6

    def values(pts):
        tri, bary, inside = locate_many(unit_mesh, pts)
        assert inside.all() and (tri == home).all()
        return eval_field_many(f, tri, bary)

    for d in range(2):
        e = np.zeros(2)
        e[d] = h
        fd = (values(x + e) - values(x - e)) / (2 * h)
        assert grad[:, :, d] == pytest.approx(fd, abs=1e-6)


@pytest.mark.parametrize("make_space", [velocity_space, pressure_space],
                         ids=["velocity", "pressure"])
def test_interpolate_node_values_round_trip(unit_mesh, make_space):
    space = make_space(unit_mesh)
    vector = space.components == 2

    def fn(p):
        vals = np.column_stack([np.sin(p[:, 0]) + p[:, 1], p[:, 0] * p[:, 1]])
        return vals if vector else vals[:, 0]

    f = interpolate(space, fn)
    nodal = fn(space.node_coords).reshape(space.n_nodes, space.components)
    assert np.array_equal(f.node_values(), nodal)
    # values shaped for the other space, or one node short, are rejected
    other = (lambda p: np.zeros(len(p))) if vector \
        else (lambda p: np.zeros((len(p), 2)))
    for bad in (other, lambda p: fn(p)[:-1]):
        with pytest.raises(ValueError):
            interpolate(space, bad)


def test_interpolate_constant(unit_mesh):
    space = velocity_space(unit_mesh)
    c = np.array([2.5, -1.25])
    f = interpolate(space, lambda p: np.broadcast_to(c, (len(p), 2)).copy())
    assert f.node_values() == pytest.approx(np.tile(c, (space.n_nodes, 1)))


def test_p2_reproduces_quadratics(unit_mesh, rng):
    space = velocity_space(unit_mesh)

    def quad(p):
        x, y = p[:, 0], p[:, 1]
        return np.column_stack([1 + 2 * x - y + x * y + x ** 2,
                                3 * y ** 2 - x * y + y])

    f = interpolate(space, quad)
    pts = rng.uniform(0.0, 1.0, (1000, 2))
    from porousflow.mesh import locate_many
    tri, bary, inside = locate_many(unit_mesh, pts)
    assert inside.all()
    vals = eval_field_many(f, tri, bary)
    assert np.abs(vals - quad(pts)).max() < 1e-12


def test_p2_interpolation_third_order(rng):
    errs = []
    for n in (16, 32):
        mesh = generate_rect_mesh((0.0, math.pi), (0.0, math.pi), n)
        space = velocity_space(mesh)
        f = interpolate(space, lambda p: np.column_stack(
            [np.sin(p[:, 0]), np.zeros(len(p))]))
        pts = np.column_stack([rng.uniform(0.1, 3.0, 400),
                               rng.uniform(0.1, 3.0, 400)])
        from porousflow.mesh import locate_many
        tri, bary, _ = locate_many(mesh, pts)
        vals = eval_field_many(f, tri, bary)
        errs.append(np.abs(vals[:, 0] - np.sin(pts[:, 0])).max())
    ratio = errs[0] / errs[1]
    assert 6.0 < ratio < 10.5  # ~8x per halving: third order


def test_eval_linear_field(unit_mesh):
    space = velocity_space(unit_mesh)
    f = interpolate(space, lambda p: np.column_stack(
        [p[:, 0], np.zeros(len(p))]))
    tri, bary, _ = locate_many(unit_mesh, np.array([[0.3, 0.7]]))
    value = eval_field_many(f, tri, bary)[0]
    assert value[0] == pytest.approx(0.3, abs=1e-13)
    # an empty batch gives no rows
    assert eval_field_many(f, tri[:0], bary[:0]).shape == (0, 2)
    p = interpolate(pressure_space(unit_mesh), lambda p: p[:, 1])
    assert eval_field_many(p, tri, bary) == pytest.approx([0.7], abs=1e-13)
    assert eval_field_many(p, tri[:0], bary[:0]).shape == (0,)


def test_gradient_of_quadratic(unit_mesh):
    space = velocity_space(unit_mesh)
    f = interpolate(space, lambda p: np.column_stack(
        [p[:, 0] ** 2, np.zeros(len(p))]))
    tables = quad_tables(unit_mesh)
    grad = tables.grad_at_quad(f).reshape(-1, 2, 2)
    x = tables.qpoints.reshape(-1, 2)
    want = np.column_stack([2.0 * x[:, 0], np.zeros(len(x))])
    assert grad[:, 0] == pytest.approx(want, abs=1e-12)
    assert grad[:, 1] == pytest.approx(np.zeros_like(want), abs=1e-12)


def test_zero_field_evaluates_zero(unit_mesh):
    f = zero_field(velocity_space(unit_mesh))
    tri, bary, _ = locate_many(unit_mesh, np.array([[0.25, 0.75]]))
    value = eval_field_many(f, tri, bary)[0]
    assert value == pytest.approx([0.0, 0.0], abs=0.0)
    assert eval_field_many(f, np.empty(0, dtype=np.int64),
                           np.empty((0, 3))).shape == (0, 2)


def test_c0_conformity_across_edges(unit_mesh, rng):
    space = velocity_space(unit_mesh)
    f = FeField(space, rng.normal(size=space.dof_count))
    nb = adjacency_reference(unit_mesh)
    for t in range(unit_mesh.n_triangles):
        for k in range(3):
            s = nb[t, k]
            if s < 0:
                continue
            a, b = unit_mesh.triangles[t][(k + 1) % 3], \
                unit_mesh.triangles[t][(k + 2) % 3]
            for w in (0.25, 0.5, 0.8):
                x = (1 - w) * unit_mesh.vertices[a] + w * unit_mesh.vertices[b]
                vt = eval_field_many(
                    f, np.array([t]),
                    unit_mesh.barycentric(np.array([t]), x[None]))
                vs = eval_field_many(
                    f, np.array([s]),
                    unit_mesh.barycentric(np.array([s]), x[None]))
                assert vt == pytest.approx(vs, abs=1e-12)


def test_l2_norm_of_constant(pi_mesh):
    space = pressure_space(pi_mesh)
    f = interpolate(space, lambda p: np.ones(len(p)))
    assert norm(f, "L2") == pytest.approx(math.pi, abs=1e-10)


def test_velocity_space_on_two_triangles():
    # two triangles per cell of a 2 x 2 grid on the unit square: left and
    # bottom Dirichlet, top and right stress-free
    def tags(mid):
        if mid[0] >= 1.0 - 1e-9 or mid[1] >= 1.0 - 1e-9:
            return BoundaryTag.STRESS_FREE
        return BoundaryTag.DIRICHLET

    mesh = generate_rect_mesh((0.0, 1.0), (0.0, 1.0), 2, tag_rule=tags)
    space = velocity_space(mesh)
    # midpoints numbered as their edges first appear in the triangles
    cell_nodes, coords, midpoints = _velocity_nodes_by_loop(mesh)
    assert np.array_equal(space.cell_nodes, cell_nodes)
    assert np.array_equal(space.node_coords, coords)
    assert np.array_equal(space.cell_nodes[0, 3:], [9, 10, 11])
    assert space.n_nodes == 9 + 16 and space.dof_count == 50
    # the boundary midpoints sit at the midpoints of their edges
    assert np.array_equal(space.boundary_midpoints, midpoints)
    ends = mesh.vertices[mesh.boundary_edges]
    assert np.array_equal(space.node_coords[space.boundary_midpoints],
                          0.5 * (ends[:, 0] + ends[:, 1]))
    for wanted in ({BoundaryTag.DIRICHLET}, {BoundaryTag.STRESS_FREE},
                   {BoundaryTag.DIRICHLET, BoundaryTag.STRESS_FREE}):
        for sp, mids in ((space, space.boundary_midpoints),
                         (pressure_space(mesh), None)):
            scan = set()
            for e, tag in enumerate(mesh.boundary_tags):
                if tag in wanted:
                    scan.update(mesh.boundary_edges[e].tolist())
                    if mids is not None:
                        scan.add(int(mids[e]))
            assert boundary_nodes(sp, wanted).tolist() == sorted(scan)


def _velocity_nodes_by_loop(mesh):
    """Midpoint numbering of a per-triangle loop over a dict of edge keys,
    the reference for the vectorized numbering."""
    ids = {}
    cell_nodes = np.empty((mesh.n_triangles, 6), dtype=np.int64)
    cell_nodes[:, :3] = mesh.triangles
    for t, v in enumerate(mesh.triangles.tolist()):
        for k in range(3):
            key = tuple(sorted((v[(k + 1) % 3], v[(k + 2) % 3])))
            ids.setdefault(key, mesh.n_vertices + len(ids))
            cell_nodes[t, 3 + k] = ids[key]
    coords = np.empty((mesh.n_vertices + len(ids), 2))
    coords[:mesh.n_vertices] = mesh.vertices
    for (a, b), node in ids.items():
        coords[node] = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
    midpoints = [ids[tuple(sorted(e))] for e in mesh.boundary_edges.tolist()]
    return cell_nodes, coords, np.array(midpoints)


def test_velocity_space_matches_per_triangle_numbering():
    mesh = generate_rect_mesh((0.0, 3.0), (0.0, 1.0), 15,
                              grading=LayerGrading(0.5, 0.01))
    space = velocity_space(mesh)
    cell_nodes, coords, midpoints = _velocity_nodes_by_loop(mesh)
    assert np.array_equal(space.cell_nodes, cell_nodes)
    assert np.array_equal(space.node_coords, coords)
    assert np.array_equal(space.boundary_midpoints, midpoints)


def test_l2_norm_of_sine_product():
    mesh = generate_rect_mesh((0.0, math.pi), (0.0, math.pi), 32)
    space = velocity_space(mesh)
    f = interpolate(space, lambda p: np.column_stack(
        [np.sin(p[:, 0]) * np.sin(p[:, 1]), np.zeros(len(p))]))
    # analytic: each factor integrates sin^2 to pi/2, product norm pi/2
    assert norm(f, "L2") == pytest.approx(math.pi / 2.0, abs=1e-4)


def test_h1_norm_termwise_identity(pi_mesh, rng):
    space = velocity_space(pi_mesh)
    f = FeField(space, rng.normal(size=space.dof_count))
    full = norm(f, "H1")
    tables = quad_tables(pi_mesh)
    semi_sq = float(tables.integrate(tables.grad_at_quad(f) ** 2).sum())
    parts = math.sqrt(norm(f, "L2") ** 2 + semi_sq)
    assert full == pytest.approx(parts, rel=1e-13)


def test_error_norm_zero_mean_quotient(pi_mesh):
    space = pressure_space(pi_mesh)
    f = interpolate(space, lambda p: np.sin(p[:, 0]))
    shifted = FeField(space, f.coefficients + 3.7)
    err = error_norm(shifted, lambda p, t: np.sin(p[:, 0]), "L2", t=0.0,
                     zero_mean=True)
    plain = error_norm(f, lambda p, t: np.sin(p[:, 0]), "L2", t=0.0,
                       zero_mean=True)
    assert err == pytest.approx(plain, abs=1e-12)


def test_field_mean(pi_mesh):
    space = pressure_space(pi_mesh)
    f = interpolate(space, lambda p: np.full(len(p), 2.5))
    assert field_mean(f) == pytest.approx(2.5, rel=1e-12)


def test_unknown_norm_kind_rejected(pi_mesh):
    f = zero_field(pressure_space(pi_mesh))
    for kind in ("L7", "H1semi"):
        with pytest.raises(ValueError):
            norm(f, kind)
    with pytest.raises(ValueError):
        error_norm(f, lambda p, t: np.zeros(len(p)), "Linf", t=0.0)

import numpy as np
import pytest

from porousflow.cases import build_case_mesh, get_case
from porousflow.characteristics import ab2_material_terms, lg1_material_terms
from porousflow.fem import (FeField, eval_field_many, interpolate,
                            velocity_space)
from porousflow.mesh import (
    boundary_exit_point,
    generate_rect_mesh,
    locate_many,
)
from porousflow.porous import builtin_porosity


def constant_field(space, c):
    c = np.asarray(c, dtype=float)
    return interpolate(space, lambda p: np.broadcast_to(c, (len(p), 2)).copy())


def scaled(f, factor):
    return FeField(f.space, factor * f.coefficients)


def field_at(f, pts):
    """Field values at points inside the domain."""
    tri, bary, inside = locate_many(f.space.mesh, pts)
    assert inside.all()
    return eval_field_many(f, tri, bary)


def lg1_at(u0, phi, tau, x, g0=None):
    """Start-up term and clamped-feet count at the single point ``x``."""
    pts = np.asarray(x, dtype=float)[None, :]
    val, clamped = lg1_material_terms(u0, phi, tau, pts, field_at(u0, pts),
                                      phi.value(pts), g0=g0)
    return val[0], clamped


def ab2_at(u_prev, u_prev2, phi, tau, x, g_prev=None, g_prev2=None):
    """Two-step bracket and clamped-feet count at the single point ``x``."""
    pts = np.asarray(x, dtype=float)[None, :]
    theta = 2.0 * field_at(u_prev, pts) - field_at(u_prev2, pts)
    val, clamped = ab2_material_terms(u_prev, u_prev2, phi, tau, pts, theta,
                                      phi.value(pts), g_prev=g_prev,
                                      g_prev2=g_prev2)
    return val[0], clamped


UNIT_POROSITY = builtin_porosity("constant", value=1.0)
FOOT_PROBE = np.array([[0.5, 0.1], [-0.2, 0.4]])


def upwind_foot(mesh, x, v, tau):
    """Upwind foot of ``x`` under the advecting velocity ``v``, read back
    from the start-up term of ``u0(p) = v + B (p - x)`` with unit porosity:
    that term is ``u0(foot)``, and ``B`` is invertible."""
    x, v = np.asarray(x, dtype=float), np.asarray(v, dtype=float)
    u0 = interpolate(velocity_space(mesh),
                     lambda p: v + (p - x) @ FOOT_PROBE.T)
    val, clamped = lg1_at(u0, UNIT_POROSITY, tau, x)
    assert clamped == 0
    return x + np.linalg.solve(FOOT_PROBE, val - v)


def test_upwind_point_identity(unit_mesh):
    x = np.array([0.3, 0.4])
    assert upwind_foot(unit_mesh, x, np.zeros(2), 0.5) == pytest.approx(x)


def test_upwind_point_formula(unit_mesh):
    got = upwind_foot(unit_mesh, np.array([1.0, 1.0]), np.array([2.0, 0.0]),
                      0.1)
    assert got == pytest.approx([0.8, 1.0])


def test_upwind_point_linear_in_tau(unit_mesh):
    x = np.array([0.5, 0.5])
    v = np.array([0.4, -0.2])
    d1 = x - upwind_foot(unit_mesh, x, v, 0.05)
    d2 = x - upwind_foot(unit_mesh, x, v, 0.1)
    assert d2 == pytest.approx(2.0 * d1)


def test_eval_at_upwind_zero_advection(unit_mesh):
    # u_prev2 = 2 u_prev cancels the extrapolated velocity, so both feet
    # sit at x and the bracket is 4 f(x) - 2 f(x)
    space = velocity_space(unit_mesh)
    f = interpolate(space, lambda p: np.column_stack(
        [p[:, 0] + p[:, 1], p[:, 0] - p[:, 1]]))
    x = np.array([0.3, 0.6])
    bracket, clamped = ab2_at(f, scaled(f, 2.0), UNIT_POROSITY, 0.1, x)
    assert clamped == 0
    assert bracket / 2.0 == pytest.approx([0.9, -0.3], abs=1e-13)


def test_eval_at_upwind_uniform_field(unit_mesh):
    space = velocity_space(unit_mesh)
    f = constant_field(space, (1.5, -0.5))
    val, clamped = lg1_at(f, UNIT_POROSITY, 0.2, np.array([0.5, 0.5]))
    assert clamped == 0
    assert val == pytest.approx([1.5, -0.5], abs=1e-13)


def test_eval_at_upwind_clamps_to_dirichlet_data(unit_mesh):
    # the foot (-0.15, 0.5) leaves through the left (Dirichlet) edge, where
    # the data g = 0 replaces the field value (1, 0)
    space = velocity_space(unit_mesh)
    f = constant_field(space, (1.0, 0.0))
    g = lambda pts: np.zeros((len(pts), 2))
    x = np.array([0.05, 0.5])
    val, clamped = lg1_at(f, UNIT_POROSITY, 0.2, x, g0=g)
    assert clamped == 1
    assert val == pytest.approx([0.0, 0.0], abs=0.0)
    foot = x[None] - 0.2 * field_at(f, x[None])
    hit = boundary_exit_point(unit_mesh, x[None], foot)
    assert unit_mesh.boundary_dirichlet[hit.edges[0]]
    assert hit.points[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_corner_exits_take_the_kind_of_the_reported_side():
    # feet that leave the two-layer channel (0, 3) x (0, 1) exactly through
    # its corners: a tie that boundary_exit_point gives to the first side in
    # SIDES, so to right at the outlet corners (3, 0) and (3, 1), which is
    # stress-free, and to left at the inlet corners, Dirichlet like the
    # bottom and top
    mesh = build_case_mesh(get_case("two-layer"), n=12)
    f = interpolate(velocity_space(mesh), lambda p: np.column_stack(
        [p[:, 0] - 2.0, p[:, 1]]))
    g = lambda pts: np.full((len(pts), 2), 9.0)
    corners = np.array([[3.0, 0.0], [3.0, 1.0], [0.0, 0.0], [0.0, 1.0]])
    outward = np.array([[1.0, -1.0], [1.0, 1.0], [-1.0, -1.0], [-1.0, 1.0]])
    pts = corners - 0.25 * outward
    # unit porosity and tau, so each foot is the corner + 0.25 outward
    w = -0.5 * outward
    val, clamped = lg1_material_terms(f, UNIT_POROSITY, 1.0, pts, w,
                                      np.ones(len(pts)), g0=g)
    assert clamped == 4
    hit = boundary_exit_point(mesh, pts, pts - w)
    assert hit.points == pytest.approx(corners, abs=1e-12)
    ny = len(mesh.ys) - 1
    # the right side's edges, then the left side's
    assert ((hit.edges[:2] >= ny) & (hit.edges[:2] < 2 * ny)).all()
    assert (hit.edges[2:] < ny).all()
    assert mesh.boundary_dirichlet[hit.edges].tolist() \
        == [False, False, True, True]
    # the field at the outlet corners, the data at the inlet corners
    assert val[:2] == pytest.approx(np.array([[1.0, 0.0], [1.0, 1.0]]),
                                    abs=1e-12)
    assert np.array_equal(val[2:], np.full((2, 2), 9.0))


def test_eval_at_upwind_clamps_to_field_on_outflow():
    mesh = generate_rect_mesh(
        (0.0, 1.0), (0.0, 1.0), 4,
        stress_free=("right",))
    space = velocity_space(mesh)
    f = interpolate(space, lambda p: np.column_stack(
        [p[:, 0] - 2.0, np.zeros(len(p))]))
    # a foot that backtracks out through the right (outflow) edge: the field
    # at the clamped point (1, 0.5) is kept and the data g = 9 is not used
    x = np.array([0.95, 0.5])
    val, clamped = lg1_at(f, UNIT_POROSITY, 0.2, x,
                          g0=lambda pts: np.full((len(pts), 2), 9.0))
    assert clamped == 1
    assert val == pytest.approx([-1.0, 0.0], abs=1e-12)
    foot = x[None] - 0.2 * field_at(f, x[None])
    hit = boundary_exit_point(mesh, x[None], foot)
    assert not mesh.boundary_dirichlet[hit.edges[0]]
    assert hit.points[0] == pytest.approx([1.0, 0.5], abs=1e-12)


def test_clamped_feet_are_evaluated_at_the_clamped_point():
    # both the porosity and the Dirichlet data are taken where the foot is
    # clamped on the boundary, not at the foot outside the domain
    mesh = generate_rect_mesh(
        (0.0, 1.0), (0.0, 1.0), 4,
        stress_free=("right",))
    phi = builtin_porosity("sinusoidal")
    u0 = interpolate(velocity_space(mesh), lambda p: np.column_stack(
        [4.0 * (0.5 - p[:, 0]), np.zeros(len(p))]))
    x = np.array([[0.05, 0.5], [0.95, 0.3]])
    val, clamped = lg1_material_terms(u0, phi, 0.2, x, field_at(u0, x),
                                      phi.value(x), g0=lambda pts: pts + 1.0)
    assert clamped == 2
    clamp = np.array([[0.0, 0.5], [1.0, 0.3]])
    at_clamp = np.array([clamp[0] + 1.0, [-2.0, 0.0]])  # g, then the field
    expected = (phi.value(x) / phi.value(clamp))[:, None] * at_clamp
    assert val == pytest.approx(expected, abs=1e-10)


def test_dirichlet_data_at_clamped_feet_is_shape_checked(unit_mesh):
    # the data at feet clamped on a Dirichlet edge must be one velocity per
    # foot, as everywhere else; a scalar per foot or a single velocity used
    # to be broadcast over the feet without an error
    u0 = constant_field(velocity_space(unit_mesh), (1.0, 0.0))
    two = np.array([[0.05, 0.3], [0.05, 0.6]])
    three = np.vstack([two, [[0.05, 0.8]]])

    def terms(x, g):
        return lg1_material_terms(u0, UNIT_POROSITY, 0.2, x, field_at(u0, x),
                                  UNIT_POROSITY.value(x), g0=g)

    val, clamped = terms(two, lambda p: np.column_stack(
        [np.full(len(p), 7.0), p[:, 1]]))
    assert clamped == 2
    assert np.array_equal(val, [[7.0, 0.3], [7.0, 0.6]])
    for x, g, shape in (
            (two, lambda p: p[:, 1],
             r"\(2,\) for 2 points; expected \(2, 2\)"),
            # transposed: the expected shape at two feet, not at one
            (two, lambda p: np.array([np.full(len(p), 7.0), p[:, 1]]),
             r"\(2, 1\) for 1 points; expected \(1, 2\)"),
            (three, lambda p: np.array([[7.0, 0.0]]),
             r"\(1, 2\) for 3 points; expected \(3, 2\)"),
            (three, lambda p: np.array([np.full(len(p), 7.0), p[:, 1]]),
             r"\(2, 3\) for 3 points; expected \(3, 2\)")):
        with pytest.raises(ValueError,
                           match="^Dirichlet data of shape " + shape + "$"):
            terms(x, g)


def test_non_finite_dirichlet_data_at_clamped_feet_rejected(unit_mesh):
    # a NaN boundary velocity at a clamped foot names its count and the
    # foot, where it enters, instead of reaching the solve's right-hand side
    u0 = constant_field(velocity_space(unit_mesh), (1.0, 0.0))
    two = np.array([[0.05, 0.3], [0.05, 0.6]])

    def g(p):
        out = np.zeros((len(p), 2))
        out[p[:, 1] > 0.5] = np.nan
        return out

    with pytest.raises(ValueError,
                       match=r"^Dirichlet data not finite at 1 of 2 points, "
                             r"first at \[0\.0, 0\.6\]: \[nan, nan\]$"):
        lg1_material_terms(u0, UNIT_POROSITY, 0.2, two, field_at(u0, two),
                           UNIT_POROSITY.value(two), g0=g)


def test_clamped_points_stay_in_domain(unit_mesh, rng):
    x = rng.uniform(0.05, 0.95, (30, 2))
    feet = x - 0.5 * rng.normal(0, 1, (30, 2)) * 20.0
    _, _, inside = locate_many(unit_mesh, feet)
    assert not inside.all()
    hit = boundary_exit_point(unit_mesh, x[~inside], feet[~inside])
    assert locate_many(unit_mesh, hit.points)[2].all()


def test_ab2_constant_history_fixed_point(unit_mesh):
    phi_bar = 0.7
    phi = builtin_porosity("constant", value=phi_bar)
    space = velocity_space(unit_mesh)
    c = np.array([0.4, -0.1])
    u = constant_field(space, phi_bar * c)  # the average velocity is c
    x = np.array([0.43, 0.57])
    val, _ = ab2_at(u, u, phi, 0.1, x)
    assert val == pytest.approx(3.0 * phi_bar * c, abs=1e-12)
    # the full bracket (3 u - val) vanishes at the uniform steady state
    assert 3.0 * phi_bar * c - val == pytest.approx([0, 0], abs=1e-12)


def test_ab2_equal_history_advects_with_itself(unit_mesh):
    # with equal history fields the extrapolation collapses to that field
    phi = builtin_porosity("constant", value=1.0)
    space = velocity_space(unit_mesh)
    f = interpolate(space, lambda p: np.column_stack(
        [0.1 + 0.2 * p[:, 1], np.zeros(len(p))]))
    x = np.array([0.5, 0.5])
    val, _ = ab2_at(f, f, phi, 0.05, x)
    w_here = np.array([0.1 + 0.2 * 0.5, 0.0])
    foot1 = x - 0.05 * w_here
    foot2 = x - 0.10 * w_here
    expected = 4 * np.array([0.1 + 0.2 * foot1[1], 0.0]) \
        - np.array([0.1 + 0.2 * foot2[1], 0.0])
    assert val == pytest.approx(expected, abs=1e-12)


def test_ab2_linear_in_time_exact(unit_mesh):
    # u(t) = t*c with unit porosity: the discrete material derivative is c
    phi = builtin_porosity("constant", value=1.0)
    space = velocity_space(unit_mesh)
    c = np.array([0.3, 0.2])
    tau, k = 0.1, 5
    u_prev = constant_field(space, (k - 1) * tau * c)
    u_prev2 = constant_field(space, (k - 2) * tau * c)
    x = np.array([0.61, 0.37])
    bracket, _ = ab2_at(u_prev, u_prev2, phi, tau, x)
    u_now = k * tau * c
    derivative = (3.0 * u_now - bracket) / (2.0 * tau)
    assert derivative == pytest.approx(c, abs=1e-12)


def test_ab2_batched_matches_scalar(rng):
    # flow toward the left (Dirichlet) edge and the right (stress-free)
    # edge, with points close enough to both that their feet leave there
    mesh = generate_rect_mesh(
        (0.0, 1.0), (0.0, 1.0), 4,
        stress_free=("right",))
    phi = builtin_porosity("constant", value=0.8)
    space = velocity_space(mesh)
    u1 = interpolate(space, lambda p: np.column_stack(
        [0.5 - p[:, 0] + 0.1 * np.sin(3 * p[:, 1]), 0.3 * np.cos(2 * p[:, 0])]))
    u2 = interpolate(space, lambda p: np.column_stack(
        [0.8 * (0.5 - p[:, 0]), 0.2 * np.sin(2 * p[:, 1])]))
    g1 = lambda pts: np.column_stack([pts[:, 1], -pts[:, 0]]) + 5.0
    g2 = lambda pts: np.column_stack([-pts[:, 1], pts[:, 0]]) - 5.0
    pts = np.vstack([
        rng.uniform(0.2, 0.8, (20, 2)),
        np.column_stack([rng.uniform(0.005, 0.03, 10),
                         rng.uniform(0.1, 0.9, 10)]),
        np.column_stack([rng.uniform(0.97, 0.995, 10),
                         rng.uniform(0.1, 0.9, 10)]),
    ])
    def theta(x):
        return 2.0 * field_at(u1, x) - field_at(u2, x)

    batched, clamped = ab2_material_terms(u1, u2, phi, 0.05, pts, theta(pts),
                                          phi.value(pts), g_prev=g1,
                                          g_prev2=g2)
    total = 0
    for i in range(len(pts)):
        one = pts[i:i + 1]
        single, count = ab2_material_terms(u1, u2, phi, 0.05, one,
                                           theta(one), phi.value(one),
                                           g_prev=g1, g_prev2=g2)
        assert batched[i] == pytest.approx(single[0], abs=1e-14)
        total += count
    assert clamped == total
    # the first feet leave through both kinds of edge
    w_star = (2.0 * field_at(u1, pts) - field_at(u2, pts)) / 0.8
    feet = pts - 0.05 * w_star
    outside = ~locate_many(mesh, feet)[2]
    hit = boundary_exit_point(mesh, pts[outside], feet[outside])
    assert {True, False} <= set(mesh.boundary_dirichlet[hit.edges].tolist())


def test_lg1_zero_field(unit_mesh):
    phi = builtin_porosity("constant", value=0.6)
    space = velocity_space(unit_mesh)
    u0 = constant_field(space, (0.0, 0.0))
    val, _ = lg1_at(u0, phi, 0.1, np.array([0.5, 0.5]))
    assert val == pytest.approx([0, 0], abs=0.0)


def test_lg1_uniform_field(unit_mesh):
    phi_bar = 0.5
    phi = builtin_porosity("constant", value=phi_bar)
    space = velocity_space(unit_mesh)
    c = np.array([0.2, 0.1])
    u0 = constant_field(space, phi_bar * c)
    val, _ = lg1_at(u0, phi, 0.1, np.array([0.5, 0.5]),
                    g0=lambda pts: np.broadcast_to(
                        phi_bar * c, (len(pts), 2)).copy())
    assert val == pytest.approx(phi_bar * c, abs=1e-13)


def test_lg1_small_tau_limit(unit_mesh):
    phi = builtin_porosity("mms-sine")
    space = velocity_space(unit_mesh)
    u0 = interpolate(space, lambda p: np.column_stack(
        [p[:, 1] ** 2, p[:, 0]]) * 0.2)
    x = np.array([0.4, 0.6])
    val, _ = lg1_at(u0, phi, 1e-9, x)
    phi_x = phi.value(x[None])[0]
    w0_x = np.array([0.2 * 0.36, 0.2 * 0.4]) / phi_x
    assert val == pytest.approx(phi_x * w0_x, abs=1e-8)


def test_ab2_exact_for_space_linear_time_linear_field(unit_mesh):
    # w(x, t) = t (c + B x) with unit porosity: linear in space (exact in P2)
    # and linear in time, so the discrete material derivative reproduces
    # dw/dt + (w . grad) w = (c + B x) + t^2 B (c + B x) exactly
    phi = builtin_porosity("constant", value=1.0)
    space = velocity_space(unit_mesh)
    c = np.array([0.05, -0.02])
    b_mat = np.array([[0.04, -0.03], [0.02, 0.05]])

    def w_at(pts, t):
        return t * (c[None, :] + pts @ b_mat.T)

    tau, k = 0.05, 4
    u_prev = interpolate(space, lambda p: w_at(p, (k - 1) * tau))
    u_prev2 = interpolate(space, lambda p: w_at(p, (k - 2) * tau))
    for x in (np.array([0.31, 0.57]), np.array([0.72, 0.44])):
        bracket, _ = ab2_at(u_prev, u_prev2, phi, tau, x)
        t_k = k * tau
        deriv = (3.0 * w_at(x[None], t_k)[0] - bracket) / (2.0 * tau)
        exact = (c + b_mat @ x) + t_k ** 2 * (b_mat @ (c + b_mat @ x))
        assert deriv == pytest.approx(exact, abs=1e-13)

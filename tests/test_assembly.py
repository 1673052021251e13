import math

import numpy as np
import pytest
import scipy.sparse as sp

from diagnostic_forms import (
    assemble_c0,
    korn_constant_estimate,
    mass_matrix,
    trilinear_a1_quadrature,
    vector_gradient_gram,
)
from porousflow import scheme
from porousflow.assembly import (
    assemble_c1,
    assemble_load,
    assemble_mass_phi_rhs,
    make_context,
    pressure_volume_vector,
    quadratic_drag_weight,
)
from porousflow.characteristics import material_terms
from porousflow.fem import AnalyticVectorField, interpolate
from porousflow.mesh import generate_rect_mesh
from porousflow.porous import builtin_porosity, linear_drag_coeff
from reference_solve import _vector_mass, assemble_a0, assemble_b
from test_porous import POROSITY_RANGES
from test_saddle import ORDERING_MESHES


def const_velocity_coeffs(ctx, c):
    f = interpolate(ctx.vspace, lambda p: np.broadcast_to(
        np.asarray(c, float), (len(p), 2)).copy())
    return f


def test_a0_quadratic_form_of_linear_field(unit_ctx, params):
    # u = (x, -y): D = diag(1, -1), so 2 mu (D, D) = 4 mu |Omega|
    u = interpolate(unit_ctx.vspace, lambda p: np.column_stack(
        [p[:, 0], -p[:, 1]]))
    a0 = assemble_a0(unit_ctx)
    val = float(u.coefficients @ (a0 @ u.coefficients))
    assert val == pytest.approx(4.0 * params.mu, rel=1e-12)
    assert val == pytest.approx(3.556e-2, rel=1e-3)


def test_a0_constant_field_in_kernel(unit_ctx):
    u = const_velocity_coeffs(unit_ctx, (2.0, -3.0))
    a0 = assemble_a0(unit_ctx)
    assert np.abs(a0 @ u.coefficients).max() < 1e-13


def test_a0_symmetry_and_psd(unit_ctx, rng):
    a0 = assemble_a0(unit_ctx)
    assert abs(a0 - a0.T).max() < 1e-12
    for _ in range(5):
        x = rng.normal(size=a0.shape[0])
        assert x @ (a0 @ x) >= -1e-12


def test_b_against_divergence(unit_ctx):
    v = interpolate(unit_ctx.vspace, lambda p: np.column_stack(
        [p[:, 0], np.zeros(len(p))]))
    q = interpolate(unit_ctx.pspace, lambda p: np.ones(len(p)))
    b = assemble_b(unit_ctx)
    assert float(q.coefficients @ (b @ v.coefficients)) \
        == pytest.approx(-1.0, rel=1e-12)


def test_b_annihilates_divergence_free_quadratic(unit_ctx):
    # velocity from the stream function x^3 + x^2 y - y^3 (exactly in P2)
    def vel(p):
        x, y = p[:, 0], p[:, 1]
        return np.column_stack([x ** 2 - 3 * y ** 2, -3 * x ** 2 - 2 * x * y])

    v = interpolate(unit_ctx.vspace, vel)
    b = assemble_b(unit_ctx)
    assert np.abs(b @ v.coefficients).max() < 1e-12


def test_b_constant_velocity(unit_ctx):
    v = const_velocity_coeffs(unit_ctx, (1.0, 1.0))
    b = assemble_b(unit_ctx)
    assert np.abs(b @ v.coefficients).max() < 1e-13


def test_c0_vanishes_for_unit_porosity(unit_ctx):
    c0 = assemble_c0(unit_ctx)
    assert abs(c0).max() == 0.0


def test_c0_constant_porosity_value(unit_mesh, params):
    ctx = make_context(unit_mesh, builtin_porosity("constant", value=0.5),
                       params)
    c0 = assemble_c0(ctx)
    u = const_velocity_coeffs(ctx, (1.0, 0.0))
    val = float(u.coefficients @ (c0 @ u.coefficients))
    # oracle: phi/K(0.5) = a(1-phi)^2/(d_p phi)^2 = 150*0.25/(0.05*0.5)^2
    oracle = params.mu * 150.0 * 0.25 / (0.05 * 0.5) ** 2
    assert oracle == pytest.approx(533.4, rel=1e-12)
    assert val == pytest.approx(oracle, rel=1e-12)


def test_c0_dominates_alpha_mass(unit_mesh, params, rng):
    porosity = builtin_porosity("mms-sine")
    ctx = make_context(unit_mesh, porosity, params)
    c0 = assemble_c0(ctx)
    m = mass_matrix(ctx)
    alpha = linear_drag_coeff(POROSITY_RANGES["mms-sine"][1], params)
    for _ in range(5):
        x = rng.normal(size=c0.shape[0])
        assert x @ (c0 @ x) >= params.mu * alpha * (x @ (m @ x)) - 1e-10


def test_c1_zero_weight(unit_mesh, params):
    ctx = make_context(unit_mesh, builtin_porosity("constant", value=0.5),
                       params)
    theta = const_velocity_coeffs(ctx, (0.0, 0.0))
    c1 = assemble_c1(theta, ctx)
    assert abs(c1).max() == 0.0


def test_c1_constant_weight_value(unit_mesh, params):
    ctx = make_context(unit_mesh, builtin_porosity("constant", value=0.5),
                       params)
    theta = const_velocity_coeffs(ctx, (1.0, 0.0))
    u = const_velocity_coeffs(ctx, (1.0, 0.0))
    c1 = assemble_c1(theta, ctx)
    val = float(u.coefficients @ (c1 @ u.coefficients))
    # oracle: rho * F(0.5) * 0.5 / sqrt(K(0.5)) = rho * 70
    assert val == pytest.approx(params.rho * 70.0, rel=1e-12)
    assert val == pytest.approx(69.657, rel=1e-4)


def test_c1_nonnegative(unit_mesh, params, rng):
    ctx = make_context(unit_mesh, builtin_porosity("mms-sine"), params)
    theta = interpolate(ctx.vspace, lambda p: np.column_stack(
        [np.sin(p[:, 0]), np.cos(p[:, 1])]))
    c1 = assemble_c1(theta, ctx)
    assert abs(c1 - c1.T).max() < 1e-12
    for _ in range(5):
        x = rng.normal(size=c1.shape[0])
        assert x @ (c1 @ x) >= -1e-12


@pytest.mark.parametrize("kind", sorted(ORDERING_MESHES))
def test_c1_matches_the_einsum_mass_matrix(kind, params):
    # the P2-product contraction of the step solver against the tests' own
    # einsum over the P2 values, which sums in another order
    ctx = make_context(ORDERING_MESHES[kind][0](12),
                       builtin_porosity("mms-sine"), params)
    rng = np.random.default_rng(11)
    theta = interpolate(ctx.vspace, lambda p: rng.normal(size=(len(p), 2)))
    c1 = assemble_c1(theta, ctx)
    reference = _vector_mass(ctx, quadratic_drag_weight(
        ctx.tables.at_quad(theta), ctx))
    assert c1.shape == reference.shape
    assert abs(c1 - reference).max() <= 1e-13 * abs(reference).max()


def test_drag_weight_rejects_a_field_of_another_space(unit_ctx, params):
    # the (0,2)^2 mesh at n = 4 has as many velocity dofs (162) as the unit
    # square's, so only the space itself tells the two apart
    other = make_context(generate_rect_mesh((0.0, 2.0), (0.0, 2.0), 4),
                         builtin_porosity("constant", value=1.0), params)
    assert other.vspace.dof_count == unit_ctx.vspace.dof_count == 162
    for theta in (const_velocity_coeffs(other, (1.0, 0.0)),
                  interpolate(unit_ctx.pspace, lambda p: p[:, 0])):
        with pytest.raises(ValueError, match="^theta_field must live on the "
                                             "velocity space$"):
            assemble_c1(theta, unit_ctx)
    # the weight itself takes one velocity per quadrature point, (nt, nq, 2)
    tables = unit_ctx.tables
    values = tables.at_quad(const_velocity_coeffs(unit_ctx, (1.0, 0.0)))
    assert values.shape == (32, 7, 2)
    assert np.array_equal(quadratic_drag_weight(values, unit_ctx),
                          unit_ctx.quadratic_drag)
    pressure = tables.at_quad(interpolate(unit_ctx.pspace, lambda p: p[:, 0]))
    for bad in (values.reshape(-1, 2), values.transpose(2, 0, 1),
                values[..., :1], values[:-1], pressure, 1.0):
        with pytest.raises(ValueError, match=r"expected \(32, 7, 2\)"):
            quadratic_drag_weight(bad, unit_ctx)


def test_load_zero(unit_ctx):
    rhs = assemble_load(lambda p, t: np.zeros((len(p), 2)), unit_ctx, 0.0)
    assert np.abs(rhs).max() == 0.0


def test_load_constant_matches_mass_rows(unit_ctx):
    c = np.array([1.3, -0.6])
    rhs = assemble_load(lambda p, t: np.broadcast_to(c, (len(p), 2)).copy(),
                        unit_ctx, 0.0)
    u = const_velocity_coeffs(unit_ctx, c)
    m = mass_matrix(unit_ctx)
    assert rhs == pytest.approx(m @ u.coefficients, abs=1e-12)


def test_load_mms_forcing_finite(pi_mesh, params, mms_case):
    ctx = make_context(pi_mesh, mms_case.porosity, params)
    rhs = assemble_load(mms_case.f, ctx, 0.0)
    assert np.isfinite(rhs).all()
    assert np.abs(rhs).max() > 0.0


def test_trilinear_zero_cases(unit_ctx):
    zero = AnalyticVectorField(lambda p: np.zeros((len(p), 2)),
                               lambda p: np.zeros((len(p), 2, 2)))
    some = AnalyticVectorField(
        lambda p: np.column_stack([np.sin(p[:, 0]), p[:, 1]]),
        lambda p: np.stack([np.column_stack([np.cos(p[:, 0]),
                                             np.zeros(len(p))]),
                            np.column_stack([np.zeros(len(p)),
                                             np.ones(len(p))])], axis=1))
    const = AnalyticVectorField(lambda p: np.ones((len(p), 2)),
                                lambda p: np.zeros((len(p), 2, 2)))
    assert trilinear_a1_quadrature(zero, some, some, unit_ctx) == 0.0
    assert trilinear_a1_quadrature(some, const, some, unit_ctx) \
        == pytest.approx(0.0, abs=1e-14)


def test_trilinear_value(unit_ctx, params):
    # u = (1, 0), w = (x y, 0), v = (1, 0): integral of y over unit square
    u = AnalyticVectorField(lambda p: np.column_stack(
        [np.ones(len(p)), np.zeros(len(p))]), None)
    w_grad = lambda p: np.stack(
        [np.column_stack([p[:, 1], p[:, 0]]),
         np.zeros((len(p), 2))], axis=1)
    w = AnalyticVectorField(None, w_grad)
    val = trilinear_a1_quadrature(u, w, u, unit_ctx)
    assert val == pytest.approx(params.rho * 0.5, rel=1e-12)


def step_kinds(ctx, tau, monkeypatch):
    """The kinds of step that ``scheme``'s start-up and general entry points
    hand to the step routine, with zero data."""
    seen = []
    monkeypatch.setattr(scheme, "_step",
                        lambda setup, kind, *args: seen.append(kind))
    zero = lambda pts, t=None: np.zeros((len(pts), 2))
    setup = scheme.ProblemSetup(ctx=ctx, u_initial=zero, dirichlet=zero,
                                tau=tau, t_final=1.0)
    u0 = interpolate(ctx.vspace, zero)
    # the captured step routine never solves, so no solver is built
    scheme.initial_step(setup, u0, None)
    scheme.general_step(setup, scheme.SchemeState(u0, 2, u0), None)
    return seen


def step_scales(ctx, tau, monkeypatch):
    """``(mass scale, right-hand-side scale)`` of the start-up step and of a
    general step: their kinds' scales times ``rho / tau``, as the step
    routine forms them."""
    rho = ctx.params.rho
    return [(kind.mass * rho / tau, kind.rhs * rho / tau)
            for kind in step_kinds(ctx, tau, monkeypatch)]


def test_mass_phi_rhs_zero_history(unit_ctx, monkeypatch):
    (m_scale, r_scale), _ = step_scales(unit_ctx, 0.1, monkeypatch)
    rhs = assemble_mass_phi_rhs(np.zeros(unit_ctx.tables.qpoints_flat.shape),
                                unit_ctx, r_scale)
    assert np.abs(rhs).max() == 0.0
    assert rhs.shape == (unit_ctx.vspace.dof_count,)
    assert m_scale == pytest.approx(unit_ctx.params.rho / 0.1, rel=1e-15)
    assert r_scale == pytest.approx(unit_ctx.params.rho / 0.1, rel=1e-15)


def test_mass_scaling_ratio(unit_ctx, monkeypatch):
    (s_init, _), (s_gen, r_gen) = step_scales(unit_ctx, 0.1, monkeypatch)
    m = mass_matrix(unit_ctx)
    ratio = (s_gen * m).diagonal() / (s_init * m).diagonal()
    assert ratio == pytest.approx(np.full_like(ratio, 1.5), rel=1e-14)
    rho_tau = unit_ctx.params.rho / 0.1
    assert s_gen == pytest.approx(1.5 * rho_tau, rel=1e-15)
    assert r_gen == pytest.approx(0.5 * rho_tau, rel=1e-15)


@pytest.mark.parametrize("index", [0, 1], ids=["start-up", "general"])
def test_mass_phi_rhs_uniform_fixed_point(index, unit_mesh, params,
                                          monkeypatch):
    # a uniform state is a fixed point of both kinds of step: the mass scale
    # is the right-hand-side scale times the sum of the bracket coefficients
    phi_bar = 0.7
    ctx = make_context(unit_mesh, builtin_porosity("constant", value=phi_bar),
                       params)
    kind = step_kinds(ctx, 0.1, monkeypatch)[index]
    m_scale, r_scale = step_scales(ctx, 0.1, monkeypatch)[index]
    assert m_scale == pytest.approx(r_scale * sum(kind.bracket), rel=1e-15)
    c = np.array([0.4, -0.2])
    u = const_velocity_coeffs(ctx, phi_bar * c)
    u_at = ctx.tables.at_quad(u).reshape(-1, 2)
    g = lambda p: np.broadcast_to(phi_bar * c, (len(p), 2)).copy()
    bracket, _ = material_terms(
        [(u, m, b, g) for m, b in zip(kind.feet, kind.bracket)],
        ctx.porosity, 0.1, ctx.tables.qpoints_flat,
        theta_at=sum(kind.velocity) * u_at, phi_at=ctx.phi_q.ravel())
    rhs = assemble_mass_phi_rhs(bracket, ctx, r_scale)
    residual = m_scale * (mass_matrix(ctx) @ u.coefficients) - rhs
    assert np.abs(residual).max() < 1e-10


def test_korn_estimate_positive_and_bounds(unit_ctx, params, rng):
    beta0 = korn_constant_estimate(unit_ctx)
    assert beta0 > 0.0
    a0 = assemble_a0(unit_ctx)
    h1 = mass_matrix(unit_ctx) + vector_gradient_gram(unit_ctx)
    from porousflow.fem import boundary_nodes
    fixed_nodes = boundary_nodes(unit_ctx.vspace)
    fixed = np.concatenate([2 * fixed_nodes, 2 * fixed_nodes + 1])
    for _ in range(10):
        x = rng.normal(size=a0.shape[0])
        x[fixed] = 0.0
        lhs = x @ (a0 @ x)
        rhs = 2.0 * params.mu * beta0 ** 2 * (x @ (h1 @ x))
        assert lhs >= rhs * (1.0 - 1e-8)


def test_forms_converge_under_refinement(params):
    # a0 on interpolants of u = (sin y, 0): exact value mu * pi^2 / 2
    exact = params.mu * math.pi ** 2 / 2.0
    errs = []
    for n in (8, 16, 32):
        mesh = generate_rect_mesh((0.0, math.pi), (0.0, math.pi), n)
        ctx = make_context(mesh, builtin_porosity("constant", value=1.0),
                           params)
        u = interpolate(ctx.vspace, lambda p: np.column_stack(
            [np.sin(p[:, 1]), np.zeros(len(p))]))
        a0 = assemble_a0(ctx)
        errs.append(abs(float(u.coefficients @ (a0 @ u.coefficients)) - exact))
    order1 = math.log2(errs[0] / errs[1])
    order2 = math.log2(errs[1] / errs[2])
    assert order1 >= 2.0 - 0.3
    assert order2 >= 2.0 - 0.3


def test_pressure_volume_vector(unit_ctx):
    c = pressure_volume_vector(unit_ctx)
    assert c.sum() == pytest.approx(1.0, rel=1e-12)  # total area


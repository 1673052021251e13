import dataclasses
import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import porousflow
from diagnostic_forms import korn_constant_estimate, trilinear_a1_quadrature
from porousflow.assembly import make_context
from porousflow.fem import AnalyticVectorField, interpolate
from porousflow.mesh import generate_rect_mesh
from porousflow.porous import (
    builtin_porosity,
    forchheimer_coeff,
    linear_drag_coeff,
)
from porousflow.verification import (
    _SpatialTables,
    _stack,
    ab2_consistency_check,
    build_mms_case,
    default_consistency_field,
    transport_identity_check,
    run_eoc,
    write_eoc_csv,
)


# -- manufactured solution ---------------------------------------------------------

def _fd1(f, x, d, h=1e-4):
    """Fourth-order first derivative of a vectorized scalar/vector function."""
    e = np.zeros(x.shape[-1])
    e[d] = 1.0
    return (-f(x + 2 * h * e) + 8 * f(x + h * e)
            - 8 * f(x - h * e) + f(x - 2 * h * e)) / (12 * h)


def _fd1_t(f, x, t, h=1e-4):
    return (-f(x, t + 2 * h) + 8 * f(x, t + h)
            - 8 * f(x, t - h) + f(x, t - 2 * h)) / (12 * h)


def test_momentum_residual_against_fd_oracle(mms_case, rng):
    """Substitute the closed forms back into the momentum balance using only
    finite differences of u, p, and phi (independent of the symbolic path)."""
    p = mms_case.params
    phi_field = mms_case.porosity
    pts = np.column_stack([rng.uniform(0.2, 2.9, 100),
                           rng.uniform(0.2, 2.9, 100)])
    ts = rng.uniform(0.05, 0.95, 100)
    worst = 0.0
    for i in range(0, 100, 7):
        x = pts[i:i + 1]
        t = float(ts[i])
        u_of_x = lambda xx: mms_case.u(xx, t)
        u_t = _fd1_t(mms_case.u, x, t)[0]
        du = np.stack([_fd1(u_of_x, x, d)[0] for d in range(2)], axis=1)
        phi = float(phi_field.value(x)[0])
        dphi = np.array([_fd1(lambda xx: phi_field.value(xx), x, d)[0]
                         for d in range(2)])
        uv = mms_case.u(x, t)[0]
        w_grad = du / phi - np.outer(uv, dphi) / phi ** 2
        conv = w_grad @ uv
        # divergence of the viscous stress via second differences of u
        h = 1e-4

        def d2(f, d1_, d2_):
            e1, e2 = np.zeros(2), np.zeros(2)
            e1[d1_], e2[d2_] = h, h
            return (f(x + e1 + e2) - f(x + e1 - e2)
                    - f(x - e1 + e2) + f(x - e1 - e2))[0] / (4 * h * h)

        lap_u = sum((-u_of_x(x + 2 * h * _e(d)) + 16 * u_of_x(x + h * _e(d))
                     - 30 * u_of_x(x) + 16 * u_of_x(x - h * _e(d))
                     - u_of_x(x - 2 * h * _e(d)))[0] / (12 * h * h)
                    for d in range(2))
        grad_div = np.array([
            d2(lambda xx: u_of_x(xx)[:, 0], 0, c)
            + d2(lambda xx: u_of_x(xx)[:, 1], 1, c)
            for c in range(2)])
        dp = np.array([_fd1(lambda xx: mms_case.p(xx, t), x, d)[0]
                       for d in range(2)])
        speed = float(np.hypot(*uv))
        drag = -(p.mu * linear_drag_coeff(phi, p)
                 + p.rho * forchheimer_coeff(phi, p) * speed) * uv
        residual = (p.rho * (u_t + conv) - p.mu * (lap_u + grad_div)
                    + dp - drag - mms_case.f(x, t)[0])
        worst = max(worst, np.abs(residual).max())
    assert worst <= 1e-6


def _e(d):
    e = np.zeros(2)
    e[d] = 1.0
    return e


def test_manufactured_velocity_divergence_free(mms_case, rng):
    pts = np.column_stack([rng.uniform(0.1, 3.0, 200),
                           rng.uniform(0.1, 3.0, 200)])
    g = mms_case.grad_u(pts, 0.37)
    assert np.abs(g[:, 0, 0] + g[:, 1, 1]).max() < 1e-12


def test_manufactured_point_values(mms_case):
    pt = np.array([[math.pi / 2, math.pi / 4]])
    u = mms_case.u(pt, 0.0)[0]
    assert u[0] == pytest.approx(-3 * math.sin(math.pi / 4) ** 2
                                 * math.cos(math.pi / 4), rel=1e-12)
    assert u[0] == pytest.approx(-1.06066, rel=1e-5)
    assert u[1] == pytest.approx(0.0, abs=1e-12)
    assert mms_case.p(pt, 0.0)[0] == pytest.approx(0.70711, rel=1e-5)


def _mms_points(n_div=6):
    mesh = generate_rect_mesh((0.0, math.pi), (0.0, math.pi), n_div)
    return mesh.vertices[mesh.triangles].mean(axis=1)


_MMS_NAMES = ("u", "grad_u", "p", "f")


def test_manufactured_memo_hit_equals_a_cold_case():
    """A call on held points (the spatial tables reused) gives the bits a
    fresh case computes, the tables built on the spot."""
    warm = build_mms_case()
    pts = _mms_points()
    for name in _MMS_NAMES:
        getattr(warm, name)(pts, 0.2)
    for t in (0.0, 0.45, 1.3):
        cold = build_mms_case()
        for name in _MMS_NAMES:
            assert np.array_equal(getattr(warm, name)(pts.copy(), t),
                                  getattr(cold, name)(pts, t))


def test_manufactured_values_follow_points_edited_in_place():
    case = build_mms_case()
    pts = _mms_points()
    before = {name: getattr(case, name)(pts, 0.3) for name in _MMS_NAMES}
    pts[:, 0] += 0.05
    pts[3, 1] = 1.0
    for name in _MMS_NAMES:
        value = getattr(case, name)(pts, 0.3)
        assert np.array_equal(value,
                              getattr(build_mms_case(), name)(pts, 0.3))
        assert not np.array_equal(value, before[name])


def test_manufactured_memo_holds_a_bounded_number_of_point_sets():
    tables = _SpatialTables()
    u = _stack(tables, "u", (2,))
    f = _stack(tables, "f", (2,))
    pts = _mms_points()
    u(pts, 0.1)
    f(pts, 0.1)
    assert len(tables._held) == 1     # one entry per point set, not per name
    for i in range(3 * _SpatialTables.SIZE):
        f(pts + 0.01 * i, 0.1)
        u(pts[: 5 + i], 0.1)
        assert len(tables._held) <= _SpatialTables.SIZE
    # the most recently used sets stay held
    held = [h for h, _ in tables._held]
    assert any(np.array_equal(h, pts[: 5 + i]) for h in held)


def test_generator_refuses_a_forcing_that_does_not_separate(monkeypatch):
    """Every quantity must be a polynomial in e^{-2t} with coefficients
    free of t; the generator raises on a forcing that is not."""
    sp = pytest.importorskip("sympy")
    import mms_derivation

    derive = mms_derivation.derive
    (x, y, t), _ = derive()
    mms_derivation.generate()   # the derivation itself separates
    for extra in (sp.sin(t), t * sp.exp(-2 * t), sp.exp(-t) * x):
        def mutant(extra=extra):
            args, stacks = derive()
            return args, [(name, [e + extra for e in exprs]
                           if name == "f" else exprs, shape)
                          for name, exprs, shape in stacks]

        monkeypatch.setattr(mms_derivation, "derive", mutant)
        with pytest.raises(ValueError, match=r"e\^\(-2t\)"):
            mms_derivation.generate()


# -- convergence records -----------------------------------------------------------

def test_run_eoc_structure_and_monotonicity(tmp_path):
    records = run_eoc([8, 16], t_final=1.0)
    assert [r.n for r in records] == [8, 16]
    assert records[0].slope1 is None
    assert records[1].slope1 is not None
    # errors decrease under simultaneous refinement
    assert records[1].er1 < records[0].er1
    assert records[1].er2 < records[0].er2
    path = tmp_path / "eoc.csv"
    write_eoc_csv(records, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "N,h,Er1,slope1,Er2,slope2"
    assert len(lines) == 3
    assert lines[1].split(",")[3] == ""  # no slope at the first resolution


# the study as recorded before the manufactured solution was separated into
# time and space factors: (N, er1, er2, final_rel1, final_rel2)
_EOC_8_16 = [
    (8, 0.6146937044117049, 0.6931358722946761, 0.33319831025086766,
     1.5488458348525709),
    (16, 0.38724470007055933, 0.6036317791371013, 0.07509782846232303,
     0.07920302432709297),
]


def test_run_eoc_reproduces_the_recorded_study():
    records = run_eoc([8, 16])
    got = [(r.n, r.er1, r.er2, r.final_rel1, r.final_rel2) for r in records]
    assert [g[0] for g in got] == [w[0] for w in _EOC_8_16]
    for g, w in zip(got, _EOC_8_16):
        assert g[1:] == pytest.approx(w[1:], rel=1e-10, abs=0.0)


_NO_SYMPY_SCRIPT = textwrap.dedent("""
    import dataclasses
    import json
    import sys

    sys.modules["sympy"] = None   # every import of sympy now fails
    from porousflow.verification import build_mms_case, run_eoc

    build_mms_case()
    print(json.dumps([dataclasses.asdict(r) for r in run_eoc([4, 8])]))
""")


def test_manufactured_case_and_eoc_run_without_sympy():
    """The run-time path executes the generated module, so a process that
    cannot import sympy builds the case and records the same study."""
    src = os.path.dirname(os.path.dirname(porousflow.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", _NO_SYMPY_SCRIPT], env=env,
                         capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == [dataclasses.asdict(r)
                                      for r in run_eoc([4, 8])]


def test_run_eoc_requires_ascending_list():
    with pytest.raises(ValueError):
        run_eoc([16, 8])


def test_run_eoc_rejects_a_repeated_resolution_before_any_level():
    levels = []
    with pytest.raises(ValueError, match="ascending without repeats"):
        run_eoc([8, 8], progress=levels.append)
    assert levels == []


# -- transport identity -------------------------------------------------------------

def zero_vec_field():
    return AnalyticVectorField(lambda p: np.zeros((len(p), 2)),
                               lambda p: np.zeros((len(p), 2, 2)))


def test_transport_identity_zero_field(params):
    rep = transport_identity_check(zero_vec_field(),
                                builtin_porosity("constant", value=0.5),
                                n_divisions=8, degree=2)
    assert rep.lhs == 0.0
    assert rep.rhs == 0.0


def test_transport_identity_constant_field_and_porosity():
    const = AnalyticVectorField(
        lambda p: np.broadcast_to([0.8, -0.4], (len(p), 2)).copy(),
        lambda p: np.zeros((len(p), 2, 2)))
    rep = transport_identity_check(const, builtin_porosity("constant", value=0.5),
                                n_divisions=8, degree=2)
    # interior terms vanish; the closed-contour flux of a constant is zero
    assert rep.lhs == pytest.approx(0.0, abs=1e-14)
    assert rep.interior_term == pytest.approx(0.0, abs=1e-14)
    assert rep.boundary_term == pytest.approx(0.0, abs=1e-13)


def test_transport_identity_manufactured_flow(mms_case):
    rep = transport_identity_check(mms_case.velocity_field(0.0),
                                mms_case.porosity, n_divisions=48, degree=9)
    assert rep.relative <= 1e-6
    assert rep.scale > 0.1  # the integrands are O(1); the check is not vacuous


def test_transport_identity_residual_shrinks_under_refinement(mms_case):
    # nondegenerate on the half square, where the identity sides are nonzero
    half = ((0.0, math.pi / 2.0), (0.0, math.pi))
    coarse = transport_identity_check(mms_case.velocity_field(0.0),
                                   mms_case.porosity, extents=half,
                                   n_divisions=8, degree=2)
    fine = transport_identity_check(mms_case.velocity_field(0.0),
                                 mms_case.porosity, extents=half,
                                 n_divisions=32, degree=9)
    assert abs(fine.lhs) > 0.01  # genuinely nonzero sides
    assert fine.residual < coarse.residual / 100.0


# -- temporal order of the transport formula ------------------------------------------

def test_ab2_uniform_field_exact():
    const = lambda p, t: np.broadcast_to([0.4, 0.1], (len(p), 2)).copy()
    mat = lambda p, t: np.zeros((len(p), 2))
    rep = ab2_consistency_check(const, mat, taus=(0.1, 0.05))
    assert max(rep.errors) < 1e-14


def test_ab2_linear_in_time_exact():
    c = np.array([0.3, -0.2])
    w = lambda p, t: np.broadcast_to(t * c, (len(p), 2)).copy()
    mat = lambda p, t: np.broadcast_to(c, (len(p), 2)).copy()
    rep = ab2_consistency_check(w, mat, taus=(0.2, 0.1))
    assert max(rep.errors) < 1e-13


def test_ab2_smooth_field_second_order():
    w, mat = default_consistency_field()
    rep = ab2_consistency_check(w, mat)
    assert 1.8 <= rep.observed_order <= 2.2


# -- diagnostic forms and the start-up step -----------------------------------------

def test_korn_estimate_stable_across_resolutions(params):
    values = []
    for n in (6, 10):
        mesh = generate_rect_mesh((0.0, math.pi), (0.0, math.pi), n)
        ctx = make_context(mesh, builtin_porosity("constant", value=1.0),
                           params)
        values.append(korn_constant_estimate(ctx))
    assert all(v > 0.1 for v in values)
    assert abs(values[0] - values[1]) < 0.2


def test_trilinear_form_matches_identity_lhs(mms_case, params):
    # the convective-form diagnostic and the identity check compute the same
    # integral through independent code paths
    u = mms_case.velocity_field(0.0)
    phi = mms_case.porosity

    def w_value(p):
        return u.value(p) / phi.value(p)[:, None]

    def w_grad(p):
        gu = u.grad(p)
        val = u.value(p)
        ph = phi.value(p)
        gp = phi.grad(p)
        return gu / ph[:, None, None] \
            - np.einsum("nc,nd->ncd", val, gp) / (ph ** 2)[:, None, None]

    w = AnalyticVectorField(w_value, w_grad)
    mesh = generate_rect_mesh((0.0, math.pi / 2), (0.0, math.pi), 16)
    ctx = make_context(mesh, phi, params)
    a1_val = trilinear_a1_quadrature(u, w, u, ctx) / params.rho
    rep = transport_identity_check(u, phi,
                                extents=((0.0, math.pi / 2), (0.0, math.pi)),
                                n_divisions=16, degree=5)
    assert a1_val == pytest.approx(rep.lhs, rel=1e-12)


def test_initial_step_error_is_bounded(mms_case):
    # regression guard on the start-up step accuracy at N=16, tau=h
    from porousflow.saddle import StepSolver
    from porousflow.scheme import ProblemSetup, initial_step
    from porousflow.fem import error_norm
    mesh = generate_rect_mesh((0.0, math.pi), (0.0, math.pi), 16)
    ctx = make_context(mesh, mms_case.porosity, mms_case.params)
    tau = math.pi / 16
    setup = ProblemSetup(ctx=ctx, u_initial=lambda p: mms_case.u(p, 0.0),
                         dirichlet=mms_case.u, forcing=mms_case.f,
                         tau=tau, t_final=1.0, gauge=True)
    u0 = interpolate(ctx.vspace, setup.u_initial)
    solver = StepSolver(ctx, *setup.constant_blocks(), setup.constraints)
    result = initial_step(setup, u0, solver)
    err = error_norm(result.u, mms_case.u, "H1", tau,
                     exact_grad=mms_case.grad_u)
    assert np.isfinite(err)
    assert err < 0.5  # measured 0.39; the start-up step is first order


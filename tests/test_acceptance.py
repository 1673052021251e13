"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 1 (the convergence-error bands) fails.  Its measured error
budget on the manufactured solution, N = 8, 16, 32 with tau = h:

- Er1 and Er2 are maxima over every time level, t = 0 included.  At N = 32
  the H1 error of the interpolated initial velocity is already 2.27e-2,
  above the 7e-3 band.
- The maxima sit at steps 1-2, the transient of the first-order start-up
  step.  At N = 32 the H1 velocity error is 0.188 at step 1 and 0.084 at
  step 2, and the L2 pressure error 0.390 and then 0.315.
- The final-time errors converge at order about 2.1: 2.15 (H1 velocity)
  and 2.08 (L2 pressure) from N = 16 to N = 32.

The test asserts the stated bands anyway and fails, printing the measured
values.
"""

import math
import os

import numpy as np
import pytest

from porousflow.assembly import make_context
from porousflow.fem import interpolate, norm
from porousflow.mesh import generate_rect_mesh
from porousflow.porous import (
    PhysicalParams,
    builtin_porosity,
    forchheimer_coeff,
    linear_drag_coeff,
    validate_porosity_admissibility,
)
from porousflow.scheme import ProblemSetup, run
from porousflow.verification import (
    ab2_consistency_check,
    build_mms_case,
    default_consistency_field,
    drag_equivalence_check,
    polynomial_exactness_check,
    transport_identity_check,
    run_eoc,
)
from porousflow import cases as case_lib


def report(capsys, num, name, ok, detail):
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"\nACCEPTANCE {num} [{name}]: {verdict} - {detail}")


@pytest.fixture(scope="module")
def eoc_records():
    return run_eoc([8, 16, 32], t_final=1.0)


@pytest.fixture(scope="module")
def stability_run():
    """Decay run: no forcing, homogeneous walls, admissible flat porosity."""
    case = build_mms_case()
    params = PhysicalParams()
    mesh = generate_rect_mesh((0.0, math.pi), (0.0, math.pi), 24)
    ctx = make_context(mesh, builtin_porosity("constant", value=0.5), params)
    setup = ProblemSetup(
        ctx=ctx,
        u_initial=lambda p: case.u(p, 0.0),
        dirichlet=lambda p, t: np.zeros((len(p), 2)),
        forcing=None,
        tau=math.pi / 24,
        t_final=1.0,
        gauge=True,
    )
    u0 = interpolate(ctx.vspace, setup.u_initial)
    summary = run(setup)
    return norm(u0, "L2"), summary


@pytest.fixture(scope="module")
def two_layer_run():
    """Scaled-down channel run through the layered medium, to t = 5 s."""
    case = case_lib.get_case("two-layer")
    mesh, ctx, setup = case_lib.build_setup(case, n=60)
    qp = ctx.tables.qpoints_flat
    top = qp[:, 1] > 0.55
    bottom = qp[:, 1] < 0.45
    layer_means = []

    def sample(k, t, u_field, p_field, diag):
        if t >= 0.5 and (k % 10 == 0 or k == setup.n_steps):
            speed = np.sqrt(
                (ctx.tables.at_quad(u_field).reshape(-1, 2) ** 2).sum(1))
            layer_means.append((t, float(speed[top].mean()),
                                float(speed[bottom].mean())))

    summary = run(setup, observers=[sample])
    return summary, layer_means


def test_criterion_1_eoc_bands(eoc_records, capsys):
    by_n = {r.n: r for r in eoc_records}
    r32 = by_n[32]
    checks = {
        "slope1(16->32) in [1.7, 2.4]": 1.7 <= r32.slope1 <= 2.4,
        "slope2(16->32) in [1.7, 2.6]": 1.7 <= r32.slope2 <= 2.6,
        "Er1(32) <= 7.0e-3": r32.er1 <= 7.0e-3,
        "Er2(32) <= 5.8e-4": r32.er2 <= 5.8e-4,
    }
    detail = (f"Er1(32)={r32.er1:.3e}, Er2(32)={r32.er2:.3e}, "
              f"slopes=({r32.slope1:.2f}, {r32.slope2:.2f}); "
              + "; ".join(f"{k}: {'ok' if v else 'violated'}"
                          for k, v in checks.items()))
    report(capsys, 1, "convergence-error bands", all(checks.values()), detail)
    assert all(checks.values()), (
        "measured budget: at N=32 the H1 error of the interpolated initial "
        "velocity (t=0) is 2.27e-2, above the 7e-3 Er1 band, and the maxima "
        "sit at steps 1-2, the transient of the first-order start-up step at "
        f"tau = h ({detail})")


@pytest.mark.skipif(os.environ.get("POROUSFLOW_EOC_FULL") != "1",
                    reason="long run; set POROUSFLOW_EOC_FULL=1 to enable")
def test_criterion_1_optional_n128(capsys):
    records = run_eoc([64, 128], t_final=1.0)
    r128 = records[-1]
    ok = r128.er1 <= 5.6e-4
    report(capsys, 1, "optional N=128 band", ok, f"Er1(128)={r128.er1:.3e}")
    assert ok, f"Er1(128)={r128.er1:.3e} exceeds 5.6e-4"


def test_criterion_2_polynomial_exactness(unit_ctx, capsys):
    u_err, p_err = polynomial_exactness_check(unit_ctx)
    ok = u_err <= 1e-10 and p_err <= 1e-10
    report(capsys, 2, "mixed-element polynomial exactness", ok,
           f"nodal errors u={u_err:.2e}, p={p_err:.2e}")
    assert u_err <= 1e-10
    assert p_err <= 1e-10


def test_criterion_3_drag_equivalence(params, capsys):
    rel_lin, rel_quad = drag_equivalence_check(params, seed=3)
    exact_zero = (linear_drag_coeff(1.0, params) == 0.0
                  and forchheimer_coeff(1.0, params) == 0.0)
    ok = rel_lin < 1e-12 and rel_quad < 1e-12 and exact_zero
    report(capsys, 3, "drag coefficient equivalence", ok,
           f"worst relative {max(rel_lin, rel_quad):.2e}, "
           f"phi=1 exactly zero: {exact_zero}")
    assert rel_lin < 1e-12
    assert rel_quad < 1e-12
    assert exact_zero


def test_criterion_4_transport_identity(mms_case, capsys):
    rep = transport_identity_check(mms_case.velocity_field(0.0),
                                mms_case.porosity, n_divisions=48, degree=9)
    coarse = transport_identity_check(mms_case.velocity_field(0.0),
                                   mms_case.porosity, n_divisions=8, degree=2)
    half = ((0.0, math.pi / 2.0), (0.0, math.pi))
    h_coarse = transport_identity_check(mms_case.velocity_field(0.0),
                                     mms_case.porosity, extents=half,
                                     n_divisions=8, degree=2)
    h_fine = transport_identity_check(mms_case.velocity_field(0.0),
                                   mms_case.porosity, extents=half,
                                   n_divisions=32, degree=9)
    shrinks = (rep.residual <= coarse.residual + 1e-15
               and h_fine.residual < h_coarse.residual)
    ok = rep.relative <= 1e-6 and shrinks
    report(capsys, 4, "transport identity", ok,
           f"relative residual {rep.relative:.2e} (degree 9); refinement "
           f"{h_coarse.residual:.2e} -> {h_fine.residual:.2e}")
    assert rep.relative <= 1e-6
    assert shrinks


def test_criterion_5_temporal_order(capsys):
    w, mat = default_consistency_field()
    rep = ab2_consistency_check(w, mat)
    ok = 1.8 <= rep.observed_order <= 2.2
    report(capsys, 5, "two-step transport order", ok,
           f"observed order {rep.observed_order:.3f}")
    assert 1.8 <= rep.observed_order <= 2.2


def test_criterion_6_incompressibility(stability_run, two_layer_run, capsys):
    _, stab = stability_run
    channel, _ = two_layer_run
    # a short driven run with the manufactured data as a third sample
    case = build_mms_case()
    mesh = generate_rect_mesh((0.0, math.pi), (0.0, math.pi), 8)
    ctx = make_context(mesh, case.porosity, case.params)
    setup = ProblemSetup(ctx=ctx, u_initial=lambda p: case.u(p, 0.0),
                         dirichlet=case.u, forcing=case.f,
                         tau=math.pi / 8, t_final=1.0, gauge=True)
    driven = run(setup)
    worst = max(rec["incompressibility_residual"]
                for summary in (stab, channel, driven)
                for rec in summary.steps)
    ok = worst <= 1e-10
    report(capsys, 6, "discrete incompressibility", ok,
           f"worst pressure-row residual {worst:.2e} over "
           f"{sum(len(s.steps) for s in (stab, channel, driven))} steps")
    assert worst <= 1e-10


def test_criterion_7_stability_monitor(stability_run, capsys):
    n0, summary = stability_run
    norms = [rec["velocity_l2"] for rec in summary.steps]
    ok = max(norms) <= 2.0 * n0 and norms[-1] < n0
    report(capsys, 7, "stability budgets", ok,
           f"||u0||={n0:.3e}, max ratio {max(norms) / n0:.3f}, "
           f"final ratio {norms[-1] / n0:.2e}")
    assert max(norms) <= 2.0 * n0
    assert norms[-1] < n0


def test_criterion_8_porosity_validator(capsys):
    two = case_lib.get_case("two-layer")
    rep_two = validate_porosity_admissibility(two.porosity, two.params,
                                   (two.x_extent, two.y_extent),
                                   resolution=512)
    sin_case = case_lib.get_case("sinusoidal")
    rep_sin = validate_porosity_admissibility(sin_case.porosity, sin_case.params,
                                   (sin_case.x_extent, sin_case.y_extent),
                                   resolution=256)
    margin_ok = abs(rep_two.max_margin - 116.0) <= 8.0
    location_ok = abs(rep_two.argmax[1] - 0.5) < 0.01
    ok = ((not rep_two.passed) and margin_ok and location_ok
          and rep_sin.passed)
    report(capsys, 8, "porosity admissibility validator", ok,
           f"two-layer margin {rep_two.max_margin:.1f} cm^-1 at "
           f"y={rep_two.argmax[1]:.4f} (FAIL expected), sinusoidal "
           f"{'PASS' if rep_sin.passed else 'FAIL'}")
    assert not rep_two.passed
    assert margin_ok and location_ok
    assert rep_sin.passed


def test_criterion_9_layered_channel_asymmetry(two_layer_run, capsys):
    summary, layer_means = two_layer_run
    finite = all(np.isfinite(rec["velocity_l2"]) for rec in summary.steps)
    assert len(layer_means) >= 5
    strict = all(top > bottom for _, top, bottom in layer_means)
    t_final_ratio = layer_means[-1][1] / layer_means[-1][2]
    ok = finite and strict
    report(capsys, 9, "layered channel asymmetry", ok,
           f"{summary.n_steps} steps to t=5 without NaN; top/bottom mean "
           f"speed ratio {t_final_ratio:.1f} at t=5, strictly larger at all "
           f"{len(layer_means)} sampled times >= 0.5 s")
    assert finite
    assert strict

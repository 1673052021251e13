import math

import numpy as np
import pytest

from porousflow.assembly import make_context, quadratic_drag_weight
from porousflow.fem import interpolate
from porousflow.porous import (
    SINUSOIDAL_GAMMA,
    TWO_LAYER_EPS,
    PhysicalParams,
    PorosityField,
    builtin_porosity,
    forchheimer_coeff,
    linear_drag_coeff,
    validate_porosity_admissibility,
)

# essential infimum and supremum of each bundled porosity over its domain;
# the mms-sine supremum: 2y/5 stays below pi/2 on [0, pi], sin increases
POROSITY_RANGES = {
    "mms-sine": (2.0 / 3.0, (2.0 + math.sin(0.4 * math.pi)) / 3.0),
    "two-layer": (0.4, 0.8),
    "sinusoidal": SINUSOIDAL_GAMMA,
}


def permeability_oracle(phi, p: PhysicalParams):
    """Compositional forms: K and F as defined, no simplification."""
    phi = np.asarray(phi, dtype=float)
    k = p.d_p ** 2 * phi ** 3 / (p.a * (1.0 - phi) ** 2)
    f = p.b / np.sqrt(p.a * phi ** 3)
    return k, f


def test_linear_drag_values(params):
    # oracle: evaluate K compositionally, then divide
    k, _ = permeability_oracle(0.4, params)
    assert 0.4 / k == pytest.approx(135000.0, rel=1e-12)
    assert linear_drag_coeff(0.4, params) == pytest.approx(135000.0, rel=1e-12)
    assert linear_drag_coeff(0.8, params) == pytest.approx(3750.0, rel=1e-12)
    assert linear_drag_coeff(1.0, params) == 0.0


def test_forchheimer_values(params):
    k, f = permeability_oracle(0.5, params)
    assert f * 0.5 / np.sqrt(k) == pytest.approx(70.0, rel=1e-12)
    assert forchheimer_coeff(0.5, params) == pytest.approx(70.0, rel=1e-12)
    assert forchheimer_coeff(1.0, params) == 0.0


def test_closed_forms_match_composition(params, rng):
    phi = rng.uniform(0.01, 0.999, 1000)
    k, f = permeability_oracle(phi, params)
    lin = linear_drag_coeff(phi, params)
    quad = forchheimer_coeff(phi, params)
    assert np.abs(lin - phi / k).max() / np.abs(phi / k).max() < 1e-12
    rel = np.abs(quad - f * phi / np.sqrt(k)) / (f * phi / np.sqrt(k))
    assert rel.max() < 1e-12


def test_phi_range_validated(params):
    with pytest.raises(ValueError):
        linear_drag_coeff(0.0, params)
    with pytest.raises(ValueError):
        forchheimer_coeff(1.2, params)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            linear_drag_coeff(np.array([0.5, bad]), params)
        with pytest.raises(ValueError):
            forchheimer_coeff(bad, params)


def test_params_positive():
    with pytest.raises(ValueError):
        PhysicalParams(mu=-1.0)
    with pytest.raises(ValueError):
        PhysicalParams(d_p=0.0)
    for name in ("mu", "rho", "d_p", "a", "b"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                PhysicalParams(**{name: bad})


def step_drag(porosity, u, mesh, params):
    """The drag a step applies at the quadrature points to the interpolant
    of ``u``, linearized about that velocity itself: the step's weights ``mu
    phi/K + rho F phi/sqrt(K) |u|`` times ``-u``.  Returns the drag and the
    velocity there."""
    ctx = make_context(mesh, porosity, params)
    field = interpolate(ctx.vspace, u)
    uq = ctx.tables.at_quad(field)
    weight = ctx.linear_drag + quadratic_drag_weight(uq, ctx)
    return -weight[..., None] * uq, uq


def uniform(c):
    return lambda p: np.broadcast_to(np.asarray(c, float), (len(p), 2)).copy()


def test_drag_weights_are_computed_once_per_context(params, unit_mesh):
    # the context-only factors are read-only attributes set with the
    # context, and the weights keep the arithmetic of the closed forms, so
    # every step is bitwise the same
    ctx = make_context(unit_mesh, builtin_porosity("sinusoidal"), params)
    field = interpolate(ctx.vspace, uniform([3.0, -2.0]))
    linear = ctx.linear_drag
    assert linear is ctx.linear_drag and not linear.flags.writeable
    assert not ctx.quadratic_drag.flags.writeable
    assert np.array_equal(linear, params.mu * linear_drag_coeff(ctx.phi_q,
                                                                 params))
    uq = ctx.tables.at_quad(field)
    speed = np.sqrt(uq[..., 0] ** 2 + uq[..., 1] ** 2)
    assert np.array_equal(quadratic_drag_weight(uq, ctx),
                          params.rho * forchheimer_coeff(ctx.phi_q, params)
                          * speed)
    with pytest.raises(ValueError):
        linear[0, 0] = 0.0


@pytest.mark.parametrize("bad", [0.0, -0.2, 1.5, np.nan])
def test_porosity_outside_unit_interval_fails_at_the_context(params,
                                                            unit_mesh, bad):
    # the drag factors are set with the context, so a porosity outside
    # (0, 1] at one quadrature point fails there rather than in a step
    porosity = PorosityField(
        "bad", lambda p: np.where(p[:, 0] > 0.9, bad, 0.5),
        lambda p: np.zeros((len(p), 2)))
    with pytest.raises(ValueError, match=r"^porosity must lie in \(0, 1\]$"):
        make_context(unit_mesh, porosity, params)


def test_drag_force_zero_cases(params, unit_mesh):
    drag, _ = step_drag(builtin_porosity("constant", value=0.7),
                        uniform([0.0, 0.0]), unit_mesh, params)
    assert np.abs(drag).max() == pytest.approx(0.0)
    drag, _ = step_drag(builtin_porosity("constant", value=1.0),
                        uniform([3.0, -2.0]), unit_mesh, params)
    assert np.abs(drag).max() == 0.0


def test_drag_force_value(params, unit_mesh):
    # oracle from the compositional forms: phi/K(0.5) = 60000, F phi/sqrt(K) = 70
    k, f = permeability_oracle(0.5, params)
    expected = -(params.mu * 0.5 / k + params.rho * f * 0.5 / np.sqrt(k))
    got, _ = step_drag(builtin_porosity("constant", value=0.5),
                       uniform([1.0, 0.0]), unit_mesh, params)
    assert got[..., 0] == pytest.approx(expected, rel=1e-12)
    assert got[..., 0] == pytest.approx(-603.057, rel=1e-4)
    assert (got[..., 1] == 0.0).all()


def test_drag_dissipates(params, unit_mesh, rng):
    # porosity ramping over [0.05, 1] across the unit square
    ramp = PorosityField("ramp", lambda p: 0.05 + 0.95 * p[:, 0],
                         lambda p: np.tile([0.95, 0.0], (len(p), 1)))
    drag, uq = step_drag(ramp, lambda p: rng.normal(0, 2.0, (len(p), 2)),
                         unit_mesh, params)
    power = (drag * uq).sum(axis=-1)
    assert (power <= 1e-14).all()


def test_alpha_constant(params, rng):
    # the linear drag floor a (1-phi1)^2 / (d_p^2 phi1^2), at the supremum
    # phi1 of a constant field: its one value
    pts = rng.uniform(0.0, 1.0, (50, 2))
    one = builtin_porosity("constant", value=1.0)
    assert linear_drag_coeff(one.value(pts).max(), params) == 0.0
    mixed = builtin_porosity("constant", value=0.8)
    assert linear_drag_coeff(mixed.value(pts).max(), params) \
        == pytest.approx(3750.0, rel=1e-12)


def test_alpha_lower_bounds_drag_on_grid(params, rng):
    field = builtin_porosity("sinusoidal")
    alpha = linear_drag_coeff(POROSITY_RANGES["sinusoidal"][1], params)
    pts = np.column_stack([rng.uniform(0, 3 * np.pi, 4000),
                           rng.uniform(0, np.pi, 4000)])
    lin = linear_drag_coeff(field.value(pts), params)
    assert lin.min() >= alpha - 1e-12


def test_hypothesis_constant_field(params):
    field = builtin_porosity("constant", value=0.5)
    rep = validate_porosity_admissibility(field, params, ((0, 1), (0, 1)), resolution=64)
    assert rep.passed
    assert rep.max_margin == pytest.approx(-35.0, rel=1e-12)


def test_hypothesis_sinusoidal_passes(params):
    field = builtin_porosity("sinusoidal")
    rep = validate_porosity_admissibility(field, params,
                               ((0, 3 * np.pi), (0, np.pi)), resolution=256)
    assert rep.passed
    # |grad phi| <= 0.5 while the bound is at least 70*(1-0.65) = 24.5
    assert rep.max_margin < -20.0


def test_hypothesis_two_layer_fails_at_interface(params):
    field = builtin_porosity("two-layer")
    rep = validate_porosity_admissibility(field, params, ((0, 3), (0, 1)),
                               resolution=512)
    assert not rep.passed
    # analytic peak: 0.4/eps = 144 against a bound of 28 at the midline
    assert rep.max_margin == pytest.approx(144.0 - 28.0, abs=8.0)
    assert abs(rep.argmax[1] - 0.5) < 0.01
    assert rep.n_violations > 0


@pytest.mark.parametrize("resolution", [128, 256])
def test_failing_report_counts_the_refined_layer(params, resolution):
    # at 128 the uniform grid steps over the 0.0056-thick layer; only the
    # refinement around the largest margin samples it
    field = builtin_porosity("two-layer")
    rep = validate_porosity_admissibility(field, params, ((0, 3), (0, 1)),
                                          resolution=resolution)
    assert not rep.passed
    assert rep.n_violations >= 1
    lo, hi = rep.violation_extent
    assert lo <= rep.argmax[1] <= hi
    # the band lies inside the transition layer |y - 1/2| < eps
    assert 0.5 - TWO_LAYER_EPS <= lo < hi <= 0.5 + TWO_LAYER_EPS
    assert "violation band" in rep.summary()


def test_negative_gphi_where_admissible(params, rng):
    field = builtin_porosity("sinusoidal")
    pts = np.column_stack([rng.uniform(0, 3 * np.pi, 2000),
                           rng.uniform(0, np.pi, 2000)])
    phi = field.value(pts)
    grad = field.grad(pts)
    g_phi = 0.5 / phi ** 2 * (np.sqrt((grad ** 2).sum(1))
                              - 2 * params.b / params.d_p * (1 - phi))
    assert (g_phi <= 0).all()


def test_builtin_values():
    mms = builtin_porosity("mms-sine")
    assert mms.value(np.array([[1.0, 0.0]]))[0] == pytest.approx(2 / 3)
    two = builtin_porosity("two-layer")
    pts = np.array([[0.7, 0.5], [0.7, 0.49], [0.7, 0.51]])
    assert two.value(pts) == pytest.approx([0.6, 0.4, 0.8], abs=1e-14)
    sin = builtin_porosity("sinusoidal")
    assert sin.value(np.array([[0.0, 0.0]]))[0] == pytest.approx(0.4)
    assert POROSITY_RANGES["sinusoidal"] == (0.15, 0.65)
    # the extremes, where |sin 2y cos 2x| = 1
    extremes = np.array([[np.pi / 2, np.pi / 4], [0.0, np.pi / 4]])
    assert sin.value(extremes) == pytest.approx([0.15, 0.65], abs=1e-15)


def test_builtin_range(rng):
    for name, bounds in [("mms-sine", ((0, np.pi), (0, np.pi))),
                         ("two-layer", ((0, 3), (0, 1))),
                         ("sinusoidal", ((0, 3 * np.pi), (0, np.pi)))]:
        field = builtin_porosity(name)
        pts = np.column_stack([rng.uniform(*bounds[0], 2000),
                               rng.uniform(*bounds[1], 2000)])
        vals = field.value(pts)
        assert (vals > 0).all() and (vals <= 1).all()
        phi0, phi1 = POROSITY_RANGES[name]
        assert vals.min() >= phi0 - 1e-12
        assert vals.max() <= phi1 + 1e-12


def test_builtin_gradients_match_central_differences(rng):
    h = 1e-6
    for name, bounds in [("mms-sine", ((0.1, 3.0), (0.1, 3.0))),
                         ("two-layer", ((0.1, 2.9), (0.4, 0.6))),
                         ("sinusoidal", ((0.1, 9.0), (0.1, 3.0))),
                         ("constant", ((0.1, 0.9), (0.1, 0.9)))]:
        field = builtin_porosity(name)
        pts = np.column_stack([rng.uniform(*bounds[0], 300),
                               rng.uniform(*bounds[1], 300)])
        grad = field.grad(pts)
        for d in range(2):
            e = np.zeros(2)
            e[d] = h
            fd = (field.value(pts + e) - field.value(pts - e)) / (2 * h)
            scale = max(np.abs(fd).max(), 1.0)
            assert np.abs(grad[:, d] - fd).max() / scale < 1e-6


def test_unknown_porosity_rejected():
    with pytest.raises(ValueError):
        builtin_porosity("granite")
    with pytest.raises(ValueError):
        builtin_porosity("constant", value=1.5)


def test_report_serialization(params):
    field = builtin_porosity("two-layer")
    rep = validate_porosity_admissibility(field, params, ((0, 3), (0, 1)), resolution=128)
    import json
    data = json.loads(rep.to_json())
    assert data["passed"] is False
    assert "max_margin" in data
    assert "FAIL" in rep.summary()

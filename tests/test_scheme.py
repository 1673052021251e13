import dataclasses
import math
import re
import weakref

import numpy as np
import pytest

from diagnostic_forms import assemble_c0, mass_matrix
from porousflow import saddle, scheme
from porousflow.assembly import make_context, quadratic_drag_weight
from porousflow.cases import build_case_mesh, build_setup, get_case
from porousflow.fem import (FeField, QuadTables, field_mean, interpolate,
                            norm)
from porousflow.mesh import generate_rect_mesh
from porousflow.porous import builtin_porosity
from porousflow.saddle import (
    Constraints,
    StepSolver,
    nested_dissection,
)
from porousflow.scheme import (
    ProblemSetup,
    SchemeDivergenceError,
    SchemeState,
    general_step,
    initial_step,
    run,
)
from reference_solve import (
    FreshSolver,
    ReferenceSystem,
    _vector_mass,
    global_blocks,
    renumbered,
)
from test_saddle import identity_lu


def zero_vec(p, t=None):
    return np.zeros((len(p), 2))


def step_solver(setup, kind=StepSolver):
    """The run's solver of ``setup``, or a stand-in of the same signature."""
    return kind(setup.ctx, *setup.constant_blocks(), setup.constraints)


def make_setup(params, n=6, tau=0.25, t_final=1.0, phi=None, u0=None, g=None,
               forcing=None, extent=1.0):
    mesh = generate_rect_mesh((0.0, extent), (0.0, extent), n)
    phi = phi or builtin_porosity("constant", value=1.0)
    ctx = make_context(mesh, phi, params)
    return ProblemSetup(
        ctx=ctx,
        u_initial=u0 or (lambda p: np.zeros((len(p), 2))),
        dirichlet=g or zero_vec,
        forcing=forcing,
        tau=tau,
        t_final=t_final,
    )


def run_records(setup):
    """Every step's record of a run of ``setup``, as its observers see
    them."""
    records = []
    run(setup, observers=[lambda k, t, u, p, d: records.append(d)])
    return records


def run_to_end(setup):
    """The step records of a run of ``setup`` and its last velocity and
    pressure, as an observer sees them."""
    records, last = [], {}

    def observe(k, t, u, p, d):
        records.append(d)
        last.update(u=u, p=p)

    run(setup, observers=[observe])
    return records, last["u"], last["p"]


def test_zero_data_gives_zero_solution(params):
    setup = make_setup(params)
    records, u, p = run_to_end(setup)
    assert len(records) == 4
    assert np.abs(u.coefficients).max() == 0.0
    assert np.abs(p.coefficients).max() < 1e-14


def test_setup_rejects_gauge_with_stress_free_edge(params):
    mesh = generate_rect_mesh((0.0, 1.0), (0.0, 1.0), 4,
                              stress_free=("right",))
    ctx = make_context(mesh, builtin_porosity("constant", value=1.0), params)
    with pytest.raises(ValueError, match="contradicts the boundary"):
        ProblemSetup(ctx=ctx, u_initial=zero_vec, dirichlet=zero_vec,
                     tau=0.25, t_final=1.0, gauge=True)


def _all_dirichlet_setup(params, gauge=None):
    """The all-Dirichlet unit square (no stress-free edge, so no edge fixes
    the pressure level), driven by a constant body force."""
    mesh = generate_rect_mesh((0.0, 1.0), (0.0, 1.0), 6)
    ctx = make_context(mesh, builtin_porosity("constant", value=1.0), params)
    return ProblemSetup(ctx=ctx, u_initial=zero_vec, dirichlet=zero_vec,
                        forcing=lambda p, t: np.ones((len(p), 2)), tau=0.25,
                        t_final=1.0, gauge=gauge)


def test_setup_gauges_a_boundary_without_stress_free_edge(params):
    setup = _all_dirichlet_setup(params)
    assert setup.gauge and setup.constraints.gauge
    _, _, p = run_to_end(setup)
    assert np.abs(p.coefficients).max() > 1e-3
    assert abs(field_mean(p)) <= 1e-12 * np.abs(p.coefficients).max()


def test_setup_rejects_ungauged_boundary_without_stress_free_edge(params):
    with pytest.raises(ValueError, match="contradicts the boundary"):
        _all_dirichlet_setup(params, gauge=False)
    # the set-up of make_setup as well
    ctx = make_setup(params).ctx
    with pytest.raises(ValueError):
        ProblemSetup(ctx=ctx, u_initial=zero_vec, dirichlet=zero_vec,
                     tau=0.25, t_final=1.0, gauge=False)


def test_run_builds_constraint_table_once(params, monkeypatch):
    calls = {"build": 0, "boundary_nodes": 0}
    build, nodes = Constraints.build.__func__, saddle.boundary_nodes

    def counting_build(cls, *args, **kwargs):
        calls["build"] += 1
        return build(cls, *args, **kwargs)

    def counting_nodes(*args, **kwargs):
        calls["boundary_nodes"] += 1
        return nodes(*args, **kwargs)

    monkeypatch.setattr(Constraints, "build", classmethod(counting_build))
    monkeypatch.setattr(saddle, "boundary_nodes", counting_nodes)
    records = run_records(make_setup(params, g=lambda p, t: np.column_stack(
        [np.full(len(p), t), np.zeros(len(p))])))
    assert len(records) == 4
    assert calls == {"build": 1, "boundary_nodes": 1}


def test_run_frees_viscous_table_before_factorizing(monkeypatch):
    # only the solver's build reads the (nt, 12, 12) viscous table, so no
    # reference to it is left once a step factorizes
    tables, alive = [], []
    build, factorize = scheme.viscous_elements, saddle.splu

    def tracked(ctx):
        table = build(ctx)
        tables.append(weakref.ref(table))
        return table

    def checking(*args, **kwargs):
        alive.append([ref() is not None for ref in tables])
        return factorize(*args, **kwargs)

    monkeypatch.setattr(scheme, "viscous_elements", tracked)
    monkeypatch.setattr(saddle, "splu", checking)
    _, _, setup = build_setup(get_case("two-layer"), 12, t_final=0.6)
    run(setup)
    assert alive == [[False], [False]]


def test_tau_exceeding_final_time_rejected(params):
    with pytest.raises(ValueError, match="^tau exceeds the final time; no "
                                         "steps to take$"):
        make_setup(params, tau=2.0, t_final=1.0)


def test_step_count_overflow_rejected(params):
    # t_final / tau is inf, which no step count holds
    with pytest.raises(ValueError, match=r"^t_final = 1e\+308 over tau = "
                                         r"1e-308 overflows; no step count$"):
        make_setup(params, tau=1e-308, t_final=1e308)


def test_mass_weight_beyond_the_factor_range_rejected(params):
    # 1.5 rho / tau of the general steps would overflow the float32 factor
    with pytest.raises(ValueError, match=r"^tau = 1e-300 gives the mass "
                                         r"weight 1\.5 rho / tau = "
                                         r"1\.49e\+300, beyond the range "
                                         r"of the step factor's float32$"):
        make_setup(params, tau=1e-300, t_final=1.0)


@pytest.mark.parametrize("name, value", [("tau", math.nan),
                                         ("t_final", math.inf),
                                         ("tau", -math.inf),
                                         ("tau", 0.0)])
def test_non_finite_times_rejected(params, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be positive and "
                                         "finite"):
        make_setup(params, **{name: value})


def test_step_count_and_observer_order(params):
    setup = make_setup(params, tau=0.25, t_final=1.0)
    seen = []
    run(setup, observers=[lambda k, t, u, p, d: seen.append((k, t))])
    assert [k for k, _ in seen] == [1, 2, 3, 4]
    assert [t for _, t in seen] == pytest.approx([0.25, 0.5, 0.75, 1.0])


def test_constant_state_preserved(params):
    c = np.array([0.7, -0.3])
    const = lambda p, t=None: np.broadcast_to(c, (len(p), 2)).copy()
    setup = make_setup(params, u0=lambda p: const(p), g=const)
    records, u, _ = run_to_end(setup)
    assert np.abs(u.node_values() - c).max() < 1e-9
    for rec in records:
        assert rec["incompressibility_residual"] <= 1e-10
        assert rec["algebraic_residual"] <= 1e-10


def test_initial_step_linearity_in_forcing(params):
    # u0 = 0 and g = 0 disable the quadratic drag weight, so the start-up
    # solve is linear in the body force
    def f1(p, t):
        return np.column_stack([np.sin(p[:, 1]), np.cos(p[:, 0])])

    def f2(p, t):
        return 2.0 * f1(p, t)

    results = []
    for forcing in (f1, f2):
        # each set-up has its own mesh, so its own initial field
        setup = make_setup(params, forcing=forcing)
        u0 = interpolate(setup.ctx.vspace, setup.u_initial)
        results.append(initial_step(setup, u0, step_solver(setup)))
    (u1, _, _), (u2, _, _) = results
    scale = np.abs(u1.coefficients).max()
    assert np.abs(u2.coefficients - 2.0 * u1.coefficients).max() \
        < 1e-9 * max(scale, 1.0)


def test_dirichlet_trace_matches_data_every_step(params):
    case_g = lambda p, t: np.column_stack(
        [0.1 * np.sin(math.pi * p[:, 1]) * (1.0 + 0.5 * t),
         np.zeros(len(p))])
    mesh = generate_rect_mesh((0.0, 1.0), (0.0, 1.0), 5,
                              stress_free=("right",))
    ctx = make_context(mesh, builtin_porosity("constant", value=0.8), params)
    setup = ProblemSetup(ctx=ctx, u_initial=lambda p: case_g(p, 0.0),
                         dirichlet=case_g, forcing=None, tau=0.25,
                         t_final=0.75)
    from porousflow.fem import boundary_nodes
    nodes = boundary_nodes(ctx.vspace)

    def check(k, t, u, p, d):
        expected = case_g(ctx.vspace.node_coords[nodes], t)
        assert (u.node_values()[nodes] == expected).all()

    run(setup, observers=[check])


def test_general_step_needs_full_history(params):
    setup = make_setup(params)
    u0 = interpolate(setup.ctx.vspace, setup.u_initial)
    with pytest.raises(ValueError):
        SchemeState(u_prev=u0, k=2)
    state = SchemeState(u_prev=u0, k=1)
    with pytest.raises(ValueError):
        general_step(setup, state, step_solver(setup))


def test_nan_forcing_aborts_with_step_index(params):
    def bad(p, t):
        out = np.zeros((len(p), 2))
        if t > 0.3:
            out[:] = np.nan
        return out

    setup = make_setup(params, forcing=bad)
    records = []
    with pytest.raises(SchemeDivergenceError,
                       match="^step 2: load not finite at ") as exc_info:
        run(setup, observers=[lambda k, t, u, p, d: records.append(d)])
    assert len(records) == 1  # step 1 was accepted
    # the load's own check names it, before the solver sees the right-hand
    # side
    assert isinstance(exc_info.value.__cause__, ValueError)
    assert str(exc_info.value.__cause__).startswith("load not finite at ")


def test_non_finite_dirichlet_data_abort_with_step_index(params):
    def bad(p, t):
        out = np.zeros((len(p), 2))
        if t > 0.3:
            out[0, 0] = np.nan
        return out

    setup = make_setup(params, g=bad)
    records = []
    with pytest.raises(SchemeDivergenceError,
                       match="^step 2: Dirichlet data not finite at 1 of "
                       ) as exc_info:
        run(setup, observers=[lambda k, t, u, p, d: records.append(d)])
    assert isinstance(exc_info.value.__cause__, ValueError)
    assert len(records) == 1


def test_observer_error_stops_the_run_as_itself(params, monkeypatch):
    # the observers run outside the step's try, so a failed write of an
    # observer (the command line's snapshots) is not a divergence
    steps = []
    general = scheme.general_step

    def counting(setup, state, solver):
        steps.append(state.k)
        return general(setup, state, solver)

    def failing(k, t, u, p, d):
        if k == 2:
            raise OSError("disk full")

    monkeypatch.setattr(scheme, "general_step", counting)
    with pytest.raises(OSError, match="^disk full$"):
        run(make_setup(params), observers=[failing])
    assert steps == [2]


def test_non_finite_initial_velocity_fails_before_the_solver(params,
                                                             monkeypatch):
    built = []
    monkeypatch.setattr(scheme, "StepSolver", lambda *args: built.append(1))

    def u0(p):
        out = np.zeros((len(p), 2))
        out[p[:, 0] > 0.5, 1] = np.nan
        return out

    setup = make_setup(params, u0=u0)
    coords = setup.ctx.vspace.node_coords
    n_bad = int((coords[:, 0] > 0.5).sum())
    first = coords[np.flatnonzero(coords[:, 0] > 0.5)[0]].tolist()
    with pytest.raises(ValueError,
                       match=re.escape(f"initial velocity not finite at "
                                       f"{n_bad} of {len(coords)} points, "
                                       f"first at {first}: ")):
        run(setup)
    assert not built


def test_decaying_flow_is_stable(params, mms_case):
    # drag-dominated decay: no growth of the velocity norm
    phi = builtin_porosity("constant", value=0.5)
    mesh = generate_rect_mesh((0.0, math.pi), (0.0, math.pi), 12)
    ctx = make_context(mesh, phi, params)
    setup = ProblemSetup(ctx=ctx,
                         u_initial=lambda p: mms_case.u(p, 0.0),
                         dirichlet=zero_vec, forcing=None,
                         tau=math.pi / 12, t_final=1.0, gauge=True)
    records = run_records(setup)
    from porousflow.fem import interpolate, norm
    u0 = interpolate(ctx.vspace, setup.u_initial)
    n0 = norm(u0, "L2")
    norms = [rec["velocity_l2"] for rec in records]
    assert max(norms) <= 2.0 * n0
    assert norms[-1] < n0


def _mms_setup(mms_case):
    n = 8
    mesh = generate_rect_mesh((0.0, math.pi), (0.0, math.pi), n)
    ctx = make_context(mesh, mms_case.porosity, mms_case.params)
    tau = math.pi / n
    return ProblemSetup(ctx=ctx, u_initial=lambda p: mms_case.u(p, 0.0),
                        dirichlet=mms_case.u, forcing=mms_case.f, tau=tau,
                        t_final=6.5 * tau, gauge=True)


def _two_layer_setup(mms_case):
    case = get_case("two-layer")
    tau = case.nominal_h(12)
    _, _, setup = build_setup(case, 12, tau=tau, t_final=6.5 * tau)
    assert not setup.gauge   # stress-free outlet
    return setup


def _sinusoidal_setup(mms_case, steps=6):
    case = get_case("sinusoidal")
    tau = case.nominal_h(40)
    _, _, setup = build_setup(case, 40, tau=tau, t_final=(steps + 0.5) * tau)
    return setup


def _sinusoidal_long_setup(mms_case):
    """Twelve steps: the late ones start from past solutions that leave
    GMRES a single iteration."""
    return _sinusoidal_setup(mms_case, steps=12)


def _fresh_steps(setup):
    """Every step through the public step functions with a stand-in solver
    that builds each step system from scratch and factorizes it on its
    own."""
    u0 = interpolate(setup.ctx.vspace, setup.u_initial)
    solver = step_solver(setup, FreshSolver)
    results = [initial_step(setup, u0, solver)]
    state = SchemeState(u_prev=results[0][0], k=2, u_prev2=u0)
    for k in range(2, setup.n_steps + 1):
        results.append(general_step(setup, state, solver))
        state = SchemeState(u_prev=results[-1][0], k=k + 1,
                            u_prev2=state.u_prev)
    return results


def _run_steps(setup):
    steps = []
    run(setup, observers=[lambda k, t, u, p, d: steps.append((u, p, d))])
    return steps


def _assert_same_fields(steps, fresh):
    assert len(steps) == len(fresh)
    for (u, p, _), (u_ref, p_ref, _) in zip(steps, fresh):
        for got, want in ((u, u_ref), (p, p_ref)):
            scale = np.abs(want.coefficients).max()
            assert np.abs(got.coefficients - want.coefficients).max() \
                <= 1e-12 * scale


@pytest.mark.parametrize("make", [_mms_setup, _two_layer_setup,
                                  _sinusoidal_setup, _sinusoidal_long_setup],
                         ids=["mms-gauged", "two-layer-stress-free",
                              "sinusoidal-40", "sinusoidal-40-12-steps"])
def test_run_reuses_factorization_and_matches_fresh_solves(mms_case, make):
    setup = make(mms_case)
    fresh = _fresh_steps(setup)
    assert all(record["factorized"] for _, _, record in fresh)
    steps = _run_steps(setup)
    _assert_same_fields(steps, fresh)
    diags = [d for _, _, d in steps]
    # start-up step and first general step factorize; the rest reuse
    assert [d["factorized"] for d in diags] == [True, True] \
        + [False] * (len(diags) - 2)
    assert all(d["krylov_iterations"] > 0 for d in diags[2:])


def test_sinusoidal_general_steps_reuse_the_lu(mms_case):
    # the direct solves of this case reach only about 6e-14, so GMRES with
    # the held LU cannot reach KRYLOV_RTOL; it stops near the direct solve's
    # own accuracy instead of refactorizing every step
    setup = _sinusoidal_setup(mms_case)
    diags = [d for _, _, d in _run_steps(setup)]
    assert [d["factorized"] for d in diags] == [True, True] \
        + [False] * (len(diags) - 2)
    direct = diags[1]["algebraic_residual"]
    assert direct > saddle.KRYLOV_RTOL
    for d in diags[2:]:
        assert 0 < d["krylov_iterations"] < saddle.KRYLOV_MAX_ITERATIONS
        assert d["algebraic_residual"] \
            <= saddle.DIRECT_RESIDUAL_MARGIN * direct


def test_each_step_evaluates_three_fields_at_the_quadrature_points(
        mms_case, monkeypatch):
    # the velocity the step linearizes around, then the two norms of the
    # step's fields; the feet and the drag share the first
    setup = _two_layer_setup(mms_case)
    kinds = []
    at_quad = QuadTables.at_quad

    def counting(self, field_):
        kinds.append(field_.space.kind)
        return at_quad(self, field_)

    monkeypatch.setattr(QuadTables, "at_quad", counting)
    per_step = []

    def step_done(k, t, u, p, d):
        per_step.append(kinds[:])
        kinds.clear()

    run(setup, observers=[step_done])
    assert len(per_step) == setup.n_steps == 6
    velocity, pressure = setup.ctx.vspace.kind, setup.ctx.pspace.kind
    assert per_step == [[velocity, velocity, pressure]] * 6


def test_one_theta_gives_the_feet_and_the_drag(mms_case, monkeypatch):
    setup = _two_layer_setup(mms_case)
    ctx = setup.ctx
    feet, drag = [], []

    def recording(name, store):
        original = getattr(scheme, name)

        def wrapped(*args, **kwargs):
            # material_terms(history, porosity, tau, points, theta_at, ...)
            store.append(args[4] if store is feet else args[0])
            return original(*args, **kwargs)
        monkeypatch.setattr(scheme, name, wrapped)

    recording("lg1_material_terms", feet)
    recording("ab2_material_terms", feet)
    recording("quadratic_drag_weight", drag)
    fields = [interpolate(ctx.vspace, setup.u_initial)]
    run(dataclasses.replace(setup, t_final=3.5 * setup.tau),
        observers=[lambda k, t, u, p, d: fields.append(u)])
    assert len(feet) == len(drag) == 3
    nt, nq = ctx.tables.wxarea.shape
    for k in range(3):
        # one evaluation: the feet see a view of the drag's values
        assert drag[k].shape == (nt, nq, 2)
        assert np.shares_memory(feet[k], drag[k])
        assert np.array_equal(feet[k], drag[k].reshape(-1, 2))
        # of the initial velocity, then of 2 u_prev - u_prev2
        theta = fields[0] if k == 0 else FeField(
            ctx.vspace,
            2.0 * fields[k].coefficients - fields[k - 1].coefficients)
        assert np.array_equal(drag[k], ctx.tables.at_quad(theta))


def test_each_history_field_takes_the_data_of_its_own_time(params,
                                                          monkeypatch):
    # the bracket's entry for the field m steps back carries its foot
    # multiple, its coefficient and the Dirichlet data at t_k - m tau; with
    # tau = 0.1 that differs in its last bits from (k - m) tau
    tau, seen = 0.1, []
    setup = make_setup(params, tau=tau, t_final=4.5 * tau,
                       g=lambda p, t: np.full((len(p), 2), t))
    for name in ("lg1_material_terms", "ab2_material_terms"):
        def recording(history, *args, original=getattr(scheme, name)):
            seen.append([(m, c, g(np.zeros((1, 2)))[0, 0])
                         for _, m, c, g in history])
            return original(history, *args)
        monkeypatch.setattr(scheme, name, recording)
    run(setup)
    assert seen == [[(1, 1.0, 0.0)]] + [
        [(1, 4.0, k * tau - tau), (2, -1.0, k * tau - 2 * tau)]
        for k in range(2, 5)]
    assert 3 * tau - 2 * tau != (3 - 2) * tau


class _StaleLUSolver(StepSolver):
    """A run's solver whose held factor, after each solve, is the LU of the
    identity instead, which no longer fits: GMRES with it misses the stop."""

    def solve(self, *args, **kwargs):
        result = super().solve(*args, **kwargs)
        self._lu = identity_lu(self)
        return result


def test_run_replaces_lu_that_misses_target(mms_case, monkeypatch):
    setup = _two_layer_setup(mms_case)
    fresh = _fresh_steps(setup)
    monkeypatch.setattr(scheme, "StepSolver", _StaleLUSolver)
    steps = _run_steps(setup)
    _assert_same_fields(steps, fresh)
    diags = [d for _, _, d in steps]
    assert all(d["factorized"] for d in diags)
    # each step refines its solution with its new factor
    assert all(1 <= d["krylov_iterations"] <= 5 for d in diags)


def _growing_inflow_setup(mms_case):
    """The two-layer channel at n=12 with Dirichlet walls, a stress-free
    outlet and an inflow that grows in time."""
    case = get_case("two-layer")
    ctx = make_context(build_case_mesh(case, 12), case.porosity, case.params)
    tau = case.nominal_h(12)
    return ProblemSetup(ctx=ctx, u_initial=case.u_initial,
                        dirichlet=lambda p, t: (1.0 + t) * case.u_initial(p),
                        tau=tau, t_final=6.5 * tau)


def _step_system(setup, kind, t, theta, rhs):
    """The step system of ``kind`` at time ``t`` twice: the reference, with
    the velocity block assembled from its sparse parts, the quadratic drag
    by the tests' ``einsum`` mass matrix, and the mass-type part as one
    quadrature-point weight with the values of the run's table."""
    ctx = setup.ctx
    a0, b = global_blocks(ctx, *setup.constant_blocks())
    rho_tau = ctx.params.rho / setup.tau
    m_scale = rho_tau if kind == "initial" else 1.5 * rho_tau
    c1 = _vector_mass(ctx, quadratic_drag_weight(ctx.tables.at_quad(theta),
                                                 ctx))
    reference = ReferenceSystem(ctx, m_scale * mass_matrix(ctx) + a0
                                + assemble_c0(ctx) + c1, b, rhs,
                                constraints=Constraints.build(ctx))
    reference.apply_dirichlet(setup.dirichlet, t)
    weight = m_scale + ctx.linear_drag + quadratic_drag_weight(
        ctx.tables.at_quad(theta), ctx)
    return reference, weight, setup.constraints.values(setup.dirichlet, t)


@pytest.mark.parametrize("make", [_mms_setup, _two_layer_setup,
                                  _growing_inflow_setup],
                         ids=["mms-gauged", "two-layer-stress-free",
                              "two-layer-growing-inflow"])
def test_step_operator_matches_reference_elimination(mms_case, make, rng):
    setup = make(mms_case)
    ctx, tau = setup.ctx, setup.tau
    u0 = interpolate(ctx.vspace, setup.u_initial)
    theta = FeField(ctx.vspace, u0.coefficients
                    + 0.1 * rng.normal(size=u0.coefficients.size))
    rhs = rng.normal(size=ctx.vspace.dof_count)
    solver = StepSolver(ctx, *setup.constant_blocks(), setup.constraints)
    pattern, fixed_values = solver._constant, []
    # the solver numbers the unknowns in their dissection order: the
    # reference system is renumbered the same way
    position = nested_dissection(ctx, setup.constraints.fixed,
                                 setup.constraints.gauge)
    order = np.argsort(position)   # the unknown at each place
    # both step kinds, at two times of the time-dependent Dirichlet data
    for kind, t, field in (("initial", tau, u0), ("general", 3 * tau, theta)):
        reference, weight, values = _step_system(setup, kind, t, field, rhs)
        k_ref, rhs_ref, fixed_ref, values_ref = reference.constrained()
        k_ref, rhs_ref = renumbered(k_ref, position), rhs_ref[order]
        k, rhs_k = solver.assemble(weight, reference.full_rhs()[order],
                                   values)
        assert np.array_equal(setup.constraints.fixed, fixed_ref) \
            and fixed_ref.size
        assert np.array_equal(values, values_ref)
        fixed_values.append(values)
        scale = abs(k_ref).max()
        assert abs(k - k_ref).max() <= 1e-14 * scale
        assert np.abs(rhs_k - rhs_ref).max() \
            <= 1e-14 * np.abs(rhs_ref).max()
        # same pattern: the operator holds every reference entry, and the
        # entries the reference leaves out are round-off that its sparse
        # sums cancelled to exact zeros (P2 mass entries between a vertex
        # and an adjacent midpoint vanish in exact arithmetic)
        ref_nonzero = abs(k_ref) > 0
        assert ref_nonzero.multiply(abs(k) > 0).nnz == ref_nonzero.nnz
        big = k.copy()
        big.data[np.abs(big.data) <= 1e-14 * scale] = 0.0
        big.eliminate_zeros()
        assert (abs(big) > 0).multiply(abs(k_ref) > 0).nnz == big.nnz
    assert solver._constant is pattern   # built once for both kinds
    if make is not _two_layer_setup:   # its inflow is steady
        assert not np.array_equal(*fixed_values)


@pytest.mark.parametrize("make", [_mms_setup, _two_layer_setup],
                         ids=["mms", "two-layer"])
def test_run_diagnostic_norms_match_fem_norm(mms_case, make):
    setup = make(mms_case)
    checked = []

    def observe(k, t, u, p, d):
        for key, f in (("velocity_l2", u), ("pressure_l2", p)):
            want = norm(f, "L2")
            assert want > 0.0
            assert abs(d[key] - want) <= 1e-13 * want
        checked.append(k)

    run(setup, observers=[observe])
    assert checked == list(range(1, setup.n_steps + 1))

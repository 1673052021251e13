import itertools
import math
import os
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu, spsolve

from porousflow import saddle
from porousflow.assembly import (
    assemble_load,
    divergence_elements,
    make_context,
    pressure_volume_vector,
    quadratic_drag_weight,
    viscous_elements,
)
from porousflow.cases import build_case_mesh, get_case
from porousflow.fem import boundary_nodes, interpolate
from porousflow.mesh import SIDES, generate_rect_mesh
from porousflow.porous import PhysicalParams, builtin_porosity
from porousflow.saddle import (
    Constraints,
    SingularSystemError,
    SolverError,
    StepSolver,
    nested_dissection,
)
from porousflow.scheme import ProblemSetup
from porousflow.verification import steady_stokes_solve
from reference_solve import (FreshSolver, ReferenceSystem, assemble_a0,
                             assemble_b, direct_solve,
                             nested_dissection_reference, renumbered)


def quad_velocity(p):
    x, y = p[:, 0], p[:, 1]
    return np.column_stack([x ** 2 - 3 * y ** 2, -3 * x ** 2 - 2 * x * y])


def stokes_forcing(mu):
    def f(p, t=None):
        n = len(p)
        return np.column_stack([np.full(n, 4 * mu + 2.0),
                                np.full(n, 6 * mu - 3.0)])
    return f


def linear_pressure(p):
    return 2 * p[:, 0] - 3 * p[:, 1] + 1.0


def test_patch_test_polynomial_exactness(unit_ctx, params):
    u, p, rep = steady_stokes_solve(unit_ctx, stokes_forcing(params.mu),
                                    quad_velocity)
    u_err = np.abs(u.node_values()
                   - quad_velocity(unit_ctx.vspace.node_coords)).max()
    p_exact = interpolate(unit_ctx.pspace, linear_pressure)
    from porousflow.fem import field_mean
    shift = field_mean(p_exact)
    p_err = np.abs(p.coefficients - (p_exact.coefficients - shift)).max()
    assert u_err <= 1e-10
    assert p_err <= 1e-10
    assert rep["algebraic_residual"] <= 1e-10
    assert rep["incompressibility_residual"] <= 1e-10


def test_zero_dirichlet_gives_exact_zeros(unit_ctx):
    zero = lambda p: np.zeros((len(p), 2))
    u, p, rep = steady_stokes_solve(unit_ctx, zero, zero)
    nodes = boundary_nodes(unit_ctx.vspace)
    vals = u.node_values()[nodes]
    assert (vals == 0.0).all()


def test_constant_dirichlet_reproduced(unit_ctx):
    c = np.array([0.8, -0.3])
    g = lambda p: np.broadcast_to(c, (len(p), 2)).copy()
    f = lambda p, t=None: np.zeros((len(p), 2))
    u, p, rep = steady_stokes_solve(unit_ctx, f, g)
    assert np.abs(u.node_values() - c).max() < 1e-10
    assert np.abs(p.coefficients).max() < 1e-9


def test_dirichlet_values_bit_for_bit(unit_ctx):
    g = lambda p: np.column_stack([np.sin(3 * p[:, 0]) * p[:, 1],
                                   np.cos(p[:, 1])])
    table = Constraints.build(unit_ctx)
    solver = StepSolver(unit_ctx, viscous_elements(unit_ctx),
                        divergence_elements(unit_ctx), table)
    u, p, rep = solver.solve(np.ones_like(unit_ctx.tables.wxarea),
                             np.zeros(unit_ctx.vspace.dof_count),
                             table.values(g))
    nodes = boundary_nodes(unit_ctx.vspace)
    expected = g(unit_ctx.vspace.node_coords[nodes])
    got = u.node_values()[nodes]
    assert (got == expected).all()  # exactly the prescribed values


def _outlet_ctx(params):
    """The unit square with a stress-free right edge, Dirichlet
    elsewhere."""
    mesh = generate_rect_mesh((0.0, 1.0), (0.0, 1.0), 4,
                              stress_free=("right",))
    return make_context(mesh, builtin_porosity("constant", value=1.0), params)


def test_slip_empty_is_noop(unit_ctx):
    # the table fixes both components of each Dirichlet node and nothing
    # else
    table = Constraints.build(unit_ctx)
    assert table.fixed.size == 2 * len(table.points)


def test_constraint_table_matches_the_tagged_nodes(unit_ctx, params):
    ctx = _outlet_ctx(params)
    table = Constraints.build(ctx)
    coords = ctx.vspace.node_coords
    dirichlet = boundary_nodes(ctx.vspace)
    # the left, bottom and top sides, the outlet's corners included
    on_wall = (np.abs(coords[:, 0]) < 1e-12) \
        | (np.abs(coords[:, 1] - 0.5) > 0.5 - 1e-12)
    assert np.array_equal(np.flatnonzero(on_wall), dirichlet)
    want = np.concatenate([2 * dirichlet, 2 * dirichlet + 1])
    assert np.array_equal(table.fixed, np.sort(want))
    assert np.array_equal(table.points, coords[dirichlet])
    assert np.array_equal(table.fixed.reshape(-1, 2),
                          2 * dirichlet[:, None] + [0, 1])
    # the stress-free outlet fixes the pressure level: no gauge
    assert not table.gauge
    # without a stress-free edge nothing does: the table is gauged
    assert Constraints.build(unit_ctx).gauge


def _divergence_free_data(p):
    """Dirichlet data with zero net flux, as an all-Dirichlet boundary
    needs."""
    x, y = p[:, 0], p[:, 1]
    return np.column_stack([2 * x * y, -y ** 2])


@pytest.mark.parametrize("outlet", [False, True],
                         ids=["unit-square", "stress-free-outlet"])
def test_steady_stokes_solve_matches_the_reference(unit_ctx, params, outlet,
                                                   monkeypatch):
    ctx = _outlet_ctx(params) if outlet else unit_ctx
    matrices = []
    assemble = StepSolver.assemble

    def recording(self, *args):
        k, rhs = assemble(self, *args)
        matrices.append(k)
        return k, rhs

    monkeypatch.setattr(StepSolver, "assemble", recording)
    u, p, rep = steady_stokes_solve(ctx, stokes_forcing(params.mu),
                                    quad_velocity)
    # one step system, of zero weight
    assert len(matrices) == 1
    reference = ReferenceSystem(ctx, assemble_a0(ctx), assemble_b(ctx),
                                assemble_load(stokes_forcing(params.mu), ctx,
                                              None),
                                constraints=Constraints.build(ctx))
    u_ref, p_ref, ref = reference.apply_dirichlet(quad_velocity).solve()
    assert rep["factorized"] and 1 <= rep["krylov_iterations"] <= 5
    for got, want in ((u, u_ref), (p, p_ref)):
        assert np.abs(got.coefficients - want.coefficients).max() \
            <= 1e-12 * np.abs(want.coefficients).max()
    assert rep["incompressibility_residual"] <= 1e-10


def test_steady_stokes_solve_gauges_without_stress_free_edge(params):
    # an all-Dirichlet square, so no edge fixes the pressure level
    mesh = generate_rect_mesh((0.0, 1.0), (0.0, 1.0), 6)
    ctx = make_context(mesh, builtin_porosity("constant", value=1.0), params)
    assert Constraints.build(ctx).gauge
    u, p, rep = steady_stokes_solve(ctx, stokes_forcing(params.mu),
                                    _divergence_free_data)
    assert np.abs(p.coefficients).max() > 1e-3
    c = pressure_volume_vector(ctx)
    assert abs(c @ p.coefficients) <= 1e-12 * np.abs(p.coefficients).max()


def test_gauge_zero_mean(unit_ctx, params):
    u, p, rep = steady_stokes_solve(unit_ctx, stokes_forcing(params.mu),
                                    quad_velocity)
    c = pressure_volume_vector(unit_ctx)
    assert abs(c @ p.coefficients) <= 1e-10


def test_gauge_invariance_to_pressure_rhs_shift(unit_ctx, params):
    a0 = assemble_a0(unit_ctx)
    b = assemble_b(unit_ctx)
    rhs = assemble_load(stokes_forcing(params.mu), unit_ctx, None)
    sol = []
    for beta in (0.0, 0.7):
        shift = beta * pressure_volume_vector(unit_ctx)
        system = ReferenceSystem(unit_ctx, a0, b, rhs, rhs_pressure=shift,
                                 constraints=Constraints.build(unit_ctx))
        system.apply_dirichlet(quad_velocity)
        u, p, rep = system.solve()
        sol.append(u.coefficients)
    assert np.abs(sol[0] - sol[1]).max() < 1e-9


def test_identity_dominated_known_solution(unit_ctx, rng):
    nv = unit_ctx.vspace.dof_count
    b = assemble_b(unit_ctx)
    x_known = rng.normal(size=nv)
    system = ReferenceSystem(unit_ctx, sp.identity(nv, format="csr"), b,
                             x_known, rhs_pressure=b @ x_known)
    u, p, rep = system.solve()
    assert np.abs(u.coefficients - x_known).max() < 1e-12
    assert np.abs(p.coefficients).max() < 1e-12


def test_singular_system_detected(unit_ctx):
    # steady viscous block with no constraints: rigid motions in the kernel,
    # and a body force that has no solution in its range
    rhs = assemble_load(lambda p: np.column_stack(
        [np.ones(len(p)), np.zeros(len(p))]), unit_ctx, None)
    system = ReferenceSystem(unit_ctx, assemble_a0(unit_ctx),
                             assemble_b(unit_ctx), rhs)
    with pytest.raises(SingularSystemError):
        system.solve()


def test_nan_rhs_rejected(unit_ctx):
    rhs = np.zeros(unit_ctx.vspace.dof_count)
    rhs[0] = np.nan
    solver = _drag_solver(unit_ctx)
    with pytest.raises(SolverError):
        solver.solve(np.ones_like(unit_ctx.tables.wxarea), rhs,
                     solver.constraints.values(quad_velocity))


def test_non_finite_dirichlet_data_rejected(unit_ctx):
    # a NaN or infinite boundary velocity names its count and first node's
    # coordinates; unchecked it cost a factorization and a full restart
    # cycle before failing as a singular system
    table = Constraints.build(unit_ctx)
    nd = len(table.points)
    for bad in (np.nan, np.inf, -np.inf):
        def g(p, t):
            out = np.zeros((len(p), 2))
            out[[3, nd - 1], 1] = bad
            return out

        first = re.escape(f"{table.points[3].tolist()}: {[0.0, bad]}")
        with pytest.raises(ValueError,
                           match=rf"^Dirichlet data not finite at 2 of {nd} "
                                 rf"points, first at {first}$"):
            table.values(g, 0.5)
    node = table.fixed[6] // 2
    assert np.array_equal(unit_ctx.vspace.node_coords[node], table.points[3])


def _drag_solver(ctx, kind=StepSolver):
    """A run's solver, or its from-scratch stand-in, for the viscous block
    under the gauged table."""
    return kind(ctx, viscous_elements(ctx), divergence_elements(ctx),
                Constraints.build(ctx))


def _drag_solve(solver, drag, rhs, key=None):
    """Solve the viscous block plus the mass matrix weighted by ``drag``."""
    return solver.solve(np.full(solver.ctx.tables.wxarea.shape, drag), rhs,
                        solver.constraints.values(quad_velocity), key)


def test_step_solver_reuses_lu_for_same_key(unit_ctx, params):
    rhs = assemble_load(stokes_forcing(params.mu), unit_ctx, None)
    solver = _drag_solver(unit_ctx)
    _, _, first = _drag_solve(solver, 1.0, rhs, "general")
    u, p, rep = _drag_solve(solver, 1.3, rhs, "general")
    u_ref, p_ref, ref = _drag_solve(_drag_solver(unit_ctx, FreshSolver), 1.3,
                                    rhs)
    assert first["factorized"] and 1 <= first["krylov_iterations"] <= 5
    assert not rep["factorized"] and rep["krylov_iterations"] > 0
    assert ref["factorized"] and ref["krylov_iterations"] == 0
    assert rep["algebraic_residual"] <= saddle.KRYLOV_RTOL
    assert np.abs(u.coefficients - u_ref.coefficients).max() \
        <= 1e-12 * np.abs(u_ref.coefficients).max()
    assert np.abs(p.coefficients - p_ref.coefficients).max() \
        <= 1e-12 * np.abs(p_ref.coefficients).max()
    # another key never uses the held factorization; this repeats the last
    # system, so the start projected on past solutions already meets the
    # stop of the new factor's refinement
    _, _, other = _drag_solve(solver, 1.3, rhs, "initial")
    assert other["factorized"] and other["krylov_iterations"] == 0


def test_factor_input_shares_the_held_index_arrays(unit_ctx, params,
                                                   monkeypatch):
    # only the data is converted to single precision: the factor input
    # shares the held matrix's index arrays, which splu leaves as they are
    rhs = assemble_load(stokes_forcing(params.mu), unit_ctx, None)
    solver = _drag_solver(unit_ctx)
    held = solver._constant
    indices, indptr = held.indices.copy(), held.indptr.copy()
    inputs = []
    splu = saddle.splu

    def recording_splu(a, *args, **kwargs):
        inputs.append(a)
        return splu(a, *args, **kwargs)

    monkeypatch.setattr(saddle, "splu", recording_splu)
    _, _, rep = _drag_solve(solver, 1.0, rhs, "general")
    assert rep["factorized"] and len(inputs) == 1
    single = inputs[0]
    assert np.shares_memory(single.indices, held.indices)
    assert np.shares_memory(single.indptr, held.indptr)
    assert np.array_equal(held.indices, indices)
    assert np.array_equal(held.indptr, indptr)
    k, _ = solver.assemble(np.full(unit_ctx.tables.wxarea.shape, 1.0),
                           np.zeros(held.shape[0]),
                           solver.constraints.values(quad_velocity))
    assert single.dtype == np.float32
    assert np.array_equal(single.data, k.data.astype(np.float32))


def identity_lu(solver):
    """The LU of the identity, which as the held factor of ``solver`` no
    longer fits its systems: GMRES with it misses the stop."""
    n = solver._constant.shape[0]
    return splu(sp.identity(n, dtype=np.float32, format="csc"))


def test_step_solver_replaces_lu_that_misses_target(unit_ctx, params,
                                                    monkeypatch):
    rhs = assemble_load(stokes_forcing(params.mu), unit_ctx, None)
    solver = _drag_solver(unit_ctx)
    _drag_solve(solver, 1.0, rhs, "general")
    solver.factor = solver.factor._replace(lu=identity_lu(solver))
    held = solver.factor
    held_at_factorization = []
    splu = saddle.splu

    def recording_splu(*args, **kwargs):
        held_at_factorization.append(solver.factor)
        return splu(*args, **kwargs)

    monkeypatch.setattr(saddle, "splu", recording_splu)
    u, p, rep = _drag_solve(solver, 3.0, rhs, "general")
    u_ref, p_ref, _ = _drag_solve(_drag_solver(unit_ctx, FreshSolver), 3.0,
                                  rhs)
    assert rep["factorized"] and 1 <= rep["krylov_iterations"] <= 5
    assert held_at_factorization == [None]   # the old factor was dropped
    assert solver.factor is not None and solver.factor is not held
    assert solver.factor.lu is not held.lu
    assert rep["algebraic_residual"] <= 1e-12
    for got, want in ((u, u_ref), (p, p_ref)):
        assert np.abs(got.coefficients - want.coefficients).max() \
            <= 1e-12 * np.abs(want.coefficients).max()


@pytest.mark.parametrize("name, value", [("KRYLOV_MAX_ITERATIONS", 1),
                                         ("RESIDUAL_BOUND", 1e-20)],
                         ids=["misses-stop", "above-bound"])
def test_step_solver_raises_when_refinement_fails(unit_ctx, params,
                                                  monkeypatch, name, value):
    # one iteration with a single-precision factor cannot reach the stop,
    # and no float64 solve reaches a relative residual of 1e-20
    rhs = assemble_load(stokes_forcing(params.mu), unit_ctx, None)
    solver = _drag_solver(unit_ctx)
    monkeypatch.setattr(saddle, name, value)
    with pytest.raises(SingularSystemError, match="GMRES with a new LU"):
        _drag_solve(solver, 1.0, rhs, "general")
    assert solver.factor is None


def test_step_solver_holds_a_single_precision_factor(unit_ctx, params):
    rhs = assemble_load(stokes_forcing(params.mu), unit_ctx, None)
    solver = _drag_solver(unit_ctx)
    _drag_solve(solver, 1.0, rhs, "general")
    assert solver.factor.lu.L.dtype == np.float32
    assert solver.factor.lu.U.dtype == np.float32


def test_step_solver_state_is_its_factor_and_past(unit_ctx, params,
                                                  monkeypatch):
    # what a solve depends on besides its system: the held Factor, the same
    # object while its LU is reused and a new one per factorization, and a
    # read-only view of the ring of raw solutions in storage order, taken
    # before the fixed values and the gauge shift were applied
    rhs = assemble_load(stokes_forcing(params.mu), unit_ctx, None)
    solver = _drag_solver(unit_ctx)
    table = solver.constraints
    raw, solve = [], solver._solve

    def recording(*args):
        out = solve(*args)
        raw.append(out[0].copy())
        return out

    monkeypatch.setattr(solver, "_solve", recording)
    assert solver.factor is None and len(solver.past) == 0
    position = nested_dissection(unit_ctx, table.fixed, table.gauge)
    nv, nq = unit_ctx.vspace.dof_count, unit_ctx.pspace.dof_count
    free = np.ones(nv, dtype=bool)
    free[table.fixed] = False
    gauge = pressure_volume_vector(unit_ctx)
    ring = np.empty((saddle.GUESS_HISTORY, len(position)))
    held = None
    for i, (drag, key) in enumerate([(1.0, "general"), (1.3, "general"),
                                     (1.6, "general"), (1.3, "initial")]):
        u, p, rep = _drag_solve(solver, drag, rhs, key)
        factor = solver.factor
        assert rep["factorized"] == (i in (0, 3))
        if rep["factorized"]:   # a new Factor, also on a key change
            assert isinstance(factor, saddle.Factor) and factor is not held
            assert factor.key == key
            assert factor.residual == rep["algebraic_residual"]
        else:
            assert factor is held
        held = factor
        ring[i % saddle.GUESS_HISTORY] = raw[i]
        past = solver.past
        assert len(past) == min(i + 1, saddle.GUESS_HISTORY)
        assert np.array_equal(past, ring[:len(past)])
        # the fields are the raw solution with its fixed values set and its
        # pressure shifted, which the ring does not see
        x = raw[i]
        values = table.values(quad_velocity)
        u_raw, p_raw = x[position[:nv]], x[position[nv:nv + nq]]
        shift = (gauge @ p_raw) / float(unit_ctx.mesh.areas.sum())
        assert not np.array_equal(u_raw[table.fixed], values) or shift != 0.0
        assert np.array_equal(u.coefficients[free], u_raw[free])
        assert np.array_equal(u.coefficients[table.fixed], values)
        assert np.array_equal(p.coefficients, p_raw - shift)
    # the fourth solve replaced row 0, the first solve's
    assert np.array_equal(solver.past[0], raw[3])
    assert not np.array_equal(raw[3], raw[0])
    with pytest.raises(ValueError):
        solver.past[0, 0] = 1.0
    # a failed refinement leaves no factor and the ring as it was
    monkeypatch.setattr(saddle, "KRYLOV_MAX_ITERATIONS", 1)
    with pytest.raises(SingularSystemError):
        _drag_solve(solver, 2.0, rhs, "other")
    assert solver.factor is None
    assert np.array_equal(solver.past, ring)


class _CountingLU:
    """Stands in for a held factorization, counts its solves and records
    how each applied it."""

    def __init__(self, lu):
        self.lu = lu
        self.calls = 0
        self.trans = []

    def solve(self, rhs, trans="N"):
        self.calls += 1
        self.trans.append(trans)
        return self.lu.solve(rhs, trans=trans)


def test_step_solver_solves_with_lu_once_per_iteration(unit_ctx, params):
    rhs = assemble_load(stokes_forcing(params.mu), unit_ctx, None)
    solver = _drag_solver(unit_ctx)
    _drag_solve(solver, 1.0, rhs, "general")
    counting = _CountingLU(solver.factor.lu)
    solver.factor = solver.factor._replace(lu=counting)
    _, _, rep = _drag_solve(solver, 1.3, rhs, "general")
    assert not rep["factorized"] and rep["krylov_iterations"] > 0
    # the start, projected on past solutions, takes no LU solve; then one
    # preconditioned direction each, the LU of the transposed matrix applied
    # transposed
    assert counting.calls == rep["krylov_iterations"]
    assert counting.trans == ["T"] * counting.calls
    assert rep["algebraic_residual"] <= saddle.KRYLOV_RTOL


def test_step_solver_repeated_system_needs_no_iteration(unit_ctx, params):
    rhs = assemble_load(stokes_forcing(params.mu), unit_ctx, None)
    solver = _drag_solver(unit_ctx)
    u0, p0, first = _drag_solve(solver, 1.3, rhs, "general")
    counting = _CountingLU(solver.factor.lu)
    solver.factor = solver.factor._replace(lu=counting)
    u, p, rep = _drag_solve(solver, 1.3, rhs, "general")
    # the past solution already meets the stop
    assert first["factorized"] and not rep["factorized"]
    assert rep["krylov_iterations"] == 0 and counting.calls == 0
    for got, want in ((u, u0), (p, p0)):
        assert np.abs(got.coefficients - want.coefficients).max() \
            <= 1e-12 * np.abs(want.coefficients).max()


def test_step_solver_keeps_its_pattern(unit_ctx, params):
    rhs = assemble_load(stokes_forcing(params.mu), unit_ctx, None)
    solver = _drag_solver(unit_ctx)
    pattern = solver._constant
    _drag_solve(solver, 1.0, rhs, "general")
    _drag_solve(solver, 1.0, rhs, "general")
    assert solver._constant is pattern
    _drag_solve(solver, 1.3, rhs, "initial")   # another key refactorizes
    assert solver._constant is pattern


# (mesh of resolution n, gauge): a stress-free outlet fixes the pressure
# level, a fully Dirichlet boundary needs the gauge
ORDERING_MESHES = {
    "graded-two-layer": (lambda n: build_case_mesh(get_case("two-layer"), n),
                         False),
    "uniform-gauged": (lambda n: generate_rect_mesh((0.0, 1.0), (0.0, 1.0),
                                                    n), True),
    "uniform-outlet": (lambda n: generate_rect_mesh(
        (0.0, 1.0), (0.0, 1.0), n, stress_free=("right",)), False),
}


@settings(max_examples=30, deadline=None, database=None)
@given(kind=st.sampled_from(sorted(ORDERING_MESHES)), n=st.integers(4, 16),
       seed=st.integers(0, 2 ** 32 - 1))
def test_nested_dissection_separates_and_solves(kind, n, seed):
    make_mesh, gauge = ORDERING_MESHES[kind]
    mesh = make_mesh(n)
    params = get_case("two-layer").params
    ctx = make_context(mesh, builtin_porosity("constant", value=0.6), params)
    rng = np.random.default_rng(seed)
    table = Constraints.build(ctx)
    assert table.gauge == gauge
    system = ReferenceSystem(ctx, assemble_a0(ctx), assemble_b(ctx),
                             rng.normal(size=ctx.vspace.dof_count),
                             mass_weight=rng.uniform(1.0, 3.0,
                                                     ctx.tables.wxarea.shape),
                             constraints=table)
    k, rhs, fixed, _ = system.apply_dirichlet(
        lambda p: rng.normal(size=(len(p), 2))).constrained()
    size = k.shape[0]
    position = nested_dissection(ctx, table.fixed, gauge)
    # the reference dissection places every unknown the same way and
    # records its splits
    position_ref, splits = nested_dissection_reference(ctx, table.fixed,
                                                       gauge)
    assert np.array_equal(position, position_ref)
    assert np.array_equal(np.sort(position), np.arange(size))
    # the fixed unknowns first, in the table's order
    assert np.array_equal(position[fixed], np.arange(fixed.size))
    if gauge:
        assert position[-1] == size - 1
    ordered = renumbered(k, position).tocsr()
    assert len(splits)
    for start, middle, separator in splits:
        assert start <= middle <= separator <= size
        left_right = ordered[start:middle, middle:separator]
        assert np.count_nonzero(left_right.data) == 0
        assert np.count_nonzero(ordered[middle:separator,
                                        start:middle].data) == 0
    x, resid = direct_solve(k, rhs, position)
    reference = splu(k.tocsc(), permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=saddle.DIAG_PIVOT_THRESH,
                     options={"SymmetricMode": True}).solve(rhs)
    assert resid <= 1e-12
    assert np.abs(x - reference).max() <= 1e-12 * np.abs(reference).max()


# fixed layouts beside the hypothesis test's, which draws n >= 4: unit
# squares from n = 2 with every side tagging but the all stress-free one,
# and the benchmark meshes
DISSECTION_LAYOUTS = {
    **{f"unit n={n}, stress-free {'+'.join(sides) or 'none'}":
       (lambda n=n, sides=sides: generate_rect_mesh((0.0, 1.0), (0.0, 1.0),
                                                    n, stress_free=sides))
       for n in (2, 3, 5) for r in range(len(SIDES))
       for sides in itertools.combinations(SIDES, r)},
    "two-layer n=60": lambda: build_case_mesh(get_case("two-layer"), 60),
    "mms N=32": lambda: generate_rect_mesh((0.0, math.pi), (0.0, math.pi),
                                           32),
    "sinusoidal n=40": lambda: build_case_mesh(get_case("sinusoidal"), 40),
}


@pytest.mark.parametrize("layout", DISSECTION_LAYOUTS)
def test_nested_dissection_is_bitwise_the_reference(layout, params):
    ctx = make_context(DISSECTION_LAYOUTS[layout](),
                       builtin_porosity("constant", value=0.6), params)
    table = Constraints.build(ctx)
    position = nested_dissection(ctx, table.fixed, table.gauge)
    reference, _ = nested_dissection_reference(ctx, table.fixed, table.gauge)
    assert (position.dtype, position.shape) == (reference.dtype,
                                                reference.shape)
    assert position.tobytes() == reference.tobytes()


@pytest.mark.parametrize("kind", sorted(ORDERING_MESHES))
@settings(max_examples=5, deadline=None, database=None)
@given(n=st.integers(4, 16), seed=st.integers(0, 2 ** 32 - 1))
def test_first_solve_matches_the_float64_reference(kind, n, seed):
    # the factorizing solve, by GMRES with the single-precision factor,
    # lands within 1e-12 of the float64 direct solve of the same system
    make_mesh, _ = ORDERING_MESHES[kind]
    ctx = make_context(make_mesh(n), builtin_porosity("constant", value=0.6),
                       get_case("two-layer").params)
    rng = np.random.default_rng(seed)
    table = Constraints.build(ctx)
    weight = rng.uniform(1.0, 3.0, ctx.tables.wxarea.shape)
    load = rng.normal(size=ctx.vspace.dof_count)
    values = table.values(lambda p: rng.normal(size=(len(p), 2)))
    blocks = viscous_elements(ctx), divergence_elements(ctx)
    u, p, rep = StepSolver(ctx, *blocks, table).solve(weight, load, values)
    u_ref, p_ref, _ = FreshSolver(ctx, *blocks, table).solve(weight, load,
                                                            values)
    assert rep["factorized"] and 1 <= rep["krylov_iterations"] <= 5
    for got, want in ((u, u_ref), (p, p_ref)):
        assert np.abs(got.coefficients - want.coefficients).max() \
            <= 1e-12 * np.abs(want.coefficients).max()


@pytest.mark.parametrize("kind", sorted(ORDERING_MESHES))
def test_transposed_lu_solves_the_step_system(kind, monkeypatch):
    # the factor input is the transposed step matrix, so the held LU
    # applied transposed solves the step system to single precision, and
    # so does the LU applied as built, since the step matrix differs from
    # its transpose by round-off only (relative residuals measured 3.8e-7
    # to 7.9e-6 either way)
    ctx = make_context(ORDERING_MESHES[kind][0](12),
                       builtin_porosity("constant", value=0.6),
                       get_case("two-layer").params)
    table = Constraints.build(ctx)
    solver = StepSolver(ctx, viscous_elements(ctx), divergence_elements(ctx),
                        table)
    inputs = []
    splu = saddle.splu

    def recording_splu(a, *args, **kwargs):
        inputs.append(a)
        return splu(a, *args, **kwargs)

    monkeypatch.setattr(saddle, "splu", recording_splu)
    rng = np.random.default_rng(3)
    weight = rng.uniform(1.0, 3.0, ctx.tables.wxarea.shape)
    values = table.values(lambda p: rng.normal(size=(len(p), 2)))
    _, _, rep = solver.solve(weight, rng.normal(size=ctx.vspace.dof_count),
                             values)
    assert rep["factorized"] and len(inputs) == 1
    k, _ = solver.assemble(weight, np.zeros(inputs[0].shape[0]), values)
    v = rng.normal(size=k.shape[0])
    for trans in ("T", "N"):
        z = solver.factor.lu.solve(v.astype(np.float32), trans=trans)
        assert z.dtype == np.float32
        assert np.linalg.norm(k @ z - v) <= 1e-4 * np.linalg.norm(v)


@pytest.mark.parametrize("outlet", [False, True],
                         ids=["unit-square", "stress-free-outlet"])
def test_step_solver_solves_the_matrix_it_assembles(unit_ctx, params,
                                                     outlet):
    # the solver rests on no symmetry of the step matrix: with the held
    # constant data of the free-free entries perturbed unsymmetrically, the
    # pattern kept, a factorizing and a reusing solve land on the float64
    # direct solve of the system that assemble returns
    ctx = _outlet_ctx(params) if outlet else unit_ctx
    solver = _drag_solver(ctx)
    held, table = solver._constant, solver.constraints
    assert table.gauge != outlet
    size = held.shape[0]
    # the fixed unknowns take the first places, the gauge multiplier the
    # last, and neither row nor column is perturbed
    first, end = table.fixed.size, size - int(table.gauge)
    rows = np.repeat(np.arange(size), np.diff(held.indptr))
    inner = ((first <= rows) & (rows < end) & (first <= held.indices)
             & (held.indices < end))
    rng = np.random.default_rng(5)
    held.data[inner] *= 1.0 + 1e-3 * rng.uniform(-1.0, 1.0, inner.sum())
    position = solver._position
    nv, nq = ctx.vspace.dof_count, ctx.pspace.dof_count
    load = rng.normal(size=nv)
    values = table.values(quad_velocity)
    for drag, factorized in ((1.0, True), (1.3, False)):
        weight = np.full(ctx.tables.wxarea.shape, drag)
        u, p, rep = solver.solve(weight, load, values, "general")
        assert rep["factorized"] == factorized
        rhs = np.zeros(size)
        rhs[position[:nv]] = load
        k, rhs = solver.assemble(weight, rhs, values)
        x = spsolve(k.tocsc(), rhs)
        for got, want in ((u, x[position[:nv]]),
                          (p, x[position[nv:nv + nq]])):
            assert np.abs(got.coefficients - want).max() \
                <= 1e-12 * np.abs(want).max()


def _vortex(p):
    x, y = p[:, 0], p[:, 1]
    return np.column_stack([np.sin(np.pi * x) * np.cos(np.pi * y),
                            -np.cos(np.pi * x) * np.sin(np.pi * y)])


# the parameter extremes of the single-precision factor, each beside the
# defaults tau = 0.05, mu = 8.89e-3 and constant phi = 0.6, with the largest
# distance of a solve from the float64 direct solve allowed there, then the
# largest distance of the float64 direct solve from the long-double-refined
# solution (ReferenceSystem.refined) allowed there; the step solve's
# distance from that refined solution is bounded by REFINED_STEP_BOUND at
# every extreme
EXTREMES = {"tau=1e-7": ("tau", 1e-7, 2e-8, 3e-9),
            "tau=10": ("tau", 10.0, 1e-12, 1e-14),
            "mu=1e-7": ("mu", 1e-7, 1e-12, 2e-14),
            "mu=1e3": ("mu", 1e3, 5e-8, 1e-8),
            "phi=0.05": ("phi", 0.05, 2e-10, 4e-11)}
REFINED_STEP_BOUND = 5e-13


@pytest.mark.parametrize("kind", ["uniform-gauged", "uniform-outlet"])
@pytest.mark.parametrize("extreme", sorted(EXTREMES))
def test_solver_at_parameter_extremes(kind, extreme):
    """Two general steps on n=12, the quadratic drag linearized around a
    vortex that grows by 10% per step: the first factorizes and the second
    reuses its LU.  Each lands on the float64 direct solve (FreshSolver)
    within the bound of EXTREMES, on the solution refined with long-double
    residuals within REFINED_STEP_BOUND, and satisfies the momentum rows of
    the reference system to 1e-12, or raises SingularSystemError; the
    float64 direct solve lies on the refined solution within the second
    bound of EXTREMES.

    Measured (gauged / outlet): GMRES iterations of the factorizing and the
    reusing solve 8, 7 / 11, 9 at tau=1e-7; 3, 6 / 3, 6 at tau=10; 3, 8 /
    3, 8 at mu=1e-7; 9, 7 / 11, 9 at mu=1e3; 4, 5 / 4, 5 at phi=0.05.
    Largest relative distance of the step solve from the float64 solve:
    2.3e-10 / 2.7e-10 at tau=1e-7, 1.2e-9 / 3.9e-10 at mu=1e3, 3.9e-12 /
    3.3e-12 at phi=0.05 and below 1e-14 elsewhere; momentum residuals below
    1e-14.  The refined solution converges in three sweeps (the fourth
    correction is below 1e-18), and the step solve lies within 4.1e-14 of
    it at every extreme, the float64 direct solve within 2.7e-10, 1.1e-15,
    1.8e-15, 1.2e-9 and 3.9e-12 at tau=1e-7, tau=10, mu=1e-7, mu=1e3 and
    phi=0.05: where the velocity block is dominated by a mass-type weight
    of 2e5-3e7 against a unit divergence block, the distance of the first
    bound of EXTREMES is the direct solve's own error, not the step
    solve's.  The bounds stand about ten times above the measured
    distances.
    """
    name, value, bound, direct_bound = EXTREMES[extreme]
    setting = {"tau": 0.05, "mu": PhysicalParams().mu, "phi": 0.6,
               name: value}
    params = PhysicalParams(mu=setting["mu"])
    ctx = make_context(ORDERING_MESHES[kind][0](12),
                       builtin_porosity("constant", value=setting["phi"]),
                       params)
    table = Constraints.build(ctx)
    blocks = viscous_elements(ctx), divergence_elements(ctx)
    solver, fresh = StepSolver(ctx, *blocks, table), FreshSolver(ctx, *blocks,
                                                                 table)
    rng = np.random.default_rng(7)
    nv = ctx.vspace.dof_count
    for step in (1, 2):
        grown = lambda p: (1.0 + 0.1 * step) * _vortex(p)
        weight = 1.5 * params.rho / setting["tau"] + ctx.linear_drag \
            + quadratic_drag_weight(
                ctx.tables.at_quad(interpolate(ctx.vspace, grown)), ctx)
        load = rng.normal(size=nv)
        values = table.values(grown)
        try:
            u, p, rep = solver.solve(weight, load, values, "general")
        except SingularSystemError:
            return   # loud, and the next solve would factorize again
        assert rep["factorized"] == (step == 1)
        u_ref, p_ref, _ = fresh.solve(weight, load, values)
        for got, want in ((u, u_ref), (p, p_ref)):
            assert np.abs(got.coefficients - want.coefficients).max() \
                <= bound * np.abs(want.coefficients).max()
        system = ReferenceSystem(ctx, fresh.a_block, fresh.b_block, load,
                                 mass_weight=weight, constraints=table)
        system.values = values
        u_long, p_long, last = system.refined()
        assert last <= 1e-17   # converged to long-double accuracy
        for got, want, limit in ((u, u_long, REFINED_STEP_BOUND),
                                 (p, p_long, REFINED_STEP_BOUND),
                                 (u_ref, u_long, direct_bound),
                                 (p_ref, p_long, direct_bound)):
            assert np.abs(got.coefficients - want).max() \
                <= limit * np.abs(want).max()
        k, rhs, _, _ = system.constrained()
        x = np.zeros(k.shape[0])
        x[:nv + len(p.coefficients)] = np.concatenate([u.coefficients,
                                                        p.coefficients])
        momentum = (k @ x - rhs)[:nv]
        assert np.linalg.norm(momentum) <= 1e-12 * np.linalg.norm(rhs)


@settings(max_examples=20, deadline=None, database=None)
@given(kind=st.sampled_from(["graded-two-layer", "uniform-gauged"]),
       n=st.integers(4, 16), seed=st.integers(0, 2 ** 32 - 1))
def test_step_pattern_depends_on_the_mesh_alone(kind, n, seed):
    # element tables that differ in the last bits, as another summation
    # order of the same forms would make them, give the same stored pattern
    # and the same fill of the first factor: SuperLU's stored entries of L
    # and U (the CSC copies .L and .U leave out entries that are exactly
    # zero, so their counts move with round-off)
    make_mesh, _ = ORDERING_MESHES[kind]
    ctx = make_context(make_mesh(n), builtin_porosity("constant", value=0.6),
                       get_case("two-layer").params)
    rng = np.random.default_rng(seed)
    table = Constraints.build(ctx)
    weight = rng.uniform(1.0, 3.0, ctx.tables.wxarea.shape)
    load = rng.normal(size=ctx.vspace.dof_count)
    values = table.values(lambda p: rng.normal(size=(len(p), 2)))
    a, b = viscous_elements(ctx), divergence_elements(ctx)
    patterns = []
    for scale in (0.0, 1e-15):
        perturbed = [x * (1.0 + scale * rng.uniform(-1.0, 1.0, x.shape))
                     for x in (a, b)]
        solver = StepSolver(ctx, *perturbed, table)
        solver.solve(weight, load, values)
        patterns.append((solver._constant.indptr, solver._constant.indices,
                         solver.factor.lu.nnz))
    (indptr, indices, fill), (indptr_p, indices_p, fill_p) = patterns
    assert np.array_equal(indptr, indptr_p)
    assert np.array_equal(indices, indices_p)
    assert fill == fill_p


def _stress_free(dirichlet):
    """The sides whose entry in ``dirichlet``, in the order of ``SIDES``, is
    ``False``."""
    return tuple(side for side, kind in zip(SIDES, dirichlet) if not kind)


@settings(max_examples=40, deadline=None, database=None)
@given(graded=st.booleans(), n=st.integers(2, 12),
       dirichlet=st.lists(st.booleans(), min_size=4, max_size=4))
def test_constraint_table_of_any_side_tagging(graded, n, dirichlet):
    case = get_case("two-layer")
    x_extent, y_extent = ((case.x_extent, case.y_extent) if graded
                          else ((0.0, 1.0), (0.0, 1.0)))
    mesh = generate_rect_mesh(x_extent, y_extent, n,
                              grading=case.grading if graded else None,
                              stress_free=_stress_free(dirichlet))
    ctx = make_context(mesh, builtin_porosity("constant", value=0.6),
                       case.params)
    table = Constraints.build(ctx)
    # the Dirichlet nodes by a loop over the boundary edges: both ends and
    # the midpoint node of each Dirichlet edge
    nodes = set()
    for e, on_dirichlet in enumerate(mesh.boundary_dirichlet):
        if on_dirichlet:
            nodes.update(mesh.boundary_edges[e].tolist())
            nodes.add(int(ctx.vspace.boundary_midpoints[e]))
    nodes = sorted(nodes)
    assert table.fixed.tolist() == [2 * i + c for i in nodes for c in (0, 1)]
    assert np.array_equal(table.points,
                          ctx.vspace.node_coords[nodes].reshape(-1, 2))
    assert table.gauge == all(dirichlet)
    nd = len(nodes)
    zero = lambda p, t=None: np.zeros((len(p), 2))
    if not nd:
        with pytest.raises(ValueError, match="^a Dirichlet part of the "
                                             "boundary is required$"):
            ProblemSetup(ctx=ctx, u_initial=zero, dirichlet=zero, tau=0.25,
                         t_final=1.0)
    else:
        assert nd > 2
        g = lambda p, t: np.column_stack([p[:, 0] * t, p[:, 1] - t])
        assert np.array_equal(table.values(g, 0.5),
                              g(table.points, 0.5).ravel())
    for shape in ((nd,), (2, nd), (nd, 3)):
        with pytest.raises(ValueError, match="^Dirichlet data of shape"):
            table.values(lambda p: np.ones(shape))


def test_step_solver_orders_once_per_table(unit_ctx, params, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args[1])
        return nested_dissection(*args)

    monkeypatch.setattr(saddle, "nested_dissection", counting)
    rhs = assemble_load(stokes_forcing(params.mu), unit_ctx, None)
    solver = _drag_solver(unit_ctx)
    for kind in ("initial", "general", "initial"):
        _, _, rep = _drag_solve(solver, 1.0, rhs, kind)
        assert rep["factorized"]
    assert len(calls) == 1 and calls[0] is solver.constraints.fixed


_FREED_BLOCK_SCRIPT = textwrap.dedent("""
    import os
    import numpy as np
    from porousflow.assembly import (divergence_elements, make_context,
                                     viscous_elements)
    from porousflow.mesh import generate_rect_mesh
    from porousflow.porous import PhysicalParams, builtin_porosity
    from porousflow.saddle import Constraints, StepSolver

    def rss():
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

    mesh = generate_rect_mesh((0.0, 1.0), (0.0, 1.0), 4)
    ctx = make_context(mesh, builtin_porosity("constant", value=1.0),
                       PhysicalParams())
    a, b = viscous_elements(ctx), divergence_elements(ctx)
    table = Constraints.build(ctx)
    big = np.ones(3 << 20)   # 24 MiB freed: glibc's threshold rises to it
    del big
    StepSolver(ctx, a, b, table)
    block = np.ones(2 << 20)   # 16 MiB
    pin = np.ones(100)         # allocated above the block in the heap
    before = rss()
    del block
    print(before - rss())
""")


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or os.confstr("CS_GNU_LIBC_VERSION") is None,
                    reason="malloc thresholds are set on glibc only")
def test_step_solver_returns_freed_blocks_to_the_system():
    src = os.path.dirname(os.path.dirname(saddle.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", _FREED_BLOCK_SCRIPT],
                         env=env, capture_output=True, text=True, check=True)
    assert int(out.stdout) >= 12 << 20

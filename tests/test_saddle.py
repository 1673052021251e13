import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

from porousflow import saddle
from porousflow.assembly import (
    assemble_load,
    divergence_elements,
    make_context,
    pressure_volume_vector,
    viscous_elements,
)
from porousflow.cases import build_case_mesh, get_case
from porousflow.fem import boundary_nodes, interpolate
from porousflow.mesh import BoundaryTag, generate_rect_mesh
from porousflow.porous import builtin_porosity
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
                             assemble_b, direct_solve)


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
    assert rep.algebraic_residual <= 1e-10
    assert rep.incompressibility_residual <= 1e-10


def test_zero_dirichlet_gives_exact_zeros(unit_ctx):
    zero = lambda p: np.zeros((len(p), 2))
    u, p, rep = steady_stokes_solve(unit_ctx, zero, zero)
    nodes = boundary_nodes(unit_ctx.vspace, {BoundaryTag.DIRICHLET})
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
    nodes = boundary_nodes(unit_ctx.vspace, {BoundaryTag.DIRICHLET})
    expected = g(unit_ctx.vspace.node_coords[nodes])
    got = u.node_values()[nodes]
    assert (got == expected).all()  # exactly the prescribed values


def _outlet_ctx(params):
    """The unit square with a stress-free right edge, Dirichlet
    elsewhere."""
    mesh = generate_rect_mesh((0.0, 1.0), (0.0, 1.0), 4, tag_rule=_outlet_tags)
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
    dirichlet = boundary_nodes(ctx.vspace, {BoundaryTag.DIRICHLET})
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
def test_steady_stokes_solve_matches_the_reference(unit_ctx, params, outlet):
    ctx = _outlet_ctx(params) if outlet else unit_ctx
    u, p, rep = steady_stokes_solve(ctx, stokes_forcing(params.mu),
                                    quad_velocity)
    reference = ReferenceSystem(ctx, assemble_a0(ctx), assemble_b(ctx),
                                assemble_load(stokes_forcing(params.mu), ctx,
                                              None),
                                constraints=Constraints.build(ctx))
    u_ref, p_ref, ref = reference.apply_dirichlet(quad_velocity).solve()
    assert rep.factorized and 1 <= rep.krylov_iterations <= 5
    for got, want in ((u, u_ref), (p, p_ref)):
        assert np.abs(got.coefficients - want.coefficients).max() \
            <= 1e-12 * np.abs(want.coefficients).max()
    assert rep.incompressibility_residual <= 1e-10


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
        system.apply_gauge()
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
    assert first.factorized and 1 <= first.krylov_iterations <= 5
    assert not rep.factorized and rep.krylov_iterations > 0
    assert ref.factorized and ref.krylov_iterations == 0
    assert rep.algebraic_residual <= saddle.KRYLOV_RTOL
    assert np.abs(u.coefficients - u_ref.coefficients).max() \
        <= 1e-12 * np.abs(u_ref.coefficients).max()
    assert np.abs(p.coefficients - p_ref.coefficients).max() \
        <= 1e-12 * np.abs(p_ref.coefficients).max()
    # another key never uses the held factorization; this repeats the last
    # system, so the start projected on past solutions already meets the
    # stop of the new factor's refinement
    _, _, other = _drag_solve(solver, 1.3, rhs, "initial")
    assert other.factorized and other.krylov_iterations == 0


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
    solver._lu = held = identity_lu(solver)
    held_at_factorization = []
    splu = saddle.splu

    def recording_splu(*args, **kwargs):
        held_at_factorization.append(solver._lu)
        return splu(*args, **kwargs)

    monkeypatch.setattr(saddle, "splu", recording_splu)
    u, p, rep = _drag_solve(solver, 3.0, rhs, "general")
    u_ref, p_ref, _ = _drag_solve(_drag_solver(unit_ctx, FreshSolver), 3.0,
                                  rhs)
    assert rep.factorized and 1 <= rep.krylov_iterations <= 5
    assert held_at_factorization == [None]   # the old factor was dropped
    assert solver._lu is not None and solver._lu is not held
    assert rep.algebraic_residual <= 1e-12
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
    assert solver._lu is None


def test_step_solver_holds_a_single_precision_factor(unit_ctx, params):
    rhs = assemble_load(stokes_forcing(params.mu), unit_ctx, None)
    solver = _drag_solver(unit_ctx)
    _drag_solve(solver, 1.0, rhs, "general")
    assert solver._lu.L.dtype == np.float32
    assert solver._lu.U.dtype == np.float32


class _CountingLU:
    """Stands in for a held factorization and counts its solves."""

    def __init__(self, lu):
        self.lu = lu
        self.calls = 0

    def solve(self, rhs):
        self.calls += 1
        return self.lu.solve(rhs)


def test_step_solver_solves_with_lu_once_per_iteration(unit_ctx, params):
    rhs = assemble_load(stokes_forcing(params.mu), unit_ctx, None)
    solver = _drag_solver(unit_ctx)
    _drag_solve(solver, 1.0, rhs, "general")
    solver._lu = counting = _CountingLU(solver._lu)
    _, _, rep = _drag_solve(solver, 1.3, rhs, "general")
    assert not rep.factorized and rep.krylov_iterations > 0
    # the start, projected on past solutions, takes no LU solve; then one
    # preconditioned direction each
    assert counting.calls == rep.krylov_iterations
    assert rep.algebraic_residual <= saddle.KRYLOV_RTOL


def test_step_solver_repeated_system_needs_no_iteration(unit_ctx, params):
    rhs = assemble_load(stokes_forcing(params.mu), unit_ctx, None)
    solver = _drag_solver(unit_ctx)
    u0, p0, first = _drag_solve(solver, 1.3, rhs, "general")
    solver._lu = counting = _CountingLU(solver._lu)
    u, p, rep = _drag_solve(solver, 1.3, rhs, "general")
    # the past solution already meets the stop
    assert first.factorized and not rep.factorized
    assert rep.krylov_iterations == 0 and counting.calls == 0
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


def _outlet_tags(mid):
    return BoundaryTag.STRESS_FREE if mid[0] >= 1.0 - 1e-9 \
        else BoundaryTag.DIRICHLET


# (mesh of resolution n, gauge): a stress-free outlet fixes the pressure
# level, a fully Dirichlet boundary needs the gauge
ORDERING_MESHES = {
    "graded-two-layer": (lambda n: build_case_mesh(get_case("two-layer"), n),
                         False),
    "uniform-gauged": (lambda n: generate_rect_mesh((0.0, 1.0), (0.0, 1.0),
                                                    n), True),
    "uniform-outlet": (lambda n: generate_rect_mesh(
        (0.0, 1.0), (0.0, 1.0), n, tag_rule=_outlet_tags), False),
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
    perm, splits = nested_dissection(ctx, table.fixed, gauge)
    assert np.array_equal(np.sort(perm), np.arange(size))
    assert np.array_equal(np.sort(perm[:fixed.size]), fixed)
    if gauge:
        assert perm[-1] == size - 1
    ordered = k[perm][:, perm].tocsr()
    assert len(splits)
    for start, middle, separator in splits:
        assert start <= middle <= separator <= size
        left_right = ordered[start:middle, middle:separator]
        assert np.count_nonzero(left_right.data) == 0
        assert np.count_nonzero(ordered[middle:separator,
                                        start:middle].data) == 0
    x, resid = direct_solve(k, rhs, perm)
    reference = splu(k.tocsc(), permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=saddle.DIAG_PIVOT_THRESH,
                     options={"SymmetricMode": True}).solve(rhs)
    assert resid <= 1e-12
    assert np.abs(x - reference).max() <= 1e-12 * np.abs(reference).max()


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
    assert rep.factorized and 1 <= rep.krylov_iterations <= 5
    for got, want in ((u, u_ref), (p, p_ref)):
        assert np.abs(got.coefficients - want.coefficients).max() \
            <= 1e-12 * np.abs(want.coefficients).max()


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
                         solver._lu.nnz))
    (indptr, indices, fill), (indptr_p, indices_p, fill_p) = patterns
    assert np.array_equal(indptr, indptr_p)
    assert np.array_equal(indices, indices_p)
    assert fill == fill_p


def _side_rule(kinds, x_extent, y_extent):
    """The tag rule giving each side of the rectangle its kind in
    ``kinds``, in the order left, right, bottom, top."""
    def rule(mid):
        for kind, value, line in zip(
                kinds, (mid[0], mid[0], mid[1], mid[1]),
                (*x_extent, *y_extent)):
            if abs(value - line) <= 1e-9:
                return kind
        raise AssertionError(f"{mid} lies on no side")
    return rule


@settings(max_examples=40, deadline=None, database=None)
@given(graded=st.booleans(), n=st.integers(2, 12),
       kinds=st.lists(st.sampled_from([BoundaryTag.DIRICHLET,
                                       BoundaryTag.STRESS_FREE]),
                      min_size=4, max_size=4))
def test_constraint_table_of_any_side_tagging(graded, n, kinds):
    case = get_case("two-layer")
    x_extent, y_extent = ((case.x_extent, case.y_extent) if graded
                          else ((0.0, 1.0), (0.0, 1.0)))
    mesh = generate_rect_mesh(x_extent, y_extent, n,
                              grading=case.grading if graded else None,
                              tag_rule=_side_rule(kinds, x_extent, y_extent))
    ctx = make_context(mesh, builtin_porosity("constant", value=0.6),
                       case.params)
    table = Constraints.build(ctx)
    # the Dirichlet nodes by a loop over the boundary edges: both ends and
    # the midpoint node of each Dirichlet edge
    nodes = set()
    for e, tag in enumerate(mesh.boundary_tags):
        if tag is BoundaryTag.DIRICHLET:
            nodes.update(mesh.boundary_edges[e].tolist())
            nodes.add(int(ctx.vspace.boundary_midpoints[e]))
    nodes = sorted(nodes)
    assert table.fixed.tolist() == [2 * i + c for i in nodes for c in (0, 1)]
    assert np.array_equal(table.points,
                          ctx.vspace.node_coords[nodes].reshape(-1, 2))
    assert table.gauge == (BoundaryTag.STRESS_FREE not in kinds)
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
        assert rep.factorized
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
